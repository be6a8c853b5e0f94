import base64
import functools
import json
import logging
import tempfile
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netgen import training
from netgen.dataset import (
    Dataset,
    SplitSpec,
    SynthSpec,
    generate_synthetic,
    split,
)
from netgen.encoders import EncoderConfig
from netgen.graphgen import LossWeights, generate_graph
from netgen.interpret import collect_graphs
from netgen.nncore import CheckpointError, Tensor, load_checkpoint
from netgen.predictor import GcnConfig, build_model
from netgen.training import (
    ABLATION_VARIANTS,
    ConfigError,
    TrainConfig,
    TrainedModel,
    _check_ce_curve,
    ablate,
    accuracy,
    auroc,
    compare,
    cross_entropy,
    evaluate,
    load_model,
    save_model,
    sweep,
    total_loss,
    train,
)


def auroc_pairwise_oracle(scores, labels):
    """Exhaustive concordance count: P(pos > neg) with ties worth 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def tiny_dataset(seed=0, n=24, v=6, t=24):
    spec = SynthSpec(v=v, t=t, n=n, modules={"m1": 3, "m2": 3}, planted="m1",
                     effect=2.0, noise=1.0)
    return generate_synthetic(spec, seed=seed)


@functools.lru_cache(maxsize=None)
def tiny_checkpoint_text() -> str:
    """The checkpoint file of a one-epoch model trained on `tiny_dataset()`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        save_model(train(tiny_config(epochs=1), tiny_dataset())[0], path)
        return path.read_text()


def json_leaves(value, prefix=()):
    """The path of every value under a JSON object that is not an object
    itself, and of every array entry."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_leaves(item, prefix + (key,))
        return
    yield prefix
    if isinstance(value, list):
        yield from (prefix + (i,) for i in range(len(value)))


def tiny_config(**overrides):
    base = dict(
        encoder=EncoderConfig(kind="gru", window=8, dim=4),
        predictor=GcnConfig(widths=(8, 8, 4), mlp_hidden=8),
        loss=LossWeights(),
        lr=1e-3,
        batch_size=8,
        epochs=3,
        seed=0,
        split=SplitSpec(0.6, 0.2, 0.2, seed=0),
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.mark.parametrize(
    "cls,bad",
    [(EncoderConfig, {"window": 0}), (GcnConfig, {"pooling": "max"}),
     (LossWeights, {"alpha": -1.0}), (LossWeights, {"beta": float("nan")}),
     (SplitSpec, {"train": 0.5, "val": 0.1, "test": 0.1}), (SynthSpec, {"n": 2}),
     (TrainConfig, {"lr": 0})],
    ids=["EncoderConfig", "GcnConfig", "LossWeights", "LossWeights-nan", "SplitSpec",
         "SynthSpec", "TrainConfig"],
)
def test_config_checks_itself_when_built(cls, bad):
    with pytest.raises(ValueError):
        cls(**bad)
    config, key = cls(), next(iter(bad))
    with pytest.raises(FrozenInstanceError):
        setattr(config, key, getattr(config, key))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_equal_scores(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_hand_checked_value(self):
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            auroc([0.1, 0.2], [1, 1])

    def test_label_outside_binary_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            auroc([0.1, 0.5, 0.9, 0.3, 0.2], [0, 1, 2, 2, 1])

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(2, 51))
            labels = np.zeros(n, dtype=int)
            labels[: int(rng.integers(1, n))] = 1
            rng.shuffle(labels)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n)  # force ties
            assert auroc(scores, labels) == auroc_pairwise_oracle(scores, labels)

    @given(st.integers(0, 100_000), st.sampled_from([np.exp, np.tanh, lambda s: 3 * s + 1]))
    @settings(max_examples=40)
    def test_invariant_under_strictly_increasing_transforms(self, seed, transform):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        scores = rng.standard_normal(n)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auroc(scores, labels) == pytest.approx(auroc(transform(scores), labels), abs=1e-12)

    def test_label_flip_complements_for_tie_free_scores(self):
        rng = np.random.default_rng(1)
        scores = rng.permutation(20) / 20.0
        labels = rng.integers(0, 2, 20)
        labels[0], labels[1] = 0, 1
        assert auroc(scores, labels) + auroc(scores, 1 - labels) == pytest.approx(1.0, abs=1e-12)


class TestAccuracy:
    def test_ties_break_toward_class_zero(self):
        logits = np.array([[0.3, 0.3], [0.1, 0.4]])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert accuracy(logits, np.array([1, 1])) == 0.5

    def test_three_of_four_correct(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        assert accuracy(logits, np.array([0, 0, 1, 0])) == 0.75


class TestTotalLoss:
    def test_zero_weights_reduce_to_cross_entropy(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((6, 2)))
        labels = np.array([0, 1] * 3)
        graphs = generate_graph(Tensor(rng.standard_normal((6, 3, 2))))
        total, comps = total_loss(logits, labels, graphs, LossWeights(0.0, 0.0, 0.0))
        assert total.item() == pytest.approx(comps["ce"], abs=1e-12)

    def test_confident_correct_logits_drive_ce_to_zero(self):
        logits = Tensor(np.array([[30.0, -30.0], [-30.0, 30.0]]))
        ce = cross_entropy(logits, np.array([0, 1]))
        assert ce.item() < 1e-12

    def test_components_recombine(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal((6, 2)))
        labels = np.array([0, 1, 0, 1, 0, 1])
        graphs = generate_graph(Tensor(rng.standard_normal((6, 3, 2))))
        w = LossWeights()  # defaults alpha=beta=1e-3, gamma=1e-4
        total, c = total_loss(logits, labels, graphs, w)
        recombined = c["ce"] + w.alpha * c["intra"] + w.beta * c["inter"] + w.gamma * c["sparsity"]
        assert abs(total.item() - recombined) < 1e-9

    def test_default_weights_match_protocol(self):
        w = LossWeights()
        assert (w.alpha, w.beta, w.gamma) == (1e-3, 1e-3, 1e-4)

    def test_no_graphs_zero_regularizers(self):
        logits = Tensor(np.zeros((4, 2)))
        total, c = total_loss(logits, np.array([0, 1, 0, 1]), None, LossWeights())
        assert c["intra"] == c["inter"] == c["sparsity"] == 0.0
        assert total.item() == pytest.approx(c["ce"], abs=1e-12)


class TestTrain:
    def test_history_length_and_selection(self):
        ds = tiny_dataset()
        tm, hist = train(tiny_config(epochs=4), ds)
        assert len(hist.train) == 4 and len(hist.val) == 4
        best = max(m.auroc for m in hist.val)
        assert hist.val[hist.selected_epoch].auroc == best
        # earliest epoch achieving the max wins
        first = next(i for i, m in enumerate(hist.val) if m.auroc == best)
        assert hist.selected_epoch == first

    def test_same_seed_reproduces_metrics(self):
        ds = tiny_dataset()
        _, hist_a = train(tiny_config(), ds)
        _, hist_b = train(tiny_config(), ds)
        assert [m.auroc for m in hist_a.val] == [m.auroc for m in hist_b.val]
        assert [m.ce for m in hist_a.train] == [m.ce for m in hist_b.train]

    def test_trained_params_are_float64(self):
        ds = tiny_dataset()
        tm, _ = train(tiny_config(epochs=1), ds)
        assert all(p.data.dtype == np.float64 for _, p in tm.model.named_params())

    @pytest.mark.parametrize("pipeline", ["gnn-uniform", "gnn-pearson", "seq-gru"])
    def test_baseline_pipelines_train(self, pipeline):
        ds = tiny_dataset()
        tm, hist = train(tiny_config(epochs=2), ds, pipeline=pipeline)
        assert tm.pipeline == pipeline
        assert len(hist.val) == 2

    def test_zero_validation_ratio_rejected_before_training(self, monkeypatch):
        import netgen.training as training_mod

        monkeypatch.setattr(training_mod, "build_model", None)  # no model gets built
        with pytest.raises(ValueError, match="train.split.val"):
            train(tiny_config(split=SplitSpec(0.8, 0.0, 0.2, seed=0)), tiny_dataset())

    # A CNN of window 16 needs t >= 44; the dataset has t=24.
    @pytest.mark.parametrize(
        "overrides,key",
        [({"split": SplitSpec(0.9, 0.01, 0.09, seed=0)}, "train.split.val"),
         ({"split": SplitSpec(0.8, 0.07, 0.13, seed=0)}, "train.split.val"),
         ({"split": SplitSpec(0.05, 0.475, 0.475, seed=0)}, "train.split.train"),
         ({"encoder": EncoderConfig(kind="cnn", window=16, dim=4)}, "encoder.window 16")],
        ids=["empty-val", "one-class-val", "one-class-train", "cnn-window-too-long"],
    )
    def test_degenerate_split_rejected_before_training(self, monkeypatch, overrides, key):
        import netgen.training as training_mod

        monkeypatch.setattr(training_mod, "build_model", None)  # no model gets built
        with pytest.raises(ConfigError, match=key):
            train(tiny_config(**overrides), tiny_dataset(n=16))

    def test_split_leaving_class_out_rejected(self):
        ds = tiny_dataset(n=24)
        cfg = tiny_config(split=SplitSpec(0.05, 0.475, 0.475, seed=0))
        with pytest.raises(ValueError):
            train(cfg, ds)

    def test_non_finite_loss_aborts_with_location(self, monkeypatch):
        import netgen.training as training_mod

        def poisoned(logits, labels, graphs, weights):
            return Tensor(np.array(np.inf)), {"ce": np.inf, "intra": 0.0,
                                              "inter": 0.0, "sparsity": 0.0}

        monkeypatch.setattr(training_mod, "total_loss", poisoned)
        with pytest.raises(RuntimeError, match="epoch 0, batch 0"):
            train(tiny_config(epochs=1), tiny_dataset())

    # Float32 training tracks float64: every loss component of 5 epochs, train and val,
    # within 5e-3 relative. Measured worst gaps at this size: 2.3e-4 fbnetgen-gru,
    # 1.3e-3 seq-gru, 2.1e-7 gnn-pearson.
    @pytest.mark.parametrize("pipeline", ["fbnetgen-gru", "seq-gru", "gnn-pearson"])
    def test_float32_training_matches_float64(self, monkeypatch, pipeline):
        import netgen.training as training_mod

        ds, cfg = tiny_dataset(), tiny_config(epochs=5)
        _, single = train(cfg, ds, pipeline)
        monkeypatch.setattr(training_mod, "TRAIN_DTYPE", np.float64)
        _, double = train(cfg, ds, pipeline)
        keys = ("ce", "intra", "inter", "sparsity")
        for side in ("train", "val"):
            a, b = ([[getattr(m, k) for k in keys] for m in getattr(h, side)]
                    for h in (single, double))
            assert a != b  # the patch changed the precision
            np.testing.assert_allclose(a, b, rtol=5e-3, atol=0)


class TestEvaluate:
    def test_constant_model_majority_accuracy_and_half_auroc(self):
        ds = tiny_dataset()
        tm, _ = train(tiny_config(epochs=1), ds)
        for _, p in tm.model.named_params():
            p.data = np.zeros_like(p.data)  # constant logits
        metrics = evaluate(tm, ds)
        labels = ds.labels()
        majority = max((labels == 0).mean(), (labels == 1).mean())
        assert metrics.accuracy == pytest.approx(majority)
        assert metrics.auroc == 0.5

    def test_single_class_split_needs_explicit_opt_in(self):
        ds = tiny_dataset()
        tm, _ = train(tiny_config(epochs=1), ds)
        zeros = np.flatnonzero(ds.y == 0)
        single = Dataset(
            ids=[ds.ids[i] for i in zeros],
            x=ds.x[zeros],
            y=ds.y[zeros],
            partition=ds.partition,
            class_names=ds.class_names,
        )
        with pytest.raises(ValueError, match="both classes"):
            evaluate(tm, single)

    def test_deterministic(self):
        ds = tiny_dataset()
        tm, _ = train(tiny_config(epochs=1), ds)
        a = evaluate(tm, ds)
        b = evaluate(tm, ds)
        assert a == b

    @pytest.mark.parametrize(
        "other,message",
        [(dict(t=48), "trained on series of length t=24 but the dataset has t=48"),
         (dict(v=8, modules={"m1": 4, "m2": 4}), "trained on v=6 ROIs but the dataset has v=8")],
        ids=["t", "v"],
    )
    def test_dataset_unlike_the_models_rejected(self, tmp_path, other, message):
        path = tmp_path / "ckpt.json"
        path.write_text(tiny_checkpoint_text())
        tm = load_model(path)
        spec = dict(v=6, t=24, n=24, modules={"m1": 3, "m2": 3}, planted="m1")
        ds = generate_synthetic(SynthSpec(**{**spec, **other}), seed=0)
        for call in (evaluate, collect_graphs):
            with pytest.raises(ConfigError, match=message):
                call(tm, ds)


class TestCheckpointRoundTrip:
    def test_val_metrics_reproduced_bit_exactly(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=2)
        tm, _ = train(cfg, ds)
        _, val_ds, _ = split(ds, cfg.split)
        before = evaluate(tm, val_ds)
        save_model(tm, tmp_path / "ckpt.json")
        loaded = load_model(tmp_path / "ckpt.json")
        after = evaluate(loaded, val_ds)
        assert before == after

    def test_pipeline_and_shape_survive(self, tmp_path):
        ds = tiny_dataset()
        tm, _ = train(tiny_config(epochs=1), ds, pipeline="fbnetgen-gru")
        save_model(tm, tmp_path / "ckpt.json")
        loaded = load_model(tmp_path / "ckpt.json")
        assert loaded.pipeline == "fbnetgen-gru"
        assert loaded.v == ds.v and loaded.t == ds.t
        assert loaded.class_names == ds.class_names

    def test_meta_names_the_encoder_the_pipeline_runs(self, tmp_path):
        tm, _ = train(tiny_config(epochs=1), tiny_dataset(t=40), pipeline="fbnetgen-cnn")
        save_model(tm, tmp_path / "ckpt.json")
        meta = json.loads((tmp_path / "ckpt.json").read_text())["meta"]
        loaded = load_model(tmp_path / "ckpt.json")
        assert tm.config.encoder.kind == meta["encoder"]["kind"] == "cnn"
        assert loaded.config.encoder == tm.config.encoder

    @pytest.mark.parametrize(
        "corrupt,key",
        [
            (lambda doc, a: a.update(data=a["data"][:-16]), "array 'param.encoder.gru0.bwd.b_hh'"),
            (lambda doc, a: a.update(data=a["data"] + "A"), "array 'param.encoder.gru0.bwd.b_hh'"),
            (lambda doc, a: a.update(shape=[a["shape"][0] + 1]),
             "array 'param.encoder.gru0.bwd.b_hh'"),
            (lambda doc, a: doc.pop("arrays"), "'arrays'"),
            (lambda doc, a: doc["meta"].pop("encoder"), "meta.encoder"),
            (lambda doc, a: doc["meta"]["encoder"].update(extra=1), "meta.encoder"),
            (lambda doc, a: doc["meta"]["shape"].update(v="6"), "meta.shape.v"),
            (lambda doc, a: doc["meta"]["shape"].update(v=6.9), "meta.shape.v"),
            (lambda doc, a: doc["meta"]["shape"].update(t=True), "meta.shape.t"),
            (lambda doc, a: doc["meta"]["shape"].update(classes="ab"), "meta.shape.classes"),
            (lambda doc, a: doc["meta"]["loss"].update(gamma=-1), "loss.gamma"),
            (lambda doc, a: doc["meta"]["loss"].update(gamma="x"), "meta.loss.gamma"),
            (lambda doc, a: doc["meta"]["shape"].update(classes=["a", "b", "c"]), "meta.shape"),
            (lambda doc, a: doc["meta"]["shape"].update(classes=["a"]), "meta.shape"),
            (lambda doc, a: doc["meta"]["shape"].update(t=-5), "meta.shape"),
            (lambda doc, a: doc["meta"]["shape"].update(v=1), "meta.shape"),
            (lambda doc, a: a.update(shape=[-1]), "array 'param.encoder.gru0.bwd.b_hh'"),
            (lambda doc, a: a.update(shape=None), "array 'param.encoder.gru0.bwd.b_hh'"),
            (lambda doc, a: a.update(shape=a["shape"][0]), "array 'param.encoder.gru0.bwd.b_hh'"),
        ],
        ids=["truncated-data", "bad-base64", "shape-mismatch", "no-arrays", "no-meta-encoder",
             "extra-meta-encoder-key", "v-string", "v-float", "t-bool", "classes-string",
             "gamma-negative", "gamma-string", "three-classes", "one-class", "t-negative",
             "v-one", "array-shape-minus-one", "array-shape-null", "array-shape-not-array"],
    )
    def test_corrupt_checkpoint_raises_checkpoint_error(self, tmp_path, corrupt, key):
        tm, _ = train(tiny_config(epochs=1), tiny_dataset())
        path = tmp_path / "ckpt.json"
        save_model(tm, path)
        doc = json.loads(path.read_text())
        corrupt(doc, doc["arrays"]["param.encoder.gru0.bwd.b_hh"])
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as exc:
            load_model(path)
        assert str(path) in str(exc.value) and key in str(exc.value)

    # One meta leaf set to a small JSON value, or to 10**8: each meta size is
    # compared with its array before a model is built, so no size allocates.
    small_json = st.recursive(
        st.none() | st.booleans() | st.integers(-2, 40) | st.floats() | st.text(max_size=4)
        | st.sampled_from(["gru", "cnn", "sum", "gnn-uniform", "seq-gru", 10**8]),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                    max_size=2),
        max_leaves=4,
    )

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_meta_fuzz_raises_only_checkpoint_error(self, tmp_path, data):
        path = tmp_path / "ckpt.json"
        doc = json.loads(tiny_checkpoint_text())
        leaf = data.draw(st.sampled_from(sorted(json_leaves(doc["meta"]), key=str)))
        target = doc["meta"]
        for part in leaf[:-1]:
            target = target[part]
        target[leaf[-1]] = data.draw(self.small_json)
        path.write_text(json.dumps(doc))
        try:
            load_model(path)
        except CheckpointError as exc:
            assert str(path) in str(exc)

    # One field of one saved array set to a JSON value, a shape, a dtype
    # name or base64 of some bytes, or deleted.
    array_values = small_json | st.lists(st.integers(-3, 30), max_size=3) | st.sampled_from(
        ["<f8", ">f8", "<f4", "float64"]) | st.binary(max_size=200).map(
        lambda raw: base64.b64encode(raw).decode("ascii"))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_array_fuzz_raises_only_checkpoint_error(self, tmp_path, data):
        path = tmp_path / "ckpt.json"
        doc = json.loads(tiny_checkpoint_text())
        name = data.draw(st.sampled_from(sorted(doc["arrays"])))
        entry, key = doc["arrays"][name], data.draw(st.sampled_from(["shape", "dtype", "data"]))
        if data.draw(st.booleans()):
            del entry[key]
        else:
            entry[key] = data.draw(self.array_values)
        path.write_text(json.dumps(doc))
        try:
            _, arrays = load_checkpoint(path)
        except CheckpointError as exc:
            assert str(path) in str(exc) and f"array '{name}'" in str(exc)
            return
        assert isinstance(entry["shape"], list) and arrays[name].shape == tuple(entry["shape"])
        try:
            load_model(path)
        except CheckpointError as exc:
            assert str(path) in str(exc)

    def test_meta_window_too_big_to_allocate_raises_checkpoint_error(self, tmp_path):
        # A GRU of window 1e8 would ask for 2.4e17-byte weights; the window is
        # compared with the saved weights first, so nothing is allocated.
        tm, _ = train(tiny_config(epochs=1), tiny_dataset())
        path = tmp_path / "ckpt.json"
        save_model(tm, path)
        doc = json.loads(path.read_text())
        doc["meta"]["encoder"]["window"] = 10**8
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="does not fit its model") as exc:
            load_model(path)
        assert str(path) in str(exc.value) and "meta.encoder.window" in str(exc.value)
        assert not isinstance(exc.value.__cause__, MemoryError)

    @pytest.mark.parametrize(
        "pipeline,section,key,value",
        [
            ("fbnetgen-gru", "encoder", "window", 4096),
            ("fbnetgen-cnn", "encoder", "window", 4096),
            ("fbnetgen-gru", "encoder", "dim", 4096),
            ("seq-cnn", "encoder", "dim", 4096),
            ("gnn-pearson", "shape", "v", 4096),
            ("seq-gru", "shape", "v", 4096),
            ("gnn-uniform", "predictor", "widths", [8, 4096]),
            ("fbnetgen-gru", "predictor", "widths", [8, 4, 4096]),
            ("fbnetgen-cnn", "predictor", "mlp_hidden", 4096),
        ],
    )
    def test_meta_size_is_checked_against_its_array_before_build(
            self, tmp_path, monkeypatch, pipeline, section, key, value):
        cfg = tiny_config(encoder=EncoderConfig(kind="cnn" if "cnn" in pipeline else "gru",
                                                window=8, dim=4),
                          predictor=GcnConfig(widths=(8, 4), mlp_hidden=8))
        model = build_model(pipeline, cfg.encoder, cfg.predictor, v=6, seed=0)
        path = tmp_path / "ckpt.json"
        save_model(TrainedModel(model, cfg, pipeline, v=6, t=40, class_names=["0", "1"]), path)
        load_model(path)
        doc = json.loads(path.read_text())
        doc["meta"][section][key] = value
        path.write_text(json.dumps(doc))

        def no_build(*args, **kwargs):
            raise AssertionError("a model was built from meta its arrays refute")

        monkeypatch.setattr(training, "build_model", no_build)
        with pytest.raises(CheckpointError) as exc:
            load_model(path)
        assert str(path) in str(exc.value) and f"meta.{section}.{key}" in str(exc.value)
        assert not isinstance(exc.value.__cause__, MemoryError)


class TestHarnesses:
    def test_ablation_variants_and_structure(self):
        ds = tiny_dataset()
        rows = ablate(tiny_config(epochs=1), ds, seeds=[0, 1])
        assert [r["variant"] for r in rows] == list(ABLATION_VARIANTS)
        for row in rows:
            assert len(row["per_seed"]) == 2
            assert row["mean"] == pytest.approx(float(np.mean(row["per_seed"])))

    def test_ce_variant_weights(self):
        # CE must run with all weights zero, CE+GL without sparsity,
        # CE+SL without group losses
        from netgen.training import _variant_weights

        base = LossWeights(0.5, 0.25, 0.125)
        assert _variant_weights("All", base) == base
        assert _variant_weights("CE", base) == LossWeights(0.0, 0.0, 0.0)
        assert _variant_weights("CE+GL", base) == LossWeights(0.5, 0.25, 0.0)
        assert _variant_weights("CE+SL", base) == LossWeights(0.0, 0.0, 0.125)

    def test_sweep_grid_rows(self):
        ds = tiny_dataset()
        rows = sweep(tiny_config(epochs=1), ds, windows=[4, 8], dims=[2, 4], seeds=[0])
        assert len(rows) == 4
        assert {(r["window"], r["dim"]) for r in rows} == {(4, 2), (4, 4), (8, 2), (8, 4)}

    @pytest.mark.parametrize(
        "harness",
        [
            lambda cfg, ds: [{"auroc": r["auroc"], "accuracy": r["accuracy"]}
                             for r in sweep(cfg, ds, windows=[8], dims=[4], seeds=[0])],
            lambda cfg, ds: [{"auroc": r["auroc_mean"], "accuracy": r["accuracy_mean"]}
                             for r in compare(cfg, ds, seeds=[0])
                             if r["pipeline"] == "fbnetgen-gru"],
            lambda cfg, ds: [{"auroc": r["mean"]} for r in ablate(cfg, ds, seeds=[0])
                             if r["variant"] == "All"],
        ],
        ids=["sweep", "compare", "ablate"],
    )
    def test_single_seed_row_reduces_to_train(self, harness):
        # t=40 leaves room for compare's CNN pipelines
        ds = tiny_dataset(t=40)
        # seeds=[0] re-seeds both the init and the split of the harness config
        [row] = harness(tiny_config(epochs=1, seed=5, split=SplitSpec(0.6, 0.2, 0.2, seed=5)), ds)
        cfg = tiny_config(epochs=1, seed=0, split=SplitSpec(0.6, 0.2, 0.2, seed=0))
        tm, _ = train(cfg, ds)
        _, _, test_ds = split(ds, cfg.split)
        direct = evaluate(tm, test_ds)
        assert row == {k: getattr(direct, k) for k in row}

    # On n=16, 0.8/0.13/0.07 leaves a one-sample test split.
    @pytest.mark.parametrize(
        "harness,ratios,key",
        [
            (lambda cfg, ds: sweep(cfg, ds, windows=[8, 48], dims=[4], seeds=[0, 1]),
             (0.6, 0.2, 0.2), "sweep.windows 48"),
            (lambda cfg, ds: ablate(cfg, ds, seeds=[0, 1]), (0.8, 0.13, 0.07), "train.split.test"),
            (lambda cfg, ds: compare(cfg, ds, seeds=[0, 1]), (0.8, 0.13, 0.07), "train.split.test"),
        ],
        ids=["sweep-window", "ablate-one-class-test", "compare-one-class-test"],
    )
    def test_refused_before_any_run_trains(self, monkeypatch, harness, ratios, key):
        import netgen.training as training_mod

        calls = []
        monkeypatch.setattr(training_mod, "train", lambda *args, **kw: calls.append(args))
        cfg = tiny_config(split=SplitSpec(*ratios, seed=0))
        with pytest.raises(ConfigError, match=key) as exc:
            harness(cfg, tiny_dataset(n=16, t=40))
        assert isinstance(exc.value, ValueError)
        assert calls == []

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sweep(tiny_config(), tiny_dataset(), windows=[], dims=[4], seeds=[0])


class TestCeCurveCheck:
    def test_decreasing_curve_is_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="netgen.training"):
            _check_ce_curve(np.linspace(1.0, 0.1, 50))
        assert not caplog.records

    def test_rising_curve_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="netgen.training"):
            _check_ce_curve(np.linspace(0.5, 2.0, 50))
        assert any("cross-entropy rose" in r.message for r in caplog.records)
