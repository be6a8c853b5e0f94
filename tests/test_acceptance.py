"""Acceptance criteria, one test per criterion, each printing a PASS line.

The integration criteria train real models; the whole module takes about
15-20 minutes on a 2-core CPU (the recovery criterion alone is bounded at
10 minutes and typically takes ~7.5 of them).
"""
import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from netgen import nncore as nn
from netgen.cli import main as cli_main
from netgen.dataset import (
    SplitSpec,
    SynthSpec,
    generate_synthetic,
    pearson_features,
    split,
    zscore_normalize,
)
from netgen.encoders import EncoderConfig
from netgen.graphgen import (
    LossWeights,
    generate_graph,
    group_inter_loss_oracle,
    group_intra_loss_oracle,
    group_losses,
    sparsity_loss,
)
from netgen.interpret import collect_graphs, edge_ttest, module_difference_scores
from netgen.nncore import Tensor
from netgen.predictor import GcnConfig, build_model
from netgen.training import (
    TrainConfig,
    ablate,
    auroc,
    compare,
    evaluate,
    total_loss,
    train,
)

PLANTED_SPEC = SynthSpec(
    v=20, t=64, n=400,
    modules={"m1": 5, "m2": 5, "m3": 5, "m4": 5},
    planted="m1", effect=2.0, noise=1.0,
)
PLANTED_SEED = 2026


def planted_config(epochs, kind="gru"):
    # lr is a free experiment knob (TrainConfig's default stays at the
    # protocol value 1e-4); 1e-3 converges within the mandated epochs at
    # this scale
    return TrainConfig(
        encoder=EncoderConfig(kind=kind, window=16, dim=8),
        predictor=GcnConfig(widths=(32, 32, 8), mlp_hidden=32),
        loss=LossWeights(),
        lr=1e-3,
        epochs=epochs,
        split=SplitSpec(0.7, 0.1, 0.2, seed=0),
    )


@pytest.fixture(scope="module")
def planted_dataset():
    return generate_synthetic(PLANTED_SPEC, seed=PLANTED_SEED)


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_loss_identity_oracles():
    """Fast group losses match the O(n^2) brute-force definitions within
    1e-6 relative on 100 seeded random batches (n <= 32, v <= 6, |C| in
    {2, 3}), in under 5 seconds."""
    start = time.monotonic()
    worst = 0.0
    for case in range(100):
        n_classes = 2 if case % 2 == 0 else 3
        rng = np.random.default_rng(case)
        n = int(rng.integers(n_classes, 33))
        v = int(rng.integers(2, 7))
        h_e = rng.standard_normal((n, v, 3))
        graphs = generate_graph(Tensor(h_e)).data
        labels = np.concatenate(
            [np.arange(n_classes), rng.integers(0, n_classes, n - n_classes)]
        )
        intra, inter = group_losses(Tensor(graphs), labels)
        for fast, oracle in (
            (intra.item(), group_intra_loss_oracle(graphs, labels)),
            (inter.item(), group_inter_loss_oracle(graphs, labels)),
        ):
            rel = abs(fast - oracle) / max(abs(oracle), 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report("loss-identity oracles", f"worst rel {worst:.2e} over 100 batches in {elapsed:.2f}s")


def test_criterion_composite_gradient_verification():
    """Encoder -> generator -> GCN -> head plus all four loss terms passes
    central finite differences at double precision, < 1e-4 relative, both
    encoder kinds, v=4 t=40 d=4, 5 seeds each, under 60 seconds."""
    start = time.monotonic()

    def composite_error(kind, seed):
        enc = EncoderConfig(kind=kind, window=4, dim=4)
        gcn = GcnConfig(widths=(6, 5, 4), mlp_hidden=6)
        model = build_model(f"fbnetgen-{kind}", enc, gcn, v=4, seed=seed)
        # probe at a generic point: zero-init biases sit exactly on relu
        # kinks, where a central difference measures the half-slope
        jitter = np.random.default_rng(seed + 500)
        for _, p in model.named_params():
            p.data = p.data + jitter.uniform(-0.3, 0.3, size=p.data.shape)
        rng = np.random.default_rng(seed + 1000)
        x = np.stack([zscore_normalize(rng.standard_normal((4, 40))) for _ in range(4)])
        feats = np.stack([pearson_features(xi) for xi in x])
        labels = np.array([0, 1, 0, 1])

        def loss():
            logits, graphs = model.forward(Tensor(x), Tensor(feats))
            total, _ = total_loss(logits, labels, graphs, LossWeights(1e-3, 1e-3, 1e-4))
            return total

        # dust_tol counts both-below-noise coordinates as agreeing zeros
        # (batch norm cancels some bias directions exactly, leaving only
        # float dust for the finite difference to measure)
        return nn.gradient_check(
            loss, model.named_params(), seed=seed, max_coords_per_param=12, dust_tol=1e-6
        )

    worst = {"cnn": 0.0, "gru": 0.0}
    for kind in ("cnn", "gru"):
        for seed in range(5):
            err = composite_error(kind, seed)
            worst[kind] = max(worst[kind], err)
            assert err < 1e-4, f"{kind} seed {seed}: {err:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(
        "composite gradient verification",
        f"worst cnn {worst['cnn']:.2e}, gru {worst['gru']:.2e} in {elapsed:.1f}s",
    )


def test_criterion_graph_validity():
    """1000 random embeddings: A symmetric within 1e-9 relative, entries in
    (0, 1], diagonal >= 1/d, h_A rows sum to 1 within 1e-12."""
    rng = np.random.default_rng(0)
    for _ in range(1000):
        v = int(rng.integers(2, 9))
        d = int(rng.integers(2, 7))
        h_e = Tensor(4.0 * rng.standard_normal((v, d)))
        h_a = nn.softmax(h_e).data
        a = generate_graph(h_e).data
        assert np.all(np.abs(h_a.sum(axis=1) - 1.0) < 1e-12)
        assert np.abs(a - a.T).max() <= 1e-9 * max(1.0, np.abs(a).max())
        assert np.all(a > 0.0)
        assert np.all(a <= 1.0 + 1e-15)
        assert np.all(np.diag(a) >= 1.0 / d - 1e-12)
    report("graph validity", "1000 random embeddings satisfied all invariants")


def test_criterion_hand_checked_values():
    """Exact spot values: sparsity of I_2 = 0.5; two-class 1x1 inter loss
    = -8 under the ordered-pair convention; module scores 0.125 and 0.0625."""
    from netgen.dataset import ModulePartition
    from netgen.interpret import EdgeSet, EdgeStat

    sparsity = sparsity_loss(Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))).item()
    assert abs(sparsity - 0.5) <= 1e-12

    inter = group_losses(Tensor(np.array([[[0.0]], [[2.0]]])), [0, 1])[1].item()
    assert abs(inter - (-8.0)) <= 1e-12

    partition = ModulePartition({"u": [0, 1]})

    def single_edge(p, q):
        return EdgeSet(edges=[EdgeStat(p=p, q=q, t=0.0, pvalue=0.01)], alpha=0.05, n_tested=6)

    internal = module_difference_scores(single_edge(0, 1), partition, v=4)[0].score
    boundary = module_difference_scores(single_edge(0, 2), partition, v=4)[0].score
    assert abs(internal - 0.125) <= 1e-12
    assert abs(boundary - 0.0625) <= 1e-12
    report(
        "hand-checked values",
        f"sparsity {sparsity}, inter {inter}, T_u {internal}/{boundary}",
    )


def test_criterion_auroc_correctness():
    """Rank-based AUROC equals the exhaustive pairwise-concordance oracle
    exactly on 200 random score/label sets (n <= 50); invariant under
    strictly increasing transforms."""

    def oracle(scores, labels):
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        total = 0.0
        for p, q in itertools.product(pos, neg):
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
        return total / (len(pos) * len(neg))

    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        labels = np.zeros(n, dtype=int)
        labels[: max(1, int(rng.integers(1, n)))] = 1
        rng.shuffle(labels)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.choice(np.linspace(-2.0, 2.0, 9), size=n)  # coarse grid forces ties
        fast = auroc(scores, labels)
        assert fast == oracle(scores, labels)
        assert auroc(3.0 * scores + 1.0, labels) == fast
        assert auroc(np.exp(scores), labels) == fast
    report("auroc correctness", "200 sets matched the concordance oracle exactly")


def test_criterion_synthetic_recovery(planted_dataset):
    """FBNETGEN-GRU on the planted dataset (v=20, t=64, n=400, effect =
    2x noise): median test AUROC over 5 seeds >= 0.9 at 200 epochs, planted
    module ranked first by difference score in >= 4 of 5 seeds, < 10 min."""
    start = time.monotonic()
    aurocs, first_ranked = [], 0
    for seed in range(5):
        cfg = replace(
            planted_config(epochs=200), seed=seed, split=SplitSpec(0.7, 0.1, 0.2, seed=seed)
        )
        tm, _ = train(cfg, planted_dataset, pipeline="fbnetgen-gru")
        _, _, test_ds = split(planted_dataset, cfg.split)
        metrics = evaluate(tm, test_ds)
        aurocs.append(metrics.auroc)

        graphs, labels = collect_graphs(tm, planted_dataset)
        edges = edge_ttest(graphs, labels, alpha=0.05)
        scores = module_difference_scores(edges, planted_dataset.partition, planted_dataset.v)
        if scores[0].module == PLANTED_SPEC.planted:
            first_ranked += 1
    elapsed = time.monotonic() - start
    median_auroc = float(np.median(aurocs))
    assert median_auroc >= 0.9, f"median AUROC {median_auroc:.4f} from {aurocs}"
    assert first_ranked >= 4, f"planted module ranked first in only {first_ranked}/5 seeds"
    assert elapsed < 600.0
    report(
        "synthetic recovery",
        f"median AUROC {median_auroc:.4f} {[round(a, 3) for a in aurocs]}, "
        f"planted first in {first_ranked}/5 seeds, {elapsed:.0f}s",
    )


def test_criterion_ablation_harness(planted_dataset):
    """Four-variant table (All / CE / CE+GL / CE+SL) over 5 seeds on the
    planted dataset; mean AUROC(All) >= mean AUROC(CE) - 0.02."""
    rows = ablate(planted_config(epochs=30), planted_dataset, seeds=[0, 1, 2, 3, 4])
    assert [r["variant"] for r in rows] == ["All", "CE", "CE+GL", "CE+SL"]
    assert all(len(r["per_seed"]) == 5 for r in rows)
    by_variant = {r["variant"]: r["mean"] for r in rows}
    assert by_variant["All"] >= by_variant["CE"] - 0.02, by_variant
    report(
        "ablation harness",
        ", ".join(f"{k} {v:.3f}" for k, v in by_variant.items()),
    )


def test_criterion_comparison_harness(planted_dataset):
    """Six-pipeline table; best learnable-graph pipeline within 0.02 of (or
    above) the best sequence-only baseline."""
    rows = compare(planted_config(epochs=30), planted_dataset, seeds=[0, 1, 2])
    assert [r["pipeline"] for r in rows] == [
        "fbnetgen-cnn",
        "fbnetgen-gru",
        "gnn-uniform",
        "gnn-pearson",
        "seq-cnn",
        "seq-gru",
    ]
    by_pipeline = {r["pipeline"]: r["auroc_mean"] for r in rows}
    best_learnable = max(by_pipeline["fbnetgen-cnn"], by_pipeline["fbnetgen-gru"])
    best_sequence = max(by_pipeline["seq-cnn"], by_pipeline["seq-gru"])
    assert best_learnable >= best_sequence - 0.02, by_pipeline
    report(
        "comparison harness",
        ", ".join(f"{k} {v:.3f}" for k, v in by_pipeline.items()),
    )


def test_criterion_null_calibration():
    """edge_ttest flags 5% +- 2% of edges at alpha=0.05 on null synthetic
    data (effect 0, n=500, independent rows so edges are near-independent)."""
    spec = SynthSpec(v=30, t=64, n=500, modules={"m1": 2, "m2": 2},
                     planted="m1", effect=0.0, noise=1.0)
    ds = generate_synthetic(spec, seed=0)
    graphs = np.stack([pearson_features(s.x) for s in ds.samples])
    edges = edge_ttest(graphs, ds.labels(), alpha=0.05)
    assert 0.03 <= edges.flagged_fraction <= 0.07, edges.flagged_fraction
    report(
        "null calibration",
        f"flagged {len(edges.edges)}/{edges.n_tested} = {edges.flagged_fraction:.4f}",
    )


def test_criterion_cli_determinism(tmp_path):
    """Repeating a CLI command with identical config and seed reproduces
    every metric artifact byte for byte (timestamps live only in log.txt)."""
    raw = {
        "dataset": {"synth": {"v": 6, "t": 24, "n": 16, "modules": {"m1": 3, "m2": 3},
                               "planted": "m1", "effect": 2.0, "noise": 1.0, "seed": 3}},
        "encoder": {"kind": "gru", "window": 8, "dim": 4},
        "predictor": {"pooling": "concat", "widths": [8, 4], "mlp_hidden": 8},
        "loss": {"alpha": 1e-3, "beta": 1e-3, "gamma": 1e-4},
        "train": {"lr": 1e-3, "weight_decay": 1e-4, "batch_size": 8, "epochs": 3,
                   "split": {"train": 0.5, "val": 0.25, "test": 0.25}},
        "seeds": [11],
        "out_dir": str(tmp_path / "unused"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    compared = []
    for name in ("metrics.json", "history.csv", "checkpoint.json", "run.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        compared.append(name)
    report("cli determinism", f"byte-identical: {', '.join(compared)}")
