"""End-to-end objective, training loop, metrics, and the experiment harnesses.

The objective is L = L_ce + alpha * L_intra + beta * L_inter
+ gamma * L_sparsity; baselines without a generated graph train on the
cross-entropy term alone. Model selection keeps the first epoch that
maximizes validation AUROC.
"""
from __future__ import annotations

import itertools
import logging
from contextlib import nullcontext
from dataclasses import dataclass, field, asdict, is_dataclass, replace
from typing import get_type_hints

import numpy as np

from . import nncore as nn
from .dataset import Dataset, SplitSpec, pearson_features, split, zscore_normalize
from .encoders import EncoderConfig
from .graphgen import LossWeights, group_losses, sparsity_loss
from .nncore import Tensor
from .predictor import GcnConfig, PIPELINES, build_model, check_sizes, pipeline_encoder

__all__ = [
    "ConfigError",
    "Metrics",
    "TrainConfig",
    "TrainHistory",
    "TrainedModel",
    "auroc",
    "accuracy",
    "cross_entropy",
    "total_loss",
    "train",
    "check_run",
    "evaluate",
    "run_seeds",
    "ablate",
    "sweep",
    "compare",
    "ABLATION_VARIANTS",
    "save_model",
    "load_model",
]

log = logging.getLogger(__name__)

# The training loop runs in a single reduced precision for speed; trained
# parameters are cast back to float64 (exactly) before the model is
# returned, and gradient checks always run in double.
TRAIN_DTYPE = np.float32


class ConfigError(ValueError):
    """A config whose runs cannot train or be scored, naming the key at
    fault; the CLI maps it to exit code 2."""


@dataclass
class Metrics:
    auroc: float
    accuracy: float
    ce: float
    intra: float
    inter: float
    sparsity: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrainConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    predictor: GcnConfig = field(default_factory=GcnConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    lr: float = 1e-4
    weight_decay: float = 1e-4
    batch_size: int = 16
    epochs: int = 500
    seed: int = 0
    split: SplitSpec = field(default_factory=SplitSpec)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"train.lr must be finite and positive, got {self.lr!r}")
        if self.batch_size < 2:
            raise ValueError(f"train.batch_size must be positive and at least 2, since every "
                             f"head batch-normalizes its batch; got {self.batch_size!r}")
        if self.epochs <= 0:
            raise ValueError(f"train.epochs must be positive, got {self.epochs!r}")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"train.weight_decay must be finite and non-negative, "
                             f"got {self.weight_decay!r}")
        if self.split.val <= 0:
            raise ValueError("train.split.val must be positive: the best-validation epoch "
                             "is selected on the validation split")

    def seeded(self, seed: int) -> "TrainConfig":
        """This config with `seed` driving model init, batch order and the split."""
        return replace(self, seed=seed, split=replace(self.split, seed=seed))


# Dataclass fields the program sets itself; a config naming one is rejected
# like any other unknown key.
_NOT_KEYS = {TrainConfig: ("seed",), SplitSpec: ("seed",), GcnConfig: ("n_classes",)}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _object(raw, keys, where: str) -> dict:
    _require(isinstance(raw, dict), f"'{where}' must be a JSON object")
    unknown = sorted(set(raw) - set(keys))
    _require(not unknown, f"unknown keys {unknown} in '{where}' section")
    return raw


# The JSON type each field type takes: its name, and the Python types json
# reads it as. A float key takes an integer literal too.
_JSON = {int: ("integer", int), float: ("number", (int, float)), str: ("string", str),
         list: ("array", list), tuple: ("array", list), dict: ("object", dict)}


def _convert(kind, value, key: str):
    """`value` as a `kind` if it has the JSON type of `kind`, else
    ConfigError naming `key`; a bool is no number. Array entries and object
    values are integers (`sweep` grids, `GcnConfig.widths`,
    `SynthSpec.modules`)."""
    name, json_type = _JSON[kind]
    _require(not isinstance(value, bool) and isinstance(value, json_type),
             f"{key} {value!r} is not a JSON {name}")
    if kind in (list, tuple):
        return kind(_convert(int, x, key) for x in value)
    if kind is dict:
        return {k: _convert(int, x, f"{key}.{k}") for k, x in value.items()}
    try:
        return kind(value)
    except OverflowError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _section(cls, raw, where: str, **given):
    """Build dataclass `cls` from the JSON object `raw` (section `where`)
    plus the fields already built in `given`.

    The keys are the fields of `cls` that are neither `given` nor in
    `_NOT_KEYS`. An omitted key takes the field's default, a dataclass-typed
    field is read as a nested section, and any other value must have its
    field's JSON type (`_convert`); a value that does not raises ConfigError
    naming its dotted key, as does a value `cls` refuses when it is built.
    """
    types = get_type_hints(cls)
    keys = set(types) - set(given) - set(_NOT_KEYS.get(cls, ()))
    for key, value in _object(raw, keys, where).items():
        kind, name = types[key], f"{where}.{key}"
        given[key] = _section(kind, value, name) if is_dataclass(kind) else _convert(kind, value, name)
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class TrainHistory:
    train: list
    val: list
    selected_epoch: int


@dataclass
class TrainedModel:
    model: object
    config: TrainConfig
    pipeline: str
    v: int
    t: int
    class_names: list

    def check_fit(self, ds) -> None:
        """ConfigError unless `ds` has the ROI count and series length the
        model was trained on."""
        _require(self.v == ds.v,
                 f"checkpoint was trained on v={self.v} ROIs but the dataset has v={ds.v}")
        _require(self.t == ds.t, f"checkpoint was trained on series of length t={self.t} but "
                                 f"the dataset has t={ds.t}")


def auroc(scores, labels) -> float:
    """Rank-based AUROC with average ranks for ties.

    Equals the probability that a random positive outranks a random
    negative, ties counted 1/2.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D arrays of equal length")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos + n_neg != len(labels):
        raise ValueError("auroc needs binary labels in {0, 1}")
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc needs both classes present")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def accuracy(logits: np.ndarray, labels) -> float:
    """Argmax accuracy; ties break toward the lower class index."""
    pred = np.argmax(np.asarray(logits), axis=1)
    return float((pred == np.asarray(labels)).mean())


def cross_entropy(logits: Tensor, labels) -> Tensor:
    labels = np.asarray(labels, dtype=np.int64)
    logp = nn.log_softmax(logits)
    picked = logp[np.arange(len(labels)), labels]
    return -picked.mean()


def total_loss(logits: Tensor, labels, graphs, weights: LossWeights):
    """Total objective plus its components as plain floats.

    `graphs` is the batch of generated graphs or None for pipelines that
    do not generate one (their regularizers are identically zero).
    """
    ce = cross_entropy(logits, labels)
    if graphs is None:
        comps = {"ce": ce.item(), "intra": 0.0, "inter": 0.0, "sparsity": 0.0}
        return ce, comps
    intra, inter = group_losses(graphs, labels)
    spars = sparsity_loss(graphs)
    total = ce + weights.alpha * intra + weights.beta * inter + weights.gamma * spars
    comps = {
        "ce": ce.item(),
        "intra": intra.item(),
        "inter": inter.item(),
        "sparsity": spars.item(),
    }
    return total, comps


# Rows per forward in an eval-mode pass: validation, `evaluate` and
# `interpret.collect_graphs`.
EVAL_BATCH = 64


def _eval_batches(n: int) -> list:
    return [slice(start, start + EVAL_BATCH) for start in range(0, n, EVAL_BATCH)]


def _run_batches(model, arrays, batches, weights: LossWeights, step=None) -> Metrics:
    """Run `model` over `batches` of the (signals, features, labels) `arrays`
    and reduce to Metrics: AUROC and accuracy over every row seen, loss
    components averaged per sample.

    With `step`, this is a training epoch: `step(batch_index, loss)` runs
    after each forward. Without it, an eval-mode pass that records no tape.
    """
    xs, feats, labels = arrays
    model.set_training(step is not None)
    logits_all, labels_all = [], []
    sums = {"ce": 0.0, "intra": 0.0, "inter": 0.0, "sparsity": 0.0}
    with nullcontext() if step is not None else nn.no_grad():
        for b_idx, batch in enumerate(batches):
            y = labels[batch]
            logits, graphs = model.forward(xs[batch], feats[batch])
            loss, comps = total_loss(logits, y, graphs, weights)
            if step is not None:
                step(b_idx, loss)
            for k in sums:
                sums[k] += comps[k] * len(y)
            logits_all.append(logits.data)
            labels_all.append(y)
    logits_all = np.concatenate(logits_all)
    labels_all = np.concatenate(labels_all)
    n = len(labels_all)
    return Metrics(
        auroc=auroc(nn.softmax_rows(logits_all)[:, 1], labels_all),
        accuracy=accuracy(logits_all, labels_all),
        **{k: total / n for k, total in sums.items()},
    )


def evaluate(tm: TrainedModel, ds: Dataset) -> Metrics:
    """AUROC, accuracy and mean loss components of a trained model on a split."""
    if ds.n == 0:
        raise ValueError("cannot evaluate on an empty split")
    tm.check_fit(ds)
    arrays = zscore_normalize(ds.x), pearson_features(ds.x), ds.y
    return _run_batches(tm.model, arrays, _eval_batches(ds.n), tm.config.loss)


def check_run(config: TrainConfig, ds: Dataset, pipeline: str | None = None,
              window_key: str = "encoder.window"):
    """(pipeline, train, val, test) of a run `train` can make: `ds` validated,
    pipeline None resolved to `train`'s default, `ds` split by `config.split`.
    Else ConfigError naming `window_key` for an encoder window too long for
    the series, or the ratio of a training split missing a class or of a
    validation split missing either (it selects the epoch by AUROC)."""
    ds.validate()
    pipeline = pipeline or f"fbnetgen-{config.encoder.kind}"
    enc = pipeline_encoder(pipeline, config.encoder)
    if enc is not None and ds.t < enc.min_length():
        raise ConfigError(
            f"{window_key} {config.encoder.window} is too long for the series: the "
            f"{pipeline} pipeline needs t >= {enc.min_length()}, the dataset has t={ds.t}"
        )
    spec = config.split
    try:
        parts = split(ds, spec)
    except ValueError as exc:
        raise ConfigError(f"train.split.train {spec.train} (split seed {spec.seed}): {exc}") from exc
    val_classes = sorted(set(parts[1].y.tolist()))
    if len(val_classes) < 2:
        raise ConfigError(
            f"train.split.val {spec.val} (split seed {spec.seed}) gives a validation split of "
            f"{parts[1].n} samples with classes {val_classes}; it needs both classes"
        )
    return (pipeline, *parts)


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    """Seeded shuffle into batches; a trailing singleton joins the previous
    batch (batch norm rejects batches of one)."""
    perm = rng.permutation(n)
    chunks = [perm[i : i + batch_size] for i in range(0, n, batch_size)]
    if len(chunks) > 1 and len(chunks[-1]) == 1:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def _check_ce_curve(ce_curve, window: int = 10) -> None:
    """Sanity signal, not a failure: warn if the smoothed training CE rises
    more than 10% above its starting level."""
    ce = np.asarray(ce_curve, dtype=np.float64)
    if len(ce) < window:
        return
    kernel = np.ones(window) / window
    smoothed = np.convolve(ce, kernel, mode="valid")
    if np.any(smoothed > smoothed[0] + 0.1 * abs(smoothed[0])):
        log.warning(
            "smoothed training cross-entropy rose more than 10%% above its "
            "initial value (start %.4f, peak %.4f)",
            smoothed[0],
            float(smoothed.max()),
        )


def train(config: TrainConfig, ds: Dataset, pipeline: str | None = None):
    """Mini-batch Adam over the total objective, on a run `check_run`
    passes; returns the checkpoint from the best-validation-AUROC epoch,
    whose config names the encoder the pipeline ran, plus the full history."""
    pipeline, train_ds, val_ds, _ = check_run(config, ds, pipeline)
    gcn_cfg = replace(config.predictor, n_classes=len(ds.class_names))
    train_arrays, val_arrays = [(zscore_normalize(part.x), pearson_features(part.x), part.y)
                                for part in (train_ds, val_ds)]

    seeds = np.random.SeedSequence(config.seed).spawn(2)
    with nn.default_dtype(TRAIN_DTYPE):
        model = build_model(pipeline, config.encoder, gcn_cfg, v=ds.v,
                            seed=seeds[0].generate_state(1)[0])
        batch_rng = np.random.default_rng(seeds[1])
        optimizer = nn.Adam(
            model.named_params(), lr=config.lr, weight_decay=config.weight_decay
        )
        history_train, history_val = [], []
        best_auroc, best_epoch, best_state = -np.inf, -1, None

        for epoch in range(config.epochs):
            def step(b_idx, loss):
                if not np.isfinite(loss.data):
                    raise RuntimeError(
                        f"non-finite training loss at epoch {epoch}, batch {b_idx}"
                    )
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()

            batches = _batches(train_ds.n, config.batch_size, batch_rng)
            history_train.append(_run_batches(model, train_arrays, batches, config.loss, step))
            val_metrics = _run_batches(model, val_arrays, _eval_batches(val_ds.n), config.loss)
            history_val.append(val_metrics)
            if val_metrics.auroc > best_auroc:
                best_auroc = val_metrics.auroc
                best_epoch = epoch
                best_state = model.state()

        _check_ce_curve([m.ce for m in history_train])
        model.load_state(best_state)
    for _, p in model.named_params():
        p.data = p.data.astype(np.float64)
    model.set_training(False)
    encoder = pipeline_encoder(pipeline, config.encoder)
    tm = TrainedModel(
        model=model,
        config=config if encoder is None else replace(config, encoder=encoder),
        pipeline=pipeline,
        v=ds.v,
        t=ds.t,
        class_names=list(ds.class_names),
    )
    history = TrainHistory(train=history_train, val=history_val, selected_epoch=best_epoch)
    return tm, history


def save_model(tm: TrainedModel, path) -> None:
    meta = {
        "pipeline": tm.pipeline,
        "encoder": asdict(tm.config.encoder),
        "predictor": {**asdict(tm.config.predictor), "widths": list(tm.config.predictor.widths)},
        "loss": asdict(tm.config.loss),
        "shape": {"v": tm.v, "t": tm.t, "classes": tm.class_names},
    }
    nn.save_checkpoint(path, meta, tm.model.state())


def load_model(path) -> TrainedModel:
    """Rebuild a saved model, its meta read like a config file; meta or arrays
    that do not fit raise CheckpointError naming the file and the key at fault."""
    meta, arrays = nn.load_checkpoint(path)
    try:
        encoder_cfg = _section(EncoderConfig, meta.get("encoder"), "meta.encoder")
        predictor = _object(meta.get("predictor"), get_type_hints(GcnConfig), "meta.predictor")
        n_classes = _convert(int, predictor.pop("n_classes", None), "meta.predictor.n_classes")
        gcn_cfg = _section(GcnConfig, predictor, "meta.predictor", n_classes=n_classes)
        loss = _section(LossWeights, meta.get("loss"), "meta.loss")
        shape = _object(meta.get("shape"), ("v", "t", "classes"), "meta.shape")
        v, t = (_convert(int, shape.get(k), f"meta.shape.{k}") for k in ("v", "t"))
        classes = shape.get("classes")
        _require(isinstance(classes, list) and all(isinstance(c, str) for c in classes),
                 f"meta.shape.classes {classes!r} is not a JSON array of strings")
        _require(len(classes) == gcn_cfg.n_classes,
                 f"meta.shape.classes names {len(classes)} classes for a model of "
                 f"{gcn_cfg.n_classes} (meta.predictor.n_classes)")
        _require(v >= 2 and t >= 2, f"meta.shape: v {v} and t {t} must both be at least 2")
        pipeline = _convert(str, meta.get("pipeline"), "meta.pipeline")
    except ConfigError as exc:
        raise nn.CheckpointError(f"checkpoint {path}: bad meta: {exc}") from exc
    try:
        check_sizes(pipeline, encoder_cfg, gcn_cfg, v, arrays)
        model = build_model(pipeline, encoder_cfg, gcn_cfg, v=v, seed=0)
        model.load_state(arrays)
    except (TypeError, ValueError, nn.CheckpointError) as exc:
        raise nn.CheckpointError(f"checkpoint {path} does not fit its model: {exc}") from exc
    model.set_training(False)
    config = TrainConfig(encoder=encoder_cfg, predictor=gcn_cfg, loss=loss)
    return TrainedModel(
        model=model,
        config=config,
        pipeline=pipeline,
        v=v,
        t=t,
        class_names=classes,
    )


ABLATION_VARIANTS = ("All", "CE", "CE+GL", "CE+SL")


def _variant_weights(variant: str, base: LossWeights) -> LossWeights:
    if variant == "All":
        return LossWeights(base.alpha, base.beta, base.gamma)
    if variant == "CE":
        return LossWeights(0.0, 0.0, 0.0)
    if variant == "CE+GL":
        return LossWeights(base.alpha, base.beta, 0.0)
    if variant == "CE+SL":
        return LossWeights(0.0, 0.0, base.gamma)
    raise ValueError(f"unknown ablation variant {variant!r}")


def run_seeds(cells, ds: Dataset, seeds, window_key: str = "encoder.window") -> list:
    """Train each (config, pipeline) cell once per seed, with the config
    `seeded` by it; per cell, (model, history, test Metrics) in seed order.

    Every run is checked before the first trains: `check_run` (with
    `window_key`) and a test split AUROC can score, or ConfigError naming
    `train.split.test`.
    """
    for config, pipeline in cells:
        for seed in seeds:
            *_, test = check_run(config.seeded(seed), ds, pipeline, window_key)
            classes = sorted(set(test.y.tolist()))
            if len(classes) < 2:
                raise ConfigError(
                    f"train.split.test {config.split.test} (split seed {seed}) gives a test "
                    f"split of {test.n} samples with classes {classes}; it needs both classes"
                )

    # Each run cuts its test split again, so no copy of one is held per run.
    def run(config, pipeline, seed):
        tm, history = train(config.seeded(seed), ds, pipeline)
        return tm, history, evaluate(tm, split(ds, config.seeded(seed).split)[2])

    return [[run(config, pipeline, seed) for seed in seeds] for config, pipeline in cells]


def ablate(config: TrainConfig, ds: Dataset, seeds) -> list:
    """Train the four regularizer variants over the given seeds.

    Returns one row per variant:
    {"variant", "per_seed" (test AUROC), "mean", "std"}.
    """
    cells = [(replace(config, loss=_variant_weights(variant, config.loss)), None)
             for variant in ABLATION_VARIANTS]
    rows = []
    for variant, runs in zip(ABLATION_VARIANTS, run_seeds(cells, ds, seeds)):
        aurocs = [m.auroc for _, _, m in runs]
        rows.append({"variant": variant, "per_seed": aurocs,
                     "mean": float(np.mean(aurocs)), "std": float(np.std(aurocs))})
    return rows


def sweep(config: TrainConfig, ds: Dataset, windows, dims, seeds) -> list:
    """Grid over encoder window and embedding size; one row per cell, means over seeds."""
    if not windows or not dims:
        raise ConfigError(f"sweep grid must be non-empty: sweep.windows {list(windows)}, "
                          f"sweep.dims {list(dims)}")
    grid = list(itertools.product(windows, dims))
    cells = [(replace(config, encoder=replace(config.encoder, window=window, dim=dim)), None)
             for window, dim in grid]
    return [{"window": window, "dim": dim,
             "auroc": float(np.mean([m.auroc for _, _, m in runs])),
             "accuracy": float(np.mean([m.accuracy for _, _, m in runs]))}
            for (window, dim), runs in zip(grid, run_seeds(cells, ds, seeds, "sweep.windows"))]


def compare(config: TrainConfig, ds: Dataset, seeds) -> list:
    """Train every pipeline over the seeds; mean and std of test metrics."""
    rows = []
    for pipeline, runs in zip(PIPELINES, run_seeds([(config, p) for p in PIPELINES], ds, seeds)):
        aurocs = [m.auroc for _, _, m in runs]
        accs = [m.accuracy for _, _, m in runs]
        rows.append({"pipeline": pipeline,
                     "auroc_mean": float(np.mean(aurocs)), "auroc_std": float(np.std(aurocs)),
                     "accuracy_mean": float(np.mean(accs)), "accuracy_std": float(np.std(accs))})
    return rows
