"""Command-line entry point.

    netgen synth|train|compare|ablate|sweep|interpret --config FILE
           [--seed N] [--epochs N] [--out DIR] [--checkpoint FILE]

Exit codes: 0 ok, 1 runtime failure, 2 config or usage error. A fixed
config and seed reproduce every artifact byte for byte; timestamps are
confined to log.txt.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

from .dataset import (
    Dataset,
    SplitSpec,
    SynthSpec,
    generate_synthetic,
    load_dataset,
    split,
    write_dataset,
)
from .encoders import EncoderConfig
from .graphgen import LossWeights
from .interpret import (
    collect_graphs,
    edge_ttest,
    export_matrix,
    export_scores,
    mean_graph,
    module_difference_scores,
)
from .predictor import GcnConfig, PIPELINES
from .training import (
    ConfigError,
    Metrics,
    TrainConfig,
    ablate,
    compare,
    load_model,
    run_seeds,
    save_model,
    sweep,
)

__all__ = ["ConfigError", "ExperimentConfig", "main", "entrypoint"]


# The `sweep` and `interpret` sections of an ExperimentConfig.
@dataclass
class _SweepGrid:
    windows: list = field(default_factory=list)
    dims: list = field(default_factory=list)


@dataclass
class _Interpret:
    alpha: float = 0.05
    split: str = "all"


@dataclass
class ExperimentConfig:
    dataset_path: str | None
    synth: SynthSpec | None
    synth_seed: int
    train_cfg: TrainConfig
    pipeline: str | None
    seeds: list
    out_dir: str
    sweep: _SweepGrid
    interpret: _Interpret
    raw: dict = field(default_factory=dict)


_TOP_LEVEL = ("dataset", "encoder", "predictor", "loss", "train", "pipeline", "seeds",
              "out_dir", "sweep", "interpret")

# Dataclass fields the program sets itself; a config naming one is rejected
# like any other unknown key.
_NOT_KEYS = {TrainConfig: ("seed",), SplitSpec: ("seed",), GcnConfig: ("n_classes",)}

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _int_list(values, key: str, least: int) -> list:
    """`values` as a list, if every entry is an int >= `least`. Bools and
    floats such as 8.0 are rejected rather than passed to `int()`."""
    for x in values:
        _require(type(x) is int and x >= least, f"{key} {x!r} is not an integer >= {least}")
    return list(values)


def _object(raw, keys, where: str) -> dict:
    _require(isinstance(raw, dict), f"'{where}' must be a JSON object")
    unknown = sorted(set(raw) - set(keys))
    _require(not unknown, f"unknown keys {unknown} in '{where}' section")
    return raw


def _convert(kind, value, key: str):
    """`value` as a `kind`; tuple items and dict values are ints
    (`GcnConfig.widths`, `SynthSpec.modules`)."""
    try:
        if kind is tuple:
            return tuple(int(x) for x in value)
        if kind is dict:
            return {str(k): int(x) for k, x in value.items()}
        return kind(value)
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _section(cls, raw, where: str, **given):
    """Build dataclass `cls` from the JSON object `raw` (section `where`)
    plus the fields already built in `given`.

    The keys are the fields of `cls` that are neither `given` nor in
    `_NOT_KEYS`. An omitted key takes the field's default, a dataclass-typed
    field is read as a nested section, and any other value is converted to
    its field's type; a value that does not convert raises ConfigError
    naming its dotted key.
    """
    types = get_type_hints(cls)
    keys = set(types) - set(given) - set(_NOT_KEYS.get(cls, ()))
    for key, value in _object(raw, keys, where).items():
        kind, name = types[key], f"{where}.{key}"
        given[key] = _section(kind, value, name) if is_dataclass(kind) else _convert(kind, value, name)
    return cls(**given)


def _parse_config(raw: dict, path: str) -> ExperimentConfig:
    _object(raw, _TOP_LEVEL, path)
    dataset = _object(raw.get("dataset"), ("path", "synth"), "dataset")
    dataset_path = dataset.get("path")
    _require(dataset_path is None or isinstance(dataset_path, str),
             f"dataset.path must be a JSON string, got {dataset_path!r}")
    synth_raw = dataset.get("synth")
    _require(
        (dataset_path is None) != (synth_raw is None),
        "dataset section needs exactly one of 'path' or 'synth'",
    )
    synth = None
    synth_seed = 0
    if synth_raw is not None:
        _require(isinstance(synth_raw, dict), "'dataset.synth' must be a JSON object")
        synth_seed = _int_list([synth_raw.get("seed", synth_seed)], "dataset.synth.seed", 0)[0]
        synth = _section(
            SynthSpec, {k: v for k, v in synth_raw.items() if k != "seed"}, "dataset.synth"
        )

    train_cfg = _section(
        TrainConfig,
        raw.get("train", {}),
        "train",
        encoder=_section(EncoderConfig, raw.get("encoder", {}), "encoder"),
        predictor=_section(GcnConfig, raw.get("predictor", {}), "predictor"),
        loss=_section(LossWeights, raw.get("loss", {}), "loss"),
    )
    grid = _section(_SweepGrid, raw.get("sweep", {}), "sweep")
    interpret = _section(_Interpret, raw.get("interpret", {}), "interpret")
    try:
        train_cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _int_list(grid.windows, "sweep.windows", 1)
    _int_list(grid.dims, "sweep.dims", 1)
    _require(
        interpret.split in ("all", "train", "val", "test"),
        "interpret.split must be one of all/train/val/test",
    )

    pipeline = raw.get("pipeline")
    if pipeline is not None:
        _require(pipeline in PIPELINES, f"unknown pipeline {pipeline!r}; choose from {PIPELINES}")

    seeds = raw.get("seeds", [0])
    _require(isinstance(seeds, list) and seeds, "'seeds' must be a non-empty list of integers")

    return ExperimentConfig(
        dataset_path=dataset_path,
        synth=synth,
        synth_seed=synth_seed,
        train_cfg=train_cfg,
        pipeline=pipeline,
        seeds=_int_list(seeds, "seeds", 0),
        out_dir=str(raw.get("out_dir", "runs/out")),
        sweep=grid,
        interpret=interpret,
        raw=raw,
    )


def _load_config(path: str) -> ExperimentConfig:
    p = Path(path)
    _require(p.exists(), f"config file '{path}' does not exist")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON ({exc})") from exc
    return _parse_config(raw, path)


def _resolve_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.synth is not None:
        try:
            return generate_synthetic(cfg.synth, seed=cfg.synth_seed)
        except ValueError as exc:
            raise ConfigError(f"dataset.synth: {exc}") from exc
    path = Path(cfg.dataset_path)
    _require(path.exists(), f"dataset path '{path}' does not exist")
    return load_dataset(path)


class _RunLog:
    """Collects timestamped lines; the only artifact allowed to vary."""

    def __init__(self):
        self.lines = []

    def add(self, message: str) -> None:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
        self.lines.append(f"{stamp} {message}")
        print(message)

    def write(self, path: Path) -> None:
        path.write_text("\n".join(self.lines) + "\n")


def _write_table(path: Path, header, rows) -> None:
    """CSV under `header`: strings and ints as they are, floats as repr."""
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else repr(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_run_json(out: Path, cfg: ExperimentConfig, command: str, artifacts, extra=None):
    doc = {
        "command": command,
        "config": cfg.raw,
        "artifacts": sorted(artifacts),
    }
    if extra:
        doc.update(extra)
    (out / "run.json").write_text(json.dumps(doc, indent=1, sort_keys=True))


def cmd_synth(cfg: ExperimentConfig, out_dir: Path, log: _RunLog) -> None:
    _require(cfg.synth is not None, "synth command needs a dataset.synth section")
    ds = _resolve_dataset(cfg)
    write_dataset(ds, out_dir)
    log.add(
        f"wrote synthetic dataset: n={ds.n} v={ds.v} t={ds.t} "
        f"planted={cfg.synth.planted} -> {out_dir}"
    )


def cmd_train(cfg: ExperimentConfig, out_dir: Path, log: _RunLog) -> None:
    ds = _resolve_dataset(cfg)
    [[(tm, history, test_metrics)]] = run_seeds([(cfg.train_cfg, cfg.pipeline)], ds, cfg.seeds[:1])

    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(tm, out_dir / "checkpoint.json")
    names = [f.name for f in fields(Metrics)]
    _write_table(
        out_dir / "history.csv",
        ["epoch"] + [f"{side}_{k}" for side in ("train", "val") for k in names],
        [[epoch, *mt.as_dict().values(), *mv.as_dict().values()]
         for epoch, (mt, mv) in enumerate(zip(history.train, history.val))],
    )
    metrics_doc = {
        "selected_epoch": history.selected_epoch,
        "val_at_selected": history.val[history.selected_epoch].as_dict(),
        "test": test_metrics.as_dict(),
        "pipeline": tm.pipeline,
        "seed": tm.config.seed,
    }
    (out_dir / "metrics.json").write_text(json.dumps(metrics_doc, indent=1, sort_keys=True))
    _write_run_json(
        out_dir,
        cfg,
        "train",
        ["checkpoint.json", "history.csv", "metrics.json", "log.txt"],
        extra={"selected_epoch": history.selected_epoch},
    )
    log.add(
        f"trained {tm.pipeline} seed={tm.config.seed}: best epoch {history.selected_epoch}, "
        f"test auroc {test_metrics.auroc:.4f}, accuracy {test_metrics.accuracy:.4f}"
    )


def cmd_compare(cfg: ExperimentConfig, out_dir: Path, log: _RunLog) -> None:
    ds = _resolve_dataset(cfg)
    rows = compare(cfg.train_cfg, ds, cfg.seeds)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(out_dir / "compare.csv", list(rows[0]), [row.values() for row in rows])
    _write_run_json(out_dir, cfg, "compare", ["compare.csv", "log.txt"])
    for row in rows:
        log.add(
            f"{row['pipeline']:>13}: AUROC {row['auroc_mean']:.3f} +- {row['auroc_std']:.3f}  "
            f"Accuracy {row['accuracy_mean']:.3f} +- {row['accuracy_std']:.3f}"
        )


def cmd_ablate(cfg: ExperimentConfig, out_dir: Path, log: _RunLog) -> None:
    ds = _resolve_dataset(cfg)
    rows = ablate(cfg.train_cfg, ds, cfg.seeds)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(
        out_dir / "ablation.csv",
        ["variant"] + [f"seed{s}" for s in cfg.seeds] + ["mean", "std"],
        [[row["variant"], *row["per_seed"], row["mean"], row["std"]] for row in rows],
    )
    _write_run_json(out_dir, cfg, "ablate", ["ablation.csv", "log.txt"])
    for row in rows:
        log.add(f"{row['variant']:>6}: AUROC {row['mean']:.3f} +- {row['std']:.3f}")


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path, log: _RunLog) -> None:
    ds = _resolve_dataset(cfg)
    rows = sweep(cfg.train_cfg, ds, cfg.sweep.windows, cfg.sweep.dims, cfg.seeds)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(out_dir / "sweep.csv", list(rows[0]), [row.values() for row in rows])
    _write_run_json(out_dir, cfg, "sweep", ["sweep.csv", "log.txt"])
    for row in rows:
        log.add(
            f"window={row['window']} dim={row['dim']}: "
            f"AUROC {row['auroc']:.3f} accuracy {row['accuracy']:.3f}"
        )


def cmd_interpret(cfg: ExperimentConfig, out_dir: Path, log: _RunLog, checkpoint: str) -> None:
    _require(checkpoint is not None, "interpret command needs --checkpoint")
    _require(Path(checkpoint).exists(), f"checkpoint '{checkpoint}' does not exist")
    ds = _resolve_dataset(cfg)
    tm = load_model(checkpoint)
    _require(
        tm.v == ds.v,
        f"checkpoint was trained on v={tm.v} ROIs but the dataset has v={ds.v}",
    )
    name = cfg.interpret.split
    if name != "all":
        spec = cfg.train_cfg.seeded(cfg.seeds[0]).split
        try:
            ds = dict(zip(("train", "val", "test"), split(ds, spec)))[name]
        except ValueError as exc:
            raise ConfigError(f"interpret.split {name!r} (split seed {spec.seed}): {exc}") from exc
    counts = [ds.labels().tolist().count(c) for c in range(len(ds.class_names))]
    _require(min(counts) >= 2, f"interpret.split {name!r} holds {ds.n} samples with class counts "
                               f"{counts}; the edge t-tests need at least 2 of each class")
    graphs, labels = collect_graphs(tm, ds)
    edges = edge_ttest(graphs, labels, alpha=cfg.interpret.alpha)
    scores = module_difference_scores(edges, ds.partition, ds.v)

    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = ["log.txt", "mean_graph_all.csv", "mean_graph_all.pgm"]
    export_matrix(mean_graph(graphs), out_dir / "mean_graph_all.csv",
                  heatmap_path=out_dir / "mean_graph_all.pgm")
    for c in sorted(set(int(x) for x in labels)):
        artifacts.append(f"mean_graph_class{c}.csv")
        export_matrix(mean_graph(graphs[labels == c]), out_dir / artifacts[-1])
    _write_table(out_dir / "edges_significant.csv", ["p", "q", "t", "pvalue"],
                 [(e.p, e.q, e.t, e.pvalue) for e in edges.edges])
    export_scores(scores, out_dir / "module_scores.csv")
    artifacts += ["edges_significant.csv", "module_scores.csv"]

    _write_run_json(out_dir, cfg, "interpret", artifacts,
                    extra={"n_edges_flagged": len(edges.edges), "n_edges_tested": edges.n_tested})
    top = ", ".join(f"{s.module}={s.score:.4f}" for s in scores[:3])
    log.add(
        f"interpreted {len(labels)} samples: {len(edges.edges)}/{edges.n_tested} "
        f"edges flagged at alpha={cfg.interpret.alpha}; top modules: {top}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="netgen",
        description="Learnable functional-connectivity graphs: train, compare, interpret.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "train", "compare", "ablate", "sweep", "interpret"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seeds")
        p.add_argument("--epochs", type=int, default=None, help="override train.epochs")
        p.add_argument("--out", default=None, help="override the output directory")
        if name == "interpret":
            p.add_argument("--checkpoint", default=None, help="trained model checkpoint")
    args = parser.parse_args(argv)

    log = _RunLog()
    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg.seeds = _int_list([args.seed], "--seed", 0)
            if args.command == "synth":
                cfg.synth_seed = args.seed
        if args.epochs is not None:
            _require(args.epochs > 0, "--epochs must be positive")
            cfg.train_cfg = replace(cfg.train_cfg, epochs=args.epochs)
        out_dir = Path(args.out) if args.out else Path(cfg.out_dir)

        if args.command == "synth":
            cmd_synth(cfg, out_dir, log)
        elif args.command == "train":
            cmd_train(cfg, out_dir, log)
        elif args.command == "compare":
            cmd_compare(cfg, out_dir, log)
        elif args.command == "ablate":
            cmd_ablate(cfg, out_dir, log)
        elif args.command == "sweep":
            cmd_sweep(cfg, out_dir, log)
        elif args.command == "interpret":
            cmd_interpret(cfg, out_dir, log, checkpoint=args.checkpoint)
        if args.command != "synth":
            log.write(out_dir / "log.txt")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
