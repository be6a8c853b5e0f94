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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .dataset import (
    Dataset,
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
    _convert,
    _object,
    _require,
    _section,
    ablate,
    compare,
    load_model,
    run_seeds,
    save_model,
    sweep,
)

__all__ = ["ConfigError", "ExperimentConfig", "main", "entrypoint"]


# The `sweep` and `interpret` sections of an ExperimentConfig.
@dataclass(frozen=True)
class _SweepGrid:
    windows: tuple = ()
    dims: tuple = ()

    def __post_init__(self) -> None:
        _int_list(self.windows, "sweep.windows", 1)
        _int_list(self.dims, "sweep.dims", 1)


@dataclass(frozen=True)
class _Interpret:
    alpha: float = 0.05
    split: str = "all"

    def __post_init__(self) -> None:
        _require(0 < self.alpha <= 1,  # false for NaN too
                 f"interpret.alpha {self.alpha!r} is not a significance level in (0, 1]")
        _require(self.split in ("all", "train", "val", "test"),
                 "interpret.split must be one of all/train/val/test")


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


def _int_list(values, key: str, least: int):
    """`values`, a sequence of ints, if every entry is >= `least`."""
    for x in values:
        _require(x >= least, f"{key} {x!r} is not an integer >= {least}")
    return values


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
        synth_seed = _convert(int, synth_raw.get("seed", synth_seed), "dataset.synth.seed")
        _int_list([synth_seed], "dataset.synth.seed", 0)
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

    pipeline = raw.get("pipeline")
    if pipeline is not None:
        _require(pipeline in PIPELINES, f"unknown pipeline {pipeline!r}; choose from {PIPELINES}")

    seeds = _convert(list, raw.get("seeds", [0]), "seeds")
    _require(seeds, "'seeds' must be a non-empty list of integers")

    return ExperimentConfig(
        dataset_path=dataset_path,
        synth=synth,
        synth_seed=synth_seed,
        train_cfg=train_cfg,
        pipeline=pipeline,
        seeds=_int_list(seeds, "seeds", 0),
        out_dir=_convert(str, raw.get("out_dir", "runs/out"), "out_dir"),
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path!r} cannot be read as text ({exc})") from exc
    return _parse_config(raw, path)


def _resolve_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.synth is not None:
        return generate_synthetic(cfg.synth, seed=cfg.synth_seed)
    path = Path(cfg.dataset_path)
    _require(path.exists(), f"dataset path '{path}' does not exist")
    return load_dataset(path)


class _Run:
    """The output of one command. `path(name)` makes the directory at the
    first artifact and records `name` as it hands out the path; `log` prints
    a line and keeps it, timestamped, for log.txt, the only artifact allowed
    to vary; a command adds its own fields to run.json through `doc`.
    `close` writes log.txt and then run.json, which lists exactly the files
    recorded. A run that records no file (`synth`) writes neither. An `out`
    that is, or lies under, a file is refused when the run is made."""

    def __init__(self, out: Path, command: str, config: dict):
        for path in (out, *out.parents):
            _require(not path.exists() or path.is_dir(),
                     f"output directory '{out}' cannot be made: '{path}' is not a directory")
        self.out = out
        self.doc = {"command": command, "config": config, "artifacts": []}
        self.lines = []

    def path(self, name: str) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        self.doc["artifacts"].append(name)
        return self.out / name

    def log(self, message: str) -> None:
        self.lines.append(f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {message}")
        print(message)

    def close(self) -> None:
        if self.doc["artifacts"]:
            self.path("log.txt").write_text("\n".join(self.lines) + "\n")
            self.doc["artifacts"].sort()
            (self.out / "run.json").write_text(json.dumps(self.doc, indent=1, sort_keys=True))


def _write_table(path: Path, header, rows) -> None:
    """CSV under `header`: strings and ints as they are, floats as repr."""
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else repr(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def cmd_synth(cfg: ExperimentConfig, args, run: _Run) -> None:
    _require(cfg.synth is not None, "synth command needs a dataset.synth section")
    if args.seed is not None:
        cfg.synth_seed = args.seed
    ds = _resolve_dataset(cfg)
    write_dataset(ds, run.out)
    run.log(
        f"wrote synthetic dataset: n={ds.n} v={ds.v} t={ds.t} "
        f"planted={cfg.synth.planted} -> {run.out}"
    )


def cmd_train(cfg: ExperimentConfig, args, run: _Run) -> None:
    ds = _resolve_dataset(cfg)
    [[(tm, history, test_metrics)]] = run_seeds([(cfg.train_cfg, cfg.pipeline)], ds, cfg.seeds[:1])

    save_model(tm, run.path("checkpoint.json"))
    names = [f.name for f in fields(Metrics)]
    _write_table(
        run.path("history.csv"),
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
    run.path("metrics.json").write_text(json.dumps(metrics_doc, indent=1, sort_keys=True))
    run.doc["selected_epoch"] = history.selected_epoch
    run.log(
        f"trained {tm.pipeline} seed={tm.config.seed}: best epoch {history.selected_epoch}, "
        f"test auroc {test_metrics.auroc:.4f}, accuracy {test_metrics.accuracy:.4f}"
    )


def cmd_compare(cfg: ExperimentConfig, args, run: _Run) -> None:
    rows = compare(cfg.train_cfg, _resolve_dataset(cfg), cfg.seeds)
    _write_table(run.path("compare.csv"), list(rows[0]), [row.values() for row in rows])
    for row in rows:
        run.log(
            f"{row['pipeline']:>13}: AUROC {row['auroc_mean']:.3f} +- {row['auroc_std']:.3f}  "
            f"Accuracy {row['accuracy_mean']:.3f} +- {row['accuracy_std']:.3f}"
        )


def cmd_ablate(cfg: ExperimentConfig, args, run: _Run) -> None:
    rows = ablate(cfg.train_cfg, _resolve_dataset(cfg), cfg.seeds)
    _write_table(
        run.path("ablation.csv"),
        ["variant"] + [f"seed{s}" for s in cfg.seeds] + ["mean", "std"],
        [[row["variant"], *row["per_seed"], row["mean"], row["std"]] for row in rows],
    )
    for row in rows:
        run.log(f"{row['variant']:>6}: AUROC {row['mean']:.3f} +- {row['std']:.3f}")


def cmd_sweep(cfg: ExperimentConfig, args, run: _Run) -> None:
    rows = sweep(cfg.train_cfg, _resolve_dataset(cfg), cfg.sweep.windows, cfg.sweep.dims,
                 cfg.seeds)
    _write_table(run.path("sweep.csv"), list(rows[0]), [row.values() for row in rows])
    for row in rows:
        run.log(
            f"window={row['window']} dim={row['dim']}: "
            f"AUROC {row['auroc']:.3f} accuracy {row['accuracy']:.3f}"
        )


def cmd_interpret(cfg: ExperimentConfig, args, run: _Run) -> None:
    _require(args.checkpoint is not None, "interpret command needs --checkpoint")
    _require(Path(args.checkpoint).exists(), f"checkpoint '{args.checkpoint}' does not exist")
    ds = _resolve_dataset(cfg)
    tm = load_model(args.checkpoint)
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

    export_matrix(mean_graph(graphs), run.path("mean_graph_all.csv"),
                  heatmap_path=run.path("mean_graph_all.pgm"))
    for c in sorted(set(int(x) for x in labels)):
        export_matrix(mean_graph(graphs[labels == c]), run.path(f"mean_graph_class{c}.csv"))
    _write_table(run.path("edges_significant.csv"), ["p", "q", "t", "pvalue"],
                 [(e.p, e.q, e.t, e.pvalue) for e in edges.edges])
    export_scores(scores, run.path("module_scores.csv"))
    run.doc.update(n_edges_flagged=len(edges.edges), n_edges_tested=edges.n_tested)
    top = ", ".join(f"{s.module}={s.score:.4f}" for s in scores[:3])
    run.log(
        f"interpreted {len(labels)} samples: {len(edges.edges)}/{edges.n_tested} "
        f"edges flagged at alpha={cfg.interpret.alpha}; top modules: {top}"
    )


# The subcommands, each a function of (config, parsed arguments, _Run).
_COMMANDS = {"synth": cmd_synth, "train": cmd_train, "compare": cmd_compare,
             "ablate": cmd_ablate, "sweep": cmd_sweep, "interpret": cmd_interpret}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="netgen",
        description="Learnable functional-connectivity graphs: train, compare, interpret.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seeds")
        p.add_argument("--epochs", type=int, default=None, help="override train.epochs")
        p.add_argument("--out", default=None, help="override the output directory")
        if name == "interpret":
            p.add_argument("--checkpoint", default=None, help="trained model checkpoint")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg.seeds = _int_list([args.seed], "--seed", 0)
        if args.epochs is not None:
            _require(args.epochs > 0, "--epochs must be positive")
            cfg.train_cfg = replace(cfg.train_cfg, epochs=args.epochs)
        run = _Run(Path(args.out or cfg.out_dir), args.command, cfg.raw)
        _COMMANDS[args.command](cfg, args, run)
        run.close()
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
