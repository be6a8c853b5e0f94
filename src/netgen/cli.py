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
from dataclasses import dataclass, field, replace
from pathlib import Path

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
from .predictor import GcnConfig, PIPELINES, pipeline_encoder
from .training import (
    TrainConfig,
    ablate,
    compare,
    evaluate,
    load_model,
    save_model,
    sweep,
    train,
)

__all__ = ["ConfigError", "ExperimentConfig", "main", "entrypoint"]


class ConfigError(Exception):
    """Invalid experiment configuration; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    dataset_path: str | None
    synth: SynthSpec | None
    synth_seed: int
    train_cfg: TrainConfig
    pipeline: str | None
    seeds: list
    out_dir: str
    sweep_windows: list = field(default_factory=list)
    sweep_dims: list = field(default_factory=list)
    interpret_alpha: float = 0.05
    interpret_split: str = "all"
    raw: dict = field(default_factory=dict)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    _require(not unknown, f"unknown keys {unknown} in '{where}' section")


def _parse_config(raw: dict, path: str) -> ExperimentConfig:
    _require(isinstance(raw, dict), f"{path}: top level must be a JSON object")
    _check_keys(
        raw,
        {
            "dataset",
            "encoder",
            "predictor",
            "loss",
            "train",
            "pipeline",
            "seeds",
            "out_dir",
            "sweep",
            "interpret",
        },
        "top level",
    )
    dataset = raw.get("dataset")
    _require(isinstance(dataset, dict), "config needs a 'dataset' section")
    _check_keys(dataset, {"path", "synth"}, "dataset")
    dataset_path = dataset.get("path")
    synth_raw = dataset.get("synth")
    _require(
        (dataset_path is None) != (synth_raw is None),
        "dataset section needs exactly one of 'path' or 'synth'",
    )
    synth = None
    synth_seed = 0
    if synth_raw is not None:
        _check_keys(
            synth_raw,
            {"v", "t", "n", "modules", "planted", "effect", "noise", "seed"},
            "dataset.synth",
        )
        synth_seed = int(synth_raw.get("seed", 0))
        try:
            synth = SynthSpec(
                v=int(synth_raw.get("v", 20)),
                t=int(synth_raw.get("t", 64)),
                n=int(synth_raw.get("n", 400)),
                modules={str(k): int(s) for k, s in synth_raw.get("modules", SynthSpec().modules).items()},
                planted=str(synth_raw.get("planted", "m1")),
                effect=float(synth_raw.get("effect", 2.0)),
                noise=float(synth_raw.get("noise", 1.0)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"dataset.synth: {exc}") from exc

    enc_raw = raw.get("encoder", {})
    _check_keys(enc_raw, {"kind", "window", "dim"}, "encoder")
    encoder = EncoderConfig(
        kind=str(enc_raw.get("kind", "gru")),
        window=int(enc_raw.get("window", 16)),
        dim=int(enc_raw.get("dim", 8)),
    )

    pred_raw = raw.get("predictor", {})
    _check_keys(pred_raw, {"pooling", "widths", "mlp_hidden"}, "predictor")
    predictor = GcnConfig(
        widths=tuple(pred_raw.get("widths", (32, 32, 8))),
        pooling=str(pred_raw.get("pooling", "concat")),
        mlp_hidden=int(pred_raw.get("mlp_hidden", 32)),
    )

    loss_raw = raw.get("loss", {})
    _check_keys(loss_raw, {"alpha", "beta", "gamma"}, "loss")
    loss = LossWeights(
        alpha=float(loss_raw.get("alpha", 1e-3)),
        beta=float(loss_raw.get("beta", 1e-3)),
        gamma=float(loss_raw.get("gamma", 1e-4)),
    )

    train_raw = raw.get("train", {})
    _check_keys(
        train_raw,
        {"lr", "weight_decay", "batch_size", "epochs", "split"},
        "train",
    )
    split_raw = train_raw.get("split", {})
    _check_keys(split_raw, {"train", "val", "test"}, "train.split")
    split_spec = SplitSpec(
        train=float(split_raw.get("train", 0.7)),
        val=float(split_raw.get("val", 0.1)),
        test=float(split_raw.get("test", 0.2)),
    )
    train_cfg = TrainConfig(
        encoder=encoder,
        predictor=predictor,
        loss=loss,
        lr=float(train_raw.get("lr", 1e-4)),
        weight_decay=float(train_raw.get("weight_decay", 1e-4)),
        batch_size=int(train_raw.get("batch_size", 16)),
        epochs=int(train_raw.get("epochs", 500)),
        split=split_spec,
    )
    try:
        train_cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    pipeline = raw.get("pipeline")
    if pipeline is not None:
        _require(pipeline in PIPELINES, f"unknown pipeline {pipeline!r}; choose from {PIPELINES}")

    seeds = raw.get("seeds", [0])
    _require(
        isinstance(seeds, list) and seeds and all(isinstance(s, int) for s in seeds),
        "'seeds' must be a non-empty list of integers",
    )

    sweep_raw = raw.get("sweep", {})
    _check_keys(sweep_raw, {"windows", "dims"}, "sweep")
    interp_raw = raw.get("interpret", {})
    _check_keys(interp_raw, {"alpha", "split"}, "interpret")
    interp_split = str(interp_raw.get("split", "all"))
    _require(
        interp_split in ("all", "train", "val", "test"),
        "interpret.split must be one of all/train/val/test",
    )

    return ExperimentConfig(
        dataset_path=dataset_path,
        synth=synth,
        synth_seed=synth_seed,
        train_cfg=train_cfg,
        pipeline=pipeline,
        seeds=list(seeds),
        out_dir=str(raw.get("out_dir", "runs/out")),
        sweep_windows=list(sweep_raw.get("windows", [])),
        sweep_dims=list(sweep_raw.get("dims", [])),
        interpret_alpha=float(interp_raw.get("alpha", 0.05)),
        interpret_split=interp_split,
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


def _check_series_length(cfg: ExperimentConfig, ds: Dataset, pipelines, windows=None,
                         key: str = "encoder.window") -> None:
    """Reject up front every encoder window, among those the run will train
    with, that is too long for the dataset's series."""
    for pipeline in pipelines:
        for window in windows or [cfg.train_cfg.encoder.window]:
            enc = pipeline_encoder(pipeline, replace(cfg.train_cfg.encoder, window=window))
            if enc is not None and ds.t < enc.min_length():
                raise ConfigError(
                    f"{key} {window} is too long for the series: the {pipeline} pipeline "
                    f"needs t >= {enc.min_length()}, the dataset has t={ds.t}"
                )


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


def _write_run_json(out: Path, cfg: ExperimentConfig, command: str, artifacts, extra=None):
    doc = {
        "command": command,
        "config": cfg.raw,
        "artifacts": sorted(artifacts),
    }
    if extra:
        doc.update(extra)
    (out / "run.json").write_text(json.dumps(doc, indent=1, sort_keys=True))


def _metrics_row(m) -> dict:
    return {
        "auroc": m.auroc,
        "accuracy": m.accuracy,
        "ce": m.ce,
        "intra": m.intra,
        "inter": m.inter,
        "sparsity": m.sparsity,
    }


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
    _check_series_length(cfg, ds, [cfg.pipeline or f"fbnetgen-{cfg.train_cfg.encoder.kind}"])
    seed = cfg.seeds[0]
    run_cfg = replace(cfg.train_cfg, seed=seed, split=replace(cfg.train_cfg.split, seed=seed))
    tm, history = train(run_cfg, ds, pipeline=cfg.pipeline)
    _, _, test_ds = split(ds, run_cfg.split)
    test_metrics = evaluate(tm, test_ds)

    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(tm, out_dir / "checkpoint.json")
    header = ["epoch"]
    for side in ("train", "val"):
        header += [f"{side}_{k}" for k in ("auroc", "accuracy", "ce", "intra", "inter", "sparsity")]
    rows = [",".join(header)]
    for epoch, (mt, mv) in enumerate(zip(history.train, history.val)):
        cells = [str(epoch)]
        for m in (mt, mv):
            cells += [repr(x) for x in (m.auroc, m.accuracy, m.ce, m.intra, m.inter, m.sparsity)]
        rows.append(",".join(cells))
    (out_dir / "history.csv").write_text("\n".join(rows) + "\n")
    metrics_doc = {
        "selected_epoch": history.selected_epoch,
        "val_at_selected": _metrics_row(history.val[history.selected_epoch]),
        "test": _metrics_row(test_metrics),
        "pipeline": tm.pipeline,
        "seed": seed,
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
        f"trained {tm.pipeline} seed={seed}: best epoch {history.selected_epoch}, "
        f"test auroc {test_metrics.auroc:.4f}, accuracy {test_metrics.accuracy:.4f}"
    )


def cmd_compare(cfg: ExperimentConfig, out_dir: Path, log: _RunLog) -> None:
    ds = _resolve_dataset(cfg)
    _check_series_length(cfg, ds, PIPELINES)
    rows = compare(cfg.train_cfg, ds, cfg.seeds)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["pipeline,auroc_mean,auroc_std,accuracy_mean,accuracy_std"]
    for row in rows:
        lines.append(
            f"{row['pipeline']},{row['auroc_mean']!r},{row['auroc_std']!r},"
            f"{row['accuracy_mean']!r},{row['accuracy_std']!r}"
        )
    (out_dir / "compare.csv").write_text("\n".join(lines) + "\n")
    _write_run_json(out_dir, cfg, "compare", ["compare.csv", "log.txt"])
    for row in rows:
        log.add(
            f"{row['pipeline']:>13}: AUROC {row['auroc_mean']:.3f} +- {row['auroc_std']:.3f}  "
            f"Accuracy {row['accuracy_mean']:.3f} +- {row['accuracy_std']:.3f}"
        )


def cmd_ablate(cfg: ExperimentConfig, out_dir: Path, log: _RunLog) -> None:
    ds = _resolve_dataset(cfg)
    _check_series_length(cfg, ds, [f"fbnetgen-{cfg.train_cfg.encoder.kind}"])
    rows = ablate(cfg.train_cfg, ds, cfg.seeds)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ["variant"] + [f"seed{s}" for s in cfg.seeds] + ["mean", "std"]
    lines = [",".join(header)]
    for row in rows:
        cells = [row["variant"]] + [repr(x) for x in row["per_seed"]]
        cells += [repr(row["mean"]), repr(row["std"])]
        lines.append(",".join(cells))
    (out_dir / "ablation.csv").write_text("\n".join(lines) + "\n")
    _write_run_json(out_dir, cfg, "ablate", ["ablation.csv", "log.txt"])
    for row in rows:
        log.add(f"{row['variant']:>6}: AUROC {row['mean']:.3f} +- {row['std']:.3f}")


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path, log: _RunLog) -> None:
    _require(
        bool(cfg.sweep_windows) and bool(cfg.sweep_dims),
        "sweep command needs a 'sweep' section with non-empty 'windows' and 'dims'",
    )
    ds = _resolve_dataset(cfg)
    _check_series_length(
        cfg, ds, [f"fbnetgen-{cfg.train_cfg.encoder.kind}"], cfg.sweep_windows, "sweep.windows"
    )
    rows = sweep(cfg.train_cfg, ds, cfg.sweep_windows, cfg.sweep_dims, seeds=cfg.seeds)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["window,dim,auroc,accuracy"]
    for row in rows:
        lines.append(f"{row['window']},{row['dim']},{row['auroc']!r},{row['accuracy']!r}")
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
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
    if cfg.interpret_split != "all":
        seed = cfg.seeds[0]
        parts = split(ds, replace(cfg.train_cfg.split, seed=seed))
        ds = dict(zip(("train", "val", "test"), parts))[cfg.interpret_split]
    graphs, labels = collect_graphs(tm, ds)
    out_dir.mkdir(parents=True, exist_ok=True)

    artifacts = ["log.txt"]
    export_matrix(mean_graph(graphs), out_dir / "mean_graph_all.csv",
                  heatmap_path=out_dir / "mean_graph_all.pgm")
    artifacts += ["mean_graph_all.csv", "mean_graph_all.pgm"]
    for c in sorted(set(int(x) for x in labels)):
        name = f"mean_graph_class{c}.csv"
        export_matrix(mean_graph(graphs[labels == c]), out_dir / name)
        artifacts.append(name)

    edges = edge_ttest(graphs, labels, alpha=cfg.interpret_alpha)
    lines = ["p,q,t,pvalue"]
    lines.extend(f"{e.p},{e.q},{e.t!r},{e.pvalue!r}" for e in edges.edges)
    (out_dir / "edges_significant.csv").write_text("\n".join(lines) + "\n")
    artifacts.append("edges_significant.csv")

    scores = module_difference_scores(edges, ds.partition, ds.v)
    export_scores(scores, out_dir / "module_scores.csv")
    artifacts.append("module_scores.csv")

    _write_run_json(out_dir, cfg, "interpret", artifacts,
                    extra={"n_edges_flagged": len(edges.edges), "n_edges_tested": edges.n_tested})
    top = ", ".join(f"{s.module}={s.score:.4f}" for s in scores[:3])
    log.add(
        f"interpreted {len(labels)} samples: {len(edges.edges)}/{edges.n_tested} "
        f"edges flagged at alpha={cfg.interpret_alpha}; top modules: {top}"
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
            cfg.seeds = [args.seed]
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
