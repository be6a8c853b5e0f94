#!/usr/bin/env python3
"""Run the CLI artifact recipe on one source tree and hash what it writes.

    python3 tools/artifacts.py --src DIR --out DIR [--against DIR]

`--src` is a checkout whose `src/` holds the `netgen` package to run, for
example an export of the parent commit. The recipe runs on a v=6, t=40,
n=24 synthetic config with 3 epochs, seeds [0, 1] and a sweep grid of
windows [4, 8] x dims [2, 4]:

- `train` for each of the six pipelines, and `train --seed 7 --epochs 2`
- `interpret` on the fbnetgen-gru and fbnetgen-cnn checkpoints, split "test"
- `compare`, `ablate` and `sweep`
- `synth` into `dataset/`, then `train` and `interpret` (fbnetgen-gru) on a
  config whose dataset section is `{"path": ...}`, which loads those files

It runs once with integer literals in the float-valued keys (`int/`) and
once with floats (`float/`). Every `log.txt` is dropped, since it is the one
artifact that holds timestamps, and the sha256 of every other file goes to
OUT/manifest.sha256. With `--against`, that manifest is compared with the
one in another output directory: the identical and the differing files are
listed, and the exit code is 1 if any file differs or exists on one side
only. Each differing CSV or JSON file also gets the largest absolute and
the largest relative difference between numbers at the same place, each
with the CSV column (header name, else index) or the JSON key it is in;
checkpoint arrays are decoded and compared by value. A recipe command
that fails ends the run with exit code 2.
"""
from __future__ import annotations

import argparse
import base64
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

PIPELINES = ("fbnetgen-cnn", "fbnetgen-gru", "gnn-uniform", "gnn-pearson", "seq-cnn", "seq-gru")
MANIFEST = "manifest.sha256"

# Float-valued keys written as integer literals, then as floats.
VARIANTS = {
    "int": {"lr": 1, "weight_decay": 0, "loss": {"alpha": 0, "beta": 1, "gamma": 0},
            "effect": 2, "noise": 1, "alpha": 1},
    "float": {"lr": 1e-3, "weight_decay": 1e-4,
              "loss": {"alpha": 1e-3, "beta": 1e-3, "gamma": 1e-4},
              "effect": 2.0, "noise": 1.0, "alpha": 0.05},
}


def recipe_config(v: dict) -> dict:
    return {
        "dataset": {"synth": {"v": 6, "t": 40, "n": 24, "modules": {"m1": 3, "m2": 3},
                              "planted": "m1", "effect": v["effect"], "noise": v["noise"],
                              "seed": 3}},
        "encoder": {"kind": "gru", "window": 8, "dim": 4},
        "predictor": {"pooling": "concat", "widths": [8, 4], "mlp_hidden": 8},
        "loss": v["loss"],
        "train": {"lr": v["lr"], "weight_decay": v["weight_decay"], "batch_size": 8,
                  "epochs": 3, "split": {"train": 0.5, "val": 0.25, "test": 0.25}},
        "seeds": [0, 1],
        "sweep": {"windows": [4, 8], "dims": [2, 4]},
        "interpret": {"alpha": v["alpha"], "split": "test"},
    }


def run_recipe(src: Path, out: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src.resolve() / "src")}
    out = out.resolve()

    # Every command runs in OUT, so a dataset path in a config (and in the
    # run.json that records it) is the same relative path on every tree.
    def netgen(*args) -> None:
        done = subprocess.run([sys.executable, "-m", "netgen", *map(str, args)], env=env,
                              cwd=out, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"netgen {' '.join(map(str, args))} exited {done.returncode}:\n{done.stderr}",
                  file=sys.stderr)
            sys.exit(2)

    for name, values in VARIANTS.items():
        root = out / name
        root.mkdir(parents=True)
        base = recipe_config(values)
        for pipeline in PIPELINES:
            config = root / f"config-{pipeline}.json"
            config.write_text(json.dumps({**base, "pipeline": pipeline}, indent=1))
            netgen("train", "--config", config, "--out", root / f"train-{pipeline}")
        config = root / "config.json"
        config.write_text(json.dumps(base, indent=1))
        netgen("train", "--config", config, "--out", root / "train-seed7",
               "--seed", 7, "--epochs", 2)
        for pipeline in ("fbnetgen-gru", "fbnetgen-cnn"):
            netgen("interpret", "--config", config, "--out", root / f"interpret-{pipeline}",
                   "--checkpoint", root / f"train-{pipeline}" / "checkpoint.json")
        for command in ("compare", "ablate", "sweep"):
            netgen(command, "--config", config, "--out", root / command)
        netgen("synth", "--config", config, "--out", root / "dataset")
        config = root / "config-path.json"
        config.write_text(json.dumps({**base, "dataset": {"path": f"{name}/dataset"},
                                      "pipeline": "fbnetgen-gru"}, indent=1))
        netgen("train", "--config", config, "--out", root / "train-path")
        netgen("interpret", "--config", config, "--out", root / "interpret-path",
               "--checkpoint", root / "train-path" / "checkpoint.json")


def write_manifest(out: Path) -> dict:
    for log in out.rglob("log.txt"):
        log.unlink()
    hashes = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(out.rglob("*")) if p.is_file()}
    (out / MANIFEST).write_text("".join(f"{h}  {name}\n" for name, h in hashes.items()))
    return hashes


def read_manifest(out: Path) -> dict:
    hashes = {}
    for line in (out / MANIFEST).read_text().splitlines():
        digest, name = line.split("  ", 1)
        hashes[name] = digest
    return hashes


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_numbers(text: str) -> dict:
    """{column: its numeric cells in row order}; a column is named by the
    header if the first row holds a non-numeric cell, else by its index."""
    rows = [line.split(",") for line in text.splitlines()]
    header = rows.pop(0) if rows and any(_number(c) is None for c in rows[0]) else []
    out = {}
    for row in rows:
        for j, cell in enumerate(row):
            if (x := _number(cell)) is not None:
                out.setdefault(header[j] if j < len(header) else str(j), []).append(x)
    return out


def json_numbers(doc, key: str = "", out=None) -> dict:
    """{dotted key: its numbers in document order}; list items share their
    list's key, and a packed checkpoint array yields its float64 values."""
    out = {} if out is None else out
    if isinstance(doc, dict) and doc.get("dtype") == "<f8" and isinstance(doc.get("data"), str):
        raw = base64.b64decode(doc["data"])
        out.setdefault(key, []).extend(x for (x,) in struct.iter_unpack("<d", raw))
    elif isinstance(doc, dict):
        for k, value in doc.items():
            json_numbers(value, f"{key}.{k}" if key else str(k), out)
    elif isinstance(doc, list):
        for value in doc:
            json_numbers(value, key, out)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        out.setdefault(key, []).append(float(doc))
    return out


def _gaps(xs: list, ys: list) -> list:
    """(absolute, relative) difference of each pair of numbers that differ;
    lists of unequal length, or a NaN or inf against a number, differ
    infinitely."""
    if len(xs) != len(ys):
        return [(math.inf, math.inf)]
    gaps = []
    for x, y in zip(xs, ys):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        gap = abs(x - y)
        gaps.append((gap, gap / max(abs(x), abs(y))) if math.isfinite(gap) else (math.inf, math.inf))
    return gaps


def numeric_diff(ours: Path, theirs: Path):
    """(largest absolute difference, its column or key, largest relative
    difference, its column or key) between two CSV or JSON files, or None
    for any other file or one that does not parse."""
    try:
        if ours.suffix == ".csv":
            a, b = csv_numbers(ours.read_text()), csv_numbers(theirs.read_text())
        elif ours.suffix == ".json":
            a, b = (json_numbers(json.loads(p.read_text())) for p in (ours, theirs))
        else:
            return None
    except ValueError:
        return None
    worst_abs, worst_rel = (0.0, "-"), (0.0, "-")
    for key in sorted(set(a) | set(b)):
        for gap, rel in _gaps(a.get(key, []), b.get(key, [])):
            if gap > worst_abs[0]:
                worst_abs = (gap, key)
            if rel > worst_rel[0]:
                worst_rel = (rel, key)
    return (*worst_abs, *worst_rel)


def compare(ours: dict, theirs: dict, our_dir: Path, their_dir: Path) -> bool:
    """Print the identical and differing files, with the numeric difference
    of each differing CSV or JSON file; True if all are identical."""
    names = sorted(set(ours) | set(theirs))
    same = [n for n in names if ours.get(n) == theirs.get(n)]
    differ = [n for n in names if n in ours and n in theirs and ours[n] != theirs[n]]
    one_side = [n for n in names if (n in ours) != (n in theirs)]
    print(f"identical ({len(same)}):")
    print("".join(f"  {n}\n" for n in same), end="")
    print(f"differing ({len(differ)}):")
    for n in differ:
        diff = numeric_diff(our_dir / n, their_dir / n)
        print(f"  {n}" if diff is None else
              f"  {n}  max abs {diff[0]:.3g} ({diff[1]}), max rel {diff[2]:.3g} ({diff[3]})")
    print(f"on one side only ({len(one_side)}):")
    print("".join(f"  {n}\n" for n in one_side), end="")
    return not differ and not one_side


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path, help="checkout holding src/netgen")
    parser.add_argument("--out", required=True, type=Path, help="new output directory")
    parser.add_argument("--against", type=Path, help="output directory to compare with")
    args = parser.parse_args(argv)
    if not (args.src / "src" / "netgen").is_dir():
        parser.error(f"{args.src}/src/netgen is not a directory")
    if args.out.exists() and any(args.out.iterdir()):
        parser.error(f"{args.out} exists and is not empty")
    if args.against is not None and not (args.against / MANIFEST).is_file():
        parser.error(f"{args.against} holds no {MANIFEST}")
    run_recipe(args.src, args.out)
    ours = write_manifest(args.out)
    print(f"{len(ours)} artifacts hashed into {args.out / MANIFEST}")
    if args.against is None:
        return 0
    return 0 if compare(ours, read_manifest(args.against), args.out, args.against) else 1


if __name__ == "__main__":
    sys.exit(main())
