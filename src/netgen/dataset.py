"""Data model, on-disk formats, node features and the synthetic generator.

A dataset directory holds:
    manifest.json   {"v", "t", "classes", "samples": [{"id","label","file"}],
                     "modules_file"}
    <sample>.csv    v lines, t comma-separated decimal values each
    modules.csv     one `roi_index,module_name` line per ROI in the partition

Numeric values are written as decimal text with 9 significant digits; a
write/load round trip is exact at that precision.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "DatasetError",
    "TimeSeriesSample",
    "ModulePartition",
    "Dataset",
    "SplitSpec",
    "SynthSpec",
    "pearson_features",
    "zscore_normalize",
    "split",
    "generate_synthetic",
    "write_dataset",
    "load_dataset",
    "format_value",
    "write_matrix_csv",
]

FLOAT_FORMAT = "%.9g"


class DatasetError(Exception):
    """Raised for malformed dataset files or invalid dataset contents."""


def format_value(x: float) -> str:
    return FLOAT_FORMAT % x


def write_matrix_csv(matrix: np.ndarray, path) -> None:
    """Write a 2-D matrix in the shared row-per-line CSV convention."""
    matrix = np.asarray(matrix)
    lines = [",".join(format_value(v) for v in row) for row in matrix]
    Path(path).write_text("\n".join(lines) + "\n")


class TimeSeriesSample(NamedTuple):
    """One subject of a Dataset: its id, (v, t) signal matrix and label."""

    id: str
    x: np.ndarray
    label: int


@dataclass
class ModulePartition:
    """Disjoint named ROI index sets (functional modules)."""

    modules: dict

    def __post_init__(self):
        self.modules = {name: tuple(sorted(int(i) for i in idx)) for name, idx in self.modules.items()}
        seen = set()
        for name, idx in self.modules.items():
            if len(idx) == 0:
                raise DatasetError(f"module '{name}' is empty")
            if len(set(idx)) != len(idx):
                raise DatasetError(f"module '{name}' repeats an ROI index")
            overlap = seen.intersection(idx)
            if overlap:
                raise DatasetError(f"module '{name}' overlaps another module on ROIs {sorted(overlap)}")
            seen.update(idx)

    @property
    def covered(self) -> frozenset:
        return frozenset(i for idx in self.modules.values() for i in idx)

    def validate_for(self, v: int) -> None:
        bad = [i for i in self.covered if i < 0 or i >= v]
        if bad:
            raise DatasetError(f"partition indexes {sorted(bad)} fall outside 0..{v - 1}")


@dataclass
class Dataset:
    """n subjects: their `ids`, signals `x` ((n, v, t) float64) and labels
    `y` ((n,) int64), with the ROI partition and the class names."""

    ids: list
    x: np.ndarray
    y: np.ndarray
    partition: ModulePartition
    class_names: list

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def v(self) -> int:
        return self.x.shape[1]

    @property
    def t(self) -> int:
        return self.x.shape[2]

    @property
    def samples(self) -> list:
        """The subjects as TimeSeriesSample records, in order; each `x` is
        a view of its row of `Dataset.x`."""
        return [TimeSeriesSample(*s) for s in zip(self.ids, self.x, self.y.tolist())]

    def labels(self) -> np.ndarray:
        return self.y.copy()

    def validate(self) -> None:
        """DatasetError for the first fault, naming the sample at fault."""
        if len(self.class_names) != 2:
            raise DatasetError(
                f"the task is binary but the dataset declares {len(self.class_names)} "
                f"classes {self.class_names}"
            )
        if not self.ids:
            raise DatasetError("dataset has no samples")
        if self.x.ndim != 3 or self.y.shape != (len(self.ids),) or self.n != len(self.ids):
            raise DatasetError(f"ids, x {self.x.shape} and y {self.y.shape} differ in length")
        if self.v < 2 or self.t < 2:
            raise DatasetError(f"signal matrices must be at least 2x2, got {self.x.shape[1:]}")
        first = {}  # sample id -> index of its first sample
        for i, name in enumerate(self.ids):
            if first.setdefault(name, i) != i:
                raise DatasetError(f"samples {first[name]} and {i} share the id {name!r}")
        bad = np.flatnonzero(~np.isfinite(self.x).all(axis=(1, 2)))
        if bad.size:
            raise DatasetError(f"sample {self.ids[bad[0]]!r}: non-finite value in signal matrix")
        bad = np.flatnonzero((self.y < 0) | (self.y >= len(self.class_names)))
        if bad.size:
            raise DatasetError(f"sample {self.ids[bad[0]]!r} has unknown label {self.y[bad[0]]}")
        missing = sorted(set(range(len(self.class_names))) - set(self.y.tolist()))
        if missing:
            raise DatasetError(f"classes {missing} have no samples")
        self.partition.validate_for(self.v)


@dataclass(frozen=True)
class SplitSpec:
    """Train/val/test ratios plus the shuffle seed."""

    train: float = 0.7
    val: float = 0.1
    test: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        r = self.ratios()
        if not all(np.isfinite(x) and x >= 0 for x in r) or abs(sum(r) - 1.0) > 1e-9:
            raise ValueError(f"train.split: split ratios must be finite, non-negative and "
                             f"sum to 1, got {r}")

    def ratios(self):
        return (self.train, self.val, self.test)


@dataclass(frozen=True)
class SynthSpec:
    """Planted-structure generator settings.

    ROIs within a module share a latent sinusoid-plus-noise driver. For
    class-1 samples the coupling of ROIs inside `planted` is raised by
    `effect`, which raises their mutual correlation.
    """

    v: int = 20
    t: int = 64
    n: int = 400
    modules: dict = field(default_factory=lambda: {"m1": 5, "m2": 5, "m3": 5, "m4": 5})
    planted: str = "m1"
    effect: float = 2.0
    noise: float = 1.0

    def __post_init__(self) -> None:
        for key, size in (("v", self.v), ("t", self.t)):
            if size < 2:
                raise ValueError(f"dataset.synth.{key} must be at least 2 (signal matrices are "
                                 f"at least 2x2), got {size}")
        if self.planted not in self.modules:
            raise ValueError(f"dataset.synth: planted module '{self.planted}' is not in the "
                             "partition")
        if self.n < 4:
            raise ValueError(f"dataset.synth: need at least 4 samples (2 per class), got {self.n}")
        if not (math.isfinite(self.effect) and self.effect >= 0):
            raise ValueError(f"dataset.synth.effect: effect size must be finite and >= 0, "
                             f"got {self.effect}")
        if not (math.isfinite(self.noise) and self.noise > 0):
            raise ValueError(f"dataset.synth.noise must be finite and positive, got {self.noise}")
        if sum(self.modules.values()) > self.v:
            raise ValueError("dataset.synth: module sizes exceed the number of ROIs")
        for name, size in self.modules.items():
            if size < 1:
                raise ValueError(f"dataset.synth: module '{name}' must contain at least one ROI")


def zscore_normalize(x: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance rows of a (v, t) matrix, or of each matrix of
    an (n, v, t) stack; constant rows map to all zeros."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    std = x.std(axis=-1, keepdims=True)
    out = np.zeros_like(x)
    np.divide(x - mean, std, out=out, where=std > 0)
    return out


def pearson_features(x: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlations of the rows of a (v, t) matrix, or of
    each matrix of an (n, v, t) stack.

    Rows with zero variance correlate 0 with everything else and 1 with
    themselves, so no NaN ever reaches downstream layers.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] < 2:
        raise ValueError(f"pearson_features needs (v, t) or (n, v, t) with t >= 2, got {x.shape}")
    centered = x - x.mean(axis=-1, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=-1))
    safe = np.where(norms > 0, norms, 1.0)
    unit = centered / safe[..., None]
    corr = unit @ unit.swapaxes(-1, -2)
    *stack, rows = np.nonzero(norms == 0)  # (matrix, row) of each constant row
    corr[(*stack, rows)] = 0.0
    corr[(*stack, slice(None), rows)] = 0.0
    np.clip(corr, -1.0, 1.0, out=corr)
    diagonal = np.arange(x.shape[-2])
    corr[..., diagonal, diagonal] = 1.0
    return corr


def _split_sizes(total: int, ratios) -> list:
    """Largest-remainder apportionment; ties go to the earlier split."""
    exact = [total * r for r in ratios]
    sizes = [math.floor(e) for e in exact]
    remainders = sorted(
        range(len(ratios)), key=lambda i: (-(exact[i] - sizes[i]), i)
    )
    for i in range(total - sum(sizes)):
        sizes[remainders[i % len(ratios)]] += 1
    return sizes


def split(ds: Dataset, spec: SplitSpec):
    """Label-stratified, seed-deterministic (train, val, test) split: each
    shuffled class fills the floors of its shares, then in class order its
    leftovers go to the first split, by largest remainder, with room left."""
    ratios = spec.ratios()
    labels = ds.y
    rng = np.random.default_rng(spec.seed)
    classes = sorted(set(int(c) for c in labels))
    shuffled = []
    for c in classes:
        idx = np.flatnonzero(labels == c)
        exact = [len(idx) * r for r in ratios]
        shuffled.append((idx[rng.permutation(len(idx))], exact, [math.floor(e) for e in exact]))
    room = _split_sizes(ds.n, ratios)
    for _, _, take in shuffled:
        room = [r - k for r, k in zip(room, take)]

    assignment = [[], [], []]
    for idx, exact, take in shuffled:
        order = sorted(range(3), key=lambda s: (-(exact[s] - take[s]), s))
        for _ in range(len(idx) - sum(take)):
            for s in order:
                if room[s] > 0:
                    take[s] += 1
                    room[s] -= 1
                    break
        pos = 0
        for s in range(3):
            assignment[s].extend(int(i) for i in idx[pos : pos + take[s]])
            pos += take[s]

    train_labels = set(int(labels[i]) for i in assignment[0])
    absent = [c for c in classes if c not in train_labels]
    if absent:
        raise ValueError(
            f"split with ratios {ratios} leaves classes {absent} absent from the training set"
        )

    def subset(indices):
        indices = sorted(indices)
        return Dataset(ids=[ds.ids[i] for i in indices], x=ds.x[indices], y=ds.y[indices],
                       partition=ds.partition, class_names=list(ds.class_names))

    return subset(assignment[0]), subset(assignment[1]), subset(assignment[2])


def generate_synthetic(spec: SynthSpec, seed: int) -> Dataset:
    """Balanced two-class dataset with class signal planted in one module."""
    blocks = {}
    start = 0
    for name, size in spec.modules.items():
        blocks[name] = tuple(range(start, start + size))
        start += size
    partition = ModulePartition(blocks)
    # each loose ROI follows a driver of its own, at coupling 1
    drivers = list(blocks.items()) + [(None, (r,)) for r in range(start, spec.v)]

    rng = np.random.default_rng(seed)
    time = np.arange(spec.t) / spec.t
    y = np.arange(spec.n, dtype=np.int64) % 2
    x = np.empty((spec.n, spec.v, spec.t))
    for i in range(spec.n):
        for name, rois in drivers:
            freq = rng.uniform(1.0, 4.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            driver = np.sin(2.0 * np.pi * freq * time + phase)
            driver = driver + 0.3 * rng.standard_normal(spec.t)
            coupling = 1.0 + (spec.effect if (y[i] == 1 and name == spec.planted) else 0.0)
            for r in rois:
                x[i, r] = coupling * driver + spec.noise * rng.standard_normal(spec.t)

    ds = Dataset(ids=[f"s{i:04d}" for i in range(spec.n)], x=x, y=y, partition=partition,
                 class_names=["class0", "class1"])
    ds.validate()
    return ds


def write_dataset(ds: Dataset, path) -> None:
    ds.validate()
    root = Path(path)
    (root / "samples").mkdir(parents=True, exist_ok=True)

    entries = []
    for sample_id, x, label in zip(ds.ids, ds.x, ds.y.tolist()):
        rel = f"samples/{sample_id}.csv"
        write_matrix_csv(x, root / rel)
        entries.append({"id": sample_id, "label": label, "file": rel})

    module_lines = []
    for name in sorted(ds.partition.modules):
        for roi in ds.partition.modules[name]:
            module_lines.append(f"{roi},{name}")
    module_lines.sort(key=lambda line: int(line.split(",")[0]))
    (root / "modules.csv").write_text("\n".join(module_lines) + "\n")

    manifest = {
        "v": int(ds.v),
        "t": int(ds.t),
        "classes": list(ds.class_names),
        "samples": entries,
        "modules_file": "modules.csv",
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))


def _read_text(path: Path) -> str:
    """The text of `path`, or DatasetError naming it: missing, a directory,
    a name the OS refuses (a NUL byte, a lone surrogate) or not UTF-8."""
    try:
        return path.read_text()
    except (OSError, ValueError) as exc:
        raise DatasetError(f"{str(path)!r}: cannot read as text ({exc!r})") from exc


def _read_sample_file(path: Path, v: int, t: int, sample_id: str) -> np.ndarray:
    rows = []
    text = _read_text(path).strip("\n")
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split(",")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: unparseable value ({exc})") from exc
        if len(parts) != t:
            raise DatasetError(
                f"{path}:{lineno}: sample {sample_id!r} has {len(parts)} values on this line, "
                f"manifest declares t={t}"
            )
    x = np.array(rows, dtype=np.float64)
    if x.shape != (v, t):
        raise DatasetError(
            f"{path}: sample {sample_id!r} has shape {x.shape}, manifest declares {(v, t)}"
        )
    if not np.all(np.isfinite(x)):
        raise DatasetError(f"{path}: sample {sample_id!r} contains a non-finite value")
    return x


_JSON_NAMES = {dict: "object", list: "array", int: "integer", str: "string"}


def _typed(value, kind, where: str):
    """`value` if it is a `kind` (a bool is not an int), else DatasetError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DatasetError(f"{where} must be a JSON {_JSON_NAMES[kind]}, got {value!r}")
    return value


def _read_modules(path: Path, v: int) -> ModulePartition:
    """The partition in `path`: at least one module, every ROI index in 0..v-1."""
    modules: dict = {}
    text = _read_text(path).strip("\n")
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            roi_str, name = line.split(",", 1)
            roi = int(roi_str)
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: expected 'roi_index,module_name'") from exc
        modules.setdefault(name.strip(), []).append(roi)
    if not modules:
        raise DatasetError(f"{path}: holds no modules")
    try:
        partition = ModulePartition(modules)
        partition.validate_for(v)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from exc
    return partition


def load_dataset(path) -> Dataset:
    """The dataset under `path`. Any fault raises DatasetError naming
    manifest.json, with the key at fault, and the file and line for a
    fault inside a file the manifest names."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise DatasetError(f"no manifest.json under '{root}'")
    try:
        manifest = json.loads(_read_text(manifest_path))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{manifest_path}: malformed JSON ({exc})") from exc
    _typed(manifest, dict, str(manifest_path))
    for key in ("v", "t", "classes", "samples", "modules_file"):
        if key not in manifest:
            raise DatasetError(f"{manifest_path}: missing key '{key}'")
    v = _typed(manifest["v"], int, f"{manifest_path}: 'v'")
    t = _typed(manifest["t"], int, f"{manifest_path}: 't'")
    class_names = _typed(manifest["classes"], list, f"{manifest_path}: 'classes'")
    for i, name in enumerate(class_names):
        _typed(name, str, f"{manifest_path}: classes[{i}]")

    ids, xs, labels = [], [], []
    for i, entry in enumerate(_typed(manifest["samples"], list, f"{manifest_path}: 'samples'")):
        where = f"{manifest_path}: samples[{i}]"
        for key in ("id", "label", "file"):
            if key not in _typed(entry, dict, where):
                raise DatasetError(f"{where} has no '{key}'")
        ids.append(_typed(entry["id"], str, f"{where}.id"))
        labels.append(_typed(entry["label"], int, f"{where}.label"))
        file = root / _typed(entry["file"], str, f"{where}.file")
        try:
            xs.append(_read_sample_file(file, v, t, ids[-1]))
        except DatasetError as exc:
            raise DatasetError(f"{where}.file: {exc}") from exc

    where = f"{manifest_path}: 'modules_file'"
    modules_path = root / _typed(manifest["modules_file"], str, where)
    try:
        partition = _read_modules(modules_path, v)
    except DatasetError as exc:
        raise DatasetError(f"{where}: {exc}") from exc

    try:
        y = np.array(labels, dtype=np.int64)
    except OverflowError as exc:
        raise DatasetError(f"{manifest_path}: a sample label does not fit in int64") from exc
    # An empty `samples` array stacks to shape (0,): `validate` reports it
    ds = Dataset(ids=ids, x=np.array(xs), y=y, partition=partition, class_names=class_names)
    try:
        ds.validate()
    except DatasetError as exc:
        raise DatasetError(f"{manifest_path}: {exc}") from exc
    return ds
