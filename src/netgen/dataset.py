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


@dataclass
class TimeSeriesSample:
    """One subject: a (v, t) signal matrix and a class label."""

    id: str
    x: np.ndarray
    label: int

    def validate(self) -> None:
        if self.x.ndim != 2 or self.x.shape[0] < 2 or self.x.shape[1] < 2:
            raise DatasetError(
                f"sample {self.id!r}: signal matrix must be at least 2x2, got {self.x.shape}"
            )
        if not np.all(np.isfinite(self.x)):
            raise DatasetError(f"sample {self.id!r}: non-finite value in signal matrix")
        if self.label < 0:
            raise DatasetError(f"sample {self.id!r}: negative label {self.label}")


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
    samples: list
    partition: ModulePartition
    class_names: list

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def v(self) -> int:
        return self.samples[0].x.shape[0]

    @property
    def t(self) -> int:
        return self.samples[0].x.shape[1]

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)

    def validate(self) -> None:
        if not self.samples:
            raise DatasetError("dataset has no samples")
        if len(self.class_names) != 2:
            raise DatasetError(
                f"the task is binary but the dataset declares {len(self.class_names)} "
                f"classes {self.class_names}"
            )
        v, t = self.samples[0].x.shape
        first = {}  # sample id -> index of its first sample
        for i, s in enumerate(self.samples):
            if first.setdefault(s.id, i) != i:
                raise DatasetError(f"samples {first[s.id]} and {i} share the id {s.id!r}")
            s.validate()
            if s.x.shape != (v, t):
                raise DatasetError(
                    f"sample {s.id!r} has shape {s.x.shape}, expected {(v, t)}"
                )
            if s.label >= len(self.class_names):
                raise DatasetError(
                    f"sample {s.id!r} has label {s.label} but only "
                    f"{len(self.class_names)} classes are declared"
                )
        present = set(int(s.label) for s in self.samples)
        missing = [c for c in range(len(self.class_names)) if c not in present]
        if missing:
            raise DatasetError(f"classes {missing} have no samples")
        self.partition.validate_for(v)


@dataclass
class SplitSpec:
    """Train/val/test ratios plus the shuffle seed."""

    train: float = 0.7
    val: float = 0.1
    test: float = 0.2
    seed: int = 0

    def ratios(self):
        r = (self.train, self.val, self.test)
        if not all(np.isfinite(x) and x >= 0 for x in r) or abs(sum(r) - 1.0) > 1e-9:
            raise ValueError(f"split ratios must be finite, non-negative and sum to 1, got {r}")
        return r


@dataclass
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


def zscore_normalize(x: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance rows; constant rows map to all zeros."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=1, keepdims=True)
    std = x.std(axis=1, keepdims=True)
    out = np.zeros_like(x)
    np.divide(x - mean, std, out=out, where=std > 0)
    return out


def pearson_features(x: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlations of the rows of x.

    Rows with zero variance correlate 0 with everything else and 1 with
    themselves, so no NaN ever reaches downstream layers.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError(f"pearson_features needs a (v, t) matrix with t >= 2, got {x.shape}")
    centered = x - x.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=1))
    safe = np.where(norms > 0, norms, 1.0)
    unit = centered / safe[:, None]
    corr = unit @ unit.T
    corr[norms == 0, :] = 0.0
    corr[:, norms == 0] = 0.0
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
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
    labels = ds.labels()
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
        return Dataset(
            samples=[ds.samples[i] for i in indices],
            partition=ds.partition,
            class_names=list(ds.class_names),
        )

    return subset(assignment[0]), subset(assignment[1]), subset(assignment[2])


def generate_synthetic(spec: SynthSpec, seed: int) -> Dataset:
    """Balanced two-class dataset with class signal planted in one module."""
    if spec.planted not in spec.modules:
        raise ValueError(f"planted module '{spec.planted}' is not in the partition")
    if spec.n < 4:
        raise ValueError(f"need at least 4 samples (2 per class), got {spec.n}")
    if spec.effect < 0:
        raise ValueError(f"effect size must be >= 0, got {spec.effect}")
    if sum(spec.modules.values()) > spec.v:
        raise ValueError("module sizes exceed the number of ROIs")

    blocks = {}
    start = 0
    for name, size in spec.modules.items():
        if size < 1:
            raise ValueError(f"module '{name}' must contain at least one ROI")
        blocks[name] = tuple(range(start, start + size))
        start += size
    partition = ModulePartition(blocks)
    # each loose ROI follows a driver of its own, at coupling 1
    drivers = list(blocks.items()) + [(None, (r,)) for r in range(start, spec.v)]

    rng = np.random.default_rng(seed)
    time = np.arange(spec.t) / spec.t
    samples = []
    for i in range(spec.n):
        label = i % 2
        x = np.empty((spec.v, spec.t))
        for name, rois in drivers:
            freq = rng.uniform(1.0, 4.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            driver = np.sin(2.0 * np.pi * freq * time + phase)
            driver = driver + 0.3 * rng.standard_normal(spec.t)
            coupling = 1.0 + (spec.effect if (label == 1 and name == spec.planted) else 0.0)
            for r in rois:
                x[r] = coupling * driver + spec.noise * rng.standard_normal(spec.t)
        samples.append(TimeSeriesSample(id=f"s{i:04d}", x=x, label=label))

    ds = Dataset(samples=samples, partition=partition, class_names=["class0", "class1"])
    ds.validate()
    return ds


def write_dataset(ds: Dataset, path) -> None:
    ds.validate()
    root = Path(path)
    (root / "samples").mkdir(parents=True, exist_ok=True)

    entries = []
    for s in ds.samples:
        rel = f"samples/{s.id}.csv"
        write_matrix_csv(s.x, root / rel)
        entries.append({"id": s.id, "label": int(s.label), "file": rel})

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


def _read_modules(path: Path) -> ModulePartition:
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
    try:
        return ModulePartition(modules)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


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

    samples = []
    for i, entry in enumerate(_typed(manifest["samples"], list, f"{manifest_path}: 'samples'")):
        where = f"{manifest_path}: samples[{i}]"
        for key in ("id", "label", "file"):
            if key not in _typed(entry, dict, where):
                raise DatasetError(f"{where} has no '{key}'")
        sample_id = _typed(entry["id"], str, f"{where}.id")
        label = _typed(entry["label"], int, f"{where}.label")
        if label < 0 or label >= len(class_names):
            raise DatasetError(
                f"{manifest_path}: sample {sample_id!r} has unknown label {label}"
            )
        file = root / _typed(entry["file"], str, f"{where}.file")
        try:
            x = _read_sample_file(file, v, t, sample_id)
        except DatasetError as exc:
            raise DatasetError(f"{where}.file: {exc}") from exc
        samples.append(TimeSeriesSample(id=sample_id, x=x, label=label))

    where = f"{manifest_path}: 'modules_file'"
    modules_path = root / _typed(manifest["modules_file"], str, where)
    try:
        partition = _read_modules(modules_path)
    except DatasetError as exc:
        raise DatasetError(f"{where}: {exc}") from exc

    ds = Dataset(samples=samples, partition=partition, class_names=class_names)
    try:
        ds.validate()
    except DatasetError as exc:
        raise DatasetError(f"{manifest_path}: {exc}") from exc
    return ds
