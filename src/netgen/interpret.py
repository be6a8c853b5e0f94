"""Post-hoc analysis of generated graphs.

Mean heatmaps, Welch t-tests for edges whose strength differs between
classes, and per-module difference scores
T_u = sum_{(p,q) in E_d} [1(p in M_u) + 1(q in M_u)] / (2 v |M_u|).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special

from .dataset import ModulePartition, Dataset, format_value, write_matrix_csv, zscore_normalize
from .nncore import no_grad
from .training import ConfigError, TrainedModel, _eval_batches

__all__ = [
    "EdgeStat",
    "EdgeSet",
    "ModuleScore",
    "collect_graphs",
    "mean_graph",
    "edge_ttest",
    "module_difference_scores",
    "export_matrix",
    "export_scores",
]


@dataclass
class EdgeStat:
    p: int
    q: int
    t: float
    pvalue: float


@dataclass
class EdgeSet:
    """Significant upper-triangle edges plus the number of edges tested."""

    edges: list
    alpha: float
    n_tested: int

    def pairs(self) -> set:
        return {(e.p, e.q) for e in self.edges}

    @property
    def flagged_fraction(self) -> float:
        return len(self.edges) / self.n_tested if self.n_tested else 0.0


@dataclass
class ModuleScore:
    module: str
    score: float


def collect_graphs(tm: TrainedModel, ds: Dataset):
    """Generated graph per sample, eval mode, encoder + generator only;
    ConfigError for a model that generates none or a dataset unlike the one
    it was trained on."""
    if tm.model.graph != "generated":
        raise ConfigError(
            f"pipeline '{tm.pipeline}' does not generate graphs; "
            "interpretation needs a learnable-graph checkpoint"
        )
    tm.check_fit(ds)
    xs = zscore_normalize(ds.x)
    tm.model.set_training(False)
    with no_grad():
        out = [tm.model.graphs(xs[batch]).data for batch in _eval_batches(ds.n)]
    return np.concatenate(out, axis=0), ds.labels()


def mean_graph(graphs) -> np.ndarray:
    graphs = np.asarray(graphs, dtype=np.float64)
    if graphs.ndim != 3 or graphs.shape[0] == 0:
        raise ValueError("mean_graph needs a non-empty (n, v, v) stack")
    return graphs.mean(axis=0)


def _welch(a: np.ndarray, b: np.ndarray):
    """Vectorized two-sided Welch t-test along axis 0.

    Returns (t, pvalue) arrays. Edges with zero variance in both groups get
    t = +-inf and p = 0 when the means differ, and NaN (caller excludes)
    when the means are equal.
    """
    n_a, n_b = a.shape[0], b.shape[0]
    mean_a, mean_b = a.mean(axis=0), b.mean(axis=0)
    var_a = a.var(axis=0, ddof=1)
    var_b = b.var(axis=0, ddof=1)
    se_sq = var_a / n_a + var_b / n_b
    diff = mean_a - mean_b
    with np.errstate(divide="ignore", invalid="ignore"):
        t = diff / np.sqrt(se_sq)
        df = se_sq**2 / (
            (var_a / n_a) ** 2 / (n_a - 1) + (var_b / n_b) ** 2 / (n_b - 1)
        )
        p = 2.0 * special.stdtr(df, -np.abs(t))
    with np.errstate(invalid="ignore"):
        degenerate = se_sq == 0
        exact_diff = degenerate & (diff != 0)
        t = np.where(exact_diff, np.sign(diff) * np.inf, t)
        p = np.where(exact_diff, 0.0, p)
        undefined = degenerate & (diff == 0)
        t = np.where(undefined, np.nan, t)
        p = np.where(undefined, np.nan, p)
    return t, p


def edge_ttest(graphs, labels, alpha: float = 0.05) -> EdgeSet:
    """Welch t-test per upper-triangle edge between class 0 and class 1.

    An edge enters the set iff p < alpha. Edges constant and equal in both
    groups are excluded from testing (undefined statistic).
    """
    graphs = np.asarray(graphs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    for c in (0, 1):
        if (labels == c).sum() < 2:
            raise ValueError(f"edge_ttest needs at least 2 samples of class {c}")
    v = graphs.shape[1]
    iu, ju = np.triu_indices(v, k=1)
    a = graphs[labels == 0][:, iu, ju]
    b = graphs[labels == 1][:, iu, ju]
    t, p = _welch(a, b)
    tested = ~np.isnan(p)
    flagged = tested & (p < alpha)
    edges = [
        EdgeStat(p=int(iu[k]), q=int(ju[k]), t=float(t[k]), pvalue=float(p[k]))
        for k in np.flatnonzero(flagged)
    ]
    return EdgeSet(edges=edges, alpha=alpha, n_tested=int(tested.sum()))


def module_difference_scores(edges: EdgeSet, partition: ModulePartition, v: int):
    """Exact per-module difference scores, ranked descending (ties by name).

    A module's mass is the number of flagged-edge endpoints among its ROIs
    (0..v-1); endpoints outside every module contribute no mass, which is
    what the score's definition computes.
    """
    if not partition.modules:
        raise ValueError("module scores need a non-empty partition")
    partition.validate_for(v)
    ends = np.bincount([i for e in edges.edges for i in (e.p, e.q)], minlength=v)
    scores = []
    for name, members in partition.modules.items():
        mass = int(ends[list(members)].sum())
        scores.append(ModuleScore(module=name, score=mass / (2.0 * v * len(members))))
    scores.sort(key=lambda s: (-s.score, s.module))
    return scores


def export_matrix(matrix: np.ndarray, path, heatmap_path=None) -> None:
    """Matrix as row-per-line CSV; optionally also a grayscale PGM heatmap
    (binary P5, row-major, min-max scaled to 0..255)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    write_matrix_csv(matrix, path)
    if heatmap_path is None:
        return
    lo, hi = float(matrix.min()), float(matrix.max())
    if hi > lo:
        scaled = np.round((matrix - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(matrix)
    pixels = scaled.astype(np.uint8)
    header = f"P5\n{matrix.shape[1]} {matrix.shape[0]}\n255\n".encode("ascii")
    Path(heatmap_path).write_bytes(header + pixels.tobytes())


def export_scores(scores, path) -> None:
    lines = ["module,score"]
    lines.extend(f"{s.module},{format_value(s.score)}" for s in scores)
    Path(path).write_text("\n".join(lines) + "\n")
