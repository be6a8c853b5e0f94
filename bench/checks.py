"""Output checks, each computed apart from the code it checks.

Every check returns None when the output is right and a one-line reason
when it is not.
"""
from __future__ import annotations

import math

import numpy as np

from netgen import dataset, graphgen, nncore

# "Well above chance" for a test AUROC on the planted signal.
MIN_TEST_AUROC = 0.7


def dataset_roundtrip(generated, loaded):
    """The loaded dataset equals the generated one to 9 significant digits."""
    if [s.id for s in loaded.samples] != [s.id for s in generated.samples]:
        return "sample ids differ after the round trip"
    if [s.label for s in loaded.samples] != [s.label for s in generated.samples]:
        return "labels differ after the round trip"
    if loaded.class_names != generated.class_names:
        return "class names differ after the round trip"
    if loaded.partition.modules != generated.partition.modules:
        return "module partition differs after the round trip"
    for a, b in zip(generated.samples, loaded.samples):
        exponent = np.floor(np.log10(np.where(a.x == 0, 1.0, np.abs(a.x))))
        # Half a unit in the 9th significant digit, plus slack for the
        # binary rounding of the parsed decimal.
        limit = 0.5 * 10.0 ** (exponent - 8) * (1 + 1e-9)
        if a.x.shape != b.x.shape or np.any(np.abs(a.x - b.x) > limit):
            return f"sample {a.id} differs beyond 9 significant digits"
    return None


def losses_finite(histories):
    for h in histories:
        for m in h.train + h.val:
            values = (m.ce, m.intra, m.inter, m.sparsity)
            if not all(math.isfinite(x) for x in values):
                return f"non-finite loss component in {values}"
    return None


def class1_scores(tm, xs, feats, batch_size=64):
    """P(class 1) per sample from a forward pass of the eval-mode model,
    batched the way `training.evaluate` batches."""
    tm.model.set_training(False)
    out = []
    for start in range(0, len(xs), batch_size):
        logits, _ = tm.model.forward(
            nncore.Tensor(xs[start : start + batch_size]),
            nncore.Tensor(feats[start : start + batch_size]),
        )
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        p = np.exp(z)
        out.append(p[:, 1] / p.sum(axis=1))
    return np.concatenate(out)


def model_inputs(ds):
    xs = np.stack([dataset.zscore_normalize(s.x) for s in ds.samples])
    feats = np.stack([dataset.pearson_features(s.x) for s in ds.samples])
    return xs, feats, ds.labels()


def auroc_matches_mann_whitney(reported, scores, labels):
    """AUROC equals the Mann-Whitney U of the positives over n0 * n1."""
    from scipy import stats  # imported here to keep it out of the timed set-up

    pos, neg = scores[labels == 1], scores[labels == 0]
    u = stats.mannwhitneyu(pos, neg, alternative="two-sided").statistic
    expected = u / (len(pos) * len(neg))
    if not abs(reported - expected) <= 1e-12:
        return f"evaluate AUROC {reported!r} != Mann-Whitney U/(n0 n1) {expected!r}"
    return None


def auroc_above_chance(reported):
    if not reported >= MIN_TEST_AUROC:
        return f"test AUROC {reported:.4f} is below {MIN_TEST_AUROC}"
    return None


def reload_reproduces(before, after):
    if before.as_dict() != after.as_dict():
        return f"reloaded checkpoint evaluates to {after.as_dict()}, not {before.as_dict()}"
    return None


def welch_edges(graphs, labels):
    """Reference Welch t-test over the upper-triangle edges with scipy.
    Returns (rows, cols, t, p)."""
    from scipy import stats

    iu, ju = np.triu_indices(graphs.shape[1], k=1)
    a = graphs[labels == 0][:, iu, ju]
    b = graphs[labels == 1][:, iu, ju]
    with np.errstate(divide="ignore", invalid="ignore"):
        res = stats.ttest_ind(a, b, axis=0, equal_var=False)
    return iu, ju, np.asarray(res.statistic), np.asarray(res.pvalue)


def edges_match_scipy(edges, graphs, labels, alpha):
    """t and p of every flagged edge match scipy's Welch test and the
    flagged set is exactly {p < alpha}."""
    iu, ju, t, p = welch_edges(graphs, labels)
    tested = ~np.isnan(p)
    if edges.n_tested != int(tested.sum()):
        return f"{edges.n_tested} edges tested, scipy tests {int(tested.sum())}"
    want = {(int(iu[k]), int(ju[k])): k for k in np.flatnonzero(tested & (p < alpha))}
    got = {(e.p, e.q): e for e in edges.edges}
    if set(got) != set(want):
        return (f"flagged set differs from scipy's p < {alpha}: "
                f"{len(set(got) - set(want))} extra, {len(set(want) - set(got))} missing")
    for pair, k in want.items():
        e = got[pair]
        if not (np.isclose(e.t, t[k], rtol=1e-9, atol=0.0)
                and np.isclose(e.pvalue, p[k], rtol=1e-6, atol=1e-300)):
            return f"edge {pair}: t={e.t!r} p={e.pvalue!r}, scipy t={t[k]!r} p={p[k]!r}"
    return None


def planted_module_first(scores, edges, partition, v, planted):
    """Recompute T_u from the flagged edges, compare with the reported
    scores, and require the planted module to rank first."""
    reported = {s.module: s.score for s in scores}
    for name, members in partition.modules.items():
        inside = np.zeros(v, dtype=bool)
        inside[list(members)] = True
        mass = sum(int(inside[e.p]) + int(inside[e.q]) for e in edges.edges)
        expected = mass / (2.0 * v * len(members))
        if not math.isclose(reported[name], expected, rel_tol=1e-12, abs_tol=1e-15):
            return f"module {name} scored {reported[name]!r}, expected {expected!r}"
    best = max(reported.values())
    if scores[0].module != planted or reported[planted] != best:
        top = [(s.module, s.score) for s in scores[:3]]
        return f"planted module {planted} not ranked first: {top}"
    return None


def graphs_valid(graphs, dim):
    """Symmetric, entries in (0, 1], diagonal at least 1/d."""
    if not np.allclose(graphs, graphs.swapaxes(1, 2), rtol=0.0, atol=1e-12):
        return "a generated graph is not symmetric"
    if not (graphs.min() > 0.0 and graphs.max() <= 1.0 + 1e-12):
        return f"graph entries span [{graphs.min()!r}, {graphs.max()!r}], not (0, 1]"
    diag = np.diagonal(graphs, axis1=1, axis2=2)
    if diag.min() < 1.0 / dim - 1e-12:
        return f"graph diagonal {diag.min()!r} is below 1/d = {1.0 / dim!r}"
    return None


def losses_match_oracles(comps, graphs, labels):
    """Group losses of the traced step equal the O(n^2) oracles."""
    g = np.asarray(graphs, dtype=np.float64)
    intra = graphgen.group_intra_loss_oracle(g, labels)
    inter = graphgen.group_inter_loss_oracle(g, labels)
    scale = max(abs(intra), abs(inter), 1e-12)
    # The step runs in float32; the oracles run in float64 on its graphs.
    for name, got, want in (("intra", comps["intra"], intra), ("inter", comps["inter"], inter)):
        if not abs(got - want) <= 1e-4 * scale:
            return f"group {name} loss {got!r} != oracle {want!r}"
    return None
