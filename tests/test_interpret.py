import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgen.dataset import Dataset, DatasetError, ModulePartition, SynthSpec, generate_synthetic
from netgen.encoders import EncoderConfig
from netgen.graphgen import LossWeights
from netgen.interpret import (
    EdgeSet,
    EdgeStat,
    collect_graphs,
    edge_ttest,
    export_matrix,
    export_scores,
    mean_graph,
    module_difference_scores,
)
from netgen.predictor import GcnConfig
from netgen.training import TrainConfig, train
from netgen.dataset import SplitSpec


def trained_tiny_model(seed=0):
    ds = generate_synthetic(
        SynthSpec(v=6, t=24, n=16, modules={"m1": 3, "m2": 3}, planted="m1"), seed=seed
    )
    cfg = TrainConfig(
        encoder=EncoderConfig(kind="gru", window=8, dim=4),
        predictor=GcnConfig(widths=(8, 4), mlp_hidden=8),
        loss=LossWeights(),
        lr=1e-3,
        batch_size=8,
        epochs=1,
        seed=seed,
        split=SplitSpec(0.5, 0.25, 0.25, seed=seed),
    )
    tm, _ = train(cfg, ds)
    return tm, ds


def edge_set(pairs, v=4):
    return EdgeSet(
        edges=[EdgeStat(p=p, q=q, t=0.0, pvalue=0.01) for p, q in pairs],
        alpha=0.05,
        n_tested=v * (v - 1) // 2,
    )


class TestCollectGraphs:
    def test_one_graph_per_sample_with_invariants(self):
        tm, ds = trained_tiny_model()
        graphs, labels = collect_graphs(tm, ds)
        assert graphs.shape == (ds.n, ds.v, ds.v)
        assert np.array_equal(labels, ds.labels())
        for g in graphs:
            assert np.abs(g - g.T).max() <= 1e-9
            assert np.all(g > 0) and np.all(g <= 1.0 + 1e-12)

    def test_deterministic_per_checkpoint(self):
        tm, ds = trained_tiny_model()
        a, _ = collect_graphs(tm, ds)
        b, _ = collect_graphs(tm, ds)
        assert np.array_equal(a, b)

    def test_rejects_pipelines_without_generator(self):
        tm, ds = trained_tiny_model()
        from netgen.training import train as train_fn

        tm2, _ = train_fn(tm.config, ds, pipeline="gnn-uniform")
        with pytest.raises(ValueError, match="does not generate graphs"):
            collect_graphs(tm2, ds)


@functools.lru_cache(maxsize=None)
def invariance_run(kind):
    """A 3-epoch model with a `kind` encoder and the v=12 data it trained on."""
    ds = generate_synthetic(
        SynthSpec(v=12, t=48, n=40, modules={"m1": 4, "m2": 4, "m3": 4}, planted="m1"), seed=0
    )
    cfg = TrainConfig(encoder=EncoderConfig(kind=kind, window=8, dim=4),
                      predictor=GcnConfig(widths=(8, 4), mlp_hidden=8), lr=1e-3, batch_size=8,
                      epochs=3, split=SplitSpec(0.5, 0.25, 0.25, seed=0))
    return train(cfg, ds)[0], ds


def clear_of_alpha(edges: EdgeSet) -> EdgeSet:
    """`edges` less those whose p lies within 1e-9 of alpha: graphs equal
    only to the last bit may put such an edge on either side of alpha."""
    kept = [e for e in edges.edges if abs(e.pvalue - edges.alpha) > 1e-9]
    return EdgeSet(edges=kept, alpha=edges.alpha, n_tested=edges.n_tested)


class TestInvariances:
    """Metamorphic checks of the interpretation: each compares two runs."""

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    @pytest.mark.parametrize("kind", ["gru", "cnn"])
    def test_roi_relabelling_permutes_graphs_edges_and_modules(self, kind, alpha):
        tm, ds = invariance_run(kind)
        perm = np.random.default_rng(1).permutation(ds.v)  # new ROI j is old ROI perm[j]
        place = np.argsort(perm)  # old ROI i is new ROI place[i]
        permuted = Dataset(ids=ds.ids, x=ds.x[:, perm], y=ds.y, class_names=ds.class_names,
                           partition=ModulePartition({name: place[list(members)]
                                                      for name, members
                                                      in ds.partition.modules.items()}))
        graphs, labels = collect_graphs(tm, ds)
        permuted_graphs, permuted_labels = collect_graphs(tm, permuted)
        # P A P^T, equal within rounding: BLAS may block the rows differently
        np.testing.assert_allclose(permuted_graphs, graphs[:, perm][:, :, perm], rtol=0,
                                   atol=1e-12)
        assert np.array_equal(permuted_labels, labels)

        edges = clear_of_alpha(edge_ttest(graphs, labels, alpha))
        permuted_edges = clear_of_alpha(edge_ttest(permuted_graphs, labels, alpha))
        assert edges.edges
        assert permuted_edges.n_tested == edges.n_tested
        mapped = {tuple(sorted((int(perm[e.p]), int(perm[e.q])))) for e in permuted_edges.edges}
        assert mapped == edges.pairs()
        assert (module_difference_scores(permuted_edges, permuted.partition, ds.v)
                == module_difference_scores(edges, ds.partition, ds.v))

    @pytest.mark.parametrize("alpha", [0.05, 1.0])
    @pytest.mark.parametrize("kind", ["gru", "cnn"])
    def test_label_swap_negates_t_and_keeps_p(self, kind, alpha):
        tm, ds = invariance_run(kind)
        swapped = Dataset(ids=ds.ids, x=ds.x, y=1 - ds.y, partition=ds.partition,
                          class_names=ds.class_names[::-1])
        graphs, labels = collect_graphs(tm, ds)
        swapped_graphs, swapped_labels = collect_graphs(tm, swapped)
        assert np.array_equal(swapped_graphs, graphs)
        edges = edge_ttest(graphs, labels, alpha)
        swapped_edges = edge_ttest(swapped_graphs, swapped_labels, alpha)
        assert edges.edges and swapped_edges.n_tested == edges.n_tested
        assert ([(e.p, e.q, e.pvalue) for e in swapped_edges.edges]
                == [(e.p, e.q, e.pvalue) for e in edges.edges])
        assert [e.t for e in swapped_edges.edges] == [-e.t for e in edges.edges]


class TestMeanGraph:
    def test_identical_graphs_unchanged(self):
        g = np.full((3, 2, 2), 0.25)
        assert np.array_equal(mean_graph(g), g[0])

    def test_two_graphs_average(self):
        g = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
        assert np.array_equal(mean_graph(g), 0.5 * np.ones((2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_graph(np.zeros((0, 2, 2)))

    def test_mean_of_valid_graphs_stays_in_range(self):
        rng = np.random.default_rng(0)
        from netgen.graphgen import generate_graph
        from netgen.nncore import Tensor

        graphs = generate_graph(Tensor(rng.standard_normal((10, 4, 3)))).data
        m = mean_graph(graphs)
        assert np.all(m > 0) and np.all(m <= 1.0)


class TestEdgeTtest:
    def test_null_data_flags_about_alpha_fraction(self):
        # 200 samples, no class signal: flagged fraction in [0.02, 0.09]
        rng = np.random.default_rng(42)
        graphs = rng.normal(0.5, 0.1, size=(200, 8, 8))
        graphs = 0.5 * (graphs + graphs.transpose(0, 2, 1))
        labels = np.array([0, 1] * 100)
        edges = edge_ttest(graphs, labels, alpha=0.05)
        assert 0.02 <= edges.flagged_fraction <= 0.09

    def test_strongly_shifted_edge_is_flagged(self):
        rng = np.random.default_rng(7)
        graphs = rng.normal(0.5, 0.05, size=(100, 5, 5))
        graphs = 0.5 * (graphs + graphs.transpose(0, 2, 1))
        labels = np.array([0] * 50 + [1] * 50)
        pooled_sd = 0.05 * np.sqrt(2)  # symmetrization halves variance; stay generous
        graphs[labels == 1, 1, 3] += 5 * pooled_sd
        graphs[labels == 1, 3, 1] += 5 * pooled_sd
        edges = edge_ttest(graphs, labels, alpha=0.05)
        assert (1, 3) in edges.pairs()

    def test_constant_equal_edge_excluded(self):
        rng = np.random.default_rng(1)
        graphs = rng.normal(0.5, 0.1, size=(40, 3, 3))
        graphs[:, 0, 1] = 0.75  # exactly representable, variance is exactly 0
        graphs[:, 1, 0] = 0.75
        labels = np.array([0, 1] * 20)
        edges = edge_ttest(graphs, labels, alpha=0.05)
        assert edges.n_tested == 2  # (0,2) and (1,2) only
        assert (0, 1) not in edges.pairs()

    def test_constant_but_different_edge_flagged(self):
        rng = np.random.default_rng(2)
        graphs = rng.normal(0.5, 0.1, size=(40, 3, 3))
        labels = np.array([0, 1] * 20)
        graphs[labels == 0, 0, 1] = 0.25  # exactly representable: variance 0,
        graphs[labels == 1, 0, 1] = 0.75  # means differ -> degenerate branch
        edges = edge_ttest(graphs, labels, alpha=0.05)
        assert (0, 1) in edges.pairs()
        flagged = [e for e in edges.edges if (e.p, e.q) == (0, 1)][0]
        assert flagged.pvalue == 0.0
        assert np.isinf(flagged.t)

    def test_symmetric_in_class_labels(self):
        rng = np.random.default_rng(3)
        graphs = rng.normal(0.5, 0.1, size=(60, 6, 6))
        labels = rng.integers(0, 2, 60)
        labels[:4] = [0, 0, 1, 1]
        a = edge_ttest(graphs, labels, alpha=0.05)
        b = edge_ttest(graphs, 1 - labels, alpha=0.05)
        assert a.pairs() == b.pairs()

    def test_too_few_samples_rejected(self):
        graphs = np.zeros((3, 3, 3))
        with pytest.raises(ValueError, match="at least 2"):
            edge_ttest(graphs, np.array([0, 1, 1]))


class TestModuleScores:
    def test_empty_edge_set_all_zero(self):
        partition = ModulePartition({"a": [0, 1], "b": [2, 3]})
        scores = module_difference_scores(edge_set([]), partition, v=4)
        assert all(s.score == 0.0 for s in scores)

    def test_hand_checked_internal_edge(self):
        partition = ModulePartition({"u": [0, 1]})
        scores = module_difference_scores(edge_set([(0, 1)]), partition, v=4)
        assert scores[0].score == 0.125  # (1+1) / (2*4*2)

    def test_hand_checked_boundary_edge(self):
        partition = ModulePartition({"u": [0, 1]})
        scores = module_difference_scores(edge_set([(0, 2)]), partition, v=4)
        assert scores[0].score == 0.0625  # (1+0) / (2*4*2)

    def test_ranked_descending_with_name_ties(self):
        partition = ModulePartition({"b": [2, 3], "a": [0, 1], "c": [4, 5]})
        scores = module_difference_scores(edge_set([(0, 2)], v=6), partition, v=6)
        assert [s.module for s in scores] == ["a", "b", "c"]
        assert scores[0].score == scores[1].score > scores[2].score

    def test_orientation_invariance(self):
        partition = ModulePartition({"a": [0, 1], "b": [2, 3]})
        fwd = module_difference_scores(edge_set([(0, 3)]), partition, v=4)
        rev = module_difference_scores(edge_set([(3, 0)]), partition, v=4)
        assert fwd == rev

    @given(st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_matches_loop_over_modules_and_edges(self, seed):
        # the reference: for each module, count the flagged-edge endpoints
        # among its ROIs, one edge at a time
        rng = np.random.default_rng(seed)
        v = int(rng.integers(2, 30))
        rois = rng.permutation(v)[: int(rng.integers(1, v + 1))]
        cuts = np.sort(rng.choice(np.arange(1, len(rois) + 1), size=int(rng.integers(0, 4))))
        blocks = [b for b in np.split(rois, cuts) if len(b)]
        partition = ModulePartition({f"m{i}": b.tolist() for i, b in enumerate(blocks)})
        pairs = [(int(p), int(q)) for p, q in rng.integers(0, v, size=(int(rng.integers(0, 40)), 2))
                 if p != q]
        want = []
        for name, members in partition.modules.items():
            mass = sum((p in members) + (q in members) for p, q in pairs)
            want.append((name, mass / (2.0 * v * len(members))))
        want.sort(key=lambda s: (-s[1], s[0]))
        got = module_difference_scores(edge_set(pairs, v=v), partition, v=v)
        assert [(s.module, s.score) for s in got] == want

    def test_partition_outside_the_rois_rejected(self):
        with pytest.raises(DatasetError, match="outside 0..3"):
            module_difference_scores(edge_set([]), ModulePartition({"a": [0, 5]}), v=4)

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError, match="non-empty partition"):
            module_difference_scores(edge_set([]), ModulePartition({}), v=4)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_incidence_mass_identity(self, seed):
        # for edges within a disjoint full partition:
        # sum_u T_u * |M_u| = |E^d| / v
        rng = np.random.default_rng(seed)
        v = 8
        partition = ModulePartition({"a": [0, 1, 2], "b": [3, 4], "c": [5, 6, 7]})
        all_pairs = [(p, q) for p in range(v) for q in range(p + 1, v)]
        k = int(rng.integers(0, len(all_pairs) + 1))
        chosen = [all_pairs[i] for i in rng.choice(len(all_pairs), size=k, replace=False)]
        scores = module_difference_scores(edge_set(chosen, v=v), partition, v=v)
        mass = sum(s.score * len(partition.modules[s.module]) for s in scores)
        assert mass == pytest.approx(len(chosen) / v, abs=1e-12)


class TestExports:
    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3))
        export_matrix(m, tmp_path / "m.csv")
        lines = (tmp_path / "m.csv").read_text().strip().split("\n")
        parsed = np.array([[float(c) for c in line.split(",")] for line in lines])
        assert np.allclose(parsed, m, atol=1e-8)
        assert len(lines) == 3

    def test_heatmap_pgm(self, tmp_path):
        m = np.array([[0.0, 1.0], [0.5, 0.25]])
        export_matrix(m, tmp_path / "m.csv", heatmap_path=tmp_path / "m.pgm")
        raw = (tmp_path / "m.pgm").read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        pixels = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
        assert pixels.tolist() == [0, 255, 128, 64]

    def test_constant_matrix_heatmap_is_black(self, tmp_path):
        export_matrix(np.full((2, 2), 0.4), tmp_path / "m.csv", heatmap_path=tmp_path / "m.pgm")
        pixels = np.frombuffer((tmp_path / "m.pgm").read_bytes().split(b"255\n", 1)[1], np.uint8)
        assert pixels.tolist() == [0, 0, 0, 0]

    def test_scores_written_in_rank_order(self, tmp_path):
        partition = ModulePartition({"a": [0, 1], "b": [2, 3]})
        scores = module_difference_scores(edge_set([(0, 1), (0, 2)]), partition, v=4)
        export_scores(scores, tmp_path / "scores.csv")
        lines = (tmp_path / "scores.csv").read_text().strip().split("\n")
        assert lines[0] == "module,score"
        assert lines[1].startswith("a,")
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values, reverse=True)
