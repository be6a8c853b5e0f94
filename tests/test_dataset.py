import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from netgen.dataset import (
    Dataset,
    DatasetError,
    ModulePartition,
    SplitSpec,
    SynthSpec,
    generate_synthetic,
    load_dataset,
    pearson_features,
    split,
    write_dataset,
    zscore_normalize,
)


MANIFEST = "manifest.json"


def small_dataset(n=6, v=4, t=8, seed=0):
    rng = np.random.default_rng(seed)
    x = np.stack([rng.standard_normal((v, t)) for _ in range(n)])
    partition = ModulePartition({"a": range(0, v // 2), "b": range(v // 2, v)})
    return Dataset(ids=[f"s{i}" for i in range(n)], x=x, y=np.arange(n) % 2,
                   partition=partition, class_names=["c0", "c1"])


class TestPearson:
    def test_identical_rows_correlate_one(self):
        row = np.array([1.0, 2.0, 4.0, 3.0])
        f = pearson_features(np.stack([row, row]))
        assert abs(f[0, 1] - 1.0) < 1e-12

    def test_negated_row_correlates_minus_one(self):
        row = np.array([1.0, 2.0, 4.0, 3.0])
        f = pearson_features(np.stack([row, -row]))
        assert abs(f[0, 1] + 1.0) < 1e-12

    def test_constant_row_convention(self):
        f = pearson_features(np.array([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]]))
        assert f[0, 1] == 0.0 and f[1, 0] == 0.0
        assert f[0, 0] == 1.0 and f[1, 1] == 1.0

    def test_t_below_two_rejected(self):
        with pytest.raises(ValueError):
            pearson_features(np.ones((3, 1)))

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 6), st.integers(2, 10)),
            elements=st.floats(-100, 100),
        )
    )
    def test_symmetric_unit_diagonal_bounded(self, x):
        f = pearson_features(x)
        assert np.array_equal(f, f.T)
        assert np.array_equal(np.diag(f), np.ones(x.shape[0]))
        assert np.all(f >= -1.0) and np.all(f <= 1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_invariant_under_common_time_permutation(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 9))
        perm = rng.permutation(9)
        assert np.all(np.abs(pearson_features(x) - pearson_features(x[:, perm])) < 1e-12)


class TestZscore:
    def test_row_standardized(self):
        out = zscore_normalize(np.array([[1.0, 2.0, 3.0]]))
        assert abs(out.mean()) < 1e-12
        assert abs(out.var() - 1.0) < 1e-12

    def test_constant_row_maps_to_zero(self):
        assert np.array_equal(zscore_normalize(np.array([[5.0, 5.0, 5.0]])), np.zeros((1, 3)))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 12)) * 7 + 2
        once = zscore_normalize(x)
        assert np.all(np.abs(zscore_normalize(once) - once) < 1e-12)


@pytest.mark.parametrize("v,t", [(20, 64), (264, 32)])
def test_stacked_features_equal_each_matrix_features(v, t):
    x = np.random.default_rng(v).standard_normal((5, v, t))
    x[2, 3] = 0.1  # a constant row
    assert np.array_equal(zscore_normalize(x), np.stack([zscore_normalize(m) for m in x]))
    assert np.array_equal(pearson_features(x), np.stack([pearson_features(m) for m in x]))


class TestSplit:
    def test_spec_ratio_sizes(self):
        ds = small_dataset(n=10)
        tr, va, te = split(ds, SplitSpec(0.7, 0.1, 0.2, seed=1))
        assert (tr.n, va.n, te.n) == (7, 1, 2)

    def test_same_seed_same_assignment(self):
        ds = small_dataset(n=20)
        a = split(ds, SplitSpec(seed=5))
        b = split(ds, SplitSpec(seed=5))
        for x, y in zip(a, b):
            assert [s.id for s in x.samples] == [s.id for s in y.samples]

    def test_different_seed_changes_assignment(self):
        ds = small_dataset(n=40)
        a = split(ds, SplitSpec(seed=1))
        b = split(ds, SplitSpec(seed=2))
        assert any(
            [s.id for s in x.samples] != [s.id for s in y.samples] for x, y in zip(a, b)
        )

    def test_stratified_on_balanced_binary(self):
        ds = small_dataset(n=100)
        tr, va, te = split(ds, SplitSpec(0.7, 0.1, 0.2, seed=3))
        labels = tr.labels()
        assert abs(int((labels == 0).sum()) - 35) <= 1
        assert abs(int((labels == 1).sum()) - 35) <= 1

    @given(st.integers(0, 10_000), st.integers(10, 60))
    @settings(max_examples=30, deadline=None)
    def test_disjoint_cover(self, seed, n):
        ds = small_dataset(n=n)
        tr, va, te = split(ds, SplitSpec(seed=seed))
        ids = [s.id for part in (tr, va, te) for s in part.samples]
        assert sorted(ids) == sorted(s.id for s in ds.samples)
        assert len(set(ids)) == len(ids)

    def test_class_absent_from_train_rejected(self):
        ds = small_dataset(n=6)
        with pytest.raises(ValueError, match="absent from the training set"):
            split(ds, SplitSpec(0.0, 0.5, 0.5, seed=0))

    def test_bad_ratios_rejected(self):
        ds = small_dataset()
        with pytest.raises(ValueError, match="sum to 1"):
            split(ds, SplitSpec(0.5, 0.1, 0.1, seed=0))


def file_bytes(tokens):
    """File contents: `tokens` that parse or not, separators and a byte
    that is not UTF-8."""
    separators = [b",", b",", b"\n", b"\n", b" ", b"\r", b"", b"\xff", b"x"]
    return st.lists(st.sampled_from(tokens + separators), max_size=30).map(b"".join)


class TestRoundTrip:
    def test_write_then_load_round_trips(self, tmp_path):
        ds = small_dataset()
        write_dataset(ds, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert loaded.n == ds.n
        assert loaded.class_names == ds.class_names
        assert loaded.partition.modules == ds.partition.modules
        # values survive a second cycle bit-exactly (9 significant digits)
        write_dataset(loaded, tmp_path / "d2")
        again = load_dataset(tmp_path / "d2")
        for a, b in zip(loaded.samples, again.samples):
            assert a.id == b.id and a.label == b.label
            assert np.array_equal(a.x, b.x)

    def test_values_representable_at_declared_precision_round_trip_exactly(self, tmp_path):
        ds = small_dataset()
        ds.x = np.vectorize(lambda u: float("%.9g" % u))(ds.x)
        write_dataset(ds, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        for a, b in zip(ds.samples, loaded.samples):
            assert np.array_equal(a.x, b.x)

    def test_empty_dataset_rejected(self, tmp_path):
        ds = small_dataset()
        ds.ids, ds.x, ds.y = [], ds.x[:0], ds.y[:0]
        with pytest.raises(DatasetError, match="no samples"):
            write_dataset(ds, tmp_path / "d")

    def test_module_file_lists_modules(self, tmp_path):
        ds = small_dataset()
        write_dataset(ds, tmp_path / "d")
        text = (tmp_path / "d" / "modules.csv").read_text()
        names = {line.split(",")[1] for line in text.strip().split("\n")}
        assert names == {"a", "b"}

    def test_shape_mismatch_names_file(self, tmp_path):
        ds = small_dataset(v=4)
        write_dataset(ds, tmp_path / "d")
        bad = tmp_path / "d" / "samples" / "s0.csv"
        lines = bad.read_text().strip().split("\n")
        bad.write_text("\n".join(lines[:3]) + "\n")
        with pytest.raises(DatasetError, match="s0"):
            load_dataset(tmp_path / "d")

    def test_missing_sample_file_reported(self, tmp_path):
        ds = small_dataset()
        write_dataset(ds, tmp_path / "d")
        (tmp_path / "d" / "samples" / "s1.csv").unlink()
        with pytest.raises(DatasetError, match="s1.csv"):
            load_dataset(tmp_path / "d")

    def test_missing_manifest_reported(self, tmp_path):
        with pytest.raises(DatasetError, match="manifest.json"):
            load_dataset(tmp_path)

    def test_malformed_manifest_reported(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(DatasetError, match="malformed JSON"):
            load_dataset(tmp_path)

    def test_unknown_label_reported(self, tmp_path):
        ds = small_dataset()
        write_dataset(ds, tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        manifest["samples"][0]["label"] = 7
        (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="unknown label 7"):
            load_dataset(tmp_path / "d")

    def test_three_class_manifest_rejected(self, tmp_path):
        ds = small_dataset()
        write_dataset(ds, tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        manifest["classes"].append("c2")
        manifest["samples"][0]["label"] = 2
        (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="binary"):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize(
        "mutate,where,key",
        [
            (lambda m, d: m["samples"][1].pop("id"), MANIFEST, "samples[1] has no 'id'"),
            (lambda m, d: m["samples"][1].pop("label"), MANIFEST, "samples[1] has no 'label'"),
            (lambda m, d: m["samples"][1].pop("file"), MANIFEST, "samples[1] has no 'file'"),
            (lambda m, d: m.update(v="x"), MANIFEST, "'v'"),
            (lambda m, d: m["samples"][1].update(label="a"), MANIFEST, "samples[1].label"),
            (lambda m, d: m["samples"][1].update(label=0.7), MANIFEST, "samples[1].label"),
            (lambda m, d: m["samples"].__setitem__(1, 5), MANIFEST, "samples[1]"),
            (lambda m, d: m.update(samples=5), MANIFEST, "'samples'"),
            (lambda m, d: m.update(classes="ab"), MANIFEST, "'classes'"),
            (lambda m, d: m["samples"][1].update(id="s0"), MANIFEST,
             "samples 0 and 1 share the id 's0'"),
            (lambda m, d: (d / "samples" / "s1.csv").write_text("1,2,3,4,5,6,7,8\n1,2,3,4,5,6,7\n"),
             "samples/s1.csv:2", "sample 's1' has 7 values"),
            (lambda m, d: m["samples"][1].update(file="samples"), "samples", "cannot read"),
            (lambda m, d: m.update(modules_file="samples"), "samples", "cannot read"),
            (lambda m, d: (d / "samples" / "s1.csv").write_bytes(b"\xff\xfe0.5\n"),
             "samples/s1.csv", "cannot read"),
            (lambda m, d: (d / "modules.csv").write_text("0,a\n1,a\n2,b\n3,b\n0,b\n"),
             "modules.csv", "module 'b' overlaps another module on ROIs [0]"),
            (lambda m, d: (d / "modules.csv").write_text("0,a\n1,a\n1,a\n2,b\n3,b\n"),
             "modules.csv", "module 'a' repeats an ROI index"),
            (lambda m, d: (d / "modules.csv").write_text(""), "modules.csv", "holds no modules"),
            (lambda m, d: m["samples"][1].update(file="\ud800"), MANIFEST, "samples[1].file"),
            (lambda m, d: [s.update(id="\ud800") for s in m["samples"][:2]], MANIFEST,
             "samples 0 and 1 share the id"),
        ],
        ids=["no-id", "no-label", "no-file", "v-string", "label-string", "label-float",
             "entry-not-object", "samples-not-list", "classes-string", "duplicate-id",
             "ragged-row", "sample-file-is-dir", "modules-file-is-dir", "sample-not-utf8",
             "module-overlap", "module-repeat", "modules-empty", "file-lone-surrogate",
             "id-lone-surrogate"],
    )
    def test_malformed_manifest_entry_names_key(self, tmp_path, mutate, where, key):
        write_dataset(small_dataset(), tmp_path / "d")
        path = tmp_path / "d" / MANIFEST
        manifest = json.loads(path.read_text())
        mutate(manifest, tmp_path / "d")
        path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError) as exc:
            load_dataset(tmp_path / "d")
        assert str(tmp_path / "d" / where) in str(exc.value) and key in str(exc.value)
        str(exc.value).encode("utf-8")

    # Manifest mutations: a dropped key, a key set to any JSON value (or a bad
    # label, or an odd `file` string), or a sample entry replaced outright.
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                    max_size=3),
        max_leaves=6,
    )
    odd_files = st.sampled_from(["", ".", "..", "samples", "samples/", "modules.csv", MANIFEST,
                                 "samples/s1.csv", "samples/s0.csv/x", "missing.csv", "a\x00b",
                                 "\ud800", "x" * 300]) | st.text(alphabet="ab./\x00 ", max_size=8)
    manifest_keys = st.sampled_from(["v", "t", "classes", "samples", "modules_file"])
    sample_keys = st.sampled_from(["id", "label", "file"])
    mutations = st.one_of(
        st.tuples(st.just("drop"), manifest_keys),
        st.tuples(st.just("set"), manifest_keys, json_values),
        st.tuples(st.just("drop-in-sample"), st.integers(0, 3), sample_keys),
        st.tuples(st.just("set-in-sample"), st.integers(0, 3), sample_keys, json_values),
        st.tuples(st.just("set-in-sample"), st.integers(0, 3), st.just("label"),
                  st.integers(-2, 3)),
        st.tuples(st.just("set-in-sample"), st.integers(0, 3), st.just("file"), odd_files),
        st.tuples(st.just("set"), st.just("modules_file"), odd_files),
        st.tuples(st.just("replace-sample"), st.integers(0, 3), json_values),
    )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(mutations, min_size=1, max_size=3))
    def test_manifest_fuzz_raises_only_dataset_error_naming_manifest(self, edits):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_dataset(small_dataset(n=4, v=3, t=4), root)
            manifest = json.loads((root / MANIFEST).read_text())
            for kind, *args in edits:
                samples = manifest.get("samples")
                if kind == "drop":
                    manifest.pop(args[0], None)
                elif kind == "set":
                    manifest[args[0]] = args[1]
                elif not (isinstance(samples, list) and args[0] < len(samples)):
                    continue
                elif kind == "replace-sample":
                    samples[args[0]] = args[1]
                elif not isinstance(samples[args[0]], dict):
                    continue
                elif kind == "drop-in-sample":
                    samples[args[0]].pop(args[1], None)
                else:
                    samples[args[0]][args[1]] = args[2]
            (root / MANIFEST).write_text(json.dumps(manifest))
            try:
                load_dataset(root)
            except DatasetError as exc:
                assert str(root / MANIFEST) in str(exc)

    def test_non_finite_value_reported(self, tmp_path):
        ds = small_dataset()
        write_dataset(ds, tmp_path / "d")
        target = tmp_path / "d" / "samples" / "s0.csv"
        lines = target.read_text().strip().split("\n")
        cells = lines[0].split(",")
        cells[0] = "nan"
        lines[0] = ",".join(cells)
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="non-finite"):
            load_dataset(tmp_path / "d")

    def test_empty_samples_array_names_manifest(self, tmp_path):
        write_dataset(small_dataset(), tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / MANIFEST).read_text())
        manifest["samples"] = []
        (tmp_path / "d" / MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="no samples") as exc:
            load_dataset(tmp_path / "d")
        assert str(tmp_path / "d" / MANIFEST) in str(exc.value)

    def test_label_beyond_int64_names_manifest(self, tmp_path):
        write_dataset(small_dataset(), tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / MANIFEST).read_text())
        manifest["samples"][1]["label"] = 2**70
        (tmp_path / "d" / MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="label") as exc:
            load_dataset(tmp_path / "d")
        assert str(tmp_path / "d" / MANIFEST) in str(exc.value)

    def fuzz_file(self, name, content):
        """load_dataset on a v=3, t=4, n=4 dataset whose `name` holds `content`:
        a DatasetError must name that file."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_dataset(small_dataset(n=4, v=3, t=4), root)
            (root / name).write_bytes(content)
            try:
                load_dataset(root)
            except DatasetError as exc:
                assert str(root / name) in str(exc)

    @settings(max_examples=200, deadline=None)
    @given(file_bytes([b"0", b"1.5", b"-2e-3", b"1_0", b"nan", b"inf", b"1e999"]))
    @example(b"1,2,3,4\n5,6,7,8\n9,10,11,12\n")
    @example(b"1,2,3,4\n5,6,7,8\n9,10,11,nan\n")
    def test_sample_file_fuzz_raises_only_dataset_error_naming_it(self, content):
        self.fuzz_file("samples/s1.csv", content)

    @settings(max_examples=200, deadline=None)
    @given(file_bytes([b"0", b"1", b"2", b"3", b"99", b"-1", b"1e3", b"a", b"b"]))
    @example(b"0,m1\n99,m2\n")
    def test_modules_file_fuzz_raises_only_dataset_error_naming_it(self, content):
        self.fuzz_file("modules.csv", content)


class TestSynthetic:
    def test_fixed_seed_is_bit_identical(self):
        spec = SynthSpec(v=8, t=16, n=8, modules={"m1": 3, "m2": 3}, planted="m1")
        a = generate_synthetic(spec, seed=11)
        b = generate_synthetic(spec, seed=11)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.x, sb.x) and sa.label == sb.label

    def test_unknown_planted_module_rejected(self):
        with pytest.raises(ValueError, match="planted"):
            generate_synthetic(SynthSpec(modules={"m1": 4}, planted="nope"), seed=0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            generate_synthetic(SynthSpec(n=2), seed=0)

    def test_classes_balanced(self):
        ds = generate_synthetic(SynthSpec(v=8, t=16, n=10, modules={"m1": 4}, planted="m1"), seed=0)
        labels = ds.labels()
        assert int((labels == 0).sum()) == 5 and int((labels == 1).sum()) == 5

    def test_planted_effect_raises_within_module_correlation(self):
        # Monte-Carlo over 100 samples: class-1 mean within-planted-module
        # Pearson correlation exceeds class-0's when effect = 2 x noise
        spec = SynthSpec(v=10, t=48, n=100, modules={"m1": 4, "m2": 4}, planted="m1",
                         effect=2.0, noise=1.0)
        ds = generate_synthetic(spec, seed=5)
        rois = ds.partition.modules["m1"]
        means = {0: [], 1: []}
        for s in ds.samples:
            f = pearson_features(s.x)
            block = f[np.ix_(rois, rois)]
            off = block[~np.eye(len(rois), dtype=bool)]
            means[s.label].append(off.mean())
        assert np.mean(means[1]) > np.mean(means[0]) + 0.2

    def test_null_effect_class_distributions_match(self):
        # per-entry class difference of mean Pearson matrices < 3 standard errors
        spec = SynthSpec(v=6, t=32, n=200, modules={"m1": 3, "m2": 3}, planted="m1",
                         effect=0.0, noise=1.0)
        ds = generate_synthetic(spec, seed=9)
        feats = {0: [], 1: []}
        for s in ds.samples:
            feats[s.label].append(pearson_features(s.x))
        f0, f1 = np.stack(feats[0]), np.stack(feats[1])
        diff = np.abs(f0.mean(axis=0) - f1.mean(axis=0))
        se = np.sqrt(f0.var(axis=0) / len(f0) + f1.var(axis=0) / len(f1))
        off_diag = ~np.eye(6, dtype=bool)
        assert np.all(diff[off_diag] < 3.0 * se[off_diag])

    def test_loose_rois_allowed(self):
        spec = SynthSpec(v=10, t=16, n=8, modules={"m1": 3, "m2": 3}, planted="m1")
        ds = generate_synthetic(spec, seed=0)
        assert ds.v == 10
        assert ds.partition.covered == frozenset(range(6))


class TestValidation:
    def test_overlapping_modules_rejected(self):
        with pytest.raises(DatasetError, match="overlaps"):
            ModulePartition({"a": [0, 1], "b": [1, 2]})

    def test_empty_module_rejected(self):
        with pytest.raises(DatasetError, match="empty"):
            ModulePartition({"a": []})

    def test_partition_outside_v_rejected(self):
        ds = small_dataset(v=4)
        ds.partition = ModulePartition({"a": [0, 9]})
        with pytest.raises(DatasetError, match="outside"):
            ds.validate()

    def test_duplicate_sample_id_rejected_before_writing(self, tmp_path):
        ds = small_dataset()
        ds.ids[3] = "s1"
        with pytest.raises(DatasetError, match="samples 1 and 3 share the id 's1'"):
            write_dataset(ds, tmp_path / "d")
        assert not (tmp_path / "d").exists()

    def test_missing_class_rejected(self):
        ds = small_dataset()
        ds.y = np.zeros(ds.n, dtype=np.int64)
        with pytest.raises(DatasetError, match="no samples"):
            ds.validate()
