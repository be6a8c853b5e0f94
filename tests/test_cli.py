import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgen.cli import _parse_config, main
from netgen.dataset import SynthSpec, load_dataset
from netgen.training import ConfigError, TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def base_config(tmp_path, **overrides):
    cfg = {
        "dataset": {
            "synth": {
                "v": 6,
                "t": 24,
                "n": 16,
                "modules": {"m1": 3, "m2": 3},
                "planted": "m1",
                "effect": 2.0,
                "noise": 1.0,
                "seed": 3,
            }
        },
        "encoder": {"kind": "gru", "window": 8, "dim": 4},
        "predictor": {"pooling": "concat", "widths": [8, 4], "mlp_hidden": 8},
        "loss": {"alpha": 1e-3, "beta": 1e-3, "gamma": 1e-4},
        "train": {
            "lr": 1e-3,
            "weight_decay": 1e-4,
            "batch_size": 8,
            "epochs": 2,
            "split": {"train": 0.5, "val": 0.25, "test": 0.25},
        },
        "seeds": [0],
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


def set_key(cfg, path, value):
    for part in path[:-1]:
        cfg = cfg[part]
    cfg[path[-1]] = value


def key_paths(cfg, prefix=()):
    """The dotted path of every key in a nested JSON object, sections too."""
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_bytes_without_log(out_dir):
    out = {}
    for p in sorted(Path(out_dir).rglob("*")):
        if p.is_file() and p.name != "log.txt":
            out[str(p.relative_to(out_dir))] = p.read_bytes()
    return out


class TestSynth:
    def test_writes_loadable_dataset(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path))
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "data")]) == 0
        ds = load_dataset(tmp_path / "data")
        assert ds.n == 16 and ds.v == 6 and ds.t == 24

    def test_bad_module_name_exits_2(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        raw["dataset"]["synth"]["planted"] = "missing"
        cfg = write_config(tmp_path, raw)
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "data")]) == 2
        assert "planted" in capsys.readouterr().err

    def test_fixed_seed_reproduces_directory_bytes(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path))
        main(["synth", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["synth", "--config", cfg, "--out", str(tmp_path / "b")])
        assert read_bytes_without_log(tmp_path / "a") == read_bytes_without_log(tmp_path / "b")


class TestTrain:
    def test_emits_artifact_files(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path))
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        for name in ("checkpoint.json", "history.csv", "metrics.json", "run.json", "log.txt"):
            assert (out / name).exists(), name
        history = (out / "history.csv").read_text().strip().split("\n")
        assert len(history) == 1 + 2  # header + one row per epoch
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["test"]) == {"auroc", "accuracy", "ce", "intra", "inter", "sparsity"}

    def test_epochs_override(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path))
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out), "--epochs", "4"]) == 0
        history = (out / "history.csv").read_text().strip().split("\n")
        assert len(history) == 1 + 4

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_naming_a_file_exits_2_before_training(self, tmp_path, capsys, monkeypatch,
                                                       under):
        import netgen.cli as cli

        calls = []
        monkeypatch.setattr(cli, "run_seeds", lambda *args: calls.append(args))
        (tmp_path / "f").write_text("kept")
        out = tmp_path / "f" / "sub" if under else tmp_path / "f"
        cfg = write_config(tmp_path, base_config(tmp_path))
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"'{out}'" in err and "not a directory" in err
        assert calls == [] and (tmp_path / "f").read_text() == "kept"

    def test_pipeline_from_config(self, tmp_path):
        raw = base_config(tmp_path, pipeline="seq-gru")
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "metrics.json").read_text())["pipeline"] == "seq-gru"


class TestConfigValidation:
    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["train", "--config", str(path)]) == 2

    @pytest.mark.parametrize("make", [lambda p: p.write_bytes(b'{"dataset": "\xff"}'),
                                      lambda p: p.mkdir()], ids=["not-utf8", "directory"])
    def test_unreadable_config_exits_2_naming_file(self, tmp_path, capsys, make):
        path = tmp_path / "bad.json"
        make(path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 2
        assert repr(str(path)) in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_exits_2_without_partial_output(self, tmp_path, capsys):
        raw = base_config(tmp_path)
        raw["trian"] = raw.pop("train")
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key",
        [(("train",), "seed"), (("train", "split"), "seed"), (("predictor",), "n_classes")],
    )
    def test_fields_the_program_sets_are_unknown_keys(self, tmp_path, capsys, section, key):
        raw = base_config(tmp_path)
        set_key(raw, section + (key,), 3)
        cfg = write_config(tmp_path, raw)
        assert main(["train", "--config", cfg]) == 2
        where = ".".join(section)
        assert f"unknown keys ['{key}'] in '{where}'" in capsys.readouterr().err

    def test_bad_pipeline_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path, pipeline="gnn-magic"))
        assert main(["train", "--config", cfg]) == 2

    def test_both_path_and_synth_exits_2(self, tmp_path):
        raw = base_config(tmp_path)
        raw["dataset"]["path"] = str(tmp_path)
        cfg = write_config(tmp_path, raw)
        assert main(["train", "--config", cfg]) == 2

    @pytest.mark.parametrize("lr", [-1.0, float("nan")])
    def test_negative_lr_exits_2(self, tmp_path, lr):
        raw = base_config(tmp_path)
        raw["train"]["lr"] = lr
        cfg = write_config(tmp_path, raw)
        assert main(["train", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "command,encoder,extra,key",
        [
            ("train", {"kind": "cnn", "window": 16}, {}, "encoder.window 16"),
            ("train", {"kind": "gru", "window": 48}, {}, "encoder.window 48"),
            ("compare", {"kind": "gru", "window": 16}, {}, "encoder.window 16"),
            ("sweep", {"kind": "gru", "window": 8}, {"sweep": {"windows": [8, 48], "dims": [4]}},
             "sweep.windows 48"),
        ],
        ids=["train-cnn", "train-gru", "compare", "sweep"],
    )
    def test_window_longer_than_series_exits_2(
        self, tmp_path, capsys, command, encoder, extra, key
    ):
        raw = base_config(tmp_path, encoder={**encoder, "dim": 4}, **extra)
        raw["dataset"]["synth"]["t"] = 40
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert key in err and "t=40" in err

    @pytest.mark.parametrize(
        "path,value,key",
        [
            (("train", "batch_size"), float("nan"), "train.batch_size"),
            (("train", "epochs"), float("nan"), "train.epochs"),
            (("encoder", "window"), float("nan"), "encoder.window"),
            (("predictor", "mlp_hidden"), float("nan"), "predictor.mlp_hidden"),
            (("encoder", "window"), "abc", "encoder.window"),
            (("encoder",), 5, "encoder"),
            (("encoder",), ["kind"], "encoder"),
            (("predictor", "widths"), 5, "predictor.widths"),
            (("predictor", "widths"), ["a"], "predictor.widths"),
            (("dataset", "synth", "modules"), [1, 2], "dataset.synth.modules"),
            (("dataset", "synth", "seed"), "x", "dataset.synth.seed"),
            (("interpret",), {"alpha": "x"}, "interpret.alpha"),
            (("train", "split"), 5, "train.split"),
            (("sweep",), {"windows": "ab", "dims": [4]}, "sweep.windows"),
            (("sweep",), {"windows": [0], "dims": [4]}, "sweep.windows 0"),
            (("sweep",), {"windows": [8], "dims": [0]}, "sweep.dims 0"),
            (("sweep",), {"windows": [8.0], "dims": [4]}, "sweep.windows 8.0"),
            (("sweep",), {"windows": [8], "dims": [4.0]}, "sweep.dims 4.0"),
            (("seeds",), [True], "seeds True"),
            (("seeds",), [-1], "seeds -1"),
            (("train", "split"), {"train": 0.8, "val": 0, "test": 0.2}, "train.split.val"),
            (("train", "split"), {"train": 0.9, "val": 0.01, "test": 0.09}, "train.split.val"),
            (("train", "split"), {"train": 0.8, "val": 0.07, "test": 0.13}, "train.split.val"),
            (("train", "split"), {"train": 0.05, "val": 0.475, "test": 0.475},
             "train.split.train"),
            (("train", "split"), {"train": 0.75, "val": 0.25, "test": 0.0}, "train.split.test"),
            (("train", "split"), {"train": 0.8, "val": 0.13, "test": 0.07}, "train.split.test"),
            (("dataset",), {"path": 5}, "dataset.path"),
            (("encoder", "window"), 8.7, "encoder.window 8.7"),
            (("encoder", "window"), True, "encoder.window True"),
            (("train", "epochs"), 2.9, "train.epochs 2.9"),
            (("train", "batch_size"), "16", "train.batch_size '16'"),
            (("train", "lr"), "1e-3", "train.lr '1e-3'"),
            (("predictor", "widths"), [8.9, 4], "predictor.widths 8.9"),
            (("encoder", "kind"), 5, "encoder.kind 5"),
            (("dataset", "synth", "modules"), {"m1": 3.0, "m2": 3}, "dataset.synth.modules.m1"),
            (("out_dir",), 5, "out_dir 5"),
            (("interpret",), {"alpha": 2}, "interpret.alpha 2"),
            (("interpret",), {"alpha": 0}, "interpret.alpha 0"),
            (("interpret",), {"alpha": -1}, "interpret.alpha -1"),
            (("interpret",), {"alpha": float("nan")}, "interpret.alpha nan"),
            (("interpret",), {"alpha": float("inf")}, "interpret.alpha inf"),
            (("train", "lr"), -1, "train.lr must be finite and positive"),
            (("train", "batch_size"), 0, "train.batch_size must be positive"),
            (("train", "epochs"), 0, "train.epochs must be positive"),
            (("train", "weight_decay"), -1, "train.weight_decay must be finite"),
            (("encoder", "kind"), "lstm", "encoder.kind must be 'cnn' or 'gru'"),
            (("encoder", "window"), 0, "encoder.window must be positive, got 0"),
            (("encoder", "dim"), 0, "encoder.dim: embedding dim must be positive"),
            (("predictor", "pooling"), "max", "predictor.pooling must be 'concat' or 'sum'"),
            (("predictor", "widths"), [0], "predictor.widths: layer widths must be positive"),
            (("predictor", "mlp_hidden"), 0, "predictor.mlp_hidden must be >= 1"),
            (("loss", "alpha"), -1, "loss.alpha: loss weight must be"),
            (("train", "split"), {"train": 0.5, "val": 0.2, "test": 0.2},
             "train.split: split ratios must"),
            (("train", "batch_size"), 1, "train.batch_size must be positive and at least 2"),
            (("dataset", "synth"), {"v": 1, "t": 24, "n": 16, "modules": {"m1": 1},
                                    "planted": "m1"}, "dataset.synth.v must be at least 2"),
            (("dataset", "synth", "t"), 1, "dataset.synth.t must be at least 2"),
            (("dataset", "synth", "effect"), float("nan"), "dataset.synth.effect"),
            (("dataset", "synth", "effect"), float("inf"), "dataset.synth.effect"),
            (("dataset", "synth", "effect"), -1.0, "dataset.synth.effect"),
            (("dataset", "synth", "noise"), float("inf"), "dataset.synth.noise"),
            (("dataset", "synth", "noise"), float("nan"), "dataset.synth.noise"),
            (("dataset", "synth", "noise"), -1.0, "dataset.synth.noise"),
            (("dataset", "synth", "noise"), 0, "dataset.synth.noise"),
        ],
    )
    def test_malformed_value_exits_2(self, tmp_path, capsys, path, value, key):
        raw = base_config(tmp_path)
        set_key(raw, path, value)
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        command = "sweep" if path[0] == "sweep" else "train"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    # One key of a full config (a section too) set to any JSON value.
    FUZZ_BASE = base_config(Path("unused"), pipeline="fbnetgen-gru",
                            sweep={"windows": [4, 8], "dims": [2]},
                            interpret={"alpha": 0.05, "split": "test"})
    near_misses = st.sampled_from([8.0, 8.5, True, -1, 0, "8", "gru", "test", [8.0]])
    json_values = near_misses | st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                    max_size=3),
        max_leaves=6,
    )
    # The integer-valued keys and where a parsed config holds each.
    INT_KEYS = {
        ("dataset", "synth", "v"): lambda c: c.synth.v,
        ("dataset", "synth", "t"): lambda c: c.synth.t,
        ("dataset", "synth", "n"): lambda c: c.synth.n,
        ("dataset", "synth", "modules"): lambda c: c.synth.modules,
        ("dataset", "synth", "seed"): lambda c: c.synth_seed,
        ("encoder", "window"): lambda c: c.train_cfg.encoder.window,
        ("encoder", "dim"): lambda c: c.train_cfg.encoder.dim,
        ("predictor", "widths"): lambda c: list(c.train_cfg.predictor.widths),
        ("predictor", "mlp_hidden"): lambda c: c.train_cfg.predictor.mlp_hidden,
        ("train", "batch_size"): lambda c: c.train_cfg.batch_size,
        ("train", "epochs"): lambda c: c.train_cfg.epochs,
        ("seeds",): lambda c: c.seeds,
        ("sweep", "windows"): lambda c: c.sweep.windows,
        ("sweep", "dims"): lambda c: c.sweep.dims,
    }

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(key_paths(FUZZ_BASE))), json_values)
    def test_config_fuzz_raises_only_config_error(self, path, value):
        raw = json.loads(json.dumps(self.FUZZ_BASE))
        set_key(raw, path, value)
        try:
            cfg = _parse_config(raw, "config.json")
        except ConfigError:
            return
        for key, get in self.INT_KEYS.items():
            want = raw
            for part in key:
                want = want.get(part, {}) if isinstance(want, dict) else {}
            if want != {}:
                # json.dumps tells 8 from 8.0 and True from 1
                assert json.dumps(get(cfg)) == json.dumps(want), key

    def test_omitted_keys_take_dataclass_defaults(self):
        cfg = _parse_config({"dataset": {"synth": {}}}, "config.json")
        assert cfg.train_cfg == TrainConfig()
        assert cfg.synth == SynthSpec()
        assert (cfg.interpret.alpha, cfg.interpret.split, cfg.out_dir) == (0.05, "all", "runs/out")

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(tmp_path))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out), "--seed", "-5"]) == 2
        assert "--seed -5" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_config_parses(self):
        text = README.read_text()
        block = text.split("```json\n", 1)[1].split("```", 1)[0]
        _parse_config(json.loads(block), str(README))

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 2


class TestHarnessCommands:
    def test_compare_emits_six_pipelines(self, tmp_path):
        raw = base_config(tmp_path)
        raw["dataset"]["synth"]["t"] = 40  # cnn branch needs t >= window + 28
        raw["train"]["epochs"] = 1
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "compare.csv").read_text().strip().split("\n")
        assert lines[0] == "pipeline,auroc_mean,auroc_std,accuracy_mean,accuracy_std"
        assert len(lines) == 1 + 6
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == [
            "fbnetgen-cnn",
            "fbnetgen-gru",
            "gnn-uniform",
            "gnn-pearson",
            "seq-cnn",
            "seq-gru",
        ]

    def test_ablate_emits_four_variants(self, tmp_path):
        raw = base_config(tmp_path, seeds=[0, 1])
        raw["train"]["epochs"] = 1
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "abl"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert lines[0] == "variant,seed0,seed1,mean,std"
        assert [line.split(",")[0] for line in lines[1:]] == ["All", "CE", "CE+GL", "CE+SL"]

    def test_sweep_row_count_matches_grid(self, tmp_path):
        raw = base_config(tmp_path, sweep={"windows": [4, 8], "dims": [2, 4]})
        raw["train"]["epochs"] = 1
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "window,dim,auroc,accuracy"
        assert len(lines) == 1 + 4

    def test_sweep_without_grid_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path))
        assert main(["sweep", "--config", cfg]) == 2


class TestRerun:
    @pytest.mark.parametrize(
        "command,interpret_split",
        [("train", None), ("compare", None), ("ablate", None), ("sweep", None),
         ("interpret", "all"), ("interpret", "test")],
        ids=["train", "compare", "ablate", "sweep", "interpret-all", "interpret-test"],
    )
    def test_rerun_is_byte_identical_outside_log(self, tmp_path, command, interpret_split):
        raw = base_config(tmp_path, sweep={"windows": [8], "dims": [4]})
        raw["dataset"]["synth"]["t"] = 40  # cnn branch needs t >= window + 28
        if interpret_split is not None:
            raw["interpret"] = {"split": interpret_split}
        cfg = write_config(tmp_path, raw)
        extra = []
        if command == "interpret":
            assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
            extra = ["--checkpoint", str(tmp_path / "run" / "checkpoint.json")]
        for out in ("a", "b"):
            args = [command, "--config", cfg, "--out", str(tmp_path / out), "--seed", "5"]
            assert main(args + extra) == 0
        first = read_bytes_without_log(tmp_path / "a")
        assert first and first == read_bytes_without_log(tmp_path / "b")
        listed = json.loads(first["run.json"])["artifacts"]
        assert listed == sorted(p.name for p in (tmp_path / "a").iterdir() if p.name != "run.json")


class TestInterpretCommand:
    def test_emits_analysis_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path))
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run)]) == 0
        out = tmp_path / "interp"
        code = main([
            "interpret", "--config", cfg, "--out", str(out),
            "--checkpoint", str(run / "checkpoint.json"),
        ])
        assert code == 0
        for name in (
            "mean_graph_all.csv",
            "mean_graph_all.pgm",
            "mean_graph_class0.csv",
            "mean_graph_class1.csv",
            "edges_significant.csv",
            "module_scores.csv",
        ):
            assert (out / name).exists(), name
        scores = (out / "module_scores.csv").read_text().strip().split("\n")
        assert scores[0] == "module,score"
        assert {line.split(",")[0] for line in scores[1:]} == {"m1", "m2"}
        mean_lines = (out / "mean_graph_all.csv").read_text().strip().split("\n")
        assert len(mean_lines) == 6

    @pytest.mark.parametrize(
        "ratios",
        [{"train": 0.8, "val": 0.13, "test": 0.07}, {"train": 0.75, "val": 0.25, "test": 0.0}],
        ids=["one-sample-test", "empty-test"],
    )
    def test_split_too_small_for_ttests_exits_2_without_output(self, tmp_path, capsys, ratios):
        run = tmp_path / "run"
        assert main(["train", "--config", write_config(tmp_path, base_config(tmp_path)),
                     "--out", str(run)]) == 0
        raw = base_config(tmp_path, interpret={"split": "test"})
        raw["train"]["split"] = ratios
        cfg = write_config(tmp_path, raw, name="interpret.json")
        out = tmp_path / "interp"
        capsys.readouterr()
        assert main(["interpret", "--config", cfg, "--out", str(out),
                     "--checkpoint", str(run / "checkpoint.json")]) == 2
        assert "interpret.split" in capsys.readouterr().err
        assert not out.exists()

    def test_series_length_unlike_the_checkpoints_exits_2_without_output(self, tmp_path, capsys):
        # window 4 needs t >= 32: t=24 is too short, t=64 a length never trained on
        raw = base_config(tmp_path, pipeline="fbnetgen-cnn",
                          encoder={"kind": "cnn", "window": 4, "dim": 4})
        raw["dataset"]["synth"]["t"] = 40
        run = tmp_path / "run"
        assert main(["train", "--config", write_config(tmp_path, raw), "--out", str(run)]) == 0
        for t in (24, 64):
            raw["dataset"]["synth"]["t"] = t
            cfg = write_config(tmp_path, raw, name=f"t{t}.json")
            out = tmp_path / f"interp{t}"
            capsys.readouterr()
            assert main(["interpret", "--config", cfg, "--out", str(out),
                         "--checkpoint", str(run / "checkpoint.json")]) == 2
            err = capsys.readouterr().err
            assert "t=40" in err and f"t={t}" in err
            assert not out.exists()

    def test_roi_relabelled_dataset_directory_permutes_the_interpretation(self, tmp_path):
        raw = base_config(tmp_path)
        raw["dataset"]["synth"].update(v=12, t=48, n=40, modules={"m1": 4, "m2": 4, "m3": 4})
        raw["train"]["epochs"] = 3
        data, copy = tmp_path / "data", tmp_path / "permuted"
        assert main(["synth", "--config", write_config(tmp_path, raw), "--out", str(data)]) == 0
        perm = np.random.default_rng(1).permutation(12)  # ROI j of the copy is ROI perm[j]
        place = np.argsort(perm)  # ROI i is ROI place[i] of the copy
        shutil.copytree(data, copy)
        for sample in (copy / "samples").iterdir():
            rows = sample.read_text().splitlines()
            sample.write_text("".join(rows[i] + "\n" for i in perm))
        modules = (copy / "modules.csv").read_text().splitlines()
        (copy / "modules.csv").write_text("".join(
            f"{place[int(roi)]},{name}\n" for roi, name in (line.split(",") for line in modules)))

        configs = {root: write_config(tmp_path, {**raw, "dataset": {"path": str(root)}},
                                      name=f"{root.name}.json") for root in (data, copy)}
        assert main(["train", "--config", configs[data], "--out", str(tmp_path / "run")]) == 0
        outs = {}
        for root, cfg in configs.items():
            outs[root] = out = tmp_path / f"interp-{root.name}"
            assert main(["interpret", "--config", cfg, "--out", str(out),
                         "--checkpoint", str(tmp_path / "run" / "checkpoint.json")]) == 0

        def table(root, name):
            rows = (outs[root] / name).read_text().splitlines()
            return [[float(x) for x in row.split(",")] for row in rows[name.startswith("edges"):]]

        np.testing.assert_allclose(table(copy, "mean_graph_all.csv"),
                                   np.array(table(data, "mean_graph_all.csv"))[perm][:, perm],
                                   rtol=0, atol=1e-9)  # the CSV holds 9 significant digits
        # An edge whose p lies within 1e-9 of alpha could be flagged on either side.
        edges = {root: [(int(p), int(q)) for p, q, _, pvalue in table(root, "edges_significant.csv")
                        if abs(pvalue - 0.05) > 1e-9] for root in outs}
        assert edges[data]
        assert {tuple(sorted((int(perm[p]), int(perm[q])))) for p, q in edges[copy]} == set(
            edges[data])
        runs = {root: json.loads((outs[root] / "run.json").read_text()) for root in outs}
        assert runs[copy]["n_edges_tested"] == runs[data]["n_edges_tested"]
        if all(len(edges[root]) == runs[root]["n_edges_flagged"] for root in outs):
            assert ((outs[copy] / "module_scores.csv").read_bytes()
                    == (outs[data] / "module_scores.csv").read_bytes())

    def test_missing_checkpoint_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path))
        assert main(["interpret", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_non_generating_checkpoint_fails_cleanly(self, tmp_path, capsys):
        raw = base_config(tmp_path, pipeline="gnn-uniform")
        cfg = write_config(tmp_path, raw)
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run)]) == 0
        code = main([
            "interpret", "--config", cfg, "--out", str(tmp_path / "x"),
            "--checkpoint", str(run / "checkpoint.json"),
        ])
        assert code == 2
        assert "does not generate graphs" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
