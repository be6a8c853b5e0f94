import base64
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "artifacts", Path(__file__).resolve().parents[1] / "tools" / "artifacts.py"
)
artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifacts)


def packed(values):
    data = np.asarray(values, dtype="<f8")
    return {"shape": list(data.shape), "dtype": "<f8",
            "data": base64.b64encode(data.tobytes()).decode("ascii")}


@pytest.mark.parametrize(
    "name,ours,theirs,expected",
    [
        ("a.csv", "pipeline,auroc,accuracy\nx,0.5,0.25\ny,100.0,0.75\n",
         "pipeline,auroc,accuracy\nx,0.5,0.5\ny,100.5,0.75\n",
         (0.5, "auroc", 0.5, "accuracy")),
        ("m.csv", "1,2\n3,4\n", "1,2\n3,4.5\n", (0.5, "1", 0.5 / 4.5, "1")),
        ("m.csv", "1,2\n3,4\n", "1,2\n", (math.inf, "0", math.inf, "0")),
        ("r.json", json.dumps({"test": {"auroc": 0.75}, "w": packed([1.0, -8.0])}),
         json.dumps({"test": {"auroc": 0.5}, "w": packed([1.0, -8.5])}),
         (0.5, "w", 0.25 / 0.75, "test.auroc")),
    ],
    ids=["header", "headerless", "ragged", "json-and-checkpoint-array"],
)
def test_numeric_diff_names_the_column_or_key(tmp_path, name, ours, theirs, expected):
    (tmp_path / "ours").mkdir()
    (tmp_path / "theirs").mkdir()
    (tmp_path / "ours" / name).write_text(ours)
    (tmp_path / "theirs" / name).write_text(theirs)
    assert artifacts.numeric_diff(tmp_path / "ours" / name, tmp_path / "theirs" / name) == expected


def test_identical_numbers_report_zero(tmp_path):
    for side in ("a", "b"):
        (tmp_path / f"{side}.csv").write_text("p,q\n0.1,nan\n")
    assert artifacts.numeric_diff(tmp_path / "a.csv", tmp_path / "b.csv") == (0.0, "-", 0.0, "-")
