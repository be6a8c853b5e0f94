"""Checkpoint container: JSON with base64-packed float64 arrays.

Layout (format_version 1):
    {"format_version": 1,
     "meta": {...arbitrary JSON config echo...},
     "arrays": {name: {"shape": [...], "dtype": "<f8", "data": base64}}}

Arrays round-trip bit-exactly. Loading validates dtype and, through
`check_shapes`, lets callers reject shape mismatches by name.
"""
from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]

FORMAT_VERSION = 1


class CheckpointError(Exception):
    pass


def _pack(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "shape": list(arr.shape),
        "dtype": "<f8",
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _unpack(path, name: str, entry: dict) -> np.ndarray:
    try:
        if entry["dtype"] != "<f8":
            raise ValueError(f"unsupported array dtype {entry['dtype']!r}")
        shape = entry["shape"]
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise ValueError(f"shape {shape!r} is not a JSON array of non-negative integers")
        raw = base64.b64decode(entry["data"])
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        return arr.reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path}: array '{name}' is corrupt ({exc!r})") from exc


def save_checkpoint(path, meta: dict, arrays: dict) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "meta": meta,
        "arrays": {name: _pack(a) for name, a in arrays.items()},
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_checkpoint(path):
    """Returns (meta, {name: ndarray}); any malformed part raises
    CheckpointError naming the file and the key or array at fault."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format_version {doc.get('format_version')}, "
            f"expected {FORMAT_VERSION}"
        )
    for key in ("meta", "arrays"):
        if not isinstance(doc.get(key), dict):
            raise CheckpointError(f"checkpoint {path} has no '{key}' object")
    arrays = {name: _unpack(path, name, entry) for name, entry in doc["arrays"].items()}
    return doc["meta"], arrays


def check_shapes(loaded: dict, expected: dict) -> None:
    """Raise unless `loaded` holds exactly the names/shapes of `expected`."""
    missing = sorted(set(expected) - set(loaded))
    extra = sorted(set(loaded) - set(expected))
    if missing or extra:
        raise CheckpointError(
            f"checkpoint arrays do not match model: missing {missing}, unexpected {extra}"
        )
    for name, arr in expected.items():
        if tuple(loaded[name].shape) != tuple(np.shape(arr)):
            raise CheckpointError(
                f"checkpoint array '{name}' has shape {tuple(loaded[name].shape)}, "
                f"model expects {tuple(np.shape(arr))}"
            )
