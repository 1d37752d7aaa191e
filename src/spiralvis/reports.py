"""Deterministic report serialization: same config + seed, same bytes."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np


def to_jsonable(obj):
    """Recursively convert report objects to plain JSON types."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return str(obj) if math.isinf(obj) or math.isnan(obj) else obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return to_jsonable(float(obj))
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if hasattr(obj, "to_json"):
        return to_jsonable(obj.to_json())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if not f.name.startswith("_")}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(payload, path: str | Path | None = None) -> str:
    text = json.dumps(to_jsonable(payload), sort_keys=True, indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def write_csv(path: str | Path, rows: list[dict]) -> None:
    """A table of dict rows: the header is the first row's keys, floats are
    written by repr; no rows, no lines."""
    lines = [",".join(rows[0])] if rows else []
    lines += [",".join(repr(x) if isinstance(x, float) else str(x) for x in row.values())
              for row in rows]
    Path(path).write_text("".join(line + "\n" for line in lines))
