"""Deterministic report serialization: same config + seed, same bytes.

``dump_json`` is the one JSON writer. It writes what
``json.dumps(x, sort_keys=True, indent=2)`` writes for ``x`` converted to
plain JSON types: numpy scalars and arrays as numbers and lists, dataclasses
as the dict of their public fields, tuples as lists, dict keys through
``str``, and inf, -inf and nan as the strings "inf", "-inf" and "nan". An
object with a ``to_json`` method is written as what that returns, and a
``DirectionFailures`` as its rows, straight from its arrays. The writer
makes one recursive pass, escapes strings with the C
``encode_basestring_ascii`` and writes numbers by ``float.__repr__`` and
``int.__repr__``, so it needs neither the intermediate copy nor ``json``'s
pure-Python indenting encoder.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

import numpy as np


@dataclass(eq=False)
class DirectionFailures:
    """The failing net directions of a check, with the window start of each
    for shifted windows; their {"direction": j[, "t0": t0]} rows are built
    only for the entries read, and ``dump_json`` writes them straight from
    the arrays."""

    directions: np.ndarray
    t0: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.directions)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self[i] for i in range(len(self))[item]]
        row = {"direction": int(self.directions[item])}
        if self.t0 is not None:
            row["t0"] = float(self.t0[item])
        return row

    def __iter__(self):
        return iter(self[:])

    def head(self, count: int) -> "DirectionFailures":
        """The first ``count`` entries, still as arrays."""
        return DirectionFailures(self.directions[:count],
                                 None if self.t0 is None else self.t0[:count])

    def to_json(self) -> list[dict]:
        return self[:]


def _float(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else _string(str(x))


def _scalar(obj) -> str | None:
    """The JSON text of a scalar, or None for anything else."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, np.integer):
        return int.__repr__(int(obj))
    if isinstance(obj, np.floating):
        return _float(float(obj))
    return None


def _rows(failures: DirectionFailures, nl: str) -> str:
    """The rows of ``failures`` as a JSON list indented at ``nl``."""
    if not len(failures):
        return "[]"
    item, field = nl + "  ", nl + "    "
    directions = failures.directions.tolist()
    if failures.t0 is None:
        rows = [f'{{{field}"direction": {j}{item}}}' for j in directions]
    else:
        rows = [f'{{{field}"direction": {j},{field}"t0": {_float(t)}{item}}}'
                for j, t in zip(directions, failures.t0.tolist())]
    return "[" + item + ("," + item).join(rows) + nl + "]"


def _write(obj, nl: str, out: list[str]) -> None:
    """Append the JSON text of ``obj``, a value indented at ``nl``, to ``out``."""
    text = _scalar(obj)
    if text is not None:
        out.append(text)
        return
    if isinstance(obj, np.ndarray):
        obj = list(obj.tolist())
    elif isinstance(obj, DirectionFailures):
        out.append(_rows(obj, nl))
        return
    elif hasattr(obj, "to_json"):
        _write(obj.to_json(), nl, out)
        return
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name)
               for f in dataclasses.fields(obj) if not f.name.startswith("_")}
    if isinstance(obj, dict):
        obj = {str(k): v for k, v in obj.items()}
        keys = sorted(obj)
        values = [obj[k] for k in keys]
        heads = [_string(k) + ": " for k in keys]
        open_, close = "{", "}"
    elif isinstance(obj, (list, tuple)):
        values = obj
        heads = None
        open_, close = "[", "]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not values:
        out.append(open_ + close)
        return
    item = nl + "  "
    texts = [_scalar(v) for v in values]
    if None not in texts:  # all scalars: one join
        if heads is not None:
            texts = [h + t for h, t in zip(heads, texts)]
        out.append(open_ + item + ("," + item).join(texts) + nl + close)
        return
    sep = open_ + item
    for i, (value, text) in enumerate(zip(values, texts)):
        out.append(sep if heads is None else sep + heads[i])
        if text is None:
            _write(value, item, out)
        else:
            out.append(text)
        sep = "," + item
    out.append(nl + close)


def dump_json(payload, path: str | Path | None = None) -> str:
    """The JSON text of ``payload`` (see the module docstring), also written
    to ``path`` when one is given."""
    out: list[str] = []
    _write(payload, "\n", out)
    out.append("\n")
    text = "".join(out)
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
