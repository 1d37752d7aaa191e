"""The report writer against ``json.dumps`` of the plain-type conversion it
replaced, which is kept here as the oracle, with the failure rows it writes
from a ``DirectionFailures``'s arrays."""

import dataclasses
import json
import math

import numpy as np
import pytest
from conftest import assert_same
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiralvis.reports import DirectionFailures, dump_json
from spiralvis.visibility import CheckReport, HitWitness


def failure_rows(failures: DirectionFailures) -> list[dict]:
    """The {"direction": j[, "t0": t0]} rows of ``failures``, one per entry."""
    rows = [{"direction": int(j)} for j in failures.directions]
    if failures.t0 is not None:
        for row, t0 in zip(rows, failures.t0):
            row["t0"] = float(t0)
    return rows


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
    if isinstance(obj, DirectionFailures):
        return to_jsonable(failure_rows(obj))
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


def oracle(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


@dataclasses.dataclass
class Row:
    name: str
    value: object
    _hidden: int = 0


class Wrapped:
    def __init__(self, inner):
        self.inner = inner

    def to_json(self):
        return {"inner": self.inner, "kind": "wrapped"}


def failures(count, shifted, seed=0):
    rng = np.random.default_rng(seed)
    directions = np.sort(rng.choice(5 * count + 1, count, replace=False))
    t0 = np.repeat([0.0, -0.0, 12.5, 1e16], [count // 4] * 3 + [count - 3 * (count // 4)])
    return DirectionFailures(directions, t0 if shifted else None)


floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-7, -math.inf, math.nan])
scalars = (st.none() | st.booleans() | st.integers() | floats | st.text()
           | st.integers(-2**63, 2**63 - 1).map(np.int64)
           | st.integers(0, 255).map(np.uint8)
           | floats.map(np.float64) | st.floats(width=32).map(np.float32)
           | st.booleans().map(np.bool_))
arrays = (st.lists(floats, max_size=6).map(lambda xs: np.array(xs, dtype=np.float64))
          | st.lists(st.integers(-2**40, 2**40), max_size=6).map(np.array)
          | st.lists(st.lists(floats, min_size=2, max_size=2), max_size=4).map(
              lambda xs: np.array(xs, dtype=np.float64).reshape(-1, 2)))
keys = st.text(max_size=4) | st.integers(-3, 3) | st.booleans() | st.none() | floats


def nested(children):
    return (st.lists(children, max_size=5)
            | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(keys, children, max_size=5)
            | st.builds(Row, st.text(max_size=3), children, st.integers())
            | st.builds(Wrapped, children))


payloads = st.recursive(scalars | arrays, nested, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(payloads)
@example({"a": [], "b": {}, "c": (), 3: {"x": [1, {}], "y": [[], [[]]]}})
@example(["\x00\x1fé☃\U0001f600\ud800\"\\/", " \n\t"])
@example([-0.0, 5e-324, 1e16, 1e-7, math.inf, -math.inf, math.nan, 2**70, -2**70])
@example({1: "int", "1": "str", None: 0, True: 1, 1.5: 2})
def test_dump_json_matches_the_oracle(payload):
    assert_same(dump_json(payload), oracle(payload))


@pytest.mark.parametrize("count", [0, 1, 1000, 1001])
@pytest.mark.parametrize("shifted", [False, True])
def test_direction_failure_rows(count, shifted):
    rows = failures(count, shifted)
    assert_same(dump_json(rows), oracle(rows))
    assert_same(dump_json({"failures": rows, "n": [rows, rows.head(1)]}),
                oracle({"failures": failure_rows(rows),
                        "n": [failure_rows(rows), failure_rows(rows)[:1]]}))
    report = CheckReport(
        property="uniform-orchard", spec={"kind": "golden-angle", "d": 1}, eps=0.1,
        V=50.0, constants={}, net={"delta": 5e-4, "count": 6284, "seed": None},
        total_checks=3 * 6284, failures=rows, witnesses=[HitWitness(7, 1.25, 0.0625)] * 3,
        extra={"t0": {0.0: {"failures": count, "hits": 5}}})
    payload = report.to_json()
    assert (payload["passed"], payload["witness_count"], payload["failure_count"]) == (
        not count, 3 * 6284 - count, count)
    assert payload["certified_tolerance"] == 0.1 + 50.0 * 5e-4
    assert_same(dump_json(report), oracle(report.to_json()))
    assert_same(dump_json(report), oracle(report))
    assert failure_rows(report.to_json()["failures"]) == failure_rows(rows)[:1000]


def test_dump_json_writes_the_file_it_returns(tmp_path):
    path = tmp_path / "out.json"
    payload = {"b": np.arange(3), "a": Row("x", np.float32(0.1))}
    text = dump_json(payload, path)
    assert path.read_text() == text
    assert_same(text, oracle(payload))


def test_dump_json_rejects_what_it_cannot_write():
    for bad in (object(), {"x": {1, 2}}, [1j], np.array(2.0)):
        with pytest.raises(TypeError):
            dump_json(bad)
