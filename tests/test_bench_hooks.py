"""The benchmark's tracer (perfbench/tracer.py) wraps spiralvis functions it
looks up by module and name, and its counters read some of their arguments
by position. A rename that drops one breaks traced benchmark runs, and a
moved argument silently miscounts, while the rest of the suite passes, so
each lookup and each counted argument is checked here."""

import importlib
import inspect
import re
import runpy
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_tracer_hooks_resolve():
    tables = runpy.run_path(str(TRACER))  # read only: compiled from source, no cache
    hooks = [(mod, attr) for mod, attr, *_ in
             tables["LAYERS"] + tables["GENERATORS"] + tables["PARALLEL"]]
    hooks.append(("delone", "_probe_grid"))  # read by the probe-pairs counter
    assert len(hooks) >= 25
    missing = [f"spiralvis.{mod}.{attr}" for mod, attr in hooks
               if not callable(getattr(importlib.import_module(f"spiralvis.{mod}"), attr, None))]
    assert not missing, f"perfbench/tracer.py hooks that no longer resolve: {missing}"
    for mod, attr, _ in tables["GENERATORS"]:  # wrapped one span per next()
        assert inspect.isgeneratorfunction(
            getattr(importlib.import_module(f"spiralvis.{mod}"), attr))


# (module, function) -> the (position, name) of each argument the tracer's
# counters read through its ``_arg(args, kwargs, position, name)``
COUNTED_ARGUMENTS = {
    ("visibility", "_mark_windows"): [(2, "angles")],
    ("sequences", "direction_batch"): [(1, "ns")],
    ("spirals", "write_points_binary"): [(4, "coords")],
    ("delone", "covering_estimate"): [(0, "coords"), (1, "T"), (2, "resolution")],
}


def test_tracer_counted_arguments_keep_their_positions():
    # a counter reading a moved argument would count the wrong thing, or
    # nothing, while the traced run still succeeds
    read = set(re.findall(r'_arg\(\w+, \w+, (\d+), "(\w+)"\)', TRACER.read_text()))
    assert read == {(str(position), name) for args in COUNTED_ARGUMENTS.values()
                    for position, name in args}
    for (mod, attr), args in COUNTED_ARGUMENTS.items():
        params = list(inspect.signature(
            getattr(importlib.import_module(f"spiralvis.{mod}"), attr)).parameters)
        for position, name in args:
            assert params[position] == name, \
                f"spiralvis.{mod}.{attr} argument {position} is {params[position]!r}, " \
                f"but perfbench/tracer.py reads it as {name!r}"
