"""The benchmark's tracer (perfbench/tracer.py) wraps spiralvis functions it
looks up by module and name. A rename that drops one breaks traced benchmark
runs while the rest of the suite passes, so each lookup is checked here."""

import importlib
import inspect
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
