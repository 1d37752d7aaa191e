"""The benchmark's tracer (perfbench/tracer.py) wraps spiralvis functions it
looks up by module and name, and its counters read some of their arguments
by position. A rename that drops one breaks traced benchmark runs, and a
moved argument silently miscounts, while the rest of the suite passes, so
each lookup and each counted argument is checked here, and so is that the
hooked visibility layers still have callers. So is that every public name,
and every module-level function and class, has a caller outside the tests,
that every defaulted parameter of a module-level function or classmethod,
and every defaulted dataclass field, is passed by some call outside the
tests, that one constant sets every default index budget, that the budget
meets a range in one function per kind of reading, that only the listed
results serialize through a ``to_json`` of their own, that no module imports
a name it never reads, and that the docs name only code that exists."""

import ast
import dataclasses
import importlib
import inspect
import math
import re
import runpy
from pathlib import Path

import spiralvis
import spiralvis.visibility as vis
from spiralvis.cli import build_parser
from spiralvis.spirals import DEFAULT_BUDGET

ROOT = Path(__file__).parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_hooked_layers_stay_on_production_paths(monkeypatch, ladder, fib_sphere, golden):
    # a layer the tracer times but no check calls any more reads 0 in every
    # traced run; perfbench/smoke.py notices only after minutes
    calls = {name: 0 for name in ("_mark_windows", "_exact_cell_witnesses",
                                  "_directional_window_check", "_line_min_distance")}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(vis, name, counted(name, getattr(vis, name)))
    vis.check_orchard(ladder, 0.2, 10.0)
    vis.check_uniform_orchard(fib_sphere, 0.5, 1.0, [0.0])
    vis.estimate_min_visibility(golden, "orchard", [0.3])
    # a forest window in the ladder's vacant strip misses: its exact minimum
    strip = vis.LineParam.at_angle(1.0, math.pi / 2, -60.0, -20.0)
    assert not vis.check_dense_forest(ladder, 0.5, 40.0, [strip]).passed
    assert all(calls.values()), calls
    # so does a ray along it: rays share the one exact-minimum search
    calls["_line_min_distance"] = 0
    [ray] = vis.visible_point_test(ladder, (0, 1), [(1, 0)], 0.5, 300.0)
    assert ray.visible_at_scale and calls["_line_min_distance"], calls


# module-level names in src/spiralvis that only the tests call, each with its reason
NO_PRODUCTION_CALLER = {}


def _referenced(path: Path) -> set[str]:
    """The names a file's code reads: loaded names, attributes, imported
    names and modules, and strings (the tracer names its hooks by string)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
            found.update((node.module or "").split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_public_names_have_production_callers():
    # a name that only tests call is library code kept for the tests: an
    # oracle belongs in tests/oracles.py, anything else nowhere. Checked are
    # the public names and every module-level function and class.
    modules = [path for path in (ROOT / "src" / "spiralvis").glob("*.py")
               if path.name != "__init__.py"]
    used = set().union(*map(_referenced, modules + sorted((ROOT / "perfbench").glob("*.py"))))
    defined = {node.name for path in modules for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names = set(spiralvis.__all__) | defined
    orphans = sorted(names - used - set(NO_PRODUCTION_CALLER))
    assert not orphans, f"names that only the tests call: {orphans}"
    assert set(NO_PRODUCTION_CALLER) <= names - used


# defaulted parameters that no production call passes, each with its reason
NO_CALLER_SETS = {}


def _passed(paths) -> dict:
    """Per called function or attribute name, the argument positions and
    keywords its calls pass: the positions before a call's first *args and
    its named keywords; None once a call passes **kwargs, which may pass
    every keyword."""
    passed = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if passed.get(name, ()) is None:
                continue
            if any(kw.arg is None for kw in node.keywords):
                passed[name] = None
            else:
                positions = next((i for i, a in enumerate(node.args)
                                  if isinstance(a, ast.Starred)), len(node.args))
                passed.setdefault(name, set()).update(
                    range(positions), (kw.arg for kw in node.keywords))
    return passed


def _functions():
    """(qualified name, call name, callable) for each module-level function of
    a spiralvis module, each classmethod of its classes, and each of its
    dataclasses, whose constructor takes the fields, called by class name."""
    for path in sorted((ROOT / "src" / "spiralvis").glob("*.py")):
        module = importlib.import_module(f"spiralvis.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{path.stem}.{name}", name, obj
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    yield name, name, obj
                for attr, member in vars(obj).items():
                    if isinstance(member, classmethod):
                        yield f"{name}.{attr}", attr, getattr(obj, attr)


def test_public_parameters_have_callers():
    # a defaulted parameter or dataclass field that no production call sets
    # is a knob nothing turns: its default is the behaviour, and the knob is
    # code kept for the tests (a batch size the tests shrink is a module
    # constant they patch). Index budgets are resource settings, pinned below.
    files = [path for folder in (ROOT / "src" / "spiralvis", ROOT / "perfbench")
             for path in sorted(folder.glob("*.py"))]
    passed = _passed(files)
    unset = set()
    for qualname, call, func in _functions():
        args = passed.get(call, set())
        if args is None or call in NO_PRODUCTION_CALLER:
            continue
        for i, param in enumerate(inspect.signature(func).parameters.values()):
            position = i if param.kind is param.POSITIONAL_OR_KEYWORD else None
            if param.default is not param.empty and param.name != "index_budget" \
                    and not {position, param.name} & args:
                unset.add((qualname, param.name))
    assert unset - set(NO_CALLER_SETS) == set(), \
        f"defaulted parameters that no call passes: {sorted(unset - set(NO_CALLER_SETS))}"
    assert set(NO_CALLER_SETS) <= unset


def test_every_default_budget_is_the_one_constant():
    # a default budget of its own would let one layer read past (or stop
    # short of) what the others and the CLI read by default
    budgets = {qualname: inspect.signature(func).parameters.get("index_budget")
               for qualname, _, func in _functions()}
    defaults = {qualname: param.default for qualname, param in budgets.items()
                if param is not None and param.default is not param.empty}
    assert len(defaults) >= 9, sorted(defaults)
    assert set(defaults.values()) == {DEFAULT_BUDGET}, defaults
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "subcommand").choices
    assert {parser.parse_args([name]).budget for name in commands} == {DEFAULT_BUDGET}


# the functions that may compare an index budget, or take a min or max with
# it, each with its reason
BUDGET_RULES = {
    "spirals.index_range": "forms the index range of every scan",
    "covering._window_radius": "the one window rule of the covering tables",
    "cli.main": "refuses a --budget below 1",
    "cli._covering_table": "refuses an --m at or past --budget, naming it",
}


def _reads_budget(node) -> bool:
    """Whether ``index_budget`` or ``ns.budget`` is a sub-expression of ``node``."""
    return any(isinstance(sub, ast.Name) and sub.id == "index_budget"
               or isinstance(sub, ast.Attribute) and sub.attr == "budget"
               and getattr(sub.value, "id", None) == "ns" for sub in ast.walk(node))


def test_one_budget_rule_per_reading():
    # a second place that clips a range by the budget clips it its own way,
    # and a clip that a report is to show must be made where it is recorded
    sites = set()
    for path in sorted((ROOT / "src" / "spiralvis").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            functions = top.body if isinstance(top, ast.ClassDef) else [top]
            for func in functions:
                if not isinstance(func, ast.FunctionDef):
                    continue
                for node in ast.walk(func):
                    called = getattr(node, "func", None)
                    if isinstance(node, ast.Compare) and _reads_budget(node) or \
                            getattr(called, "id", getattr(called, "attr", None)) in \
                            ("min", "max", "minimum", "maximum") and \
                            any(map(_reads_budget, node.args)):
                        sites.add(f"{path.stem}.{func.name}")
    assert sites == set(BUDGET_RULES), sorted(sites)


# the classes that may define a ``to_json``, each with its reason
TO_JSON = {
    "CheckReport": "adds its derived values (passed, pass_fraction, failure_count, "
                   "witness_count, certified_tolerance), caps its failures and "
                   "witnesses, and leaves out an empty extra",
    "SequenceSpec": "builds the params of its kind",
    "VisibilityCurve": "adds its derived slope, and perfbench/child.py digests a curve "
                       "through it",
}


def test_one_serialization_path_per_result():
    # a result that writes its fields through a to_json of its own keeps its
    # payload's layout in a second place; dump_json writes a dataclass's fields
    owners = [node.name for path in sorted((ROOT / "src" / "spiralvis").glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.ClassDef) and any(
                  isinstance(member, ast.FunctionDef) and member.name == "to_json"
                  for member in node.body)]
    assert sorted(owners) == sorted(TO_JSON), owners


def _unread_imports(path: Path) -> list[str]:
    """The names a module imports (``__future__`` aside) but never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in read]


def test_no_unread_imports():
    # an import nothing reads is a dependency kept for nothing, and it hides
    # which helpers a refactor left without a caller
    files = [path for path in sorted((ROOT / "src" / "spiralvis").glob("*.py"))
             if path.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
    unread = [entry for path in files for entry in _unread_imports(path)]
    assert not unread, f"imported names that nothing reads: {unread}"


def _doc_texts():
    """(where, text) of README.md, without its fenced code, and of every
    docstring in src/spiralvis."""
    readme = (ROOT / "README.md").read_text()
    yield "README.md", re.sub(r"```.*?```", "", readme, flags=re.S)
    for path in sorted((ROOT / "src" / "spiralvis").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                if doc := ast.get_docstring(node, clean=False):
                    yield path.name, doc


def test_docs_name_only_code_that_exists():
    # a backticked private name (``_name``) or module-qualified name
    # (``module.name``, ``spiralvis.module.name``) in the docs must resolve
    # in a spiralvis module, so a removal cannot leave a sentence about it
    modules = {path.stem: importlib.import_module(f"spiralvis.{path.stem}")
               for path in (ROOT / "src" / "spiralvis").glob("*.py")
               if path.name != "__init__.py"}
    modules["spiralvis"] = spiralvis

    def resolves(name):
        head, *rest = name.split(".")
        owners = [modules[head]] if rest else modules.values()
        for part in rest or [head]:
            owners = [getattr(obj, part) for obj in owners if hasattr(obj, part)]
        return bool(owners)

    missing = []
    for where, text in _doc_texts():
        for quoted in re.findall(r"``([^`]+)``|`([^`]+)`", text):
            name = re.match(r"[\w.]*", "".join(quoted)).group().rstrip(".")
            private = name.startswith("_") and not name.startswith("__")
            qualified = "." in name and name.split(".")[0] in modules
            if (private or qualified) and name != "_ArrayMemoryError" and not resolves(name):
                missing.append(f"{where}: {name}")
    assert not missing, f"docs name code that does not exist: {missing}"
