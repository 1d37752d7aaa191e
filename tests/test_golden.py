"""Frozen output: each argv must reproduce its stored JSON payload, each CSV
case the file it writes, and each library case the ``dump_json`` of its
result, byte for byte.

Regenerate after an intended output change with
``PYTHONPATH=src python tests/test_golden.py [NAME ...]`` (every case when no
name is given; a name in two tables regenerates both files) and review the
diff.
"""

import contextlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest
from conftest import assert_same

from spiralvis import SequenceSpec, estimate_min_visibility
from spiralvis.cli import main
from spiralvis.reports import dump_json

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "orchard-ladder": ["orchard", "--seq", "rational-ladder", "--eps", "0.1",
                       "--V", "125.7"],
    "orchard-ladder-certificate": ["orchard", "--seq", "rational-ladder",
                                   "--method", "certificate", "--eps", "0.2",
                                   "--V", "63"],
    "uniform-golden": ["uniform", "--seq", "golden-angle", "--eps", "0.1",
                       "--V", "50", "--t0", "0,100"],
    "uniform-fibonacci-sphere": ["uniform", "--seq", "fibonacci-sphere", "--d", "2",
                                 "--eps", "0.2", "--V", "0.5"],
    "uniform-fibonacci-sphere-sweep": ["uniform", "--seq", "fibonacci-sphere", "--d", "2",
                                       "--eps", "0.2", "--V", "1.25", "--t0", "0,10,20"],
    "orchard-fibonacci-sphere-certificate": ["orchard", "--seq", "fibonacci-sphere",
                                             "--d", "2", "--method", "certificate",
                                             "--eps", "0.5", "--V", "3"],
    "forest-random-lines": ["forest", "--seq", "golden-angle", "--eps", "0.1",
                            "--V", "44", "--lines", "5", "--seed", "3"],
    "forest-strip-line": ["forest", "--seq", "rational-ladder", "--eps", "0.5",
                          "--V", "20", "--line", f"1.0,{math.pi / 2!r},10,30"],
    "visible-strip-ray": ["visible", "--seq", "rational-ladder", "--x", "0,1",
                          "--dir", "1,0", "--eps-floor", "0.5", "--Tmax", "300"],
    "visible-ladder-ray-chunk2": ["visible", "--seq", "rational-ladder", "--x", "0,1",
                                  "--dir=-1,0.001", "--eps-floor", "0.5",
                                  "--Tmax", "2000"],
    "visible-golden-ray": ["visible", "--seq", "golden-angle", "--x", "0.3,0.1",
                           "--dir", "0.6,0.8", "--eps-floor", "0.2", "--Tmax", "100"],
    "forest-ladder-lines": ["forest", "--seq", "rational-ladder", "--eps", "0.5",
                            "--V", "44", "--line=1.5,1.5707963267948966,-700,-656",
                            "--lines", "6", "--seed", "3"],
    # four misses, each reported with its exact minimum
    "forest-golden-misses": ["forest", "--seq", "golden-angle", "--eps", "0.1",
                             "--V", "44", "--lines", "40", "--seed", "1"],
    # the same windows on sqrt(2)'s convergents: every window hits
    "forest-sqrt2-lines": ["forest", "--seq", "golden-angle", "--theta",
                           "1.4142135623730951", "--eps", "0.1", "--V", "44",
                           "--lines", "40", "--seed", "1"],
    # a golden ray with no point below eps_floor: the exact minimum, n=610
    "visible-golden-miss": ["visible", "--seq", "golden-angle", "--x", "0.3,0.1",
                            "--dir", "1,0", "--eps-floor", "0.01", "--Tmax", "50"],
    # windows through and behind the origin: both halves of each window's arcs
    "uniform-golden-origin": ["uniform", "--seq", "golden-angle", "--eps", "0.05",
                              "--V", "80", "--t0=-40,-100,5.5"],
    # 276 of 2,514 cells fail, cell 0 among them: the failure list and the
    # witnesses the cover stamps for the first 100 hit cells
    "orchard-golden-failures": ["orchard", "--seq", "golden-angle", "--eps", "0.1",
                                "--V", "20"],
    # K = 1,579,137 cells: later blocks ranked in the list of open cells
    "orchard-ladder-ranked": ["orchard", "--seq", "rational-ladder", "--eps", "0.01",
                              "--V", "1256.6370614359173"],
    "delone-badness": ["delone", "--T", "10", "--probe-res", "1.0",
                       "--badness-Q", "100"],
    "delone-ladder": ["delone", "--seq", "rational-ladder", "--T", "25",
                      "--probe-res", "0.5"],
    "delone-fibonacci-sphere": ["delone", "--seq", "fibonacci-sphere", "--d", "2",
                                "--T", "6", "--probe-res", "0.5"],
    "covering": ["covering", "--m", "0,1000", "--N", "100,1000"],
    "criterion": ["criterion", "--eps", "0.2,0.1"],
    "defvisi": ["defvisi", "--eps", "0.2,0.1", "--x-grid", "1,2,4,8"],
    # the dumps' payloads: a relative --out, written in render's temporary cwd
    "puncture-ladder": ["puncture", "--seq", "rational-ladder", "--v0", "0,1",
                        "--delta", "0.5", "--n", "300", "--out", "points.csv"],
    # three blocks of spirals.CHUNK points
    "puncture-golden": ["puncture", "--seq", "golden-angle", "--v0", "1,0",
                        "--delta", "0.5", "--n", "600000", "--out", "points.bin"],
}

# name -> (argv, the flag naming the CSV file it writes)
CSV_CASES = {
    "covering": (CASES["covering"], "--csv"),
    "criterion": (CASES["criterion"], "--csv"),
    "defvisi": (CASES["defvisi"], "--csv"),
    "puncture-ladder": (["puncture", "--seq", "rational-ladder", "--v0", "0,1",
                         "--delta", "0.5", "--n", "300"], "--out"),
}

# name -> a library call with no CLI subcommand, frozen as its dump_json
LIBRARY_CASES = {
    # the circle-sweep workload's minimal-visibility query
    "estimate-golden-uniform": lambda: estimate_min_visibility(
        SequenceSpec("golden-angle"), "uniform", [0.2, 0.1, 0.05, 0.025],
        t0_list=(0, 100, 1000)),
}


def render(argv) -> str:
    """The stdout payload of ``argv``, run in a temporary working directory
    that takes whatever file it writes."""
    buf = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buf):
        os.chdir(tmp)
        try:
            assert main(list(argv)) == 0
        finally:
            os.chdir(cwd)
    return buf.getvalue()


def render_csv(argv, flag) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        render([*argv, flag, str(path)])
        return path.read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_payload(name):
    want = (GOLDEN_DIR / f"{name}.json").read_text()
    assert_same(render(CASES[name]), want)


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_golden_csv(name):
    want = (GOLDEN_DIR / f"{name}.csv").read_text()
    assert_same(render_csv(*CSV_CASES[name]), want)


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_golden_library(name):
    want = (GOLDEN_DIR / f"{name}.json").read_text()
    assert_same(dump_json(LIBRARY_CASES[name]()), want)


def test_every_golden_file_has_a_case():
    # a stored payload with no case would silently stop being checked
    cases = ({f"{name}.json" for name in CASES | LIBRARY_CASES}
             | {f"{name}.csv" for name in CSV_CASES})
    assert sorted(p.name for p in GOLDEN_DIR.iterdir() if p.name not in cases) == []


if __name__ == "__main__":
    known = set(CASES) | set(CSV_CASES) | set(LIBRARY_CASES)
    names = sys.argv[1:] or sorted(known)
    unknown = sorted(set(names) - known)
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}; "
                 f"known: {', '.join(sorted(known))}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        if name in CASES:
            (GOLDEN_DIR / f"{name}.json").write_text(render(CASES[name]))
        if name in CSV_CASES:
            (GOLDEN_DIR / f"{name}.csv").write_text(render_csv(*CSV_CASES[name]))
        if name in LIBRARY_CASES:
            (GOLDEN_DIR / f"{name}.json").write_text(dump_json(LIBRARY_CASES[name]()))
