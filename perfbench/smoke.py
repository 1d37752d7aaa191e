"""Smoke test of the benchmark itself, at tiny workload sizes (about a minute).

    python3 perfbench/smoke.py

Checks that:
  * every workload, untraced and traced, prints a result line whose metrics
    are exactly BENCHMARK.json's end-to-end or per-layer names, with units,
    and whose verdicts all check out;
  * after a traced run every rebound module attribute is the original
    function again, and during it every holder of a function was rebound;
  * the traced layers cover ROADMAP item 1's rows: direction_batch for each
    kind, radius_of_index, annulus_index_range, the d=1 and d=2 net builds,
    _mark_windows, exact witness recovery, the d>=2 sweep and the Delone probe;
  * spans from parallel_map worker threads nest under the parallel_map span.
Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE / "seed"), str(HERE)]

import child  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# ROADMAP item 1's layer rows, as the per-layer metric that must be nonzero.
REQUIRED_LAYERS = [
    "sequences.direction_batch.golden-angle.s",
    "sequences.direction_batch.rational-ladder.s",
    "sequences.direction_batch.fibonacci-sphere.s",
    "spirals.radius_of_index.s",
    "spirals.annulus_index_range.s",
    "sphere.build_direction_net.d1.s",
    "sphere.build_direction_net.d2.s",
    "visibility._mark_windows.s",
    "visibility._exact_cell_witnesses.s",
    "visibility._directional_window_check.s",
    "delone.covering_estimate.s",
]


def spiralvis_functions() -> dict:
    """(module, attribute) -> function object, over every loaded spiralvis module."""
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "spiralvis" or name.startswith("spiralvis.")
            for attr, value in vars(mod).items()
            if isinstance(value, types.FunctionType)}


def check_result_lines(spec, failures) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems = [ln for ln in proc.stdout.splitlines() if "MISMATCH" in ln]
                failures.append(f"{tag}: verdicts failed: {problems[:5]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))[:5]}")


def check_traced_runs(failures) -> None:
    child._import_program()
    before = spiralvis_functions()
    covered = {}
    for workload in workloads.WORKLOADS:
        out_dir = ROOT / ".perfbench-out" / "smoke"
        result = child.run_workload(workload, 3, 0.0, trace=True, tiny=True,
                                    out_dir=str(out_dir))
        for name, value in result["layers"].items():
            covered[name] = covered.get(name, 0.0) + value
        if spiralvis_functions() != before:
            failures.append(f"{workload}: module attributes not restored after tracing")
    missing = [name for name in REQUIRED_LAYERS if not covered.get(name)]
    if missing:
        failures.append(f"layers never traced: {missing}")

    tracer = Tracer().install()
    try:
        originals = {id(fn) for _, _, fn in tracer._restore}
        stale = [f"{mod}.{attr}" for (mod, attr), fn in spiralvis_functions().items()
                 if id(fn) in originals]
    finally:
        tracer.uninstall()
    if stale:
        failures.append(f"attributes left untraced while tracing: {stale}")


def check_thread_nesting(failures) -> None:
    sv = child._import_program()
    queries = workloads.circle_scan(3, True, "")
    forest = [q for q in queries if q.check == "forest"][-1]  # 10 lines: parallel
    saved = os.environ.get("SPIRAL_THREADS")
    os.environ["SPIRAL_THREADS"] = "2"
    try:
        tracer = Tracer()
        with tracer:
            child.run_pass(sv, [forest], 3, tracer)
    finally:
        if saved is None:
            del os.environ["SPIRAL_THREADS"]
        else:
            os.environ["SPIRAL_THREADS"] = saved
    main_thread = next(s.thread for s in tracer.spans if s.name == "bench.query")
    workers = [s for s in tracer.spans if s.thread != main_thread]
    if not workers:
        failures.append("no spans recorded on parallel_map worker threads")
    for span in workers:
        p = span.parent
        while p is not None and p.name != "par.parallel_map":
            p = p.parent
        if p is None:
            failures.append(f"worker span {span.name} does not nest under parallel_map")
            break


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    check_result_lines(spec, failures)
    check_traced_runs(failures)
    check_thread_nesting(failures)
    for f in failures:
        print("FAIL", f)
    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
