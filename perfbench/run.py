"""spiralvis benchmark: seeded workloads of CLI and library queries, timed
end to end, with their verdicts checked.

    python3 perfbench/run.py --workload circle-scan --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 12 --trace 1
    python3 perfbench/smoke.py     # the benchmark's own smoke test

Run from the repository root. Each workload runs in a fresh child process
(child.py) that imports the program from ./src and the seed program, a
frozen copy of spiralvis, from perfbench/seed. SPIRAL_THREADS and the
BLAS/OpenMP thread counts are pinned to 1, and the child gets an
address-space ceiling, so a query that balloons memory fails as a counted
error instead of exhausting the machine. Set-up time is the median over
fresh interpreters that import spiralvis.cli and build its parser.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json: wall_rel (the query list's wall time over the seed
program's, run query by query alongside it), peak_rss_mb and setup_s. With
--trace 1 they are its per-layer metrics, taken from traced passes (self
times and counts per spiralvis function) and from untraced passes of the
same run (raw wall and family times, tracing overhead). The lines before it,
and a JSON file under .perfbench-out/, record every metric, the environment
and any verdict that did not check out."""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("circle-sweep", "circle-scan", "sphere-sweep", "ball-diagnostics")

THREADS = {"SPIRAL_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Keep freed memory in the process and off transparent huge pages: otherwise
# each pass re-faults its large arrays, and whether a fault gets a huge page
# swings a pass by tens of percent on a virtual machine.
MEMORY = {"NUMPY_MADVISE_HUGEPAGE": "0", "MALLOC_MMAP_THRESHOLD_": str(1 << 32),
          "MALLOC_TRIM_THRESHOLD_": str(1 << 32)}
MEMORY_CEILING = 3 << 30  # bytes of address space for a workload child
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 160
SELF_SUM_TOLERANCE = 0.10  # traced self times must add up to the traced wall

SETUP_CODE = ("import spiralvis.cli as cli; cli.build_parser(); "
              "print('ready', flush=True)")


def _env() -> dict:
    env = dict(os.environ, **THREADS, **MEMORY)
    paths = [str(ROOT / "src"), str(HERE / "seed")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING, MEMORY_CEILING))


def measure_setup(env) -> float:
    """Median time from spawning an interpreter to a parser ready for a query."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError("set-up interpreter failed to import spiralvis.cli")
    return statistics.median(samples)


def run_child(env, workload, seed, seconds, trace, tiny) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(OUT_DIR)] + (["--tiny"] if tiny else [])
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          preexec_fn=_limit_memory) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{workload} child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _cpu_model() -> str:
    """py-cpuinfo's brand string, cached in OUT_DIR (probing takes about a second)."""
    cache = OUT_DIR / "cpu-model.txt"
    if cache.is_file():
        return cache.read_text().strip()
    try:
        import cpuinfo
        cpu = cpuinfo.get_cpu_info().get("brand_raw", "")
    except ImportError:
        cpu = platform.processor()
    OUT_DIR.mkdir(exist_ok=True)
    cache.write_text(cpu + "\n")
    return cpu


def environment() -> dict:
    cpu = _cpu_model()
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None  # a checkout without git
    import numpy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu": cpu, "nproc": os.cpu_count(),
        "memory_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") >> 20,
        "git_commit": commit, "threads": THREADS, "allocator": MEMORY,
        "memory_ceiling_mb": MEMORY_CEILING >> 20,
    }


def run(spec, workload, seed, seconds, trace, tiny) -> dict:
    env = _env()
    setup_s = measure_setup(env)
    child = run_child(env, workload, seed, seconds, trace, tiny)
    correct = child["failed"] == 0
    if trace:
        values = dict(child["layers"])
        values.update({f"family.{k}_s": v for k, v in child["family"].items()})
        frac = values["trace.self_sum_frac"]
        if abs(frac - 1.0) > SELF_SUM_TOLERANCE:
            correct = False
            child["problems"].append(f"traced self times sum to {frac:.3f} of the wall")
        rows = spec["per_layer"]
    else:
        values = {"setup_s": setup_s, "wall_rel": child["wall_rel"],
                  "peak_rss_mb": child["peak_rss_mb"]}
        rows = spec["end_to_end"]
    metrics = {r["name"]: {"value": float(values.get(r["name"], 0.0)), "unit": r["unit"]}
               for r in rows}
    record = {
        "environment": environment(), "setup_s": setup_s,
        "mismatch_frac": child["failed"] / child["attempted"],
        "family_s": child["family"], "child": child, "metrics": metrics,
        "unlisted": sorted(set(values) - {r["name"] for r in rows}),
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"# {workload} seed={seed} passes={child['passes']}+{child['traced_passes']} "
          f"environment={json.dumps(record['environment'])}")
    print(f"# mismatch_frac {record['mismatch_frac']:.6g} "
          f"({child['failed']}/{child['attempted']})")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    if not trace:
        print(f"# wall_s {child['wall_s']:.6g} s")
        for fam, t in child["family"].items():
            if t:
                print(f"# {fam}_s {t:.6g} s")
    for problem in child["problems"][:20]:
        print(f"# MISMATCH {problem}")
    print(f"# record: {path.relative_to(ROOT)}")
    return {"correct": correct, "attempted": child["attempted"],
            "failed": child["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="query time to measure per run, program and seed program "
                         "together (at least two paired passes run)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken queries, for the smoke test")
    ns = ap.parse_args(argv)
    if not (ROOT / "src" / "spiralvis" / "cli.py").is_file():
        print(f"error: no spiralvis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS if ns.workload == "all" else (ns.workload,):
        try:
            result = run(spec, workload, ns.seed, ns.seconds, ns.trace, ns.tiny)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
