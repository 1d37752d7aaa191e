"""Run one workload in this (fresh) process and print its result as JSON.

Started by run.py with the thread variables pinned and a memory ceiling set.
Pass 0 runs the program alone. Then paired passes run every query on the
program and, right before or after it, on the seed program (a frozen copy
of spiralvis kept under seed/), alternating which goes first, until
--seconds of query time have been measured and at least two pairs ran. The
host's speed drifts by tens of percent over minutes; both sides of a pair
see the same drift, so wall_rel, the program's time over the seed program's,
stays steady where raw seconds do not. With --trace 1 traced passes of the
program alone alternate with the pairs. Peak RSS is read after pass 0, and
the verdict checks run untimed at the end."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

import numpy as np

import tracer as tracer_mod
import verdicts
import workloads
from tracer import Tracer

READ_SAMPLE = 1000
# A frozen copy of src/spiralvis as of the commit that added this benchmark.
SEED_PACKAGE = "spiralvis_seed"


def _import_program(name: str = "spiralvis"):
    """The package with its cli, spirals, sphere and visibility modules loaded."""
    for sub in ("", ".cli", ".spirals", ".sphere", ".visibility"):
        importlib.import_module(name + sub)
    pkg = sys.modules[name]
    pkg.cli.build_parser()
    return pkg


def _execute(sv, q: workloads.Query):
    """The timed part of a query; returns the raw payload."""
    if q.argv is not None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = sv.cli.main(list(q.argv))
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        return buf.getvalue()
    if q.call == "min_visibility":
        p = q.params
        return sv.visibility.estimate_min_visibility(
            sv.SequenceSpec(p["kind"]), "uniform", p["eps_grid"], t0_list=p["t0"])
    if q.call == "read_points":
        return sv.spirals.read_points_binary(q.params["path"])
    raise ValueError(f"unknown call {q.call!r}")


def _digest(q: workloads.Query, raw) -> str:
    if isinstance(raw, str):
        data = raw.encode()
    elif q.call == "min_visibility":
        data = json.dumps(raw.to_json(), sort_keys=True).encode()
    else:
        d, n_lo, n_hi, coords = raw
        data = np.array([d, n_lo, n_hi], dtype="<i8").tobytes() + coords.tobytes()
    return hashlib.sha256(data).hexdigest()


def _payload(q: workloads.Query, raw, rng):
    """What the verdict check reads: parsed JSON, or a sample of a point dump."""
    if isinstance(raw, str):
        return json.loads(raw)
    if q.call == "min_visibility":
        return raw.to_json()
    d, n_lo, n_hi, coords = raw
    sample = np.sort(rng.choice(len(coords), min(READ_SAMPLE, len(coords)),
                                replace=False)) + n_lo
    return {"header": [d, n_lo, n_hi], "shape": list(coords.shape),
            "sample_n": sample, "sample": coords[sample - n_lo]}


def _timed(sv, q, tracer=None):
    """(seconds, raw payload, error) of one query."""
    raw, error = None, None
    start = time.perf_counter()
    try:
        if tracer is None:
            raw = _execute(sv, q)
        else:
            root = tracer.open("bench.query")
            try:
                raw = _execute(sv, q)
            finally:
                tracer.close(root)
    except (Exception, SystemExit) as exc:  # MemoryError under the ceiling too
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, raw, error


def run_pass(sv, queries, seed, tracer=None, keep=False, seed_run=None, seed_first=False):
    """Run the query list once: per-query times, digests and errors, and with
    `keep` the payloads for the verdict checks. With `seed_run` = (seed
    program, its queries) each query is also run on the seed program, right
    before or after it, and those times are returned as `seed_times`."""
    times, digests, payloads, errors, seed_times = [], [], [], [], []
    rng = np.random.default_rng(seed)
    for i, q in enumerate(queries):
        if seed_run is not None and seed_first:
            seed_times.append(_timed(seed_run[0], seed_run[1][i])[0])
        if tracer is not None:
            tracer.query = i
        dt, raw, error = _timed(sv, q, tracer)
        if seed_run is not None and not seed_first:
            seed_times.append(_timed(seed_run[0], seed_run[1][i])[0])
        times.append(dt)
        payload = None
        if keep and error is None:
            try:
                payload = _payload(q, raw, rng)
            except ValueError as exc:  # output that is not JSON
                error = f"malformed payload: {exc}"
        errors.append(error)
        digests.append(None if error else _digest(q, raw))
        payloads.append(payload)
        raw = None
    return SimpleNamespace(times=times, digests=digests, payloads=payloads,
                           errors=errors, seed_times=seed_times)


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer values of one traced pass: '<span>.s' self times plus counts."""
    selfs = tracer.self_times()
    out = {f"{name}.s": t for name, t in selfs.items()}
    counts = dict(tracer.counts)
    verdicts_n = counts.pop(tracer_mod.VERDICTS, 0)
    points = counts.pop(tracer_mod.VERDICT_POINTS, 0)
    resolved = counts.pop(tracer_mod.RESOLVED, 0)
    out.update(counts)
    out["visibility.points_per_verdict"] = points / verdicts_n if verdicts_n else 0.0
    out["visibility.resolved_frac"] = resolved / verdicts_n if verdicts_n else 0.0
    out["trace.wall_s"] = wall
    out["trace.self_sum_frac"] = sum(selfs.values()) / wall
    return out


def _family_times(queries, times) -> dict:
    fam = {f: 0.0 for f in workloads.FAMILIES}
    for q, t in zip(queries, times):
        if q.family:
            fam[q.family] += t
    return fam


def _median_dict(rows: list[dict]) -> dict:
    keys = sorted({k for r in rows for k in r})
    return {k: statistics.median(r.get(k, 0.0) for r in rows) for k in keys}


def _span_line(rec):
    i, name, start, end, parent, query, thread = rec
    return json.dumps({"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "query": query, "thread": thread})


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 out_dir: str) -> dict:
    sv = _import_program()
    seed_sv = _import_program(SEED_PACKAGE)
    os.makedirs(out_dir, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    try:
        queries = workloads.build(workload, seed, tiny, tmpdir)
        os.mkdir(os.path.join(tmpdir, "seed"))  # its point dumps go apart
        seed_run = (seed_sv, workloads.build(workload, seed, tiny,
                                             os.path.join(tmpdir, "seed")))
        # Pass 0 runs the program alone: it is the cold pass a one-off CLI
        # call pays for, the reference for the verdict checks, and the only
        # memory the peak RSS reading sees.
        first = run_pass(sv, queries, seed, keep=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        paired, traced, layers, span_lines = [], [], [], []
        measured = 0.0
        while len(paired) < 2 or measured < seconds or (trace and not traced):
            if trace and len(paired) > len(traced):
                tracer = Tracer()
                with tracer:
                    p = run_pass(sv, queries, seed, tracer)
                layers.append(layer_metrics(tracer, sum(p.times)))
                span_lines.extend(_span_line(r) for r in tracer.records())
                traced.append(p)
            else:
                p = run_pass(sv, queries, seed, seed_run=seed_run,
                             seed_first=len(paired) % 2 == 1)
                paired.append(p)
            measured += sum(p.times) + sum(p.seed_times)

        ctx = SimpleNamespace(rng=np.random.default_rng(seed), spiralvis=sv)
        problems = []
        failed = 0  # one verdict per query per pass
        for i, q in enumerate(queries):
            errs = []
            if first.errors[i]:
                errs.append(first.errors[i])
            else:
                try:
                    errs += verdicts.CHECKS[q.check](first.payloads[i], q, ctx)
                except Exception as exc:  # a payload the check cannot read
                    errs.append(f"malformed payload: {type(exc).__name__}: {exc}")
            failed += bool(errs)
            for k, p in enumerate(paired + traced, start=1):
                if p.errors[i] or p.digests[i] != first.digests[i]:
                    errs.append(f"pass {k}: {p.errors[i] or 'payload differs from pass 0'}")
                    failed += 1
            problems += [f"{q.label[:80]}: {e}" for e in errs]

        walls = [sum(p.times) for p in paired]
        result = {
            "workload": workload, "seed": seed, "tiny": tiny,
            "queries": len(queries), "passes": 1 + len(paired),
            "traced_passes": len(traced),
            "attempted": len(queries) * (1 + len(paired) + len(traced)),
            "failed": failed, "problems": problems,
            "wall_s": statistics.median(walls),
            "wall_rel": statistics.median(
                sum(p.times) / sum(p.seed_times) for p in paired),
            "first_pass_s": sum(first.times), "pass_walls_s": walls,
            "seed_pass_walls_s": [sum(p.seed_times) for p in paired],
            "query_times_s": [p.times for p in paired],
            "peak_rss_mb": peak_rss_mb,
            "family": _median_dict([_family_times(queries, p.times) for p in paired]),
        }
        if trace:
            lay = _median_dict(layers)
            lay["trace.untraced_wall_s"] = result["wall_s"]
            lay["trace.overhead_frac"] = lay["trace.wall_s"] / result["wall_s"] - 1.0
            result["layers"] = lay
            spans_path = os.path.join(out_dir, f"{workload}-seed{seed}-spans.jsonl")
            with open(spans_path, "w") as fh:
                fh.write("\n".join(span_lines) + "\n")
            result["spans_file"] = spans_path
        return result
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--out-dir", required=True)
    ns = ap.parse_args(argv)
    result = run_workload(ns.workload, ns.seed, ns.seconds, bool(ns.trace), ns.tiny,
                          ns.out_dir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
