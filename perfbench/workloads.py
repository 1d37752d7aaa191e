"""The four benchmark workloads as fixed, seeded query lists.

A query is one in-process `spiralvis.cli.main(argv)` call, or one library call
where the CLI has no subcommand for the work. The workload seed reaches the
program only through the arguments generated here.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("circle-sweep", "circle-scan", "sphere-sweep", "ball-diagnostics")

# Families whose summed query time is reported as its own row.
FAMILIES = ("orchard", "uniform", "min_visibility", "visible_miss", "visible_hit",
            "forest", "delone")


@dataclass
class Query:
    """One query: `argv` for a CLI call, or `call` naming a library call.

    `check` names the verdict check in verdicts.py; `params` holds whatever
    that check needs beyond the payload (the query's inputs and references).
    """

    check: str
    family: str = ""
    argv: list[str] | None = None
    call: str | None = None
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(self.argv) if self.argv else self.call


def _num(x: float) -> str:
    return repr(float(x))


def circle_sweep(seed: int, tiny: bool, tmpdir: str) -> list[Query]:
    """Interval marking on the uniform circle net; the seed is not used."""
    queries = []
    for eps in (0.2,) if tiny else (0.2, 0.1, 0.05, 0.02, 0.01):
        V = 4 * math.pi / eps
        queries.append(Query(
            "orchard", "orchard",
            ["orchard", "--seq", "rational-ladder", "--eps", _num(eps), "--V", _num(V)],
            params={"kind": "rational-ladder", "eps": eps, "V": V}))
    t0 = (0.0, 100.0, 1000.0)
    for eps in (0.1,) if tiny else (0.1, 0.05, 0.025, 0.0125):
        V = 5.0 / eps
        queries.append(Query(
            "uniform", "uniform",
            ["uniform", "--seq", "golden-angle", "--eps", _num(eps), "--V", _num(V),
             "--t0", ",".join(_num(t) for t in t0)],
            params={"kind": "golden-angle", "eps": eps, "V": V, "t0": t0,
                    "passed": True}))
    queries.append(Query(
        "min_visibility", "min_visibility", call="min_visibility",
        params={"kind": "golden-angle",
                "eps_grid": [0.2, 0.1] if tiny else [0.2, 0.1, 0.05, 0.025],
                "t0": t0}))
    return queries


def _line_arg(line) -> str:
    return ",".join(_num(x) for x in line)


def _random_lines(rng, count: int, V: float, lam_max: float = 100.0):
    """(lam, angle, t0, t1) windows, drawn in the order `forest --lines` draws."""
    lines = []
    for _ in range(count):
        ang = rng.uniform(0, 2 * math.pi)
        t0 = rng.uniform(-100.0, 100.0)
        lam = rng.uniform(0, lam_max)
        lines.append((lam, ang, t0, t0 + V))
    return lines


def circle_scan(seed: int, tiny: bool, tmpdir: str) -> list[Query]:
    """Annulus scans: certified misses pay the whole annulus, hits one chunk."""
    rng = np.random.default_rng(seed)
    t_max = 300.0 if tiny else 3000.0
    queries = [Query(
        "visible", "visible_miss",
        ["visible", "--seq", "rational-ladder", "--x", "0,1", "--dir", "1,0",
         "--eps-floor", "0.5", "--Tmax", _num(t_max)],
        params={"kind": "rational-ladder", "x": [0.0, 1.0], "v": [1.0, 0.0],
                "eps_floor": 0.5, "T_max": t_max, "expect": "strip"})]
    for t_end in (t_max / 3, 2 * t_max / 3, t_max):
        # The line y = 1 inside the ladder's vacant strip. With angle pi/2 the
        # CLI takes v = (0, 1) and w = (-1, 0), so x = t_end is at t = -t_end.
        line = (1.0, math.pi / 2, -t_end, -t_end + 200.0)
        queries.append(Query(
            "forest", "forest",
            ["forest", "--seq", "rational-ladder", "--eps", "0.5", "--V", "200",
             f"--line={_line_arg(line)}"],
            params={"kind": "rational-ladder", "eps": 0.5, "V": 200.0,
                    "lines": [line], "expect": "strip"}))
    lines = _random_lines(rng, 10 if tiny else 100, 44.0)
    queries.append(Query(
        "forest", "forest",
        ["forest", "--seq", "golden-angle", "--eps", "0.1", "--V", "44"]
        + [f"--line={_line_arg(line)}" for line in lines],
        params={"kind": "golden-angle", "eps": 0.1, "V": 44.0, "lines": lines}))
    # acceptance 5's rays: origins near 0, eps_floor 2*eps, T_max = 40 V(eps/2)
    eps, v_half = 0.1, 5.0 / 0.05
    ray_t_max = 4 * v_half * 10
    x_radius = (ray_t_max - v_half) * eps / (4 * math.pi * v_half)
    for _ in range(2 if tiny else 20):
        a1, a2 = rng.uniform(0, 2 * math.pi, 2)
        x = rng.uniform(0, x_radius) * np.array([math.cos(a1), math.sin(a1)])
        v = np.array([math.cos(a2), math.sin(a2)])
        queries.append(Query(
            "visible", "visible_hit",
            ["visible", "--seq", "golden-angle", f"--x={_num(x[0])},{_num(x[1])}",
             f"--dir={_num(v[0])},{_num(v[1])}", "--eps-floor", _num(2 * eps),
             "--Tmax", _num(ray_t_max)],
            params={"kind": "golden-angle", "x": [float(c) for c in x],
                    "v": [float(c) for c in v], "eps_floor": 2 * eps,
                    "T_max": ray_t_max, "expect": "hit"}))
    return queries


def sphere_sweep(seed: int, tiny: bool, tmpdir: str) -> list[Query]:
    """The d=2 path: greedy S^2 net build, then dense window sweeps."""
    eps, V = 0.2, (0.5 if tiny else 1.25)
    t0 = (0.0, 10.0) if tiny else (0.0, 10.0, 20.0)
    return [Query(
        "uniform", "uniform",
        ["uniform", "--seq", "fibonacci-sphere", "--d", "2", "--eps", _num(eps),
         "--V", _num(V), "--t0", ",".join(_num(t) for t in t0), "--seed", str(seed)],
        params={"kind": "fibonacci-sphere", "eps": eps, "V": V, "t0": t0,
                "seed": seed})]


def ball_diagnostics(seed: int, tiny: bool, tmpdir: str) -> list[Query]:
    """Ball- and window-scale diagnostics and point dumps; no seed, no visibility."""
    T = 10.0 if tiny else 40.0
    n = 10_000 if tiny else 1_000_000
    queries = [
        Query("delone", "delone",
              ["delone", "--seq", "golden-angle", "--T", _num(T), "--probe-res", "0.5",
               "--badness-Q", "100000"],
              params={"kind": "golden-angle", "T": T}),
        Query("delone", "delone",
              ["delone", "--seq", "rational-ladder", "--T", _num(T), "--probe-res", "0.5"],
              params={"kind": "rational-ladder", "T": T}),
        Query("criterion", argv=["criterion"]),
        Query("defvisi", argv=["defvisi"]),
        Query("covering", argv=["covering"]),
    ]
    for kind, d in (("golden-angle", 1), ("fibonacci-sphere", 2)):
        path = os.path.join(tmpdir, f"{kind}.bin")
        queries.append(Query("generate", argv=["generate", "--seq", kind, "--d", str(d),
                                               "--n", str(n), "--out", path],
                             params={"n": n}))
        queries.append(Query("read_points", call="read_points",
                             params={"kind": kind, "d": d, "n": n, "path": path}))
    return queries


QUERY_LISTS = {
    "circle-sweep": circle_sweep,
    "circle-scan": circle_scan,
    "sphere-sweep": sphere_sweep,
    "ball-diagnostics": ball_diagnostics,
}


def build(workload: str, seed: int, tiny: bool, tmpdir: str) -> list[Query]:
    return QUERY_LISTS[workload](seed, tiny, tmpdir)
