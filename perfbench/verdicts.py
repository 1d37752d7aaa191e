"""Verdict checks, run after the timed passes.

Each check takes a query's first-pass payload and returns a list of
problems; an empty list means the verdict matches. Points are recomputed
with the closed forms below, independently of the program's kernels:
witnesses must lie within eps of their window, and a seeded sample of
reported misses is confirmed by a brute-force scan over the whole closed-form
candidate range. A miss whose candidate range passes the index budget cannot
be confirmed and counts as a mismatch.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
TWO_PI = 2.0 * math.pi
INDEX_BUDGET = 10**7  # the CLI's default --budget
MISS_SAMPLE = 16
ABS_TOL = 1e-6  # recomputed vs reported distances; float angles drift ~1e-12 rad

# Acceptance constants.
CRITERION_SUP_GOLDEN = 5.410113735636091
SLOPE_RANGE = (-1.2, -0.8)
STRIP_LINE_MIN = 1.0 - 1e-9

# Delone values pinned at the commit that introduced the benchmark:
# (kind, T) -> (packing, covering) at probe resolution 0.5.
DELONE = {
    ("golden-angle", 10.0): (1.601950235208494, 1.723384366428946),
    ("golden-angle", 40.0): (1.601950235208494, 1.6573458410817865),
    ("rational-ladder", 10.0): (0.05255903366431802, 2.5000346738400183),
    ("rational-ladder", 40.0): (0.012517615444636476, 2.2414064209172064),
}
BADNESS_GOLDEN_1E5 = 0.3819660112501051


# -- closed-form oracle -------------------------------------------------------


def directions(kind: str, ns) -> np.ndarray:
    ns = np.asarray(ns, dtype=np.int64)
    if kind == "golden-angle":
        frac = (ns.astype(np.longdouble) * np.longdouble(GOLDEN_RATIO)) % 1
        ang = TWO_PI * frac.astype(np.float64)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if kind == "rational-ladder":  # n = k(k+1)/2 + p, 0 <= p <= k
        k = ((np.sqrt(8.0 * ns + 1.0) - 1.0) // 2).astype(np.int64)
        k += (k + 1) * (k + 2) // 2 <= ns
        k -= k * (k + 1) // 2 > ns
        ang = TWO_PI * (ns - k * (k + 1) // 2) / k
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if kind == "fibonacci-sphere":  # n in [2^b, 2^(b+1)) is point n - 2^b of 2^b
        b = np.floor(np.log2(ns)).astype(np.int64)
        b += (np.int64(1) << (b + 1)) <= ns
        b -= (np.int64(1) << b) > ns
        size = np.int64(1) << b
        i = ns - size
        z = 1.0 - (2.0 * i + 1.0) / size
        frac = (i.astype(np.longdouble) * np.longdouble(GOLDEN_RATIO - 1.0)) % 1
        az = TWO_PI * frac.astype(np.float64)
        s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([s * np.cos(az), s * np.sin(az), z])
    raise ValueError(f"no oracle for {kind!r}")


def dimension(kind: str) -> int:
    return 2 if kind == "fibonacci-sphere" else 1


def points(kind: str, ns) -> np.ndarray:
    ns = np.asarray(ns, dtype=np.int64)
    radii = np.sqrt(ns) if dimension(kind) == 1 else np.cbrt(ns)
    return directions(kind, ns) * radii[:, None]


def segment_distance(pts: np.ndarray, a, b) -> np.ndarray:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    ab = b - a
    t = np.clip((pts - a) @ ab / float(ab @ ab), 0.0, 1.0)
    return np.linalg.norm(pts - (a + t[:, None] * ab), axis=1)


def candidate_range(kind: str, a, b, eps: float) -> tuple[int, int]:
    """Every index whose point can lie within eps of segment [a, b] (widened)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    near = float(segment_distance(np.zeros((1, len(a))), a, b)[0])
    far = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    q = dimension(kind) + 1
    n_lo = max(1, math.floor(max(0.0, near - eps) ** q) - 1)
    n_hi = math.ceil((far + eps) ** q) + 1
    return n_lo, n_hi


def brute_min_distance(kind: str, a, b, eps: float, exclude=None) -> tuple[float, bool]:
    """(min distance over the candidate range, range within the index budget)."""
    n_lo, n_hi = candidate_range(kind, a, b, eps)
    if n_hi > INDEX_BUDGET:
        return math.nan, False
    best = math.inf
    for lo in range(n_lo, n_hi + 1, 1 << 20):
        pts = points(kind, np.arange(lo, min(n_hi, lo + (1 << 20) - 1) + 1))
        dist = segment_distance(pts, a, b)
        if exclude is not None:
            dist[np.linalg.norm(pts - exclude, axis=1) <= 1e-12] = math.inf
        best = min(best, float(dist.min()))
    return best, True


def _confirm_miss(kind, a, b, eps, reported, what, exclude=None) -> list[str]:
    brute, ok = brute_min_distance(kind, a, b, eps, exclude)
    if not ok:
        return [f"{what}: candidate range passes the index budget; miss is inconclusive"]
    if brute <= eps:
        return [f"{what}: reported miss, but a point lies at {brute} <= eps {eps}"]
    if reported < brute - ABS_TOL:
        return [f"{what}: reported min distance {reported} below brute force {brute}"]
    return []


def _sample(rng, items, k=MISS_SAMPLE):
    if len(items) <= k:
        return list(items)
    return [items[i] for i in sorted(rng.choice(len(items), k, replace=False))]


def _close(a, b, rel=1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


# -- window checks (orchard, uniform) ----------------------------------------


def _circle_cells(p, t, dist, K):
    """Net cells whose direction could put p at `dist` from t*u (both sides)."""
    r = float(np.linalg.norm(p))
    theta = math.atan2(p[1], p[0])
    cosd = (r * r + t * t - dist * dist) / (2 * r * t) if r > 0 and t > 0 else 1.0
    delta = math.acos(max(-1.0, min(1.0, cosd)))
    cells = set()
    for ang in (theta - delta, theta + delta):
        j = round(ang * K / TWO_PI)
        cells.update((j + s) % K for s in (-1, 0, 1))
    return np.array(sorted(cells))


def _window_distance(p, centers, t_lo, t_hi):
    """Distance from p to each segment {t c : t_lo <= t <= t_hi}."""
    along = centers @ p
    t = np.clip(along, t_lo, t_hi)
    return np.linalg.norm(p[None, :] - t[:, None] * centers, axis=1), t


def check_window_report(report: dict, q, centers, rng) -> list[str]:
    """Shared by orchard and uniform: net rule, witnesses, a sample of misses."""
    p = q.params
    kind, eps, V = p["kind"], p["eps"], p["V"]
    t0_list = p.get("t0", (0.0,))
    errors = []
    net = report["net"]
    if net["delta"] > eps / (4 * V) * (1 + 1e-12):
        errors.append(f"net mesh {net['delta']} exceeds eps/(4V) = {eps / (4 * V)}")
    if not _close(report["certified_tolerance"], eps + V * net["delta"]):
        errors.append("certified tolerance is not eps + V*mesh")
    if report["total_checks"] != net["count"] * len(t0_list):
        errors.append("total_checks is not net size times windows")
    if report["passed"] != (report["failure_count"] == 0):
        errors.append("passed disagrees with the failure count")
    if "passed" in p and report["passed"] != p["passed"]:
        errors.append(f"passed is {report['passed']}, expected {p['passed']}")
    K = net["count"]
    for w in report["witnesses"]:
        pt = points(kind, [w["n"]])[0]
        if centers is None:
            cells = _circle_cells(pt, w["t"], w["distance"], K)
            cand = np.column_stack([np.cos(cells * TWO_PI / K), np.sin(cells * TWO_PI / K)])
        else:
            cand = centers
        ok = False
        for t0 in t0_list:
            d, t = _window_distance(pt, cand, t0, t0 + V)
            j = int(np.argmin(np.abs(d - w["distance"]) + np.abs(t - w["t"])))
            if abs(d[j] - w["distance"]) <= ABS_TOL and abs(t[j] - w["t"]) <= ABS_TOL:
                ok = d[j] <= eps + 1e-9
                break
        if not ok:
            errors.append(f"witness n={w['n']} is not within eps of any net window")
    for f in _sample(rng, report["failures"]):
        t0 = f.get("t0", 0.0)
        if centers is None:
            ang = f["direction"] * TWO_PI / K
            c = np.array([math.cos(ang), math.sin(ang)])
        else:
            c = centers[f["direction"]]
        errors += _confirm_miss(kind, t0 * c, (t0 + V) * c, eps, math.inf,
                                f"direction {f['direction']} at t0={t0}")
    return errors


def check_orchard(payload, q, ctx) -> list[str]:
    report = payload["reports"][0]
    errors = check_window_report(report, q, None, ctx.rng)
    if not report["passed"] or report["pass_fraction"] != 1.0:
        errors.append("ladder orchard must pass with delta <= eps/(4V)")
    return errors


def check_uniform(payload, q, ctx) -> list[str]:
    report = payload["reports"][0]
    centers = None
    if dimension(q.params["kind"]) > 1:  # the greedy net is seeded; rebuild it
        net = ctx.spiralvis.sphere.build_direction_net(
            2, q.params["eps"] / (4 * q.params["V"]), seed=q.params["seed"])
        if len(net) != report["net"]["count"]:
            return [f"rebuilt net has {len(net)} directions, report says "
                    f"{report['net']['count']}"]
        centers = net.centers
    return check_window_report(report, q, centers, ctx.rng)


def check_min_visibility(curve, q, ctx) -> list[str]:
    errors = []
    entries = curve["entries"]
    if any(e["status"] != "ok" for e in entries):
        errors.append("a visibility estimate diverged")
    elif not (curve["slope"] is not None
              and SLOPE_RANGE[0] <= curve["slope"] <= SLOPE_RANGE[1]):
        errors.append(f"slope {curve['slope']} outside {SLOPE_RANGE}")
    else:
        products = [e["V"] * e["eps"] for e in entries]
        if max(products) / min(products) > 10.0:
            errors.append("V*eps varies by more than 10x")
    return errors


# -- scans (visible, forest) --------------------------------------------------


def check_visible(payload, q, ctx) -> list[str]:
    p = q.params
    v = payload["verdicts"][0]
    x = np.array(p["x"])
    b = x + p["T_max"] * np.array(p["v"])
    what = f"ray from {p['x']}"
    errors = []
    if v["visible_at_scale"] != (v["min_distance"] >= p["eps_floor"]):
        errors.append(f"{what}: visible_at_scale disagrees with min_distance")
    if p["expect"] == "strip":
        if v["min_distance"] != 1.0 or not v["certified"]:
            errors.append(f"{what}: strip ray must be certified at distance 1.0, got "
                          f"{v['min_distance']} certified={v['certified']}")
    elif p["expect"] == "hit" and not v["min_distance"] < p["eps_floor"]:
        errors.append(f"{what}: acceptance 5 needs a point within {p['eps_floor']}")
    w = v["witness"]
    if w is not None:
        pt = points(p["kind"], [w["n"]])[0]
        d = float(np.linalg.norm(pt - (x + w["t"] * np.array(p["v"]))))
        if abs(d - w["distance"]) > ABS_TOL or not 0.0 <= w["t"] <= p["T_max"] + 1e-9:
            errors.append(f"{what}: witness n={w['n']} does not recompute")
    if v["visible_at_scale"]:
        errors += _confirm_miss(p["kind"], x, b, p["eps_floor"], v["min_distance"],
                                what, exclude=x)
    return errors


def _line_segment(line):
    lam, ang, t0, t1 = line
    v = np.array([math.cos(ang), math.sin(ang)])
    w = np.array([-math.sin(ang), math.cos(ang)])
    return lam * v + t0 * w, lam * v + t1 * w, v, w


def check_forest(payload, q, ctx) -> list[str]:
    p = q.params
    report = payload["reports"][0]
    lines = p["lines"]
    errors = []
    missed = {f["line"]: f["min_distance"] for f in report["failures"]}
    if report["failure_count"] != len(missed):
        return ["failure list is truncated"]
    if p.get("expect") == "strip":
        if report["passed"] or any(d < STRIP_LINE_MIN for d in missed.values()):
            errors.append("strip windows must all miss at distance >= 1 - 1e-9")
    hit_lines = [i for i in range(len(lines)) if i not in missed]
    if report["witness_count"] != len(hit_lines):
        errors.append("witness count disagrees with the failures")
    for i, w in zip(hit_lines, report["witnesses"]):
        lam, ang, _, _ = lines[i]
        _, _, v, wv = _line_segment(lines[i])
        pt = points(p["kind"], [w["n"]])[0]
        d = float(np.linalg.norm(pt - (lam * v + w["t"] * wv)))
        if abs(d - w["distance"]) > ABS_TOL or d > p["eps"] + 1e-9:
            errors.append(f"line {i}: witness n={w['n']} does not recompute")
    for i in _sample(ctx.rng, sorted(missed)):
        a, b, _, _ = _line_segment(lines[i])
        errors += _confirm_miss(p["kind"], a, b, p["eps"], missed[i], f"line {i}")
    return errors


# -- ball-scale diagnostics ---------------------------------------------------


def _min_pairwise(pts: np.ndarray) -> float:
    best = math.inf
    for i in range(0, len(pts), 512):
        d = np.linalg.norm(pts[i:i + 512, None, :] - pts[None, :, :], axis=2)
        d[np.arange(d.shape[0]), np.arange(i, i + d.shape[0])] = math.inf
        best = min(best, float(d.min()))
    return best


def check_delone(payload, q, ctx) -> list[str]:
    kind, T = q.params["kind"], q.params["T"]
    rep = payload["report"]
    packing, covering = DELONE[(kind, T)]
    errors = []
    n = math.floor(T * T)
    if rep["n_points"] != n:
        errors.append(f"n_points {rep['n_points']}, expected {n}")
    if not _close(rep["packing"], packing) or not _close(rep["covering"], covering):
        errors.append(f"packing/covering {rep['packing']}/{rep['covering']} differ "
                      f"from pinned {packing}/{covering}")
    brute = _min_pairwise(points(kind, np.arange(1, n + 1)))
    if not _close(rep["packing"], brute):
        errors.append(f"packing {rep['packing']} differs from brute force {brute}")
    if "badness" in payload and not _close(payload["badness"]["value"],
                                           BADNESS_GOLDEN_1E5):
        errors.append(f"badness {payload['badness']['value']} differs from pinned")
    return errors


def check_criterion(payload, q, ctx) -> list[str]:
    sup = payload["table"]["sup"]
    return [] if _close(sup, CRITERION_SUP_GOLDEN) else [
        f"criterion sup {sup} differs from {CRITERION_SUP_GOLDEN}"]


def check_defvisi(payload, q, ctx) -> list[str]:
    curve = payload["curve"]
    inner = {row["x"]: row["sup"] for row in curve["inner"]}
    errors = []
    for entry in curve["curve"]:
        feasible = [x for x, s in inner.items() if float(s) <= entry["eps"]]
        if entry["V"] != (max(feasible) if feasible else 0.0):
            errors.append(f"V at eps={entry['eps']} does not follow the inner sups")
    return errors


def check_covering(payload, q, ctx) -> list[str]:
    est = payload["estimate"]
    errors = []
    best = -math.inf
    for row in est["rows"]:
        m, N = row["m"], row["N"]
        dirs = directions("golden-angle", np.arange(m + 1, m + int(est["C"] * N) + 1))
        ang = np.sort(np.arctan2(dirs[:, 1], dirs[:, 0]) % TWO_PI)
        widest = max(float(np.diff(ang).max()), float(ang[0] + TWO_PI - ang[-1]))
        if abs(row["radius"] - widest / 2) > 1e-9:
            errors.append(f"window (m={m}, N={N}) radius {row['radius']} != {widest / 2}")
        best = max(best, row["scaled"])
    if est["uniform_covering_parameter"] != best:
        errors.append("covering parameter is not the max of its rows")
    return errors


def check_generate(payload, q, ctx) -> list[str]:
    return [] if payload["points"] == q.params["n"] else [
        f"generate wrote {payload['points']} points, expected {q.params['n']}"]


def check_read_points(summary, q, ctx) -> list[str]:
    p = q.params
    errors = []
    if summary["header"] != [p["d"], 1, p["n"]] or summary["shape"] != [p["n"], p["d"] + 1]:
        errors.append(f"dump header {summary['header']} / shape {summary['shape']} wrong")
    want = points(p["kind"], summary["sample_n"])
    if not np.allclose(summary["sample"], want, rtol=0, atol=1e-9):
        errors.append("dumped coordinates differ from the closed form")
    return errors


CHECKS = {
    "orchard": check_orchard,
    "uniform": check_uniform,
    "min_visibility": check_min_visibility,
    "visible": check_visible,
    "forest": check_forest,
    "delone": check_delone,
    "criterion": check_criterion,
    "defvisi": check_defvisi,
    "covering": check_covering,
    "generate": check_generate,
    "read_points": check_read_points,
}
