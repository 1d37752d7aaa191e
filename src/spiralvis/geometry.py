"""Euclidean segment/ray distance kernels, vectorized over point clouds."""

from __future__ import annotations

import bisect
import math

import numpy as np


def segment_distances(points: np.ndarray, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point to the closed segment [a, b].

    Returns (distances, t) where t is the clamped arc-length parameter in
    [0, |b-a|]. A degenerate segment (a == b) degrades to a point query.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ab = b - a
    length_sq = float(ab @ ab)
    if length_sq == 0.0:
        d = np.linalg.norm(pts - a, axis=1)
        return d, np.zeros(len(pts))
    length = math.sqrt(length_sq)
    t = np.clip((pts - a) @ ab / length_sq, 0.0, 1.0)
    closest = a + t[:, None] * ab
    return np.linalg.norm(pts - closest, axis=1), t * length


def ray_to_ray_distance(x, v, u, s_min: float = 0.0) -> float:
    """Exact distance between the ray {x + t v : t >= 0} and {s u : s >= s_min}.

    Minimizes a convex quadratic over the quadrant; the optimum sits at the
    interior critical point or on one of the clamped edges.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)

    def val(t, s):
        return float(np.linalg.norm(x + t * v - s * u))

    best = math.inf
    vu = float(v @ u)
    det = 1.0 - vu * vu  # |v|=|u|=1
    if det > 1e-14:
        # grad=0: t + (x.v) - s (u.v) = 0 ; s - (x.u) - t (v.u) = 0
        xv, xu = float(x @ v), float(x @ u)
        t0 = (-xv + vu * xu) / det
        s0 = (xu - vu * xv) / det
        if t0 >= 0.0 and s0 >= s_min:
            best = min(best, val(t0, s0))
    # edge t = 0: point x against the u-ray
    su = max(s_min, float(x @ u))
    best = min(best, val(0.0, su))
    # edge s = s_min: point x - s_min*u against the v-ray
    t1 = max(0.0, float(-(x - s_min * u) @ v))
    best = min(best, val(t1, s_min))
    return best


def radial_hit_halfwidth(r, t_lo: float, t_hi: float, eps: float) -> np.ndarray:
    """Max angular offset at which radius-r points still reach the window.

    For a point at polar (r, theta) and the segment {t*v : t_lo <= t <= t_hi}
    on the ray of direction angle alpha (0 <= t_lo <= t_hi), the distance to
    the segment is nondecreasing in |theta - alpha|; this returns the offset
    where it crosses eps: pi when every angle hits, -1 when none does.

    Float predicates, each monotone in r, pick one of five cases: pi where
    r + t_lo <= eps; else -1 where t_lo - r > eps or max(r - t_hi, 0) > eps;
    else, with foot = sqrt(max(r^2 - eps^2, 0)), the cap at t_lo unless
    r >= eps and foot >= t_lo, the cap at t_hi where also foot > t_hi, and
    arcsin(eps/r) between. So on sorted r each case is one run: ``r`` is
    argsorted when it is not sorted, the runs' edges are found by bisecting
    the predicates, and each formula is evaluated on its own run only.
    ``r`` holds no NaN.
    """
    if not 0.0 <= t_lo <= t_hi:
        raise ValueError(f"need 0 <= t_lo <= t_hi, got [{t_lo}, {t_hi}]")
    r = np.asarray(r, dtype=np.float64)
    flat = r.ravel()
    order = None if np.all(flat[1:] >= flat[:-1]) else np.argsort(flat, kind="stable")
    rs = flat if order is None else flat[order]
    ee = eps * eps

    def foot(x):
        return math.sqrt(max(0.0, x * x - ee))

    def edge(pred):  # the first index of rs where the monotone pred turns True
        return bisect.bisect_left(rs, True, key=lambda x: pred(float(x)))

    everywhere = edge(lambda x: not (x + t_lo <= eps))
    s0 = max(everywhere, edge(lambda x: not (t_lo - x > eps)))  # the solvable run [s0, s1)
    s1 = max(s0, edge(lambda x: max(x - t_hi, 0.0) > eps))
    mid = min(max(edge(lambda x: x >= eps and foot(x) >= t_lo), s0), s1)
    far = min(max(edge(lambda x: x >= eps and foot(x) > t_hi), mid), s1)
    out = np.full(len(rs), -1.0)
    out[:everywhere] = math.pi
    out[mid:far] = np.arcsin(np.clip(eps / np.maximum(rs[mid:far], 1e-300), 0.0, 1.0))
    # a cap at t_end = 0 has an empty run: its radii hit everywhere or miss
    for i, j, t_end in ((s0, mid, t_lo), (far, s1, t_hi)):
        rr = rs[i:j]
        cosv = (rr * rr + t_end * t_end - eps * eps) / (2.0 * rr * t_end)
        out[i:j] = np.arccos(np.clip(cosv, -1.0, 1.0))
    if order is not None:
        out[order] = out.copy()
    return out.reshape(r.shape)
