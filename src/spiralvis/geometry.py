"""Euclidean segment/ray distance kernels, vectorized over point clouds."""

from __future__ import annotations

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
    """
    if not 0.0 <= t_lo <= t_hi:
        raise ValueError(f"need 0 <= t_lo <= t_hi, got [{t_lo}, {t_hi}]")
    r = np.asarray(r, dtype=np.float64)
    out = np.full(r.shape, -1.0)
    hits_everywhere = r + t_lo <= eps  # farthest configuration is the antipode
    nearest = np.maximum(t_lo - r, np.maximum(r - t_hi, 0.0))
    misses = nearest > eps
    solvable = ~hits_everywhere & ~misses

    foot = np.sqrt(np.maximum(0.0, r * r - eps * eps))
    interior = solvable & (r >= eps) & (foot >= t_lo) & (foot <= t_hi)
    out[interior] = np.arcsin(np.clip(eps / np.maximum(r[interior], 1e-300), 0.0, 1.0))

    at_lo = solvable & ~interior & ((r < eps) | (foot < t_lo))
    at_hi = solvable & ~interior & ~at_lo
    for sel, t_end in ((at_lo, t_lo), (at_hi, t_hi)):
        if not np.any(sel):
            continue
        rs = r[sel]
        if t_end <= 0.0:  # window endpoint at the origin: distance r at all angles
            out[sel] = np.where(rs <= eps, math.pi, -1.0)
            continue
        cosv = (rs * rs + t_end * t_end - eps * eps) / (2.0 * rs * t_end)
        out[sel] = np.arccos(np.clip(cosv, -1.0, 1.0))
    out[hits_everywhere] = math.pi
    return out
