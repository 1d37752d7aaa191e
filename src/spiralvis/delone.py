"""Delone diagnostics (packing/covering in balls) and the badly-approximable
diagnostic for circle rotations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .sequences import SequenceSpec
from .spirals import DEFAULT_BUDGET, count_in_ball, iter_point_chunks

def _fraction_quotients(x: Fraction):
    """Finite continued-fraction expansion of a rational."""
    num, den = x.numerator, x.denominator
    while den:
        a, rem = divmod(num, den)
        yield int(a)
        num, den = den, rem


def badness(theta, Q: int) -> float:
    """min over 1 <= q <= Q of q * distance(q*theta, Z), via convergents.

    The minimum over q <= Q is attained at a convergent denominator (best
    approximations), so only those are evaluated, in exact arithmetic. A
    float theta is treated as the exact rational it represents. For an
    irrational target pass a ``Fraction`` convergent whose denominator is far
    above Q: its convergents up to Q are the target's, and each q*||q*theta||
    moves by at most q^2 times the convergent's distance from the target.
    A float will not do: float64 error alone distorts q*||q*theta|| by
    ~Q^2 * 1e-16.
    """
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    frac = Fraction(theta)
    qs = list(_fraction_quotients(frac))
    best = math.inf
    p_prev, q_prev = 1, 0
    p_cur, q_cur = qs[0], 1
    if q_cur <= Q:
        best = min(best, float(q_cur * abs(q_cur * frac - p_cur)))
    for a in qs[1:]:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if q_cur > Q:
            break
        best = min(best, float(q_cur * abs(q_cur * frac - p_cur)))
    return best


@dataclass(frozen=True)
class DeloneReport:
    T: float
    packing: float
    covering: float
    probe_resolution: float
    n_points: int


def min_pairwise_distance(coords: np.ndarray) -> float:
    """Exact minimum pairwise distance of radius-sorted points.

    Stride sweep: pairs (i, i+k) for growing k, stopping once the smallest
    radial gap at stride k already exceeds the best distance found (radial
    gap lower-bounds Euclidean distance).
    """
    n = len(coords)
    if n < 2:
        return math.inf
    radii = np.linalg.norm(coords, axis=1)
    order = np.argsort(radii, kind="stable")
    coords = coords[order]
    radii = radii[order]
    best = math.inf
    for k in range(1, n):
        gaps = radii[k:] - radii[:-k]
        if float(gaps.min()) > best:
            break
        d = np.linalg.norm(coords[k:] - coords[:-k], axis=1)
        best = min(best, float(d.min()))
    return best


def _probe_grid(T: float, resolution: float, dim: int) -> np.ndarray:
    axis = np.arange(-T, T + resolution / 2, resolution)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    return pts[np.linalg.norm(pts, axis=1) <= T]


def _brute_min_distance(probes: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Distance from each probe to the nearest point, over every point."""
    out = []
    for pchunk in np.array_split(probes, max(1, len(probes) // 2048)):
        dmin = np.full(len(pchunk), math.inf)
        for cchunk in np.array_split(coords, max(1, len(coords) // 4096)):
            diff = pchunk[:, None, :] - cchunk[None, :, :]
            np.minimum(dmin, np.sqrt((diff * diff).sum(axis=2)).min(axis=1), out=dmin)
        out.append(dmin)
    return np.concatenate(out)


_PAIR_BUDGET = 1 << 17  # probe-point pairs per gather, at most twice this


def _block_min_distance(probes: np.ndarray, coords: np.ndarray, T: float,
                        side: float) -> np.ndarray:
    """Distance from each probe to the nearest point of its 3^dim cell block.

    Points are binned into cubes of edge ``side`` tiling [-T, T]^dim (points
    beyond it clamp into the border cells, which only adds candidates), kept in
    cell order with per-cell offsets. A probe with no candidate, or with more
    than the pair budget, gets inf.
    """
    dim = probes.shape[1]
    per_axis = int(2 * T // side) + 1
    strides = per_axis ** np.arange(dim - 1, -1, -1, dtype=np.int64)

    def cell_of(x):
        return np.clip(np.floor((x + T) / side), 0, per_axis - 1).astype(np.int64)

    cells = cell_of(coords) @ strides
    order = np.argsort(cells, kind="stable")
    pts = coords[order]
    counts = np.bincount(cells, minlength=per_axis ** dim)
    starts = np.cumsum(counts) - counts
    block = np.array(list(itertools.product((-1, 0, 1), repeat=dim)), dtype=np.int64)
    out = np.full(len(probes), math.inf)
    for lo in range(0, len(probes), 4096):
        chunk = probes[lo:lo + 4096]
        nbr = cell_of(chunk)[:, None, :] + block
        inside = ((nbr >= 0) & (nbr < per_axis)).all(axis=2)
        ids = np.where(inside, nbr @ strides, 0)
        cnt = np.where(inside, counts[ids], 0)
        beg = starts[ids]
        total = cnt.sum(axis=1)
        ok = np.flatnonzero((total > 0) & (total <= _PAIR_BUDGET))
        first = np.cumsum(total[ok]) - total[ok]
        for rows in np.split(ok, np.flatnonzero(np.diff(first // _PAIR_BUDGET)) + 1):
            seg = cnt[rows].ravel()
            seg_first = np.cumsum(seg) - seg
            point = (np.arange(seg.sum())
                     + np.repeat(beg[rows].ravel() - seg_first, seg))
            diff = chunk[np.repeat(rows, total[rows])] - pts[point]
            dist = np.sqrt((diff * diff).sum(axis=-1))
            row_first = np.cumsum(total[rows]) - total[rows]
            out[lo + rows] = np.minimum.reduceat(dist, row_first)
    return out


def covering_estimate(coords: np.ndarray, T: float, resolution: float) -> float:
    """Max over a probe grid of mesh ``resolution`` in B(0,T) of the exact
    distance from the probe to the point set; underestimates the true covering
    radius by at most the resolution.

    Points are bucketed into cubes whose edge ``side`` holds about two points
    of B(0,T) on average (never below ``resolution``). Each probe is measured
    against the points of the 3^dim cubes around its own: every other point
    differs from it by at least ``side`` in some coordinate, so a block
    minimum below ``side`` is the minimum over the whole set. The few probes
    without that certificate (an empty block, the hole of a shell, a cluster
    too crowded for one gather) are measured against every point. Every
    distance is computed with the same float operations in either pass, so
    the result is exactly that of the all-pairs scan.
    """
    dim = coords.shape[1]
    probes = _probe_grid(T, resolution, dim)
    ball_volume = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) * T ** dim
    side = max(resolution, (2 * ball_volume / max(1, len(coords))) ** (1 / dim))
    dmin = _block_min_distance(probes, coords, T, side)
    # the margin absorbs the float rounding of the cell assignment
    uncertified = dmin > side * (1 - 1e-9)
    if uncertified.any():
        dmin[uncertified] = _brute_min_distance(probes[uncertified], coords)
    return float(dmin.max(initial=0.0))


def delone_report(spec: SequenceSpec, T: float, probe_resolution: float,
                  index_budget: int = DEFAULT_BUDGET) -> DeloneReport:
    """Packing and covering radii of the spiral inside B(0, T).

    Packing is exact; covering is a max over a probe grid of mesh
    ``probe_resolution`` and underestimates the true value by at most that
    resolution.
    """
    if not math.isfinite(T) or T <= 1:
        raise ValueError(f"T must be finite and exceed 1 so the ball holds points, "
                         f"got {T}")
    if not math.isfinite(probe_resolution) or probe_resolution <= 0:
        raise ValueError("probe resolution must be finite and positive, "
                         f"got {probe_resolution}")
    chunks = [c for _, _, c in
              iter_point_chunks(spec, 1, min(count_in_ball(T, spec.d), index_budget))]
    coords = np.vstack(chunks)
    packing = min_pairwise_distance(coords)
    covering = covering_estimate(coords, T, probe_resolution)
    return DeloneReport(T=float(T), packing=packing, covering=covering,
                        probe_resolution=float(probe_resolution), n_points=len(coords))
