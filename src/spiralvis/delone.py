"""Delone diagnostics (packing/covering in balls) and the badly-approximable
diagnostic for circle rotations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .sequences import SequenceSpec, convergents
from .spirals import DEFAULT_BUDGET, count_in_ball, index_range, iter_point_chunks


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
    return min(float(q * abs(q * frac - p)) for p, q in
               itertools.takewhile(lambda c: c[1] <= Q, convergents(frac)))


@dataclass(frozen=True)
class DeloneReport:
    T: float
    packing: float
    covering: float
    probe_resolution: float
    n_points: int


_PAIR_BUDGET = 1 << 17  # query-point pairs per gather, at most twice this


def _cell_ids(cols, origin, side: float, per_axis: int) -> np.ndarray:
    """Cube of each point (as coordinate columns) among ``per_axis`` per axis of
    edge ``side`` from ``origin`` (the border ones also holding the points
    beyond), numbered last axis fastest inside a ring of empty cubes."""
    ids = 0
    for x, o in zip(cols, origin):
        ids = ids * (per_axis + 2) + 1 + np.clip(
            np.floor((x - o) / side), 0, per_axis - 1).astype(np.int64)
    return ids


def _cell_grid(cols, origin, side: float, per_axis: int) -> tuple:
    """The points sorted by cube, each cube's first offset (closed by the
    point count) and the cubes' parameters."""
    ids = _cell_ids(cols, origin, side, per_axis)
    order = np.argsort(ids, kind="stable")
    offsets = np.zeros((per_axis + 2) ** len(cols) + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=len(offsets) - 1), out=offsets[1:])
    return [x[order] for x in cols], offsets, origin, side, per_axis


def _nearest_sq(qcols, grid: tuple, first=None) -> np.ndarray:
    """Least squared distance from each query to the grid points in the 3^dim
    cubes around its own (inf if none; from sorted index ``first[q]`` on, if
    given). Three cubes along the last axis are one run of points; runs are
    cut at the pair budget, gathered at most two budgets at a time, and summed
    per coordinate: the float operations of ``(diff * diff).sum(-1)``."""
    pcols, offsets, *cubes = grid
    rows = [sum(s * (cubes[-1] + 2) ** (len(shift) - k) for k, s in enumerate(shift))
            for shift in itertools.product((-1, 0, 1), repeat=len(pcols) - 1)]
    out = np.full(len(qcols[0]), math.inf)
    for lo in range(0, len(out), _PAIR_BUDGET // 8):  # blocks keep the run arrays small
        ids = _cell_ids([c[lo:lo + _PAIR_BUDGET // 8] for c in qcols], *cubes)
        start, stop = (np.stack([offsets[ids + row + k] for row in rows], 1) for k in (-1, 2))
        start = start if first is None else np.maximum(start, first[lo:lo + len(ids), None])
        kept = np.flatnonzero(stop > start)
        start, stop, query = start.ravel()[kept], stop.ravel()[kept], kept // len(rows) + lo
        pieces = -(-(stop - start) // _PAIR_BUDGET)
        if pieces.max(initial=1) > 1:  # cut the runs longer than the budget
            run = np.repeat(np.arange(len(pieces)), pieces)
            cut = np.arange(len(run)) - (np.cumsum(pieces) - pieces)[run]
            start, stop, query = start[run] + cut * _PAIR_BUDGET, stop[run], query[run]
        size = np.minimum(stop - start, _PAIR_BUDGET)
        cuts = list(np.flatnonzero(np.diff((np.cumsum(size) - size) // _PAIR_BUDGET)) + 1)
        for a, b in zip([0, *cuts], [*cuts, len(size)]):
            seg, q = size[a:b], query[a:b]
            seg_first = np.cumsum(seg) - seg
            point = np.arange(seg.sum()) + np.repeat(start[a:b] - seg_first, seg)
            sq = 0.0
            for qc, pc in zip(qcols, pcols):
                sq = sq + (np.repeat(qc[q], seg) - pc[point]) ** 2
            new = np.flatnonzero(np.diff(q, prepend=-1))  # a query's runs are adjacent
            out[q[new]] = np.minimum(out[q[new]], np.minimum.reduceat(sq, seg_first[new]))
    return out


def min_pairwise_distance(coords: np.ndarray) -> float:
    """Exact minimum pairwise distance: each pair of points in neighbouring
    cubes on their bounding box, about two per cube along its longest edge, is
    measured once. A closer pair than the edge lies in neighbouring cubes, so a
    minimum below the edge is the global one; else the edge doubles, until
    every pair is neighbours."""
    n, dim = coords.shape
    if n < 2:
        return math.inf
    origin = coords.min(axis=0)
    extent = float((coords.max(axis=0) - origin).max())
    side = extent * (2 / n) ** (1 / dim) or 1.0  # coincident points: one cube
    while True:
        grid = _cell_grid(list(coords.T), origin, side, int(extent // side) + 1)
        best = math.sqrt(float(_nearest_sq(grid[0], grid, np.arange(1, n + 1)).min()))
        if best < side * (1 - 1e-9) or grid[-1] <= 2:  # the margin absorbs cube rounding
            return best
        side *= 2


def _probe_grid(T: float, resolution: float, dim: int) -> np.ndarray:
    """The points in B(0, T) of the grid of mesh ``resolution`` on [-T, T]^dim,
    last axis fastest; a grid past an int64 array is refused before allocating."""
    if not ((T + resolution / 2) + T) / resolution <= (2 ** 63 // 8) ** (1 / dim):
        raise ValueError(f"a probe grid of mesh {resolution!r} on [-{T!r}, {T!r}]^{dim} "
                         "has more points than an int64 array can hold")
    axis = np.arange(-T, T + resolution / 2, resolution)
    total = sq = axis * axis
    for _ in range(dim - 1):  # (x^2 + y^2) + z^2, the order of np.linalg.norm
        total = np.add.outer(total, sq)
    return np.column_stack([axis[i] for i in np.nonzero(np.sqrt(total) <= T)])


def _brute_min_distance(probes: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Distance from each probe to the nearest of all points: one cube's gather."""
    grid = _cell_grid(list(coords.T), [0.0] * probes.shape[1], 1.0, 1)
    return np.sqrt(_nearest_sq(list(probes.T), grid))


def covering_estimate(coords: np.ndarray, T: float, resolution: float) -> float:
    """Max over a probe grid of mesh ``resolution`` in B(0,T) of the exact
    distance from the probe to the point set; underestimates the true covering
    radius by at most the resolution.

    Each probe is measured against the points in the 3^dim cubes around its
    own, of an edge ``side`` holding about two points of B(0,T) (at least
    ``resolution``), which certifies a minimum below ``side``. The rest (an
    empty block, the hole of a shell) are measured against every point with
    the same float operations: the result is that of the all-pairs scan."""
    dim = coords.shape[1]
    probes = _probe_grid(T, resolution, dim)
    ball_volume = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) * T ** dim
    side = max(resolution, (2 * ball_volume / max(1, len(coords))) ** (1 / dim))
    grid = _cell_grid(list(coords.T), [-T] * dim, side, int(2 * T // side) + 1)
    dmin = np.sqrt(_nearest_sq(list(probes.T), grid))
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
        raise ValueError(f"T must be finite and exceed 1 so the ball holds points, got {T}")
    if not math.isfinite(probe_resolution) or probe_resolution <= 0:
        raise ValueError("probe resolution must be finite and positive, "
                         f"got {probe_resolution}")
    _probe_grid(T, probe_resolution, spec.d + 1)  # fails fast, before any point is read
    n_range = index_range(1, count_in_ball(T, spec.d), index_budget, f"the ball of radius {T!r}")
    coords = np.vstack([c for _, _, c in iter_point_chunks(spec, *n_range)])
    return DeloneReport(T=float(T), packing=min_pairwise_distance(coords),
                        covering=covering_estimate(coords, T, probe_resolution),
                        probe_resolution=float(probe_resolution), n_points=len(coords))
