"""Covering radii of finite direction sets and the windowed covering criteria.

Every quantity defined by an infinite sup is truncated to explicit grids; the
grids travel with the result so finiteness claims stay scale-qualified. A
window meets the index budget only in ``_window_radius``; past it, the
covering parameter refuses, the criterion skips a row, the curve drops an h;
an empty window, which has no covering radius, is refused there by all three;
each table's sup is ``_sup``'s: the first greatest of the cells measured,
and inf, with no argmax, over no measured cell, so an x with no h read is
never feasible. A table's result is its payload: its fields are the keys,
and its dict rows form here once, for ``dump_json`` and ``write_csv`` to write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import SequenceSpec, direction_batch
from .sphere import build_direction_net
from .spirals import DEFAULT_BUDGET

TWO_PI = 2.0 * math.pi
DEFAULT_H_CAP = 512  # the default largest window scale h of the visibility curve


def _circular_covering_radius(points: np.ndarray) -> float:
    angles = np.sort(np.arctan2(points[:, 1], points[:, 0]) % TWO_PI)
    gaps = np.diff(angles)
    wrap = angles[0] + TWO_PI - angles[-1]
    widest = max(float(gaps.max()) if len(gaps) else 0.0, float(wrap))
    return widest / 2.0


def covering_radius(points, d: int, resolution: float | None = None) -> float:
    """Largest geodesic distance from any direction to the set.

    On the circle (d=1) this is half the largest gap, exact. On S^d, d >= 2,
    it is ``_net_covering_radius``: a sup over a net of mesh ``resolution``,
    so a lower bound within ``resolution`` of the true radius.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] == 0:
        raise ValueError("covering radius of an empty set is undefined")
    if d == 1:
        return _circular_covering_radius(pts)
    if resolution is None:
        raise ValueError(f"the covering radius on S^{d} needs a resolution")
    return _net_covering_radius(pts, d, resolution)


_DOTS_PER_PRODUCT = 1 << 22  # center-point dots per product of the S^d covering radius


def _net_covering_radius(pts: np.ndarray, d: int, resolution: float) -> float:
    """The sup over the net ``build_direction_net(d, resolution)``, d >= 2,
    of the distance to the set: below the true radius by at most the net's
    mesh. The centers go in blocks of ``_DOTS_PER_PRODUCT`` // len(pts) rows, so
    a block's product holds at most that many dots (one row's worth when the
    points alone are more)."""
    net = build_direction_net(d, resolution)
    step = max(1, _DOTS_PER_PRODUCT // len(pts))
    value = 0.0
    for lo in range(0, len(net.centers), step):
        dots = net.centers[lo:lo + step] @ pts.T
        value = max(value, float(np.arccos(np.clip(dots.max(axis=1), -1, 1)).max()))
    return value


class EmptyWindowError(ValueError):
    """A window of fewer than one point, which has no covering radius."""


def _window_radius(spec: SequenceSpec, start: int, size: float,
                   resolution: float | None, index_budget: int) -> float | None:
    """The covering radius of the window u_(start+1), ..., u_(start+int(size)):
    None when it reads past ``index_budget`` (as a ``size`` of inf does);
    refused when it is empty (a ``size`` below 1, or nan) or reads past
    2^63 - 1."""
    if size >= index_budget - start + 1:  # start + int(size) > budget, or size is inf
        return None
    if not size >= 1:
        raise EmptyWindowError(f"the window of {size!r} points after index {start} is "
                               f"empty, so it has no covering radius")
    if (last := start + int(size)) >= 2**63:
        raise ValueError(f"the window [{start + 1}, {last}] reaches index {last}, past 2^63 - 1")
    pts = direction_batch(spec, np.arange(start + 1, last + 1, dtype=np.int64))
    return covering_radius(pts, d=spec.d, resolution=resolution)


def _sup(cells):
    """The first greatest (value, key) of ``cells`` whose value is not None;
    (inf, None) when none has one."""
    return max((cell for cell in cells if cell[0] is not None),
               key=lambda cell: cell[0], default=(math.inf, None))


@dataclass
class UniformCoveringEstimate:
    """Truncated sup of N^(1/d) times the windowed covering distance over the
    ``grids``: an {"m", "N", "radius", "scaled"} row per cell; argmax {"m", "N"}."""

    uniform_covering_parameter: float
    argmax: dict | None
    C: float
    grids: dict
    rows: list


def uniform_covering_parameter(spec: SequenceSpec, C: float, m_grid, N_grid,
                               resolution: float | None = None,
                               index_budget: int = DEFAULT_BUDGET) -> UniformCoveringEstimate:
    """Grid-truncated sup over (m, N) of N^(1/d) * covering radius of
    {u_(m+n) : 1 <= n <= C*N}; divergence shows as growth along the grids."""
    if not C > 0:
        raise ValueError(f"scale constant C must be positive, got {C}")
    rows = []
    for m in m_grid:
        for N in N_grid:
            radius = _window_radius(spec, int(m), C * N, resolution, index_budget)
            if radius is None:
                raise ValueError(
                    f"window [{m + 1}, {m + C * N}] exceeds index budget {index_budget}")
            rows.append({"m": int(m), "N": int(N), "radius": radius,
                         "scaled": N ** (1.0 / spec.d) * radius})
    best, argmax = _sup((r["scaled"], {"m": r["m"], "N": r["N"]}) for r in rows)
    return UniformCoveringEstimate(uniform_covering_parameter=best, argmax=argmax, C=C,
                                   grids={"m": list(m_grid), "N": list(N_grid)}, rows=rows)


# the criterion's W(eps) = C_U * V(KAPPA_U * eps), at the paper's constants
C_U = KAPPA_U = 1.0


@dataclass
class CriterionTable:
    """Cells h * eps^-1 * R(window at h of length K h^d W(eps)), h >= W(eps), as
    {"eps", "h", "x", "radius", "value", "status"} rows; argmax is {"eps", "h"}."""

    sup: float
    argmax: dict | None
    constants: dict
    rows: list


def uniform_orchard_criterion(spec: SequenceSpec, V, K: float = 1.0,
                              eps_grid=(0.2, 0.1, 0.05), h_mults=(1, 2, 4, 8),
                              resolution: float | None = None,
                              index_budget: int = DEFAULT_BUDGET) -> CriterionTable:
    """Tabulate the windowed-covering criterion equivalent to the
    uniform-orchard property; boundedness of the sup is the pass signal.

    ``V`` maps eps to a visibility value; the evaluated function is
    W(eps) = C_U * V(KAPPA_U * eps).
    """
    rows = []
    for eps in eps_grid:
        W = C_U * V(KAPPA_U * eps)
        if not 0 < W < math.inf:
            raise ValueError(f"visibility must be finite and positive, got {W}")
        for mult in h_mults:
            h = max(1, math.ceil(W * mult))
            x = K * h**spec.d * W
            if not math.isfinite(x):
                raise ValueError(f"eps {eps}, h-mult {mult}: window size past the float range")
            radius = _window_radius(spec, h ** (spec.d + 1), x, resolution, index_budget)
            if radius is None:  # past the budget
                rows.append({"eps": eps, "h": h, "x": x, "radius": None,
                             "value": None, "status": "skipped"})
                continue
            value = h / eps * radius
            rows.append({"eps": eps, "h": h, "x": x, "radius": radius,
                         "value": value, "status": "ok"})
    sup, argmax = _sup((r["value"], {"eps": r["eps"], "h": r["h"]}) for r in rows)
    return CriterionTable(sup=sup, argmax=argmax, rows=rows,
                          constants={"K": K, "c_U": C_U, "kappa_U": KAPPA_U})


@dataclass
class CoveringVisibilityCurve:
    """Visibility read off the windowed covering radii: an {"eps", "V"} entry per
    eps, V the largest grid x whose {"x", "sup", "h_argmax"} inner row has sup <= eps."""

    curve: list
    inner: list
    h_cap: int


def visibility_from_covering(spec: SequenceSpec, eps_grid, x_grid,
                             h_cap: int = DEFAULT_H_CAP,
                             resolution: float | None = None,
                             index_budget: int = DEFAULT_BUDGET) -> CoveringVisibilityCurve:
    """Evaluate V(eps) = sup{x : sup_(h>x) h * R(window at h, length h^d x) <= eps}
    on finite grids, keeping the inner-sup trajectory observable. An empty
    x grid is refused: no x to read, its V would read 0.0; so is a grid
    holding a non-finite x, which has no first window scale h."""
    if len(x_grid) == 0:
        raise ValueError("the x grid needs at least one value")
    if bad := [x for x in x_grid if not math.isfinite(x)]:
        raise ValueError(f"the x grid value {bad[0]!r} is not finite")
    inner = []
    for x in x_grid:
        cells = []
        h = max(1, math.floor(x) + 1)
        while h <= h_cap:
            radius = _window_radius(spec, h ** (spec.d + 1), h**spec.d * x, resolution,
                                    index_budget)
            cells.append((None if radius is None else h * radius, h))
            h *= 2
        sup, h_argmax = _sup(cells)
        inner.append({"x": float(x), "sup": sup, "h_argmax": h_argmax})
    curve = [{"eps": float(eps),
              "V": max((r["x"] for r in inner if r["sup"] <= eps), default=0.0)}
             for eps in eps_grid]
    return CoveringVisibilityCurve(curve=curve, inner=inner, h_cap=h_cap)
