"""Covering radii of finite direction sets and the windowed covering criteria.

Every quantity defined by an infinite sup is truncated to explicit grids; the
grids travel with the result so finiteness claims stay scale-qualified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import SequenceSpec, direction_batch
from .sphere import DirectionNet, build_direction_net

TWO_PI = 2.0 * math.pi


class BudgetExceededError(ValueError):
    """A window would touch sequence indices beyond the allowed budget."""


@dataclass(frozen=True)
class CoveringRadiusResult:
    value: float
    exact: bool
    resolution: float

    def __post_init__(self):
        if self.exact and self.resolution != 0.0:
            raise ValueError("exact results carry zero resolution")


def _circular_covering_radius(points: np.ndarray) -> float:
    angles = np.sort(np.arctan2(points[:, 1], points[:, 0]) % TWO_PI)
    gaps = np.diff(angles)
    wrap = angles[0] + TWO_PI - angles[-1]
    widest = max(float(gaps.max()) if len(gaps) else 0.0, float(wrap))
    return widest / 2.0


def covering_radius(points, d: int | None = None, mode: str = "auto",
                    net: DirectionNet | None = None,
                    resolution: float | None = None) -> CoveringRadiusResult:
    """Largest geodesic distance from any direction to the set.

    On the circle this is half the largest gap, exact. Otherwise the sup is
    taken over a net and the value carries a one-sided error of at most the
    net mesh.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] == 0:
        raise ValueError("covering radius of an empty set is undefined")
    dim = pts.shape[1] - 1 if d is None else d
    if mode not in ("auto", "exact", "net"):
        raise ValueError(f"unknown mode {mode!r}")
    if dim == 1 and mode in ("auto", "exact"):
        return CoveringRadiusResult(_circular_covering_radius(pts), True, 0.0)
    if mode == "exact":
        raise ValueError("exact covering radius is only available on the circle")
    if net is None:
        if resolution is None:
            raise ValueError("net mode needs a net or a resolution")
        net = build_direction_net(dim, resolution)
    value = 0.0
    for chunk in np.array_split(net.centers, max(1, len(net.centers) // 4096)):
        dots = chunk @ pts.T
        value = max(value, float(np.arccos(np.clip(dots.max(axis=1), -1, 1)).max()))
    return CoveringRadiusResult(value, False, net.mesh)


@dataclass
class WindowSet:
    """The floor(x) consecutive directions following index h^(d+1)."""

    h: int
    x: float
    d: int
    indices: np.ndarray
    members: np.ndarray

    def __post_init__(self):
        if len(self.indices) != int(self.x):
            raise ValueError("window holds floor(x) members")


def direction_window(spec: SequenceSpec, h: int, x: float,
                     index_budget: int = 10**8) -> WindowSet:
    """Members u_{h^(d+1)+1} .. u_{h^(d+1)+floor(x)}."""
    if h < 1:
        raise ValueError(f"window base h must be >= 1, got {h}")
    if x < 1:
        raise ValueError(f"window length x must be >= 1, got {x}")
    start = h ** (spec.d + 1)
    top = start + int(x)
    if top > index_budget:
        raise BudgetExceededError(
            f"window [{start + 1}, {top}] exceeds index budget {index_budget}"
        )
    indices = np.arange(start + 1, top + 1, dtype=np.int64)
    return WindowSet(h=h, x=x, d=spec.d, indices=indices,
                     members=direction_batch(spec, indices))


def _window_radius(spec: SequenceSpec, start: int, count: int,
                   resolution: float | None, cache: dict) -> float:
    key = (start, count)
    if key not in cache:
        if count < 1:
            cache[key] = math.inf
        else:
            idx = np.arange(start + 1, start + count + 1, dtype=np.int64)
            pts = direction_batch(spec, idx)
            cache[key] = covering_radius(pts, d=spec.d, resolution=resolution).value
    return cache[key]


@dataclass
class UniformCoveringEstimate:
    """Truncated sup of N^(1/d) times the windowed covering distance."""

    value: float
    argmax: tuple[int, int]
    rows: list  # (m, N, radius, scaled)
    C: float
    m_grid: list
    N_grid: list

    def to_json(self) -> dict:
        return {
            "uniform_covering_parameter": self.value,
            "argmax": {"m": self.argmax[0], "N": self.argmax[1]},
            "C": self.C,
            "grids": {"m": list(self.m_grid), "N": list(self.N_grid)},
            "rows": [
                {"m": m, "N": n, "radius": r, "scaled": s} for m, n, r, s in self.rows
            ],
        }

    def to_csv(self, path) -> None:
        from .reports import write_csv

        write_csv(path, ["m", "N", "radius", "scaled"], self.rows)


def uniform_covering_parameter(spec: SequenceSpec, C: float, m_grid, N_grid,
                               resolution: float | None = None,
                               index_budget: int = 10**8) -> UniformCoveringEstimate:
    """Grid-truncated sup over (m, N) of N^(1/d) * covering radius of
    {u_(m+n) : 1 <= n <= C*N}; divergence shows as growth along the grids."""
    if C <= 0:
        raise ValueError("scale constant C must be positive")
    cache: dict = {}
    rows = []
    best, arg = -math.inf, (0, 0)
    for m in m_grid:
        for N in N_grid:
            count = int(C * N)
            if m + count > index_budget:
                raise BudgetExceededError(
                    f"window [{m + 1}, {m + count}] exceeds index budget {index_budget}"
                )
            radius = _window_radius(spec, int(m), count, resolution, cache)
            scaled = N ** (1.0 / spec.d) * radius
            rows.append((int(m), int(N), radius, scaled))
            if scaled > best:
                best, arg = scaled, (int(m), int(N))
    return UniformCoveringEstimate(value=best, argmax=arg, rows=rows, C=C,
                                   m_grid=list(m_grid), N_grid=list(N_grid))


@dataclass
class CriterionTable:
    """Cells h * eps^-1 * R(window at h of length K h^d W(eps)), h >= W(eps)."""

    rows: list  # dict per cell
    sup: float
    argmax: dict | None
    K: float
    c_U: float
    kappa_U: float

    def to_json(self) -> dict:
        return {
            "sup": self.sup,
            "argmax": self.argmax,
            "constants": {"K": self.K, "c_U": self.c_U, "kappa_U": self.kappa_U},
            "rows": self.rows,
        }

    def growth_along_h(self) -> dict[float, list]:
        """Per-eps ratios of consecutive cell values as h doubles."""
        out: dict[float, list] = {}
        for eps in sorted({row["eps"] for row in self.rows}, reverse=True):
            vals = [r["value"] for r in self.rows
                    if r["eps"] == eps and r["status"] == "ok"]
            out[eps] = [b / a for a, b in zip(vals, vals[1:]) if a > 0]
        return out

    def to_csv(self, path) -> None:
        from .reports import write_csv

        write_csv(path, ["eps", "h", "x", "radius", "value", "status"],
                  [(r["eps"], r["h"], r["x"], r["radius"], r["value"],
                    r["status"]) for r in self.rows])


def uniform_orchard_criterion(spec: SequenceSpec, V, K: float = 1.0,
                              eps_grid=(0.2, 0.1, 0.05), h_mults=(1, 2, 4, 8),
                              c_U: float = 1.0, kappa_U: float = 1.0,
                              resolution: float | None = None,
                              index_budget: int = 10**8) -> CriterionTable:
    """Tabulate the windowed-covering criterion equivalent to the
    uniform-orchard property; boundedness of the sup is the pass signal.

    ``V`` maps eps to a visibility value; the evaluated function is
    W(eps) = c_U * V(kappa_U * eps).
    """
    cache: dict = {}
    rows = []
    sup, argmax = -math.inf, None
    for eps in eps_grid:
        W = c_U * V(kappa_U * eps)
        if W <= 0:
            raise ValueError("visibility must be positive")
        for mult in h_mults:
            h = max(1, math.ceil(W * mult))
            x = K * h**spec.d * W
            start = h ** (spec.d + 1)
            if start + int(x) > index_budget or x < 1:
                rows.append({"eps": eps, "h": h, "x": x, "radius": None,
                             "value": None, "status": "skipped"})
                continue
            radius = _window_radius(spec, start, int(x), resolution, cache)
            value = h / eps * radius
            rows.append({"eps": eps, "h": h, "x": x, "radius": radius,
                         "value": value, "status": "ok"})
            if value > sup:
                sup, argmax = value, {"eps": eps, "h": h}
    return CriterionTable(rows=rows, sup=sup, argmax=argmax, K=K, c_U=c_U,
                          kappa_U=kappa_U)


@dataclass
class CoveringVisibilityCurve:
    """Visibility read off the windowed covering radii: for each eps the
    largest grid x whose inner sup over h stays at or below eps."""

    entries: list  # (eps, V)
    inner: list  # (x, inner sup, h arg)
    h_cap: int

    def to_json(self) -> dict:
        return {
            "curve": [{"eps": e, "V": v} for e, v in self.entries],
            "inner": [{"x": x, "sup": s, "h_argmax": h} for x, s, h in self.inner],
            "h_cap": self.h_cap,
        }

    def to_csv(self, path) -> None:
        from .reports import write_csv

        write_csv(path, ["eps", "V"], self.entries)


def visibility_from_covering(spec: SequenceSpec, eps_grid, x_grid,
                             h_cap: int = 256, h_growth: float = 2.0,
                             resolution: float | None = None,
                             index_budget: int = 10**8) -> CoveringVisibilityCurve:
    """Evaluate V(eps) = sup{x : sup_(h>x) h * R(window at h, length h^d x) <= eps}
    on finite grids, keeping the inner-sup trajectory observable."""
    cache: dict = {}
    inner_rows = []
    inners = {}
    for x in x_grid:
        if x <= 0:
            raise ValueError("x grid must be positive")
        hs = []
        h = max(1, math.floor(x) + 1)
        while h <= h_cap:
            hs.append(h)
            h = max(h + 1, math.ceil(h * h_growth))
        sup_val, sup_h = -math.inf, None
        for h in hs:
            start = h ** (spec.d + 1)
            count = int(h**spec.d * x)
            if start + count > index_budget:
                continue
            radius = _window_radius(spec, start, count, resolution, cache)
            val = h * radius
            if val > sup_val:
                sup_val, sup_h = val, h
        inners[x] = sup_val if hs else math.inf
        inner_rows.append((float(x), inners[x], sup_h))
    entries = []
    for eps in eps_grid:
        feasible = [x for x in x_grid if inners[x] <= eps]
        entries.append((float(eps), float(max(feasible)) if feasible else 0.0))
    return CoveringVisibilityCurve(entries=entries, inner=inner_rows, h_cap=h_cap)
