"""Spherical geometry kernels: geodesic/polar distances, caps, and direction nets.

All geodesic quantities are in radians, all Euclidean quantities unit-free.
Directions live on the d-sphere embedded in R^(d+1) as float64 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12


def unit_vector(coords) -> np.ndarray:
    """Normalize ``coords`` to a unit vector in R^(d+1), d+1 >= 2."""
    v = np.asarray(coords, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise ValueError(f"unit vector needs at least 2 coordinates, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if not math.isfinite(norm) or norm == 0.0:
        raise ValueError("cannot normalize a zero or non-finite vector")
    return v / norm


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def geodesic_distance(a, b) -> float:
    """Great-circle distance on S^d, in [0, pi].

    The inner product is clamped to [-1, 1] before arccos; float drift at
    near-identical vectors would otherwise leave the domain.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_same_dim(a, b)
    return float(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))


def polar_distance(r: float, a, rho: float, b) -> float:
    """Euclidean distance between r*a and rho*b for unit vectors a, b.

    Expanding sqrt(r^2 + rho^2 - 2*r*rho*cos(theta)) cancels catastrophically
    at r ~ rho, a ~ b; the identity (r-rho)^2 + r*rho*|a-b|^2 is used instead.
    """
    if not (math.isfinite(r) and math.isfinite(rho)):
        raise ValueError("radii must be finite")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_same_dim(a, b)
    chord = float(np.linalg.norm(a - b))
    return math.hypot(r - rho, math.sqrt(max(r * rho, 0.0)) * chord)


@dataclass(frozen=True)
class SphericalCap:
    """Geodesic cap: all directions within ``radius`` of ``center``."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        if not 0.0 <= self.radius <= math.pi:
            raise ValueError(f"cap radius must be in [0, pi], got {self.radius}")

    def contains(self, v) -> bool:
        return geodesic_distance(self.center, v) <= self.radius


def _cap_packing_count_bound(d: int) -> float:
    """Upper bound on the number of pairwise-(3*delta/4)-separated directions,
    as a multiple of delta^-d.

    From disjoint caps of radius 3*delta/8 and sin(t) >= (2/pi) t on [0, pi/2]:
    count <= C1(d) * (4*pi/(3*delta))^d with C1 = 2 d surf(S^d)/(pi surf(S^(d-1))).
    """
    surf_d = 2 * math.pi ** ((d + 1) / 2) / math.gamma((d + 1) / 2)
    surf_dm1 = 2 * math.pi ** (d / 2) / math.gamma(d / 2) if d >= 1 else 2.0
    c1 = 2 * d * surf_d / (math.pi * surf_dm1)
    return c1 * (4 * math.pi / 3) ** d


@dataclass
class DirectionNet:
    """Finite delta-covering of S^d by cap centers.

    ``uniform_grid`` marks the exact equally-spaced circle net (d=1), whose
    centers are at angles j * 2*pi/len(centers).
    """

    dimension: int
    mesh: float
    centers: np.ndarray
    seed: int | None = None
    c_net: float = field(default=0.0)
    uniform_grid: bool = False

    def __post_init__(self):
        if self.c_net == 0.0:
            self.c_net = 4.0 if self.dimension == 1 else _cap_packing_count_bound(self.dimension)

    def __len__(self) -> int:
        return len(self.centers)

    @property
    def angles(self) -> np.ndarray:
        if self.dimension != 1:
            raise ValueError("angles are only defined for circle nets")
        return np.arctan2(self.centers[:, 1], self.centers[:, 0]) % (2 * math.pi)

    def count_bound_ok(self) -> bool:
        return len(self.centers) <= self.c_net * self.mesh ** (-self.dimension)

    def covering_defect(self, n_samples: int, seed: int = 0) -> float:
        """Max distance from ``n_samples`` random directions to the net.

        Zero defect within the mesh certifies covering only statistically;
        for d=1 the uniform grid covers exactly.
        """
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((n_samples, self.dimension + 1))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        worst = 0.0
        for chunk in np.array_split(samples, max(1, n_samples // 4096)):
            dots = chunk @ self.centers.T
            nearest = np.arccos(np.clip(dots.max(axis=1), -1.0, 1.0))
            worst = max(worst, float(nearest.max()))
        return worst


def _uniform_circle_net(delta: float) -> DirectionNet:
    count = max(1, math.ceil(math.pi / delta))
    angles = np.arange(count) * (2 * math.pi / count)
    centers = np.column_stack([np.cos(angles), np.sin(angles)])
    return DirectionNet(dimension=1, mesh=delta, centers=centers, seed=None, uniform_grid=True)


def _greedy_sphere_net(d: int, delta: float, seed: int) -> DirectionNet:
    """Farthest-point thinning of a dense random sample.

    Greedy selection at pairwise separation 3*delta/4 over a sample whose fill
    distance is ~delta/4 yields a delta-covering with packing-bounded count.
    """
    rng = np.random.default_rng(seed)
    target = 0.75 * delta
    fill = delta / 4.0
    # sample size so that random fill distance is well under `fill`
    n_cand = int(min(4e5, max(4000, 40.0 / fill**d * (d + 1))))
    cand = rng.standard_normal((n_cand, d + 1))
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)

    min_dot = np.full(n_cand, -1.0)  # cos of distance to nearest chosen center
    cos_target = math.cos(target)
    centers = []
    idx = 0  # start from the first sample
    while True:
        c = cand[idx]
        centers.append(c)
        np.maximum(min_dot, cand @ c, out=min_dot)
        if len(centers) % 64 == 0:  # drop candidates that are already covered
            keep = min_dot < cos_target
            cand, min_dot = cand[keep], min_dot[keep]
            if not len(cand):
                break
        if not len(min_dot):
            break
        idx = int(np.argmin(min_dot))
        if min_dot[idx] >= cos_target:
            break
    return DirectionNet(dimension=d, mesh=delta, centers=np.array(centers), seed=seed)


def build_direction_net(d: int, delta: float, seed: int = 0) -> DirectionNet:
    """Build a delta-covering of S^d.

    d=1 uses the exact uniform angle grid; d>=2 uses a seeded greedy packing
    promoted to a covering. Deterministic for a fixed seed.
    """
    if not delta > 0:
        raise ValueError(f"net mesh must be positive, got {delta}")
    if delta > math.pi:
        raise ValueError(f"net mesh must be at most pi, got {delta}")
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    if d == 1:
        return _uniform_circle_net(delta)
    return _greedy_sphere_net(d, delta, seed)
