"""Spherical geometry kernels: geodesic/polar distances, caps, and direction nets.

All geodesic quantities are in radians, all Euclidean quantities unit-free.
Directions live on the d-sphere embedded in R^(d+1) as float64 arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

NORM_TOL = 1e-12


def normalized(v) -> np.ndarray:
    """A vector divided by its norm, or each row of a matrix by its own.

    A vector whose norm underflows to 0 or overflows to inf is first divided
    by its largest |coordinate|, so every finite nonzero vector comes out a
    unit vector; any other keeps the bits of the plain division. A zero or
    non-finite vector comes out with a NaN coordinate.
    """
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        norm = np.linalg.norm(v, axis=None if v.ndim == 1 else 1, keepdims=True)
        out = v / norm
        rescale = (norm == 0.0) | (norm == math.inf)
        if rescale.any():
            rows, flat = np.atleast_2d(v), rescale.reshape(-1)
            scaled = rows[flat] / np.abs(rows[flat]).max(axis=1, keepdims=True)
            np.atleast_2d(out)[flat] = scaled / np.linalg.norm(scaled, axis=1, keepdims=True)
    return out


def unit_vector(coords) -> np.ndarray:
    """Normalize ``coords`` to a unit vector in R^(d+1), d+1 >= 2."""
    v = np.asarray(coords, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise ValueError(f"unit vector needs at least 2 coordinates, got shape {v.shape}")
    u = normalized(v)
    if not np.isfinite(u).all():
        raise ValueError("cannot normalize a zero or non-finite vector")
    return u


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


def _sphere_area(d: int) -> float:
    """Surface area of S^d."""
    return 2 * math.pi ** ((d + 1) / 2) / math.gamma((d + 1) / 2)


def _cap_packing_count_bound(d: int) -> float:
    """Upper bound on the number of pairwise-(3*delta/4)-separated directions,
    as a multiple of delta^-d.

    From disjoint caps of radius 3*delta/8 and sin(t) >= (2/pi) t on [0, pi/2]:
    count <= C1(d) * (4*pi/(3*delta))^d with C1 = 2 d surf(S^d)/(pi surf(S^(d-1))).
    """
    c1 = 2 * d * _sphere_area(d) / (math.pi * _sphere_area(d - 1))
    return c1 * (4 * math.pi / 3) ** d


@dataclass
class DirectionNet:
    """Finite delta-covering of S^d by ``count`` cap centers.

    ``covering_radius`` is the net's proved covering radius: every direction
    lies within that geodesic distance of some center, and it is at most
    ``mesh``. ``uniform_grid`` marks the exact equally-spaced circle net
    (d=1), whose centers are at angles j * 2*pi/count and are built only when
    ``centers`` is first read; any other net is made by ``from_centers``.
    """

    dimension: int
    mesh: float
    count: int
    covering_radius: float
    c_net: float = field(default=0.0)
    uniform_grid: bool = False

    def __post_init__(self):
        if self.c_net == 0.0:
            self.c_net = 4.0 if self.dimension == 1 else _cap_packing_count_bound(self.dimension)

    @classmethod
    def from_centers(cls, centers: np.ndarray, **kwargs) -> "DirectionNet":
        net = cls(count=len(centers), **kwargs)
        net.centers = centers  # stored over the cached property, never rebuilt
        return net

    @cached_property
    def centers(self) -> np.ndarray:
        if not self.uniform_grid:
            raise AttributeError("a net that is not the uniform circle grid stores its centers")
        angles = np.arange(self.count) * (2 * math.pi / self.count)
        return np.column_stack([np.cos(angles), np.sin(angles)])

    def __len__(self) -> int:
        return self.count

    @property
    def angles(self) -> np.ndarray:
        if self.dimension != 1:
            raise ValueError("angles are only defined for circle nets")
        return np.arctan2(self.centers[:, 1], self.centers[:, 0]) % (2 * math.pi)

    def count_bound_ok(self) -> bool:
        return self.count <= self.c_net * self.mesh ** (-self.dimension)


def _uniform_circle_net(delta: float) -> DirectionNet:
    count = max(1, math.ceil(math.pi / delta))
    return DirectionNet(dimension=1, mesh=delta, count=count,
                        covering_radius=math.pi / count, uniform_grid=True)


def _project(grids) -> np.ndarray:
    """Points (1, g_1, ..., g_d) of the face x_0 = 1, normalized onto S^d."""
    pts = np.stack([np.ones(grids[0].size)] + [g.ravel() for g in grids], axis=1)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _cube_face(d: int, m: int) -> tuple[np.ndarray, float]:
    """The m^d equiangular cells of the cube face x_0 = 1: their centers on
    S^d and the largest center-to-vertex angle over all of them.

    A cell is bounded by great spheres through the origin, so it is convex;
    below pi/2 the farthest point of a convex spherical cell from its center
    is a vertex. So that angle is exactly the largest distance from a point
    of a cell to the cell's own center: a proved covering radius for the
    face. (A point's nearest center may be a neighbour's, and nearer.)
    """
    step = (math.pi / 2) / m
    edges = np.tan(-math.pi / 4 + step * np.arange(m + 1))
    edges[0], edges[-1] = -1.0, 1.0  # the faces must meet exactly
    mids = np.tan(-math.pi / 4 + step * (np.arange(m) + 0.5))
    centers = _project(np.meshgrid(*[mids] * d, indexing="ij"))
    widest = 0.0
    for corner in itertools.product((0, 1), repeat=d):
        verts = _project(np.meshgrid(*[edges[c:m + c] for c in corner], indexing="ij"))
        widest = max(widest, float(np.linalg.norm(verts - centers, axis=1).max()))
    return centers, 2.0 * math.asin(widest / 2.0)


def _corner_cell_radius(d: int, m: int) -> float:
    """The center-to-vertex angle of the corner cell (0, ..., 0) of
    ``_cube_face(d, m)``, in the same float operations: one of the angles
    that face maximizes over, so a lower bound on its covering radius."""
    step = (math.pi / 2) / m
    edges = np.tan(-math.pi / 4 + step * np.arange(2))
    edges[0] = -1.0
    if m == 1:
        edges[1] = 1.0
    mid = np.tan(-math.pi / 4 + step * 0.5)
    pts = np.array([[1.0] + [mid] * d]
                   + [[1.0, *edges[list(c)]] for c in itertools.product((0, 1), repeat=d)])
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    return 2.0 * math.asin(float(np.linalg.norm(pts[1:] - pts[0], axis=1).max()) / 2.0)


def _cube_sphere_net(d: int, delta: float) -> DirectionNet:
    """Equiangular gnomonic cube ("cubed sphere") net of S^d: 2(d+1) faces
    with m^d cells each, centers at the cell midpoints, m the smallest grid
    whose covering radius is at most delta.

    The scan starts from an area bound: 2(d+1) m^d caps of radius delta must
    cover S^d, and a cap's area is at most area(S^(d-1)) delta^d / d, so no
    smaller m can qualify. Nor can an m whose corner cell alone has a
    center-to-vertex angle above delta, so the scan reads one cell per grid
    until that cell fits and builds whole faces only from there.
    """
    m = max(1, math.floor(
        (d * _sphere_area(d) / (2 * (d + 1) * _sphere_area(d - 1))) ** (1 / d) / delta))
    while _corner_cell_radius(d, m) > delta:
        m += 1
    while True:
        face, radius = _cube_face(d, m)
        if radius <= delta:
            break
        m += 1
    # the other faces are exact images of x_0 = 1 under signed coordinate swaps
    faces = []
    for axis in range(d + 1):
        for sign in (1.0, -1.0):
            img = np.empty_like(face)
            img[:, axis] = sign * face[:, 0]
            img[:, [i for i in range(d + 1) if i != axis]] = face[:, 1:]
            faces.append(img)
    return DirectionNet.from_centers(np.concatenate(faces), dimension=d, mesh=delta,
                                     covering_radius=radius)


def build_direction_net(d: int, delta: float, seed: int = 0) -> DirectionNet:
    """Build a delta-covering of S^d with a proved covering radius.

    d=1 uses the exact uniform angle grid; d>=2 uses the equiangular cube
    sphere. Both are seedless: ``seed`` is accepted for old callers and
    ignored.
    """
    if not delta > 0:
        raise ValueError(f"net mesh must be positive, got {delta}")
    if delta > math.pi:
        raise ValueError(f"net mesh must be at most pi, got {delta}")
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    if d == 1:
        return _uniform_circle_net(delta)
    return _cube_sphere_net(d, delta)
