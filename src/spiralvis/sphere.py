"""Unit vectors and direction nets on S^d.

All geodesic quantities are in radians, all Euclidean quantities unit-free.
Directions live on the d-sphere embedded in R^(d+1) as float64 arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


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


def _sphere_area(d: int) -> float:
    """Surface area of S^d."""
    return 2 * math.pi ** ((d + 1) / 2) / math.gamma((d + 1) / 2)


@dataclass
class DirectionNet:
    """Finite delta-covering of S^d by ``count`` cap centers.

    ``covering_radius`` is the net's proved covering radius: every direction
    lies within that geodesic distance of some center, and it is at most
    ``mesh``. ``centers`` holds the centers as rows, or is None for the
    uniform circle grid (d=1), whose center j is at angle j * 2*pi/count and
    which the circle checks read by cell index.
    """

    dimension: int
    mesh: float
    count: int
    covering_radius: float
    centers: np.ndarray | None

    def __len__(self) -> int:
        return self.count


# the most entries an int64 array can hold: its byte count must fit an intp
MAX_DIRECTIONS = np.iinfo(np.intp).max // 8


def least_directions(d: int, delta: float) -> float:
    """A lower bound on the directions of ``build_direction_net(d, delta)``:
    pi/delta on the circle, and on S^d 2(d+1) m^d at the cube net's
    area-bound starting grid m; inf past the float range."""
    if d == 1:
        return math.pi / delta
    m = _area_grid(d, delta)
    return m if m == math.inf else 2 * (d + 1) * max(1, math.floor(m)) ** d


def _uniform_circle_net(delta: float) -> DirectionNet:
    count = max(1, math.ceil(math.pi / delta))
    return DirectionNet(dimension=1, mesh=delta, count=count,
                        covering_radius=math.pi / count, centers=None)


def _project(grids) -> np.ndarray:
    """Points (1, g_1, ..., g_d) of the face x_0 = 1, normalized onto S^d."""
    pts = np.stack([np.ones(grids[0].size)] + [g.ravel() for g in grids], axis=1)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _cube_face(d: int, m: int, cells: int | None = None) -> tuple[np.ndarray, float]:
    """The equiangular cells of the cube face x_0 = 1 with m per axis, or
    only the first ``cells`` per axis of them (the corner block): their
    centers on S^d and the largest center-to-vertex angle over all of them.

    A cell is bounded by great spheres through the origin, so it is convex;
    below pi/2 the farthest point of a convex spherical cell from its center
    is a vertex. So over the whole face that angle is exactly the largest
    distance from a point of a cell to the cell's own center: a proved
    covering radius for the face. (A point's nearest center may be a
    neighbour's, and nearer.) Over a corner block it is a lower bound.
    """
    cells = m if cells is None else cells
    step = (math.pi / 2) / m
    edges = np.tan(-math.pi / 4 + step * np.arange(cells + 1))
    edges[0] = -1.0  # the faces must meet exactly
    if cells == m:
        edges[-1] = 1.0
    mids = np.tan(-math.pi / 4 + step * (np.arange(cells) + 0.5))
    centers = _project(np.meshgrid(*[mids] * d, indexing="ij"))
    # every grid vertex projected once, then each cell corner's slice of them
    verts = _project(np.meshgrid(*[edges] * d, indexing="ij"))
    verts = verts.reshape((cells + 1,) * d + (d + 1,))
    widest = 0.0
    for corner in itertools.product((0, 1), repeat=d):
        corners = verts[tuple(slice(c, cells + c) for c in corner)].reshape(-1, d + 1)
        widest = max(widest, float(np.linalg.norm(corners - centers, axis=1).max()))
    return centers, 2.0 * math.asin(widest / 2.0)


def _area_grid(d: int, delta: float) -> float:
    """The cube net's area bound on m: 2(d+1) m^d caps of radius delta must
    cover S^d, and a cap's area is at most area(S^(d-1)) delta^d / d."""
    return (d * _sphere_area(d) / (2 * (d + 1) * _sphere_area(d - 1))) ** (1 / d) / delta


def _corner_grid(d: int, delta: float) -> int:
    """The least m from the area bound (``_area_grid``) whose corner cell has
    a center-to-vertex angle of at most delta. That angle falls as m grows,
    so one corner cell per grid is read, galloping up from the bound and then
    bisecting; the m found fits and m - 1 was read and does not (or is the
    bound's floor)."""
    def fits(m):
        return _cube_face(d, m, cells=1)[1] <= delta

    lo = max(1, math.floor(_area_grid(d, delta)))
    if fits(lo):
        return lo
    step = 1
    while not fits(lo + step):  # lo fails throughout
        lo, step = lo + step, 2 * step
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def _cube_sphere_net(d: int, delta: float) -> DirectionNet:
    """Equiangular gnomonic cube ("cubed sphere") net of S^d: 2(d+1) faces
    with m^d cells each, centers at the cell midpoints, m the smallest grid
    whose covering radius is at most delta.

    No m below the area bound (``_area_grid``) can qualify, nor can one whose
    corner cell alone has a center-to-vertex angle above delta, so whole faces
    are built only from ``_corner_grid``'s m on.
    """
    m = _corner_grid(d, delta)
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
    return DirectionNet(dimension=d, mesh=delta, count=len(faces) * len(face),
                        covering_radius=radius, centers=np.concatenate(faces))


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
    if least_directions(d, delta) > MAX_DIRECTIONS:  # before the cube net's scan
        raise ValueError(f"a net of mesh {delta} on S^{d} has more directions than "
                         f"an int64 array can hold ({MAX_DIRECTIONS})")
    if d == 1:
        return _uniform_circle_net(delta)
    return _cube_sphere_net(d, delta)
