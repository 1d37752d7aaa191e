import itertools
import math

import numpy as np
import pytest

from oracles import count_bound_ok
from spiralvis import (
    SequenceSpec,
    build_direction_net,
    check_orchard,
    check_uniform_orchard,
    unit_vector,
)
from spiralvis.sphere import _area_grid, _corner_grid, _cube_face, least_directions


def random_units(rng, count, dim):
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_unit_vector_normalizes():
    v = unit_vector([3.0, 4.0])
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        unit_vector([0.0, 0.0])
    with pytest.raises(ValueError):
        unit_vector([1.0])


def test_comparability_with_split_form():
    # polar distance vs |r-rho| + sqrt(r rho)|a-b| stays within [1/4, 4]
    rng = np.random.default_rng(2)
    for scale in (1.0, 10.0, 1000.0):
        a = random_units(rng, 10**4, 3)
        b = random_units(rng, 10**4, 3)
        r = rng.uniform(0.5, 2.0, 10**4) * scale
        rho = rng.uniform(0.5, 2.0, 10**4) * scale
        chord = np.linalg.norm(a - b, axis=1)
        split = np.abs(r - rho) + np.sqrt(r * rho) * chord
        exact = np.linalg.norm(r[:, None] * a - rho[:, None] * b, axis=1)
        ratio = exact / split
        assert ratio.min() >= 0.25
        assert ratio.max() <= 4.0


def test_chordal_geodesic_comparability():
    rng = np.random.default_rng(3)
    a = random_units(rng, 10**4, 4)
    b = random_units(rng, 10**4, 4)
    chord = np.linalg.norm(a - b, axis=1)
    geo = np.arccos(np.clip(np.einsum("ij,ij->i", a, b), -1, 1))
    assert np.all(chord <= geo + 1e-12)
    assert np.all(geo <= math.pi / 2 * chord + 1e-12)


def test_circle_net_exact_grid():
    net = build_direction_net(1, math.pi / 2)
    # equally spaced angles cover with radius pi/count <= mesh
    assert math.pi / len(net) <= math.pi / 2
    assert net.uniform_grid
    assert count_bound_ok(net)

    fine = build_direction_net(1, 0.01)
    assert math.pi / 0.01 <= len(fine) <= 2 * math.pi / 0.01
    assert fine.covering_radius == math.pi / len(fine) <= 0.01
    gaps = np.diff(np.sort(np.arctan2(fine.centers[:, 1], fine.centers[:, 0]) % (2 * math.pi)))
    assert gaps.max() == pytest.approx(gaps.min(), rel=1e-9)


def test_circle_net_centers_built_on_demand():
    # the centers the circle net stored before they were built on first read
    for delta in (math.pi, 0.5, 0.003):
        net = build_direction_net(1, delta)
        angles = np.arange(len(net)) * (2 * math.pi / len(net))
        assert np.array_equal(net.centers, np.column_stack([np.cos(angles), np.sin(angles)]))
        assert net.centers is net.centers


def test_circle_net_length_without_centers():
    # neither len(net) nor a circle check and its report builds the centers
    net = build_direction_net(1, 0.2 / (4 * 20.0))
    assert len(net) == math.ceil(math.pi / (0.2 / 80.0)) and count_bound_ok(net)
    rep = check_uniform_orchard(SequenceSpec("golden-angle"), 0.2, 20.0, [0.0], net=net)
    assert rep.net["count"] == rep.total_checks == len(net)
    assert "centers" not in vars(net)


def test_net_rejects_bad_mesh():
    with pytest.raises(ValueError):
        build_direction_net(1, 0.0)
    with pytest.raises(ValueError):
        build_direction_net(2, 4.0)
    # rejected before any allocation or grid scan: at mesh 1e-300 the S^2
    # scan's m += 1 would not change its float step
    for d, delta in ((1, 1e-300), (1, 5e-324), (1, 1e-18), (2, 1e-300), (3, 1e-9)):
        with pytest.raises(ValueError, match="more directions than an int64 array can hold"):
            build_direction_net(d, delta)


def covering_defect(net, directions) -> float:
    """Sampled oracle: the largest distance from ``directions`` to the net.

    Zero defect within the mesh certifies covering only statistically; the
    net's own ``covering_radius`` is the proved value.
    """
    worst = 0.0
    for chunk in np.array_split(directions, max(1, len(directions) // 4096)):
        dots = chunk @ net.centers.T
        worst = max(worst, float(np.arccos(np.clip(dots.max(axis=1), -1.0, 1.0)).max()))
    return worst


def cube_probes(rng, count, dim):
    """Random directions plus the cube's corners and edge midpoints, where
    the cube-sphere net's coarsest cells meet."""
    special = [np.array(p, dtype=np.float64)
               for p in itertools.product((-1.0, 0.0, 1.0), repeat=dim)
               if sum(map(abs, p)) >= 2]
    special = np.array([p / np.linalg.norm(p) for p in special])
    return np.vstack([random_units(rng, count, dim), special])


def test_sphere_net_covers_and_respects_count_bound():
    net = build_direction_net(2, 0.2)
    assert count_bound_ok(net)
    assert covering_defect(net, random_units(np.random.default_rng(9), 10**5, 3)) <= 0.2


@pytest.mark.parametrize("delta", [0.3, 0.1, 0.04, 0.02, 0.01])
def test_sphere_net_radius_within_mesh(delta):
    net = build_direction_net(2, delta)
    assert net.covering_radius <= delta
    assert count_bound_ok(net)
    # m is the smallest grid reaching delta: one cell fewer per side misses it
    m = math.isqrt(len(net) // 6)
    assert 6 * m * m == len(net)
    assert m == 1 or _cube_face(2, m - 1)[1] > delta


def cube_cells(m):
    """Vertex directions of each cell of the equiangular m x m grid on each of
    the six cube faces, shape (6 m^2, 4, 3)."""
    edges = np.tan(np.linspace(-math.pi / 4, math.pi / 4, m + 1))
    edges[0], edges[-1] = -1.0, 1.0
    cells = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            for i in range(m):
                for j in range(m):
                    quad = [np.insert([edges[a], edges[b]], axis, sign)
                            for a, b in ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1))]
                    cells.append([p / np.linalg.norm(p) for p in quad])
    return np.array(cells)


@pytest.mark.parametrize("delta", [0.3, 0.1])
def test_sphere_net_radius_is_largest_cell_circumradius(delta):
    net = build_direction_net(2, delta)
    cells = cube_cells(math.isqrt(len(net) // 6))
    middle = cells.sum(axis=1)
    middle /= np.linalg.norm(middle, axis=1, keepdims=True)
    owner = np.argmax(middle @ net.centers.T, axis=1)
    assert sorted(owner) == list(range(len(net)))  # one center per cell
    widest = max(float(np.arccos(np.clip(net.centers[k] @ v, -1.0, 1.0)))
                 for k, quad in zip(owner, cells) for v in quad)
    assert widest == pytest.approx(net.covering_radius, abs=1e-12)


@pytest.mark.parametrize("d, delta", [(2, 0.3), (2, 0.1), (2, 0.04), (3, 0.2)])
def test_sphere_net_sampled_defect_within_radius(d, delta):
    net = build_direction_net(d, delta)
    probes = cube_probes(np.random.default_rng(9), 20_000, d + 1)
    # 1e-12 absorbs the rounding of arccos at a probe lying on a cell vertex
    assert covering_defect(net, probes) <= net.covering_radius + 1e-12


def test_d3_constant_net_count_bound():
    spec = SequenceSpec("constant", d=3, v=np.array([1.0, 2.0, 2.0, 4.0]))
    net = build_direction_net(3, 0.1)
    assert count_bound_ok(net)
    assert net.covering_radius <= 0.1
    rep = check_orchard(spec, 0.2, 0.5)  # builds the same eps/(4V) = 0.1 net
    assert rep.net == {"delta": 0.1, "count": len(net), "seed": None}


def test_sphere_net_is_seedless():
    a = build_direction_net(2, 0.3)
    for seed in (5, 6):
        b = build_direction_net(2, 0.3, seed=seed)
        assert np.array_equal(a.centers, b.centers)
        assert a.covering_radius == b.covering_radius
    assert np.allclose(np.linalg.norm(a.centers, axis=1), 1.0, atol=1e-15)


def old_cube_face(d, m):
    """The face builder the net scanned with before it skipped grids by their
    corner cell: every grid builds the whole face."""
    step = (math.pi / 2) / m
    edges = np.tan(-math.pi / 4 + step * np.arange(m + 1))
    edges[0], edges[-1] = -1.0, 1.0
    mids = np.tan(-math.pi / 4 + step * (np.arange(m) + 0.5))

    def project(grids):
        pts = np.stack([np.ones(grids[0].size)] + [g.ravel() for g in grids], axis=1)
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)

    centers = project(np.meshgrid(*[mids] * d, indexing="ij"))
    widest = 0.0
    for corner in itertools.product((0, 1), repeat=d):
        verts = project(np.meshgrid(*[edges[c:m + c] for c in corner], indexing="ij"))
        widest = max(widest, float(np.linalg.norm(verts - centers, axis=1).max()))
    return centers, 2.0 * math.asin(widest / 2.0)


def old_cube_sphere_net(d, delta):
    """(m, covering radius, centers) of the full-face m-scan."""
    area = 2 * math.pi ** ((d + 1) / 2) / math.gamma((d + 1) / 2)
    rim = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
    m = max(1, math.floor((d * area / (2 * (d + 1) * rim)) ** (1 / d) / delta))
    while True:
        face, radius = old_cube_face(d, m)
        if radius <= delta:
            break
        m += 1
    faces = []
    for axis in range(d + 1):
        for sign in (1.0, -1.0):
            img = np.empty_like(face)
            img[:, axis] = sign * face[:, 0]
            img[:, [i for i in range(d + 1) if i != axis]] = face[:, 1:]
            faces.append(img)
    return m, radius, np.concatenate(faces)


@pytest.mark.parametrize("d, delta", [(2, float(x)) for x in np.geomspace(0.005, 1.5, 21)]
                         + [(3, x) for x in (0.08, 0.1, 0.15, 0.3, 0.6, 1.0, 1.5)])
def test_corner_cell_scan_matches_full_face_scan(d, delta):
    m, radius, centers = old_cube_sphere_net(d, delta)
    net = build_direction_net(d, delta)
    assert len(net) == 2 * (d + 1) * m ** d
    assert least_directions(d, delta) <= len(net)
    assert least_directions(1, delta) <= len(build_direction_net(1, delta))
    assert net.covering_radius == radius
    assert np.array_equal(net.centers, centers)


def linear_corner_scan(d, delta):
    """The least m from the area bound whose corner cell fits, one m at a time."""
    m = max(1, math.floor(_area_grid(d, delta)))
    while _cube_face(d, m, cells=1)[1] > delta:
        m += 1
    return m


@pytest.mark.parametrize("d", [2, 3])
def test_corner_search_matches_linear_scan(d):
    deltas = [float(x) for x in np.geomspace(2e-3, 1.5, 30)]
    for m in (1, 2, 3, 5, 17, 64, 250, 900):  # where m steps by one: at a corner angle
        corner = _cube_face(d, m, cells=1)[1]  # m is the first fit, and just below it
        deltas += [corner, math.nextafter(corner, 0.0)]  # m fails and m + 1 is the first
    for delta in deltas:
        assert _corner_grid(d, delta) == linear_corner_scan(d, delta), delta
