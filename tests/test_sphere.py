import itertools
import math

import numpy as np
import pytest

from spiralvis import (
    SequenceSpec,
    SphericalCap,
    build_direction_net,
    check_orchard,
    geodesic_distance,
    polar_distance,
    unit_vector,
)
from spiralvis.sphere import _cube_face

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def random_units(rng, count, dim):
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_geodesic_basics():
    assert geodesic_distance(E1, E1) == 0.0
    assert geodesic_distance(E1, -E1) == pytest.approx(math.pi)
    assert geodesic_distance(E1, E2) == pytest.approx(math.pi / 2)


def test_geodesic_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    a = random_units(rng, 500, 3)
    b = random_units(rng, 500, 3)
    for x, y in zip(a, b):
        d = geodesic_distance(x, y)
        assert 0.0 <= d <= math.pi
        assert d == pytest.approx(geodesic_distance(y, x), abs=1e-15)


def test_geodesic_dimension_mismatch():
    with pytest.raises(ValueError):
        geodesic_distance(E1, np.array([1.0, 0.0, 0.0]))


def test_unit_vector_normalizes():
    v = unit_vector([3.0, 4.0])
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        unit_vector([0.0, 0.0])
    with pytest.raises(ValueError):
        unit_vector([1.0])


def test_polar_distance_examples():
    assert polar_distance(1, E1, 1, E1) == 0.0
    assert polar_distance(1, E1, 2, E1) == pytest.approx(1.0)
    assert polar_distance(1, E1, 1, E2) == pytest.approx(math.sqrt(2))


def test_polar_distance_matches_euclidean():
    rng = np.random.default_rng(1)
    for scale in (1.0, 10.0, 1000.0):
        a = random_units(rng, 2000, 3)
        b = random_units(rng, 2000, 3)
        r = rng.uniform(0.5, 2.0, 2000) * scale
        rho = rng.uniform(0.5, 2.0, 2000) * scale
        for i in range(0, 2000, 97):
            want = np.linalg.norm(r[i] * a[i] - rho[i] * b[i])
            got = polar_distance(r[i], a[i], rho[i], b[i])
            assert got == pytest.approx(want, rel=1e-10)


def test_polar_distance_stable_at_near_equal():
    # expanded law-of-cosines form would lose ~half the digits here
    a = unit_vector([1.0, 1e-8])
    b = unit_vector([1.0, -1e-8])
    want = np.linalg.norm(1000.0 * a - 1000.0 * b)
    assert polar_distance(1000.0, a, 1000.0, b) == pytest.approx(want, rel=1e-10)


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


def test_triangle_inequality_sampled():
    rng = np.random.default_rng(4)
    pts = random_units(rng, 300, 3)
    idx = rng.integers(0, 300, (400, 3))
    for i, j, k in idx:
        ab = geodesic_distance(pts[i], pts[j])
        bc = geodesic_distance(pts[j], pts[k])
        ac = geodesic_distance(pts[i], pts[k])
        assert ac <= ab + bc + 1e-9


def test_spherical_cap():
    cap = SphericalCap(center=E1, radius=0.5)
    assert cap.contains(unit_vector([1.0, 0.1]))
    assert not cap.contains(E2)
    with pytest.raises(ValueError):
        SphericalCap(center=E1, radius=-0.1)


def test_circle_net_exact_grid():
    net = build_direction_net(1, math.pi / 2)
    # equally spaced angles cover with radius pi/count <= mesh
    assert math.pi / len(net) <= math.pi / 2
    assert net.uniform_grid
    assert net.count_bound_ok()

    fine = build_direction_net(1, 0.01)
    assert math.pi / 0.01 <= len(fine) <= 2 * math.pi / 0.01
    assert fine.covering_radius == math.pi / len(fine) <= 0.01
    gaps = np.diff(sorted(fine.angles))
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
    assert len(net) == math.ceil(math.pi / (0.2 / 80.0)) and net.count_bound_ok()
    rep = check_orchard(SequenceSpec("golden-angle"), 0.2, 20.0, net=net)
    assert rep.net["count"] == rep.total_checks == len(net)
    assert "centers" not in vars(net)


def test_net_rejects_bad_mesh():
    with pytest.raises(ValueError):
        build_direction_net(1, 0.0)
    with pytest.raises(ValueError):
        build_direction_net(2, 4.0)


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
    assert net.count_bound_ok()
    assert covering_defect(net, random_units(np.random.default_rng(9), 10**5, 3)) <= 0.2


@pytest.mark.parametrize("delta", [0.3, 0.1, 0.04, 0.02, 0.01])
def test_sphere_net_radius_within_mesh(delta):
    net = build_direction_net(2, delta)
    assert net.covering_radius <= delta
    assert net.count_bound_ok()
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
    widest = max(geodesic_distance(net.centers[k], v)
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
    assert net.count_bound_ok()
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
    assert net.covering_radius == radius
    assert np.array_equal(net.centers, centers)
