import math

import numpy as np
import pytest

from spiralvis import (
    LineParam,
    NetMeshError,
    SequenceSpec,
    build_direction_net,
    calibrate_proximity_sandwich,
    check_dense_forest,
    check_orchard,
    check_uniform_orchard,
    estimate_min_visibility,
    line_proximity_check,
    sequence_term,
    spiral_point,
    verify_proximity_sandwich,
    visible_point_test,
)
from spiralvis.geometry import radial_hit_halfwidth, segment_distances
from spiralvis.sequences import save_sequence_file
from spiralvis.spirals import CHUNK, count_in_ball, point_batch
from spiralvis.visibility import (
    MISS,
    _cap_witnesses,
    _certificate_arcs,
    _certificate_witnesses,
    _directional_window_check,
    _exact_direction_witnesses,
    _first_writers,
    _window_arcs,
    _window_check,
)

TWO_PI = 2 * math.pi

# calibrated on the golden-angle spiral during development; reports record it
GOLDEN_UNIFORM_C = 5.0


def test_orchard_ladder_paper_constant(ladder):
    eps = 0.2
    rep = check_orchard(ladder, eps, 4 * math.pi / eps, index_budget=10**7)
    assert rep.passed
    assert rep.pass_fraction == 1.0
    assert rep.certified_tolerance == pytest.approx(eps * 1.25)


def test_orchard_constant_fails_antipode(constant_seq):
    rep = check_orchard(constant_seq, 0.2, 20.0)
    assert not rep.passed
    # the antipodal direction (angle pi) is among the failures
    count = rep.net["count"]
    failed = {f["direction"] for f in rep.failures}
    assert int(round(count / 2)) in failed


def test_orchard_requires_fine_net(golden):
    coarse = build_direction_net(1, 0.1)
    with pytest.raises(NetMeshError) as err:
        check_orchard(golden, 0.1, 50.0, net=coarse)
    assert err.value.required_mesh == pytest.approx(0.1 / 200.0)


def test_rule_mesh_above_pi_builds_the_mesh_pi_net(golden, fib_sphere):
    # eps/(4V) is 4.17 for V = 0.03 and inf for V = 1e-320
    for spec in (golden, fib_sphere):
        for V in (0.03, 1e-320):
            rep = check_orchard(spec, 0.5, V)
            assert rep.net["delta"] == math.pi
            assert rep.net["count"] == len(build_direction_net(spec.d, math.pi))
            assert rep.certified_tolerance <= 0.5 * 1.25


def test_orchard_validates_eps(golden):
    with pytest.raises(ValueError):
        check_orchard(golden, 1.5, 10.0)
    with pytest.raises(ValueError):
        check_orchard(golden, 0.1, -1.0)


def test_orchard_witness_soundness(ladder):
    eps = 0.1
    V = 4 * math.pi / eps
    rep = check_orchard(ladder, eps, V)
    count = rep.net["count"]
    for w in rep.witnesses:
        assert 0.0 < w.t <= V
        assert w.distance <= eps + 1e-9
    # re-verify a witness against exact geometry from scratch
    w = rep.witnesses[3]
    j = 3  # witnesses come ordered by direction index for a full pass
    alpha = j * TWO_PI / count
    v = np.array([math.cos(alpha), math.sin(alpha)])
    p = spiral_point(ladder, w.n).coords
    assert np.linalg.norm(p - w.t * v) == pytest.approx(w.distance, abs=1e-9)


def test_orchard_certificate_route(ladder, constant_seq):
    eps = 0.1
    rep = check_orchard(ladder, eps, 4 * math.pi / eps, method="certificate",
                        constants={"K": 1.0, "kappa": 2 * math.pi})
    assert rep.passed
    assert rep.constants == {"K": 1.0, "kappa": 2 * math.pi}
    bad = check_orchard(constant_seq, eps, 20.0, method="certificate")
    assert not bad.passed


def test_uniform_orchard_golden(golden):
    for eps in (0.1,):
        rep = check_uniform_orchard(golden, eps, GOLDEN_UNIFORM_C / eps,
                                    [0.0, 100.0, 1000.0])
        assert rep.passed
        assert rep.extra["t0"][100.0]["failures"] == 0


def test_uniform_constant_fails(constant_seq):
    rep = check_uniform_orchard(constant_seq, 0.1, 10.0, [0.0, 50.0])
    assert not rep.passed


def test_uniform_at_zero_implies_orchard(golden, ladder):
    for spec, eps, V in ((golden, 0.1, 60.0), (ladder, 0.2, 4 * math.pi / 0.2)):
        uni = check_uniform_orchard(spec, eps, V, [0.0])
        orch = check_orchard(spec, eps, V)
        if uni.passed:
            assert orch.passed


def test_uniform_negative_window_matches_generic(golden, ladder):
    # fast circle path against the direction-by-direction sweep
    rng = np.random.default_rng(2)
    net = build_direction_net(1, math.pi / 64)
    for spec in (golden, ladder):
        for _ in range(4):
            eps = float(rng.uniform(0.2, 0.9))
            t0 = float(rng.uniform(-30, 20))
            V = float(rng.uniform(5, 40))
            failures, witnesses, hits = _window_check(spec, net, t0, t0 + V, eps, 10**6)
            slow, _ = _directional_window_check(spec, net.centers, t0, t0 + V, eps, 10**6)
            hit = np.flatnonzero(slow != MISS)
            assert np.array_equal(failures, np.flatnonzero(slow == MISS))
            assert hits == len(hit)
            assert [w.n for w in witnesses] == slow[hit[:100]].tolist()
            # the cover's first writer of every hit cell, through the rescan
            first = _first_writers(spec, len(net), *_window_arcs(spec, t0, t0 + V, eps,
                                                                 10**6), hit)
            assert np.array_equal(first, slow[hit])


def _brute_window_witnesses(spec, centers, t_lo, t_hi, eps):
    """Per center, the smallest index whose point is within eps of the window
    {t c : t_lo <= t <= t_hi}, from segment_distances over every point whose
    radius is within eps + 1 of the window's radii; also which centers have
    a pair within 1e-9 of eps, where float rounding may decide either way."""
    near = 0.0 if t_lo < 0 < t_hi else min(abs(t_lo), abs(t_hi))
    n_lo = count_in_ball(max(0.0, near - eps - 1.0), spec.d) + 1
    ns = np.arange(n_lo, count_in_ball(max(abs(t_lo), abs(t_hi)) + eps + 1.0, spec.d) + 1)
    _, coords = point_batch(spec, ns)
    witness = np.full(len(centers), MISS, dtype=np.int64)
    tie = np.zeros(len(centers), dtype=bool)
    for j, c in enumerate(centers):
        dist, _ = segment_distances(coords, t_lo * c, t_hi * c)
        close = np.flatnonzero(dist <= eps)
        if len(close):
            witness[j] = ns[close[0]]
        tie[j] = np.any(np.abs(dist - eps) <= 1e-9)
    return witness, tie


def test_sphere_sweep_matches_brute(fib_sphere):
    const3 = SequenceSpec("constant", d=3, v=build_direction_net(3, 1.0).centers[7])
    rng = np.random.default_rng(12)
    cases = 0
    for spec, delta in ((fib_sphere, 0.2), (const3, 1.0)):
        centers = build_direction_net(spec.d, delta).centers
        for where in ("negative", "straddling 0", "far"):
            eps = float(rng.uniform(0.2, 0.9))
            V = float(rng.uniform(1.0, 3.0))
            t0 = {"negative": -V - rng.uniform(0.5, 5.0),
                  "straddling 0": -rng.uniform(0.1, V - 0.1),
                  "far": rng.uniform(20.0, 22.0)}[where]
            witness, exact = _directional_window_check(spec, centers, t0, t0 + V,
                                                       eps, 10**7)
            want, tie = _brute_window_witnesses(spec, centers, t0, t0 + V, eps)
            assert tie.sum() <= 2
            assert np.array_equal(witness[~tie], want[~tie])
            hit = np.flatnonzero(witness != MISS)
            assert len(hit) and len(hit) < len(centers)
            t, dist = exact(hit)
            _, pts = point_batch(spec, witness[hit])
            c = centers[hit]
            assert np.all((t >= t0) & (t <= t0 + V))
            assert np.allclose(np.linalg.norm(pts - t[:, None] * c, axis=1),
                               dist, rtol=0, atol=1e-12)
            assert np.all(dist <= eps + 1e-9)
            cases += 1
    assert cases == 6


def test_cap_sweep_blocks_agree(fib_sphere):
    # blocks of a few pairs resolve centers across many blocks; one block
    # holding every pair sees them all at once
    centers = build_direction_net(2, 0.1).centers
    arcs = [(0.0, lambda ns, radii: radial_hit_halfwidth(radii, 2.0, 4.0, 0.5)),
            (math.pi, lambda ns, radii: radial_hit_halfwidth(radii, 0.0, 1.5, 0.5))]
    whole = _cap_witnesses(fib_sphere, centers, 1, 300, arcs, pairs_per_block=10**9)
    assert 0 < np.sum(whole != MISS) < len(centers)
    for block in (1, 700, 20_000):
        got = _cap_witnesses(fib_sphere, centers, 1, 300, arcs, pairs_per_block=block)
        assert np.array_equal(got, whole)


def dense_cap_witnesses(spec, centers, n_lo, n_hi, arcs, pairs_per_block=1 << 21):
    """Reference for ``_cap_witnesses``: every point of a block against every
    open center, one matrix product per block."""
    witness = np.full(len(centers), MISS, dtype=np.int64)
    open_ = np.arange(len(centers))
    columns = np.ascontiguousarray(centers.T)
    lo = max(1, n_lo)
    while lo <= n_hi and len(open_):
        hi = min(n_hi, lo + min(CHUNK, max(1, pairs_per_block // len(open_))) - 1)
        ns = np.arange(lo, hi + 1, dtype=np.int64)
        lo = hi + 1
        radii, coords = point_batch(spec, ns)
        sides = [(math.cos(flip), h(ns, radii)) for flip, h in arcs]
        reach = np.any([h >= 0.0 for _, h in sides], axis=0)
        if not reach.any():
            continue
        ns, radii, coords = ns[reach], radii[reach], coords[reach]
        dots = (coords / radii[:, None]) @ columns[:, open_]
        inside = np.zeros(dots.shape, dtype=bool)
        for sign, h in sides:
            h = h[reach]
            cos_h = np.where(h < 0.0, np.inf, np.where(h >= math.pi, -np.inf, np.cos(h)))
            inside |= dots >= cos_h[:, None] if sign > 0 else dots <= -cos_h[:, None]
        hit = inside.any(axis=0)
        witness[open_[hit]] = ns[np.argmax(inside, axis=0)[hit]]
        open_ = open_[~hit]
    return witness


def _cap_ties(spec, centers, n_lo, n_hi, arcs):
    """Which centers have a point of [n_lo, n_hi] whose signed dot lies within
    1e-12 of its cap's threshold, where rounding may decide either way."""
    ns = np.arange(max(1, n_lo), n_hi + 1)
    radii, coords = point_batch(spec, ns)
    dots = (coords / radii[:, None]) @ centers.T
    tie = np.zeros(len(centers), dtype=bool)
    for flip, reach in arcs:
        h = reach(ns, radii)
        ok = (h >= 0.0) & (h < math.pi)
        tie |= np.any(np.abs(math.cos(flip) * dots[ok] - np.cos(h[ok])[:, None]) <= 1e-12,
                      axis=0)
    return tie


def _ring(w, angle, count=8):
    """``count`` unit vectors at geodesic distance ``angle`` from the unit w."""
    e1 = np.cross(w, [1.0, 0.0, 0.0] if abs(w[0]) < 0.9 else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(w, e1)
    az = np.arange(count) * (TWO_PI / count)
    ring = (math.cos(angle) * w + math.sin(angle) * (np.cos(az)[:, None] * e1
                                                     + np.sin(az)[:, None] * e2))
    return ring / np.linalg.norm(ring, axis=1, keepdims=True)


def _polar_file_case(tmp_path):
    """A file sequence whose first rows lie at and within 1e-15 of z = +-1,
    fixed per-index half-widths on both sides (negative, between 0 and pi,
    and pi or more), and centers from a cube net plus rings 1e-9 inside and
    outside the caps of the near-pole points."""
    rng = np.random.default_rng(13)
    polar = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
    for theta, phi, z in ((1e-8, 0.3, 1.0), (1e-8, 2.0, 1.0), (3e-8, 4.0, -1.0),
                          (4.4e-8, 1.1, 1.0), (2e-8, 5.5, -1.0)):
        polar.append((theta * math.cos(phi), theta * math.sin(phi), z))
    rows = np.concatenate([polar, rng.normal(size=(60, 3))])
    path = tmp_path / "polar.txt"
    save_sequence_file(path, rows)
    spec = SequenceSpec("file", d=2, path=str(path))
    count = len(rows)
    # the last two rows reach every direction, on one side each
    h_plus = np.concatenate([[0.05, 2.5, 0.3, 1.2, 0.7, -1.0, 0.15],
                             rng.uniform(-0.4, 0.9, count - len(polar) - 2), [-1.0, 4.0]])
    h_minus = np.concatenate([[-1.0, 0.2, 2.0, 0.45, 0.9, 0.35, 0.25],
                              rng.uniform(-0.6, 0.6, count - len(polar) - 2), [math.pi, -1.0]])
    arcs = [(0.0, lambda ns, radii: h_plus[ns - 1]),
            (math.pi, lambda ns, radii: h_minus[ns - 1])]
    _, coords = point_batch(spec, np.arange(1, len(polar) + 1))
    units = coords / np.linalg.norm(coords, axis=1, keepdims=True)
    rings = [_ring(sign * u, h + side * 1e-9)
             for u, hp, hm in zip(units, h_plus, h_minus)
             for sign, h in ((1.0, hp), (-1.0, hm)) if 0.0 < h < math.pi
             for side in (-1.0, 1.0)]
    centers = np.concatenate([build_direction_net(2, 0.3).centers, [[0.0, 0.0, 1.0],
                                                                    [0.0, 0.0, -1.0]], *rings])
    return spec, centers, 1, count, arcs


def test_cap_witnesses_match_dense_oracle(fib_sphere, tmp_path):
    """The polar-band kernel against the dense one: equal witness arrays
    except at most 2 centers whose dot lies within 1e-12 of a threshold."""
    const3 = SequenceSpec("constant", d=3, v=build_direction_net(3, 1.0).centers[7])
    rng = np.random.default_rng(14)
    cases = [_polar_file_case(tmp_path)]
    for spec, delta, far in ((fib_sphere, 0.25, 20.0), (const3, 1.0, 4.0)):
        centers = build_direction_net(spec.d, delta).centers
        for where in ("negative", "straddling 0", "far"):
            eps = float(rng.uniform(0.2, 0.9))
            V = float(rng.uniform(1.0, 3.0))
            t0 = {"negative": -V - rng.uniform(0.5, 5.0),
                  "straddling 0": -rng.uniform(0.1, V - 0.1),
                  "far": far + rng.uniform(0.0, 2.0)}[where]
            cases.append((spec, centers, *_window_arcs(spec, t0, t0 + V, eps, 10**7)))
        cases.append((spec, centers, *_certificate_arcs(spec, 0.5, 5.0, 1.0, 3.0, 10**7)))
    for spec, centers, n_lo, n_hi, arcs in cases:
        tie = _cap_ties(spec, centers, n_lo, n_hi, arcs)
        assert tie.sum() <= 2
        want = dense_cap_witnesses(spec, centers, n_lo, n_hi, arcs)
        assert np.any(want != MISS)
        for block in (1, 37, 1 << 21):
            got = _cap_witnesses(spec, centers, n_lo, n_hi, arcs, pairs_per_block=block)
            assert np.array_equal(got[~tie], want[~tie])


def test_sphere_certificate_matches_arccos_formula(fib_sphere):
    # the parent's rule: n <= K V^3 whose direction is within
    # min(kappa eps / r, pi) of the center, by arccos of the clipped dot
    net = build_direction_net(2, 0.1)
    for eps, V, K_const, kappa in ((0.2, 12.0, 1.0, 1.0), (0.3, 9.0, 0.5, 2.5)):
        got = _cap_witnesses(fib_sphere, net.centers,
                             *_certificate_arcs(fib_sphere, eps, V, K_const, kappa, 10**7))
        failures, _, hits = _certificate_witnesses(fib_sphere, net, eps, V, K_const, kappa,
                                                   10**7)
        assert np.array_equal(failures, np.flatnonzero(got == MISS))
        assert hits == np.sum(got != MISS)
        ns = np.arange(1, math.ceil(K_const * V ** 3) + 1)
        radii, coords = point_batch(fib_sphere, ns)
        caps = np.minimum(kappa * eps / radii, math.pi)
        ang = np.arccos(np.clip(coords / radii[:, None] @ net.centers.T, -1.0, 1.0))
        ok = ang <= caps[:, None]
        want = np.where(ok.any(axis=0), ns[np.argmax(ok, axis=0)], MISS)
        tie = np.any(np.abs(ang - caps[:, None]) <= 1e-9, axis=0)
        assert tie.sum() <= 2
        assert np.array_equal(got[~tie], want[~tie])
        assert 0 < np.sum(got != MISS) < len(net)


def test_sphere_certificate_witnesses_match_brute(fib_sphere):
    """d=2 certificate witnesses carry their exact (t, distance) to the window
    [0, V] along their direction, as a dense scan over t finds them."""
    net = build_direction_net(2, 0.1)
    V = 12.0
    witness = _cap_witnesses(fib_sphere, net.centers,
                             *_certificate_arcs(fib_sphere, 0.5, V, 1.0, 1.0, 10**7))
    hit = np.flatnonzero(witness != MISS)
    assert 0 < len(hit) < len(net)
    t, dist = _exact_direction_witnesses(fib_sphere, net.centers, witness, hit, 0.0, V)
    _, reported, _ = _certificate_witnesses(fib_sphere, net, 0.5, V, 1.0, 1.0, 10**7)
    assert [(w.n, w.t, w.distance) for w in reported] == list(
        zip(witness[hit[:100]].tolist(), t[:100].tolist(), dist[:100].tolist()))
    assert np.all((t >= 0.0) & (t <= V))
    grid = np.linspace(0.0, V, 24001)
    step = grid[1]
    _, coords = point_batch(fib_sphere, witness[hit])
    for j, tj, dj, p in zip(hit[::7], t[::7], dist[::7], coords[::7]):
        gaps = np.linalg.norm(p - grid[:, None] * net.centers[j], axis=1)
        k = int(np.argmin(gaps))
        assert dj <= gaps[k] <= dj + step
        assert abs(tj - grid[k]) <= step
        assert dj == pytest.approx(np.linalg.norm(p - tj * net.centers[j]), abs=1e-12)


def test_monotonicity_in_eps_and_V(golden):
    rng = np.random.default_rng(3)
    for _ in range(4):
        eps = float(rng.uniform(0.05, 0.3))
        V = float(rng.uniform(2.0, 40.0))
        base = check_orchard(golden, eps, V)
        if base.passed:
            assert check_orchard(golden, min(0.99, eps * 1.5), V).passed
            assert check_orchard(golden, eps, V * 1.5).passed


def test_forest_line_through_point(golden):
    p = spiral_point(golden, 7).coords
    u = p / np.linalg.norm(p)
    w = np.array([-u[1], u[0]])
    line = LineParam(lam=float(np.linalg.norm(p)), v=u, w=w, t0=-5.0, t1=5.0)
    rep = check_dense_forest(golden, 0.1, 10.0, [line])
    assert rep.passed
    assert rep.witnesses[0].distance == pytest.approx(0.0, abs=1e-9)


def test_forest_fails_on_vacant_strip(ladder):
    line = LineParam(lam=1.0, v=np.array([0.0, 1.0]), w=np.array([1.0, 0.0]),
                     t0=10.0, t1=210.0)
    rep = check_dense_forest(ladder, 0.5, 200.0, [line], index_budget=10**6)
    assert not rep.passed
    assert rep.failures[0]["min_distance"] >= 1.0 - 1e-9


def test_forest_window_length_enforced(golden):
    line = LineParam(lam=0.0, v=np.array([1.0, 0.0]), w=np.array([0.0, 1.0]),
                     t0=0.0, t1=3.0)
    with pytest.raises(ValueError):
        check_dense_forest(golden, 0.1, 10.0, [line])


def test_forest_restricted_to_axis_implies_uniform(golden):
    # lam=0 windows reduce the anywhere-check to the shifted-window check
    eps, V = 0.1, GOLDEN_UNIFORM_C / 0.1
    rng = np.random.default_rng(4)
    lines = []
    for _ in range(16):
        ang = rng.uniform(0, TWO_PI)
        w = np.array([math.cos(ang), math.sin(ang)])
        v = np.array([-w[1], w[0]])
        t0 = float(rng.uniform(-200, 200))
        lines.append(LineParam(lam=0.0, v=v, w=w, t0=t0, t1=t0 + V))
    rep = check_dense_forest(golden, eps, V, lines)
    assert rep.passed


def test_forest_measurement_records_rate(golden):
    # open question at this scale: record the pass rate, assert only structure
    rng = np.random.default_rng(5)
    V = 44.0
    lines = []
    for _ in range(100):
        ang = rng.uniform(0, TWO_PI)
        v = np.array([math.cos(ang), math.sin(ang)])
        w = np.array([-v[1], v[0]])
        t0 = float(rng.uniform(-100, 100))
        lines.append(LineParam(lam=float(rng.uniform(0, 100)), v=v, w=w,
                               t0=t0, t1=t0 + V))
    rep = check_dense_forest(golden, 0.1, V, lines)
    assert rep.total_checks == 100
    assert 0.0 <= rep.pass_fraction <= 1.0
    for f in rep.failures:
        assert f["min_distance"] > 0.1


def test_line_param_validation():
    with pytest.raises(ValueError):
        LineParam(lam=-1.0, v=np.array([1.0, 0]), w=np.array([0, 1.0]),
                  t0=0.0, t1=1.0)
    with pytest.raises(ValueError):
        LineParam(lam=1.0, v=np.array([1.0, 0]), w=np.array([1.0, 0]),
                  t0=0.0, t1=1.0)
    with pytest.raises(ValueError):
        LineParam(lam=1.0, v=np.array([1.0, 0]), w=np.array([0, 1.0]),
                  t0=2.0, t1=2.0)
    for field, lam, t0, t1 in (("lam", math.nan, 0.0, 1.0), ("t0", 0.0, -math.inf, 1.0),
                               ("t1", 0.0, 0.0, math.nan)):
        with pytest.raises(ValueError, match=f"line {field} must be finite"):
            LineParam(lam=lam, v=np.array([1.0, 0]), w=np.array([0, 1.0]), t0=t0, t1=t1)
    with pytest.raises(ValueError, match="line v must be finite"):
        LineParam(lam=0.0, v=np.array([math.nan, 0]), w=np.array([0, 1.0]), t0=0.0, t1=1.0)
    with pytest.raises(ValueError, match="angle must be finite"):
        LineParam.at_angle(0.0, math.inf, 0.0, 1.0)


# -- arithmetic split check ---------------------------------------------------


def test_line_proximity_trivial_cases(golden):
    u1 = sequence_term(golden, 1)
    v = np.array([-u1[1], u1[0]])
    assert line_proximity_check(golden, 1, 0.0, 1.0, v, u1, eps=0.01, c=0.01)
    # radial gap of 9 fails the first inequality for any eps below it
    assert not line_proximity_check(golden, 1, 10.0, 0.0, u1, v, eps=7.9, c=100.0)


def test_line_proximity_validation(golden):
    v = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        line_proximity_check(golden, 1, 0.0, 1.0, v, v, eps=0.1, c=1.0)
    with pytest.raises(ValueError):
        line_proximity_check(golden, 1, 0.0, 0.0, v, np.array([0.0, 1.0]),
                             eps=0.1, c=1.0)
    with pytest.raises(ValueError):
        line_proximity_check(golden, 1, -1.0, 1.0, v, np.array([0.0, 1.0]),
                             eps=0.1, c=1.0)


def test_proximity_sandwich(golden):
    c, cp, n = calibrate_proximity_sandwich(golden, 2000, seed=11)
    assert cp >= 1.0
    assert verify_proximity_sandwich(golden, c, cp, 2000, seed=11) == 0
    assert verify_proximity_sandwich(golden, c, cp, 2000, seed=12) == 0


# -- visible points -----------------------------------------------------------


def test_visible_ladder_strip_certified(ladder):
    verdicts = visible_point_test(ladder, np.array([0.0, 1.0]),
                                  np.array([[1.0, 0.0]]), eps_floor=0.5,
                                  T_max=1e3, index_budget=10**6)
    v = verdicts[0]
    assert v.visible_at_scale
    assert v.certified
    assert v.certificate["kind"] == "vacant-strip"
    assert v.min_distance == pytest.approx(1.0, abs=1e-9)


def test_visible_excludes_the_query_point(golden):
    p = spiral_point(golden, 5).coords
    verdicts = visible_point_test(golden, p, np.array([[0.0, 1.0]]),
                                  eps_floor=1e-6, T_max=50.0)
    assert verdicts[0].min_distance > 0.0
    assert verdicts[0].witness.n != 5


def test_visible_constant_certified(constant_seq):
    verdicts = visible_point_test(constant_seq, np.array([0.0, 2.0]),
                                  np.array([[0.0, 1.0]]), eps_floor=0.5,
                                  T_max=100.0)
    v = verdicts[0]
    assert v.certified
    assert v.certificate["kind"] == "ray-to-ray"
    # exact and sharp: the two rays are closest at t=0, s=1
    assert v.certificate["bound"] == pytest.approx(math.sqrt(5.0))
    assert v.min_distance == pytest.approx(math.sqrt(5.0))


def test_visible_golden_rays_get_close(golden):
    # empty visible set expected: every sampled ray approaches the spiral
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        ang1, ang2 = rng.uniform(0, TWO_PI, 2)
        x = rng.uniform(0, 0.3) * np.array([math.cos(ang1), math.sin(ang1)])
        v = np.array([math.cos(ang2), math.sin(ang2)])
        got = visible_point_test(golden, x, v[None, :], eps_floor=0.2,
                                 T_max=1e4)[0]
        assert not got.visible_at_scale
        worst = max(worst, got.min_distance)
    assert worst < 0.2


def test_visible_validates_args(golden):
    with pytest.raises(ValueError):
        visible_point_test(golden, np.zeros(2), np.array([[1.0, 0]]),
                           eps_floor=0.0, T_max=10.0)
    with pytest.raises(ValueError):
        visible_point_test(golden, np.zeros(2), np.array([[1.0, 0]]),
                           eps_floor=0.1, T_max=math.inf)
    for eps_floor in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eps_floor"):
            visible_point_test(golden, np.zeros(2), np.array([[1.0, 0]]),
                               eps_floor=eps_floor, T_max=10.0)
    with pytest.raises(ValueError, match="origin"):
        visible_point_test(golden, np.array([math.nan, 0.0]), np.array([[1.0, 0]]),
                           eps_floor=0.1, T_max=10.0)


# -- minimal-visibility estimation -------------------------------------------


def test_estimate_constant_diverges(constant_seq):
    curve = estimate_min_visibility(constant_seq, "orchard", [0.2, 0.1],
                                    v_cap=64.0)
    assert all(e.status == "diverged" for e in curve.entries)
    assert curve.slope is None


def test_estimate_ladder_under_paper_bound(ladder):
    curve = estimate_min_visibility(ladder, "orchard", [0.2, 0.1, 0.05])
    for e in curve.entries:
        assert e.status == "ok"
        assert e.V <= 4 * math.pi / e.eps
    assert -1.3 < curve.slope < -0.7


def test_estimate_uniform_golden_slope(golden):
    curve = estimate_min_visibility(golden, "uniform", [0.2, 0.1],
                                    t0_list=(0.0, 100.0))
    vals = [e.V for e in curve.entries]
    assert vals[1] >= vals[0]  # monotone after cleanup
    assert all(e.status == "ok" for e in curve.entries)


def test_estimate_uses_supplied_net(golden, monkeypatch):
    import spiralvis.visibility as vis

    net = build_direction_net(1, 0.2 / (4 * 64.0))

    def no_build(*args, **kwargs):
        raise AssertionError("a net was built although one was supplied")

    monkeypatch.setattr(vis, "build_direction_net", no_build)
    for kind in ("orchard", "uniform"):
        curve = estimate_min_visibility(golden, kind, [0.2], net=net, v_cap=64.0,
                                        t0_list=(0.0, 100.0))
        assert curve.entries[0].status == "ok"
        assert curve.entries[0].V <= 64.0


def test_estimate_rejects_duplicate_eps(golden):
    curve = estimate_min_visibility(golden, "orchard", [0.2, 0.2, 0.1])
    assert len(curve.entries) == 2  # deduplicated, strictly decreasing


def test_failure_rows_are_built_for_the_written_prefix(ladder):
    # a clipped budget leaves ~11k of the 25k ladder directions unmet
    eps, V = 0.05, 100.0
    net = build_direction_net(1, eps / (4 * V))
    want = {t0: _window_check(ladder, net, t0, t0 + V, eps, 1000)[0] for t0 in (0.0, 5.0)}
    rep = check_orchard(ladder, eps, V, index_budget=1000).to_json()
    assert rep["failure_count"] == len(want[0.0]) > 1000
    assert rep["failures"] == [{"direction": int(j)} for j in want[0.0][:1000]]
    assert rep["pass_fraction"] == 1.0 - len(want[0.0]) / len(net)
    report = check_uniform_orchard(ladder, eps, V, [0.0, 5.0, 0.0], index_budget=1000)
    rows = [{"direction": int(j), "t0": t0} for t0 in (0.0, 5.0) for j in want[t0]]
    assert list(report.failures) == rows
    assert report.failures[len(want[0.0]) - 1:][:2] == rows[len(want[0.0]) - 1:][:2]
    rep = report.to_json()
    assert rep["failures"] == rows[:1000]
    assert rep["failure_count"] == len(rows)
    assert rep["pass_fraction"] == 1.0 - len(rows) / (2 * len(net))
    assert not rep["passed"]
