import math

import numpy as np
import pytest

from oracles import (
    calibrate_proximity_sandwich,
    net_directions,
    save_sequence_file,
    verify_proximity_sandwich,
)
import spiralvis.visibility as vis
from spiralvis import (
    DirectionNet,
    LineParam,
    NetMeshError,
    SequenceSpec,
    VisibilityCurve,
    build_direction_net,
    check_dense_forest,
    check_orchard,
    check_uniform_orchard,
    estimate_min_visibility,
    visible_point_test,
)
from spiralvis.geometry import radial_hit_halfwidth, segment_distances
from spiralvis.spirals import CHUNK, annulus_index_range, count_in_ball, point_batch
from spiralvis.visibility import (
    DEFAULT_BUDGET,
    MISS,
    CurveEntry,
    _cap_witnesses,
    _certificate_arcs,
    _directional_window_check,
    _exact_direction_witnesses,
    _net_check,
    _window_arcs,
    segment_norm_range,
)

TWO_PI = 2 * math.pi

# calibrated on the golden-angle spiral during development; reports record it
GOLDEN_UNIFORM_C = 5.0

# sqrt(4500) - eps caps the estimator's bound near 66 for windows at t0 = 0,
# about the v_cap = 64 these tests once passed; the default budget caps it
# near 3162, which costs 5-8 s per diverging constant-spiral call
CAP64_BUDGET = 4500


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
    failed = set(rep.failures.directions.tolist())
    assert int(round(count / 2)) in failed


def test_orchard_requires_fine_net(golden, fib_sphere):
    coarse = build_direction_net(1, 0.1)
    with pytest.raises(NetMeshError) as err:
        check_uniform_orchard(golden, 0.1, 50.0, [0.0], net=coarse)
    assert err.value.required_mesh == pytest.approx(0.1 / 200.0)
    # fine enough, but a circle net for an S^2 sequence
    with pytest.raises(ValueError, match="net dimension does not match the sequence"):
        check_uniform_orchard(fib_sphere, 0.2, 5.0, [0.0], net=build_direction_net(1, 0.01))


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
    p = point_batch(ladder, [w.n])[1][0]
    assert np.linalg.norm(p - w.t * v) == pytest.approx(w.distance, abs=1e-9)


def test_orchard_certificate_route(ladder, constant_seq):
    eps = 0.1
    rep = check_orchard(ladder, eps, 4 * math.pi / eps, method="certificate")
    assert rep.passed
    assert rep.constants == {"K": 1.0, "kappa": 1.0}
    bad = check_orchard(constant_seq, eps, 20.0, method="certificate")
    assert not bad.passed
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        check_orchard(ladder, eps, 20.0, method="bogus")


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
            window = _window_arcs(spec, t0, t0 + V, eps, 10**6)
            failures, witnesses = _net_check(spec, net, *window, t0, t0 + V)
            slow = _cap_witnesses(spec, net_directions(net), *window[:3])
            hit = np.flatnonzero(slow != MISS)
            assert np.array_equal(failures, np.flatnonzero(slow == MISS))
            assert [w.n for w in witnesses] == slow[hit[:100]].tolist()


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
            window = _window_arcs(spec, t0, t0 + V, eps, 10**7)
            witness = _cap_witnesses(spec, centers, *window[:3])
            want, tie = _brute_window_witnesses(spec, centers, t0, t0 + V, eps)
            assert tie.sum() <= 2
            assert np.array_equal(witness[~tie], want[~tie])
            hit = np.flatnonzero(witness != MISS)
            assert len(hit) and len(hit) < len(centers)
            t, dist = _exact_direction_witnesses(spec, centers, witness, hit, t0, t0 + V)
            # the check's pair: the failures, and the first 100 hits of that
            # array with their exact (t, distance)
            failures, witnesses = _directional_window_check(spec, centers, *window[:3],
                                                            t0, t0 + V)
            assert np.array_equal(failures, np.flatnonzero(witness == MISS))
            assert [(w.n, w.t, w.distance) for w in witnesses] == list(
                zip(witness[hit[:100]].tolist(), t[:100].tolist(), dist[:100].tolist()))
            _, pts = point_batch(spec, witness[hit])
            c = centers[hit]
            assert np.all((t >= t0) & (t <= t0 + V))
            assert np.allclose(np.linalg.norm(pts - t[:, None] * c, axis=1),
                               dist, rtol=0, atol=1e-12)
            assert np.all(dist <= eps + 1e-9)
            cases += 1
    assert cases == 6


def test_cap_sweep_blocks_agree(fib_sphere, monkeypatch):
    # blocks of a few pairs resolve centers across many blocks; one block
    # holding every pair sees them all at once
    centers = build_direction_net(2, 0.1).centers
    arcs = [(0.0, lambda ns, radii: radial_hit_halfwidth(radii, 2.0, 4.0, 0.5)),
            (math.pi, lambda ns, radii: radial_hit_halfwidth(radii, 0.0, 1.5, 0.5))]
    monkeypatch.setattr(vis, "_PAIRS_PER_BLOCK", 10**9)
    whole = _cap_witnesses(fib_sphere, centers, 1, 300, arcs)
    assert 0 < np.sum(whole != MISS) < len(centers)
    for block in (1, 700, 20_000):
        monkeypatch.setattr(vis, "_PAIRS_PER_BLOCK", block)
        got = _cap_witnesses(fib_sphere, centers, 1, 300, arcs)
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


def test_cap_witnesses_match_dense_oracle(fib_sphere, tmp_path, monkeypatch):
    """The polar-band kernel against the dense one: equal witness arrays
    except at most 2 centers whose dot lies within 1e-12 of a threshold."""
    const3 = SequenceSpec("constant", d=3, v=build_direction_net(3, 1.0).centers[7])
    monkeypatch.setattr(vis, "KAPPA_CERT", 3.0)  # certificate caps three times wider
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
            cases.append((spec, centers, *_window_arcs(spec, t0, t0 + V, eps, 10**7)[:3]))
        cases.append((spec, centers, *_certificate_arcs(spec, 0.5, 5.0, 10**7)[:3]))
    for spec, centers, n_lo, n_hi, arcs in cases:
        tie = _cap_ties(spec, centers, n_lo, n_hi, arcs)
        assert tie.sum() <= 2
        want = dense_cap_witnesses(spec, centers, n_lo, n_hi, arcs)
        assert np.any(want != MISS)
        for block in (1, 37, 1 << 21):
            monkeypatch.setattr(vis, "_PAIRS_PER_BLOCK", block)
            got = _cap_witnesses(spec, centers, n_lo, n_hi, arcs)
            assert np.array_equal(got[~tie], want[~tie])


def test_sphere_certificate_matches_arccos_formula(fib_sphere, monkeypatch):
    # the parent's rule: n <= K V^3 whose direction is within
    # min(kappa eps / r, pi) of the center, by arccos of the clipped dot
    net = build_direction_net(2, 0.1)
    for eps, V, K_const, kappa in ((0.2, 12.0, 1.0, 1.0), (0.3, 9.0, 0.5, 2.5)):
        monkeypatch.setattr(vis, "K_CERT", K_const)
        monkeypatch.setattr(vis, "KAPPA_CERT", kappa)
        cert = _certificate_arcs(fib_sphere, eps, V, 10**7)
        got = _cap_witnesses(fib_sphere, net.centers, *cert[:3])
        failures, _ = _net_check(fib_sphere, net, *cert, 0.0, V)
        assert np.array_equal(failures, np.flatnonzero(got == MISS))
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
    cert = _certificate_arcs(fib_sphere, 0.5, V, 10**7)
    witness = _cap_witnesses(fib_sphere, net.centers, *cert[:3])
    hit = np.flatnonzero(witness != MISS)
    assert 0 < len(hit) < len(net)
    t, dist = _exact_direction_witnesses(fib_sphere, net.centers, witness, hit, 0.0, V)
    _, reported = _net_check(fib_sphere, net, *cert, 0.0, V)
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
    p = point_batch(golden, [7])[1][0]
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


def test_forest_refuses_a_bad_scale_and_no_window(golden):
    # the forest once checked eps alone, so V nan or inf passed every window,
    # and a list of no window passed with total_checks 0
    line = LineParam.at_angle(1.0, 0.0, 0.0, 5.0)
    for V in (math.nan, math.inf):
        with pytest.raises(ValueError, match="visibility V must be finite and positive"):
            check_dense_forest(golden, 0.1, V, [line])
    with pytest.raises(ValueError, match="a forest check needs at least one window"):
        check_dense_forest(golden, 0.1, 44.0, [])


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


# -- radial/angular split check (tests/oracles.py) ----------------------------


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
    p = point_batch(golden, [5])[1][0]
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
                                    index_budget=CAP64_BUDGET)
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


def test_estimate_confirms_on_the_net_it_reads(golden, monkeypatch):
    # the confirming check runs on the net its round read V on and builds
    # none of its own; the budget caps the bound near 64 at t0 = 100
    import spiralvis.visibility as vis

    nets, build, passes = [], vis.build_direction_net, vis._passes

    def confirm(*args):
        built = len(nets)
        ok = passes(*args)
        assert len(nets) == built, "the confirming check built a net of its own"
        assert args[-1] is nets[-1]
        return ok

    monkeypatch.setattr(vis, "build_direction_net", lambda *a: nets.append(build(*a)) or nets[-1])
    monkeypatch.setattr(vis, "_passes", confirm)
    for kind in ("orchard", "uniform"):
        curve = estimate_min_visibility(golden, kind, [0.2], t0_list=(0.0, 100.0),
                                        index_budget=165**2)
        assert curve.entries[0].status == "ok"
        assert curve.entries[0].V <= 64.0


def test_orchard_estimate_is_the_uniform_search_at_zero(golden, ladder, monkeypatch):
    # one search serves both kinds: only the curve's kind differs
    for spec, eps_grid in ((golden, [0.2, 0.1]), (ladder, [0.2, 0.1, 0.05])):
        orchard = estimate_min_visibility(spec, "orchard", eps_grid)
        uniform = estimate_min_visibility(spec, "uniform", eps_grid, t0_list=(0.0,))
        assert (orchard.kind, uniform.kind) == ("orchard", "uniform")
        assert orchard.entries == uniform.entries
        assert orchard.slope == uniform.slope
    # no kind or window start outside the search reads a point
    reads = []
    monkeypatch.setattr(vis, "_window_reach", lambda *a: reads.append(a))
    with pytest.raises(ValueError, match="'forest'"):
        estimate_min_visibility(golden, "forest", [0.2])
    for t0_list in ((math.inf,), (math.nan,), ()):
        with pytest.raises(ValueError, match="window starts t0 must be finite and nonempty"):
            estimate_min_visibility(golden, "uniform", [0.2], t0_list=t0_list)
    assert not reads


def test_estimate_rejects_duplicate_eps(golden):
    curve = estimate_min_visibility(golden, "orchard", [0.2, 0.2, 0.1])
    assert len(curve.entries) == 2  # deduplicated, strictly decreasing
    # the curve itself refuses a repeated eps, and an ok V that falls as eps
    # decreases; a diverged entry is not compared
    first, second = curve.entries
    with pytest.raises(ValueError, match="strictly decreasing eps"):
        VisibilityCurve("orchard", [first, first])
    fallen = CurveEntry(second.eps, first.V / 2, "ok")
    with pytest.raises(ValueError, match="V must be nondecreasing"):
        VisibilityCurve("orchard", [first, fallen])
    VisibilityCurve("orchard", [first, CurveEntry(second.eps, first.V / 2, "diverged")])


def test_failure_arrays_hold_every_window_and_the_payload_their_head(ladder):
    # a clipped budget leaves ~11k of the 25k ladder directions unmet
    eps, V = 0.05, 100.0
    net = build_direction_net(1, eps / (4 * V))
    want = {t0: _net_check(ladder, net, *_window_arcs(ladder, t0, t0 + V, eps, 1000),
                           t0, t0 + V)[0] for t0 in (0.0, 5.0)}
    rep = check_orchard(ladder, eps, V, index_budget=1000).to_json()
    assert rep["failure_count"] == len(want[0.0]) > 1000
    assert np.array_equal(rep["failures"].directions, want[0.0][:1000])
    assert rep["failures"].t0 is None
    assert rep["pass_fraction"] == 1.0 - len(want[0.0]) / len(net)
    report = check_uniform_orchard(ladder, eps, V, [0.0, 5.0, 0.0], index_budget=1000)
    directions = np.concatenate([want[0.0], want[5.0]])
    t0 = np.repeat([0.0, 5.0], [len(want[0.0]), len(want[5.0])])
    assert np.array_equal(report.failures.directions, directions)
    assert np.array_equal(report.failures.t0, t0)
    rep = report.to_json()
    assert np.array_equal(rep["failures"].directions, directions[:1000])
    assert np.array_equal(rep["failures"].t0, t0[:1000])
    assert rep["failure_count"] == len(directions)
    assert rep["pass_fraction"] == 1.0 - len(directions) / (2 * len(net))
    assert not rep["passed"]


def test_windows_past_the_budget_are_rejected(golden):
    # when every index of a window's eps-widened annulus exceeds the budget,
    # no point is read, and every direction would fail for want of reading
    eps, V, t0 = 0.1, 5.0, 10.0
    first = annulus_index_range(t0 - eps, t0 + V + eps + 1e-12, 1)[0]
    rep = check_uniform_orchard(golden, eps, V, [t0], index_budget=first)
    assert rep.witness_count > 0 and {w.n for w in rep.witnesses} == {first}
    with pytest.raises(ValueError, match=f"window \\[{t0!r}, {t0 + V!r}\\] lies wholly "
                                         "past the index budget"):
        check_uniform_orchard(golden, eps, V, [t0], index_budget=first - 1)
    line = LineParam.at_angle(1.0, 0.0, t0, t0 + V)
    near, far = segment_norm_range(line.point(t0), line.point(t0 + V))
    first = annulus_index_range(near - eps, far + eps, 1)[0]
    rep = check_dense_forest(golden, eps, V, [line], index_budget=first)
    assert rep.failures[0]["min_distance"] < math.inf  # index `first` was read
    with pytest.raises(ValueError, match="forest window .* past the index budget"):
        check_dense_forest(golden, eps, V, [line], index_budget=first - 1)
    # an annulus that holds no index keeps its verdict, budget or not
    assert annulus_index_range(100.1 - 1e-6, 100.1 + 2e-6, 1) == (10021, 10020)
    rep = check_uniform_orchard(golden, 1e-6, 1e-6, [100.1], index_budget=10)
    assert not rep.passed and len(rep.failures) == rep.total_checks


def test_estimate_rejects_a_window_past_the_budget(golden, fib_sphere):
    # the reach reads no point of such a window, so every reach would be inf
    # and the curve would read "diverged" instead of the checks' rejection
    with pytest.raises(ValueError, match="past the index budget"):
        estimate_min_visibility(golden, "uniform", [0.3], t0_list=(1e200,),
                                index_budget=CAP64_BUDGET)
    with pytest.raises(ValueError, match="past the index budget"):
        estimate_min_visibility(fib_sphere, "uniform", [0.3], t0_list=(1e200,),
                                index_budget=CAP64_BUDGET)
    # a later start past the budget: the first start's reach, 0.0023 on the
    # one-cell net, lies under the bound 2^-6 of a round past the cap, and
    # the later start is refused with the reach's window, not the skip test's
    with pytest.raises(ValueError, match=r"^the window \[5000.0, 5000.015625\] lies wholly "
                                         "past the index budget 1000000"):
        estimate_min_visibility(golden, "uniform", [0.9], t0_list=(71.0, 5000.0),
                                index_budget=10**6)


def test_estimate_stops_doubling_at_the_budget_cap(monkeypatch):
    # the bound doubles only up to the largest V whose windows the budget
    # reads whole; under an uncapped bound this call built nets of ~5e7 cells
    import spiralvis.visibility as vis

    nets, build = [], vis.build_direction_net
    monkeypatch.setattr(vis, "build_direction_net", lambda *a: nets.append(build(*a)) or nets[-1])
    eps_grid, t0_list, budget = [0.477, 0.369, 0.265], (225.95, 56.118), 300**2
    curve = estimate_min_visibility(SequenceSpec("rational-ladder"), "uniform", eps_grid,
                                    t0_list=t0_list, index_budget=budget)
    assert curve.entries[-1].status == "diverged"
    cap = math.sqrt(budget) - min(eps_grid) - max(t0_list)
    assert 70 < cap < 74
    assert max(map(len, nets)) <= math.ceil(math.pi / (min(eps_grid) / (4 * cap)))


def test_estimate_reads_only_inside_the_budget(monkeypatch):
    # every window a round reads, so every window of an ok entry, lies whole
    # inside the budget; an entry that needs more is diverged
    import spiralvis.visibility as vis

    rounds, reach = [], vis._window_reach

    def recorded(spec, net, t0, eps, V, budget):
        rounds.append((spec, t0, eps, V, budget))
        return reach(spec, net, t0, eps, V, budget)

    monkeypatch.setattr(vis, "_window_reach", recorded)
    rng, statuses = np.random.default_rng(1), set()
    for kind, spec in (("orchard", SequenceSpec("golden-angle")),
                       ("uniform", SequenceSpec("golden-angle", theta=math.sqrt(2) - 1)),
                       ("uniform", SequenceSpec("golden-angle")),
                       ("orchard", SequenceSpec("rational-ladder"))):
        eps_grid = rng.uniform(0.1, 0.5, 3).tolist()
        t0_list = tuple(rng.uniform(-40.0, 80.0, 2).tolist()) if kind == "uniform" else (0.0,)
        budget = int((max(map(abs, t0_list)) + rng.uniform(5.0, 40.0)) ** 2)
        curve = estimate_min_visibility(spec, kind, eps_grid, t0_list=t0_list,
                                        index_budget=budget)
        for e in curve.entries:
            statuses.add(e.status)
            for t0 in t0_list if e.status == "ok" else ():
                assert _window_arcs(spec, t0, t0 + e.V, e.eps, math.inf)[1] <= budget
    assert statuses == {"ok", "diverged"}
    for spec, t0, eps, V, budget in rounds:
        assert _window_arcs(spec, t0, t0 + V, eps, math.inf)[1] <= budget


def test_estimate_clamps_a_coarse_rule_mesh_to_pi():
    # the first entry is V = 2**-6, so the second eps's rule mesh
    # 0.337 / (4 * 2**-6) = 5.39 exceeds pi; the net must take the mesh-pi
    # net, as the checks do, instead of raising
    spec = SequenceSpec("golden-angle", theta=0.123456789)
    curve = estimate_min_visibility(spec, "uniform", [0.479, 0.337],
                                    t0_list=(56.11819025207575, 108.72426131822803))
    assert len(curve.entries) == 2


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: a shifted window's pass "
                   "is certified only to eps + max(|t0|, |t0 + V|)*mesh")
def test_uniform_rule_net_rejects_a_window_that_fails_finer():
    # the eps/(4V) rule gives this window a one-direction net that passes;
    # on build_direction_net(1, 1e-3) it fails 5,314 of its 6,284 checks
    spec = SequenceSpec("golden-angle", theta=0.123456789)
    t0_list = [56.11819025207575, 108.72426131822803]
    assert not check_uniform_orchard(spec, 0.479, 0.015625, t0_list).passed


def test_public_checks_agree_on_the_grid_and_a_stored_circle_net(golden, ladder):
    # net.centers is None alone selects the engine: the same d=1 centers stored
    # in a plain net take the cap sweep; both must give the same failures
    # (so the same hit counts) and witness indices, except at most 2
    # directions that a float tie at a cap's edge may decide either way
    def checked(rep):  # a report as _net_check's (failures, witnesses)
        return rep.failures.directions, rep.witnesses

    def by_direction(K, failures, witnesses):
        failed = np.asarray(failures, dtype=np.int64)
        hit = np.setdiff1d(np.arange(K), failed)
        return failed, dict(zip(hit.tolist(), (w.n for w in witnesses)))

    for spec, eps, V, t0 in ((golden, 0.2, 8.0, -12.5), (ladder, 0.3, 12.0, -7.0)):
        grid = build_direction_net(1, eps / (4 * V))
        net = DirectionNet(dimension=1, mesh=grid.mesh, count=len(grid),
                           covering_radius=grid.covering_radius, centers=net_directions(grid))
        assert grid.centers is None
        certificate = _certificate_arcs(spec, eps, V, DEFAULT_BUDGET)
        for run in (lambda n: checked(check_uniform_orchard(spec, eps, V, [0.0], net=n)),
                    lambda n: _net_check(spec, n, *certificate, 0.0, V),
                    lambda n: checked(check_uniform_orchard(spec, eps, V, [t0], net=n))):
            (fail_w, wit_w), (fail_g, wit_g) = (by_direction(len(grid), *run(n))
                                                for n in (grid, net))
            ties = set(np.setxor1d(fail_w, fail_g).tolist())
            ties |= {j for j in wit_w.keys() & wit_g.keys() if wit_w[j] != wit_g[j]}
            assert len(ties) <= 2
            assert abs(len(fail_w) - len(fail_g)) <= 2
            assert 0 < len(fail_w) < len(grid)  # some directions fail, some are hit
            assert len(wit_w) == len(wit_g)
            if not ties:
                assert np.array_equal(fail_w, fail_g)
                assert list(wit_w.values()) == list(wit_g.values())
