"""Acceptance suite: one check per shipped guarantee, each printing a
PASS/FAIL line, every tolerance pinned here.
"""

import functools
import math
import time

import numpy as np
import pytest

from spiralvis import (
    SequenceSpec,
    LineParam,
    annulus_index_range,
    check_dense_forest,
    check_orchard,
    check_uniform_orchard,
    covering_radius,
    estimate_min_visibility,
    point_batch,
    uniform_orchard_criterion,
    visible_point_test,
)
from oracles import calibrate_proximity_sandwich, growth_along_h, verify_proximity_sandwich
from spiralvis.cli import main as cli_main
from spiralvis.covering import _net_covering_radius
from spiralvis.geometry import segment_distances
from spiralvis.sequences import triangular_decompose
from spiralvis.spirals import iter_point_chunks
from spiralvis.visibility import _first_hit

BUDGET = 10**7

# frozen during development (see the derivations in the regular test modules)
STRIP_MIN_ORDINATE = 2.223010671154048   # exhaustive scan over n <= 1e6
GOLDEN_UNIFORM_C = 5.0                   # calibrated visibility V = C/eps
CRITERION_SUP_GOLDEN = 5.410113735636091  # default-grid sup, V(eps)=1/eps


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            try:
                fn(*args, **kw)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def golden():
    return SequenceSpec("golden-angle")


@pytest.fixture(scope="module")
def ladder():
    return SequenceSpec("rational-ladder")


@pytest.fixture(scope="module")
def constant_seq():
    return SequenceSpec("constant", d=1, v=np.array([1.0, 0.0]))


@criterion("1 ladder-orchard-bound")
def test_criterion_1(ladder):
    elapsed = 0.0
    for eps in (0.2, 0.1, 0.05, 0.02):
        V = 4 * math.pi / eps
        start = time.perf_counter()
        report = check_orchard(ladder, eps, V, index_budget=BUDGET)
        elapsed += time.perf_counter() - start
        assert report.net["delta"] <= eps / (4 * V)
        assert report.pass_fraction == 1.0
    assert elapsed < 60.0


@criterion("2 ladder-vacant-strip")
def test_criterion_2(ladder):
    best = math.inf
    for ns, radii, _ in iter_point_chunks(ladder, 1, 10**6):
        k, p = triangular_decompose(ns)
        keep = (p > 0) & (2 * p < k)  # exactly the points with y > 0
        y = radii[keep] * np.sin(2 * np.pi * p[keep] / k[keep])
        if len(y):
            best = min(best, float(y.min()))
    assert best == pytest.approx(STRIP_MIN_ORDINATE, abs=1e-9)
    assert best >= 2.0
    # consequence: the line y=1 in direction (1,0) defeats the forest check
    v, w = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    for t0, t1 in ((10.0, 210.0), (400.0, 600.0), (800.0, 1000.0)):
        line = LineParam(lam=1.0, v=v, w=w, t0=t0, t1=t1)
        report = check_dense_forest(ladder, 0.5, t1 - t0, [line],
                                    index_budget=BUDGET)
        assert not report.passed
        assert report.failures[0]["min_distance"] >= 1.0 - 1e-9


@criterion("3 visibility-lower-bound-law")
def test_criterion_3(golden):
    curve = estimate_min_visibility(golden, "uniform",
                                    [0.2, 0.1, 0.05, 0.025],
                                    t0_list=(0.0, 100.0, 1000.0),
                                    index_budget=BUDGET)
    assert all(e.status == "ok" for e in curve.entries)
    assert -1.2 <= curve.slope <= -0.8
    products = [e.V * e.eps for e in curve.entries]
    assert max(products) / min(products) <= 10.0


@criterion("4 golden-uniform-orchard")
def test_criterion_4(golden):
    for eps in (0.1, 0.05):
        report = check_uniform_orchard(
            golden, eps, GOLDEN_UNIFORM_C / eps, [0.0, 100.0, 1000.0],
            index_budget=BUDGET)
        assert report.passed


@criterion("5 hidden-points-implication")
def test_criterion_5(golden, constant_seq):
    eps = 0.1
    V_half = GOLDEN_UNIFORM_C / 0.05
    T_max = 4 * V_half * 10
    # the perturbation bound |v - v'| = eps/(4 pi V(eps/2)) certifies rays
    # from origins within (T_max - V) * eps / (4 pi V) of the origin
    x_radius = (T_max - V_half) * eps / (4 * math.pi * V_half)
    rng = np.random.default_rng(42)
    for _ in range(100):
        a1, a2 = rng.uniform(0, 2 * math.pi, 2)
        x = rng.uniform(0, x_radius) * np.array([math.cos(a1), math.sin(a1)])
        v = np.array([math.cos(a2), math.sin(a2)])
        verdict = visible_point_test(golden, x, v[None, :], eps_floor=2 * eps,
                                     T_max=T_max, index_budget=BUDGET)[0]
        assert verdict.min_distance < 2 * eps
    # negative control fails the other criteria and has a certified witness
    assert not check_orchard(constant_seq, 0.1, 40.0).passed
    assert not check_uniform_orchard(constant_seq, 0.1, 40.0, [0.0, 100.0]).passed
    # sqrt(4500) - eps caps the bound near 66 (the default budget: near 3162)
    diverged = estimate_min_visibility(constant_seq, "uniform", [0.1],
                                       index_budget=4500)
    assert diverged.entries[0].status == "diverged"
    growth = growth_along_h(uniform_orchard_criterion(constant_seq, lambda e: 1.0 / e))
    assert all(r >= 1.5 for rs in growth.values() for r in rs)
    verdict = visible_point_test(constant_seq, np.array([0.0, 2.0]),
                                 np.array([[0.0, 1.0]]), eps_floor=0.1,
                                 T_max=1e3)[0]
    assert verdict.visible_at_scale and verdict.certified


def _assert_scan_matches_brute(spec, coords, a, b, eps):
    """The production forest scan against a brute-force pass over every index
    of the closed-form candidate annulus, widened by 1 in radius to show that
    no point outside the annulus comes within eps."""
    foot = np.clip(-(a @ (b - a)) / ((b - a) @ (b - a)), 0.0, 1.0)
    r_lo = float(np.linalg.norm(a + foot * (b - a)))
    r_hi = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    n_lo, n_hi = annulus_index_range(max(0.0, r_lo - eps), r_hi + eps, spec.d)
    w_lo, w_hi = annulus_index_range(max(0.0, r_lo - eps - 1.0), r_hi + eps + 1.0,
                                     spec.d)
    assert w_hi <= len(coords)
    ns = np.arange(w_lo, w_hi + 1)
    dist, t = segment_distances(coords[w_lo - 1:w_hi], a, b)
    inside = (ns >= n_lo) & (ns <= n_hi)
    assert not np.any(dist[~inside] <= eps)
    (got_dist, got_n, got_t), hit = _first_hit(spec, a, b, eps, n_lo, min(n_hi, BUDGET), None)
    brute_min = float(dist[inside].min()) if inside.any() else math.inf
    assert hit == (brute_min <= eps)
    if hit:
        j = int(np.flatnonzero(inside & (dist <= eps))[0])
        assert got_n == ns[j]
        assert got_t == pytest.approx(float(t[j]), abs=1e-12)
        assert got_dist == pytest.approx(float(dist[j]), abs=1e-12)
    else:
        assert got_dist == pytest.approx(brute_min, abs=1e-12)


@criterion("6 oracle-equivalence")
def test_criterion_6(golden, ladder, fib_sphere):
    _, coords = point_batch(golden, np.arange(1, 512**2 + 1, dtype=np.int64))
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = rng.uniform(-300, 300, 2)
        b = a + rng.uniform(-50, 50, 2)
        eps = rng.uniform(0.05, 2.0)
        _assert_scan_matches_brute(golden, coords, a, b, eps)
    for _ in range(1000):
        angles = rng.uniform(0, 2 * math.pi, rng.integers(2, 40))
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        exact = covering_radius(pts, d=1)
        assert abs(_net_covering_radius(pts, 1, 0.05) - exact) <= 0.05
    _, coords = point_batch(fib_sphere, np.arange(1, 44**3 + 1, dtype=np.int64))
    rng = np.random.default_rng(9)
    for _ in range(40):
        a = rng.uniform(-15, 15, 3)
        b = a + rng.uniform(-8, 8, 3)
        eps = rng.uniform(0.1, 1.5)
        rng.uniform(-10, 10, 3), rng.uniform(0.2, 3.0)  # unused draws fix the segment stream
        _assert_scan_matches_brute(fib_sphere, coords, a, b, eps)
    # misses inside the ladder's vacant strip scan several chunks
    _, coords = point_batch(ladder, np.arange(1, 800**2 + 1, dtype=np.int64))
    for a, b in (((10.0, 1.0), (610.0, 1.0)), ((-700.0, 1.5), (700.0, 1.5))):
        _assert_scan_matches_brute(ladder, coords, np.array(a), np.array(b), 0.5)


@criterion("7 covering-criterion-consistency")
def test_criterion_7(golden, constant_seq):
    table = uniform_orchard_criterion(golden, lambda e: 1.0 / e)
    assert table.sup == pytest.approx(CRITERION_SUP_GOLDEN, rel=1e-9)
    assert table.sup < 8.0  # bounded on the default grid
    const_table = uniform_orchard_criterion(constant_seq, lambda e: 1.0 / e)
    for ratios in growth_along_h(const_table).values():
        assert ratios and all(r >= 1.5 for r in ratios)
    # matches the pass/fail outcomes of the direct check on the same specs
    eps = 0.1
    assert check_uniform_orchard(golden, eps, GOLDEN_UNIFORM_C / eps,
                                 [0.0, 100.0, 1000.0]).passed
    assert not check_uniform_orchard(constant_seq, eps, GOLDEN_UNIFORM_C / eps,
                                     [0.0, 100.0, 1000.0]).passed


@criterion("8 split-check-sandwich")
def test_criterion_8(golden):
    c, cp, samples = calibrate_proximity_sandwich(golden, 10**4, seed=0)
    assert samples == 10**4
    assert verify_proximity_sandwich(golden, c, cp, 10**4, seed=0) == 0
    assert verify_proximity_sandwich(golden, c, cp, 10**4, seed=1) == 0


@criterion("9 determinism")
def test_criterion_9(tmp_path, capsys):
    argv = ["orchard", "--seq", "rational-ladder", "--eps", "0.1",
            "--V", "125.7", "--seed", "11"]
    assert cli_main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second and first
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out_a, out_b):
        assert cli_main(["generate", "--n", "2000", "--seed", "5",
                         "--out", str(out)]) == 0
        capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
