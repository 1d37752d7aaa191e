"""The forest scan's segment query against brute force over every stored
point: a hit is the smallest index within eps, a miss means no stored point
comes within eps. On the rational ladder, whose candidates come in closed
form, the segment query is also pinned exactly. The visible-ray verdict, the
first index below eps_floor else the minimum over the budget, is pinned
exactly on the ladder and the golden angle."""

import math

import numpy as np
import pytest

from spiralvis import annulus_index_range, point_batch
from spiralvis.geometry import segment_distances
from spiralvis.sphere import unit_vector
from spiralvis.spirals import CHUNK
from spiralvis.visibility import (
    HitWitness,
    _line_min_distance,
    _segment_candidates,
    segment_norm_range,
    visible_point_test,
)


def _assert_first_witness_matches_brute(spec, ns, coords, a, b, eps):
    (got_dist, got_n, got_t), hit = _line_min_distance(spec, a, b, eps, len(ns))
    dist, t = segment_distances(coords, a, b)
    want = np.flatnonzero(dist <= eps)
    assert hit == bool(len(want))
    if hit:
        j = int(want[0])
        assert got_n == int(ns[j])
        assert got_dist == pytest.approx(float(dist[j]), abs=1e-12)
        assert got_t == pytest.approx(float(t[j]), abs=1e-12)


def test_within_segment_matches_brute(golden):
    ns = np.arange(1, 10**5 + 1, dtype=np.int64)
    _, coords = point_batch(golden, ns)
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.uniform(-300, 300, 2)
        b = a + rng.uniform(-50, 50, 2)
        eps = rng.uniform(0.05, 2.0)
        _assert_first_witness_matches_brute(golden, ns, coords, a, b, eps)


def test_d2_index_matches_brute(fib_sphere):
    ns = np.arange(1, 5001, dtype=np.int64)
    _, coords = point_batch(fib_sphere, ns)
    rng = np.random.default_rng(9)
    for _ in range(40):
        a = rng.uniform(-15, 15, 3)
        b = a + rng.uniform(-8, 8, 3)
        eps = rng.uniform(0.1, 1.5)
        _assert_first_witness_matches_brute(fib_sphere, ns, coords, a, b, eps)


# -- rational ladder: closed-form candidates --------------------------------


def test_ladder_segments_match_brute(ladder):
    """Hits are the smallest index within eps; misses report the minimum over
    the candidate annulus exactly, as a pass over every stored point does."""
    ns = np.arange(1, 420**2 + 1, dtype=np.int64)
    _, coords = point_batch(ladder, ns)
    rng = np.random.default_rng(17)
    outcomes = []
    for i in range(200):
        eps = rng.uniform(0.05, 1.0)
        if i % 4 == 0:  # inside the vacant strip 0 < y < 2
            y = rng.uniform(0.1, 1.9)
            a = np.array([rng.uniform(-250, 250), y])
            b = np.array([a[0] + rng.choice([-1, 1]) * rng.uniform(5, 150), y])
        elif i % 4 == 1:  # across the strip
            a = np.array([rng.uniform(-250, 250), rng.uniform(-6, 0)])
            b = a + np.array([rng.uniform(-20, 20), rng.uniform(2, 8)])
        else:
            a = rng.uniform(-250, 250, 2)
            b = a + rng.uniform(-30, 30, 2)
        near, far = segment_norm_range(a, b)
        n_lo, n_hi = annulus_index_range(max(0.0, near - eps), far + eps, 1)
        assert n_hi <= len(ns)
        dist, t = segment_distances(coords, a, b)
        inside = (ns >= n_lo) & (ns <= n_hi)
        assert not np.any(dist[~inside] <= eps)
        (got_dist, got_n, got_t), hit = _line_min_distance(ladder, a, b, eps, len(ns))
        want = np.flatnonzero(dist <= eps)
        assert hit == bool(len(want))
        j = int(want[0]) if hit else n_lo - 1 + int(np.argmin(dist[inside]))
        assert (got_n, got_dist, got_t) == (int(ns[j]), float(dist[j]), float(t[j]))
        outcomes.append(hit)
    assert 20 <= sum(outcomes) <= 180  # both hits and misses are exercised


def test_ladder_candidates_cover_every_point_within_reach(ladder):
    """The closed-form source yields, in index order and in blocks of at most
    CHUNK, the stored coordinates of every index within reach, for reaches
    from well below to well above the shell spacing."""
    ns = np.arange(1, 300**2 + 1, dtype=np.int64)
    _, coords = point_batch(ladder, ns)
    rng = np.random.default_rng(29)
    for _ in range(100):
        a = rng.uniform(-200, 200, 2)
        b = a + rng.uniform(-40, 40, 2)
        reach = math.exp(rng.uniform(math.log(0.05), math.log(60.0)))
        n_lo, n_hi = sorted(int(n) for n in rng.integers(1, len(ns) + 1, 2))
        blocks = list(_segment_candidates(ladder, a, b, reach, n_lo, n_hi))
        got = np.concatenate([blk[0] for blk in blocks]) if blocks else ns[:0]
        assert all(0 < len(blk[0]) <= CHUNK for blk in blocks)
        assert np.all(np.diff(got) > 0) and np.all((got >= n_lo) & (got <= n_hi))
        for blk_ns, _, blk_coords in blocks:
            assert np.array_equal(blk_coords, coords[blk_ns - 1])
        dist, _ = segment_distances(coords[n_lo - 1:n_hi], a, b)
        within = ns[n_lo - 1:n_hi][dist <= reach]
        assert np.all(np.isin(within, got))
        if reach <= 1.0:
            assert len(got) <= max(1000, (n_hi - n_lo + 1) // 20)


def _brute_ray(spec, x, v, eps_floor, T_max, budget):
    """The ray verdict from point_batch over [1, budget] in index order, x
    left out: the first index below eps_floor, else the minimum, smallest
    index on ties. It stops once a radius exceeds the segment's far end plus
    the best distance so far, since no later point can come nearer."""
    b = x + T_max * v
    far = segment_norm_range(x, b)[1]
    best = (math.inf, -1, math.nan)
    for lo in range(1, budget + 1, CHUNK):
        ns = np.arange(lo, min(budget, lo + CHUNK - 1) + 1, dtype=np.int64)
        radii, coords = point_batch(spec, ns)
        dist, t = segment_distances(coords, x, b)
        dist[np.linalg.norm(coords - x, axis=1) <= 1e-12] = math.inf
        below = np.flatnonzero(dist < eps_floor)
        if len(below):
            j = int(below[0])
            return float(dist[j]), int(ns[j]), float(t[j])
        j = int(np.argmin(dist))
        if dist[j] < best[0]:
            best = (float(dist[j]), int(ns[j]), float(t[j]))
        if radii[-1] > far + best[0]:
            break
    return best


def _assert_ray_matches_brute(spec, x, v, eps_floor, T_max, budget=10**7):
    v = unit_vector(np.asarray(v, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    got = visible_point_test(spec, x, v[None, :], eps_floor, T_max,
                             index_budget=budget)[0]
    dist, n, t = _brute_ray(spec, x, v, eps_floor, T_max, budget)
    assert got.min_distance == dist
    assert got.witness == (None if n < 0 else HitWitness(n, t, dist))
    return got


def test_ladder_rays_match_brute(ladder):
    x = (0.0, 1.0)
    # first hit n=524287, in the second 2^18-point block
    got = _assert_ray_matches_brute(ladder, x, (-1, 0.001), 0.5, 2000.0)
    assert got.witness.n == 524287
    # the budget clips below that hit: the minimum over [1, budget]
    got = _assert_ray_matches_brute(ladder, x, (-1, 0.001), 0.5, 2000.0,
                                    budget=400_000)
    assert got.visible_at_scale and got.witness.n <= 400_000
    # outside the budget's disk of radius 100: the reach doubles to about 30
    got = _assert_ray_matches_brute(ladder, (130.0, 0.0), (0, 1), 0.5, 50.0,
                                    budget=10**4)
    assert got.min_distance > 20.0
    got = _assert_ray_matches_brute(ladder, x, (1, 0.0015), 0.5, 2000.0)
    assert got.witness.n > 3 * 10**6
    got = _assert_ray_matches_brute(ladder, x, (1, 0.001), 0.5, 2000.0)
    assert got.visible_at_scale and got.min_distance == pytest.approx(1.0009995, abs=1e-7)
    got = _assert_ray_matches_brute(ladder, x, (1, 0), 0.5, 1000.0)
    assert (got.min_distance, got.witness.n) == (1.0, 1)
    _assert_ray_matches_brute(ladder, x, (1, 0), 0.5, 300.0)
    rng = np.random.default_rng(23)
    for _ in range(12):
        origin = rng.uniform(-40, 40, 2)
        ang = rng.uniform(0, 2 * math.pi)
        _assert_ray_matches_brute(ladder, origin, (math.cos(ang), math.sin(ang)),
                                  rng.uniform(0.05, 1.5), rng.uniform(20, 400))
    # a ray from a spiral point does not report that point
    p = point_batch(ladder, np.array([40]))[1][0]
    got = _assert_ray_matches_brute(ladder, p, (0.6, 0.8), 0.3, 100.0)
    assert got.witness.n != 40


def test_golden_rays_match_brute(golden):
    rng = np.random.default_rng(31)
    hits = 0
    for _ in range(16):
        origin = rng.uniform(-40, 40, 2)
        ang = rng.uniform(0, 2 * math.pi)
        eps_floor = math.exp(rng.uniform(math.log(0.001), math.log(0.3)))
        got = _assert_ray_matches_brute(golden, origin, (math.cos(ang), math.sin(ang)),
                                        eps_floor, rng.uniform(1, 100))
        hits += not got.visible_at_scale
    assert 4 <= hits <= 12  # both hits and misses are exercised
    # a miss whose nearest point, n=2000, lies 0.02 behind the ray's start:
    # outside the annulus of radii within eps_floor of the segment
    r, p = point_batch(golden, np.array([2000]))
    u = p[0] / r[0]
    got = _assert_ray_matches_brute(golden, p[0] + 0.02 * u, u, 0.01, 1.0)
    assert got.visible_at_scale and got.witness.n == 2000
    assert got.min_distance == pytest.approx(0.02, abs=1e-12)
