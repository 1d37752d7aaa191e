"""The forest scan's segment query against brute force over every stored
point: a hit is the smallest index within eps, a miss means no stored point
comes within eps."""

import numpy as np
import pytest

from spiralvis import point_batch
from spiralvis.geometry import segment_distances
from spiralvis.visibility import _line_min_distance


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
