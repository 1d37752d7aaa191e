import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mask_halfwidth
from spiralvis.geometry import radial_hit_halfwidth, ray_to_ray_distance, segment_distances


def test_segment_distances_basic():
    pts = np.array([[1.0, 1.0], [3.0, 0.0], [-1.0, 0.0], [0.5, 0.0]])
    d, t = segment_distances(pts, np.zeros(2), np.array([2.0, 0.0]))
    assert d == pytest.approx([1.0, 1.0, 1.0, 0.0])
    assert t == pytest.approx([1.0, 2.0, 0.0, 0.5])


def test_segment_degenerate():
    d, t = segment_distances(np.array([[3.0, 4.0]]), np.ones(2), np.ones(2))
    assert d[0] == pytest.approx(math.hypot(2.0, 3.0))
    assert t[0] == 0.0


def test_ray_to_ray_exact():
    # parallel offset rays
    d = ray_to_ray_distance(np.array([0.0, 2.0]), np.array([1.0, 0.0]),
                            np.array([1.0, 0.0]), s_min=1.0)
    assert d == pytest.approx(2.0)
    # rays pointing apart: closest at the corner (t=0, s=1)
    d = ray_to_ray_distance(np.array([0.0, 2.0]), np.array([0.0, 1.0]),
                            np.array([1.0, 0.0]), s_min=1.0)
    assert d == pytest.approx(math.sqrt(5.0))
    # brute-force cross check
    rng = np.random.default_rng(0)
    tg = np.linspace(0, 60, 6001)
    sg = np.linspace(1, 60, 6001)
    for _ in range(20):
        x = rng.uniform(-5, 5, 2)
        ang1, ang2 = rng.uniform(0, 2 * math.pi, 2)
        v = np.array([math.cos(ang1), math.sin(ang1)])
        u = np.array([math.cos(ang2), math.sin(ang2)])
        exact = ray_to_ray_distance(x, v, u, s_min=1.0)
        pts_v = x + tg[:, None] * v
        brute = min(np.linalg.norm(pts_v - s * u, axis=1).min() for s in sg[::50])
        assert exact <= brute + 1e-9


def brute_halfwidth(r, t_lo, t_hi, eps, samples=20001):
    """Largest offset whose rotated point still reaches the window (oracle)."""
    offsets = np.linspace(0.0, math.pi, samples)
    pts = r * np.column_stack([np.cos(offsets), np.sin(offsets)])
    d, _ = segment_distances(pts, np.array([t_lo, 0.0]), np.array([t_hi, 0.0]))
    hit = d <= eps
    if not hit.any():
        return -1.0
    return float(offsets[np.flatnonzero(hit)[-1]])


@pytest.mark.parametrize("r,t_lo,t_hi,eps", [
    (5.0, 0.0, 10.0, 0.5),      # interior crossing
    (12.0, 0.0, 10.0, 0.5),     # beyond the far end
    (10.4, 0.0, 10.0, 0.5),     # near the far cap
    (3.0, 5.0, 10.0, 0.5),      # short of the near end
    (4.8, 5.0, 10.0, 0.5),      # near cap, reachable
    (0.3, 0.0, 10.0, 0.5),      # inside the tube entirely
    (5.0, 5.2, 10.0, 0.3),      # radius just below the window
    (1.0, 0.0, 10.0, 0.999),    # wide tolerance
])
def test_radial_halfwidth_matches_brute(r, t_lo, t_hi, eps):
    got = radial_hit_halfwidth(np.array([r]), t_lo, t_hi, eps)[0]
    want = brute_halfwidth(r, t_lo, t_hi, eps)
    if want < 0:
        assert got < 0 or got == pytest.approx(0.0, abs=1e-3)
    else:
        assert got == pytest.approx(want, abs=2e-4)


def test_radial_halfwidth_miss_and_full():
    out = radial_hit_halfwidth(np.array([50.0, 0.2]), 0.0, 10.0, 0.5)
    assert out[0] == -1.0          # far outside
    assert out[1] == math.pi       # engulfed by the near cap
    with pytest.raises(ValueError):
        radial_hit_halfwidth(np.array([1.0]), 5.0, 2.0, 0.5)


def test_radial_halfwidth_randomized():
    rng = np.random.default_rng(1)
    for _ in range(150):
        t_lo = float(rng.uniform(0, 20))
        t_hi = t_lo + float(rng.uniform(0.1, 30))
        eps = float(rng.uniform(0.05, 1.0))
        r = float(rng.uniform(0.05, t_hi + 2))
        got = radial_hit_halfwidth(np.array([r]), t_lo, t_hi, eps)[0]
        want = brute_halfwidth(r, t_lo, t_hi, eps)
        if want < 0:
            assert got <= 1e-3
        else:
            assert got == pytest.approx(want, abs=2e-3)


def _formula_edges(t_lo, t_hi, eps):
    """The radii where the half-width changes formula, t_lo +- eps, t_hi +-
    eps, eps and hypot(t, eps), with their float neighbours."""
    edges = [t_lo - eps, t_lo + eps, t_hi - eps, t_hi + eps, eps,
             math.hypot(t_lo, eps), math.hypot(t_hi, eps)]
    near = [x for r in edges for x in (np.nextafter(r, -np.inf), r, np.nextafter(r, np.inf))]
    return np.array([x for x in near if x >= 0.0])


@settings(max_examples=300, deadline=None)
@given(t_lo=st.one_of(st.just(0.0), st.floats(0.0, 2000.0)),
       length=st.one_of(st.just(0.0), st.floats(0.0, 500.0)),
       eps=st.one_of(st.floats(1e-6, 0.99), st.floats(1.0, 50.0)),
       anchor=st.sampled_from(["t_lo", "t_hi", "eps"]),
       count=st.integers(0, 3000),
       extra=st.lists(st.floats(0.0, 3000.0), max_size=30),
       seed=st.integers(0, 2**32 - 1))
def test_radial_halfwidth_runs_match_masks(t_lo, length, eps, anchor, count, extra, seed):
    # bit for bit against the mask form: a sorted block of sqrt(n) about
    # t_lo, t_hi or eps, and the formula edges with random radii, sorted and
    # shuffled; t_lo = 0 and t_lo = t_hi included
    t_hi = t_lo + length
    at = {"t_lo": t_lo, "t_hi": t_hi, "eps": eps}[anchor]
    n_lo = max(1, int(at * at) - count // 2)
    block = np.sqrt(np.arange(n_lo, n_lo + count, dtype=np.int64))
    mixed = np.concatenate([_formula_edges(t_lo, t_hi, eps), extra, block[::97]])
    shuffled = np.random.default_rng(seed).permutation(mixed)
    for r in (block, np.sort(mixed), shuffled, shuffled.reshape(1, -1)):
        got, want = radial_hit_halfwidth(r, t_lo, t_hi, eps), mask_halfwidth(r, t_lo, t_hi, eps)
        assert got.shape == r.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
