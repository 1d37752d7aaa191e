import math

import numpy as np
import pytest

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
