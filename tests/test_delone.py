import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_badness, liouville_like
from spiralvis import SequenceSpec, badness, delone, delone_report, point_batch
from spiralvis.delone import (_brute_min_distance, _probe_grid, covering_estimate,
                              min_pairwise_distance)

GOLDEN = (1 + math.sqrt(5)) / 2
# frozen oracle values: min_q q*||q*theta|| hits its smallest value at a small
# convergent (2 - phi at q=1; 6 - 4*sqrt(2) at q=2), below the liminf constants
BADNESS_PHI = 2.0 - GOLDEN
BADNESS_SQRT2M1 = 6.0 - 4.0 * math.sqrt(2)


def convergent(quotients) -> Fraction:
    """The rational [a0; a1, ..., ak]."""
    value = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        value = a + 1 / value
    return value


# exact convergents far past every Q below: [1; 1 x 60] = F(62)/F(61) for phi
# and the Pell ratio [0; 2 x 33] for sqrt(2) - 1, denominators above 1e12
PHI_CONVERGENT = convergent([1] * 61)
SQRT2M1_CONVERGENT = convergent([0] + [2] * 33)

GOLDEN_T30_PACKING = 1.601950235208494
GOLDEN_T30_COVERING = 1.6244147739035049


def test_badness_phi_frozen():
    got = badness(PHI_CONVERGENT, 10**6)
    assert got == pytest.approx(BADNESS_PHI, abs=1e-9)


def test_badness_phi_tail_extremality():
    # the liminf constant 1/sqrt(5) emerges once small denominators are excluded
    from spiralvis.sequences import fractional_multiples
    q = np.arange(100, 10**6 + 1, dtype=np.int64)
    fr = fractional_multiples(GOLDEN, q)
    tail = (q * np.minimum(fr, 1.0 - fr)).min()
    assert tail >= 1 / math.sqrt(5) - 1e-4


def test_badness_rational_hits_zero():
    assert badness(0.5, 2) == 0.0
    assert badness(0.5, 1) == pytest.approx(0.5)
    assert badness(Fraction(3, 7), 100) == 0.0


def test_badness_sqrt2_minus_one():
    got = badness(SQRT2M1_CONVERGENT, 10**4)
    assert got == pytest.approx(BADNESS_SQRT2M1, abs=1e-9)


def test_badness_nonincreasing_in_Q():
    vals = [badness(PHI_CONVERGENT, Q) for Q in (1, 10, 100, 10**4, 10**6)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_badness_agrees_with_brute_scan():
    rng = np.random.default_rng(0)
    for theta in rng.uniform(0.02, 0.98, 12):
        cf = badness(float(theta), 3000)
        brute = brute_badness(float(theta), 3000)
        assert cf == pytest.approx(brute, abs=1e-6)


def test_badness_validates_Q():
    with pytest.raises(ValueError):
        badness(0.5, 0)


def packing_oracle(coords):
    """All-pairs minimum distance between distinct indices."""
    diffs = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return float(dist.min(initial=math.inf))


def test_min_pairwise_matches_exhaustive(golden):
    ns = np.arange(1, 2001, dtype=np.int64)
    _, coords = point_batch(golden, ns)
    assert min_pairwise_distance(coords) == packing_oracle(coords)


def test_golden_delone_baselines(golden):
    rep = delone_report(golden, 30.0, 0.5)
    assert rep.n_points == 900
    assert rep.packing == pytest.approx(GOLDEN_T30_PACKING, abs=1e-9)
    assert rep.covering == pytest.approx(GOLDEN_T30_COVERING, abs=1e-9)
    assert rep.packing > 0.5  # uniformly discrete at this scale
    assert rep.covering < 4.0  # relatively dense at this scale


def test_liouville_ladder_packing_collapses():
    theta = float(liouville_like(3))
    spec = SequenceSpec("golden-angle", theta=theta)
    near = delone_report(spec, 10.0, 2.0).packing
    far = delone_report(spec, 300.0, 50.0).packing
    assert far < 0.55 * near


def test_single_annulus_covering_is_about_T():
    rng = np.random.default_rng(1)
    angles = rng.uniform(0, 2 * math.pi, 500)
    T = 20.0
    coords = T * np.column_stack([np.cos(angles), np.sin(angles)])
    got = covering_estimate(coords, T, 0.5)
    assert got == pytest.approx(T, rel=0.05)  # the hole at the origin dominates


def test_delone_report_validates_args(golden):
    with pytest.raises(ValueError):
        delone_report(golden, 0.5, 0.1)
    with pytest.raises(ValueError):
        delone_report(golden, 10.0, 0.0)
    # the mesh-10 grid on [-2, 2]^2 is the one point (-2, -2), outside B(0, 2):
    # the covering once read 0.0 from no probe
    with pytest.raises(ValueError, match=r"has no point in B\(0, 2.0\)"):
        delone_report(golden, 2.0, 10.0)


@pytest.mark.parametrize("T, res", [(math.inf, 0.5), (math.nan, 0.5), (-math.inf, 0.5),
                                    (10.0, math.nan), (10.0, math.inf)])
def test_delone_report_rejects_non_finite(golden, T, res):
    with pytest.raises(ValueError, match="finite"):
        delone_report(golden, T, res)


@pytest.mark.parametrize("T, res, dim", [(30.0, 0.5, 2), (7.3, 0.37, 2), (5.0, 0.5, 3),
                                         (4.1, 0.29, 3)])
def test_probe_grid_is_the_masked_meshgrid(T, res, dim):
    axis = np.arange(-T, T + res / 2, res)
    pts = np.column_stack([g.ravel() for g in np.meshgrid(*([axis] * dim), indexing="ij")])
    assert np.array_equal(_probe_grid(T, res, dim), pts[np.linalg.norm(pts, axis=1) <= T])


def covering_oracle(coords, T, resolution):
    """All-pairs probes x points scan: every probe against every point."""
    probes = _probe_grid(T, resolution, coords.shape[1])
    covering = 0.0
    for pchunk in np.array_split(probes, max(1, len(probes) // 2048)):
        dmin = np.full(len(pchunk), math.inf)
        for cchunk in np.array_split(coords, max(1, len(coords) // 4096)):
            diff = pchunk[:, None, :] - cchunk[None, :, :]
            np.minimum(dmin, np.sqrt((diff * diff).sum(axis=2)).min(axis=1), out=dmin)
        covering = max(covering, float(dmin.max()))
    return covering


@st.composite
def clouds(draw):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 300))
    T = draw(st.floats(1.5, 8.0))
    res = draw(st.floats(0.3, 1.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["uniform", "shell", "clusters"]))
    if shape == "uniform":
        coords = rng.uniform(-T, T, (n, dim))
    elif shape == "shell":  # empty centre
        v = rng.normal(size=(n, dim))
        coords = v / np.linalg.norm(v, axis=1, keepdims=True)
        coords *= T * rng.uniform(0.7, 1.0, (n, 1))
    else:  # tight clusters with far outliers
        centres = rng.uniform(-T, T, (draw(st.integers(1, 4)), dim))
        coords = centres[rng.integers(len(centres), size=n)]
        coords = coords + rng.normal(scale=0.02, size=(n, dim))
        far = rng.random(n) < 0.1
        coords[far] = rng.uniform(-30 * T, 30 * T, (int(far.sum()), dim))
    return coords, T, res


@settings(max_examples=150, deadline=None)
@given(clouds())
def test_covering_estimate_equals_all_pairs_oracle(cloud):
    coords, T, res = cloud
    assert covering_estimate(coords, T, res) == covering_oracle(coords, T, res)


def _count_fallback(monkeypatch):
    seen = []
    brute = delone._brute_min_distance

    def spy(probes, coords):
        seen.append(len(probes))
        return brute(probes, coords)

    monkeypatch.setattr(delone, "_brute_min_distance", spy)
    return seen


def test_covering_estimate_all_probes_fall_back(monkeypatch):
    # every point lies far outside B(0, T): no probe's block holds a point
    # within one cell side, so every probe is measured against every point
    rng = np.random.default_rng(5)
    T, res = 6.0, 0.5
    v = rng.normal(size=(40, 3))
    coords = 50 * T * v / np.linalg.norm(v, axis=1, keepdims=True)
    seen = _count_fallback(monkeypatch)
    got = covering_estimate(coords, T, res)
    assert seen == [len(_probe_grid(T, res, 3))]
    assert got == covering_oracle(coords, T, res)


def test_covering_estimate_golden_needs_no_fallback(monkeypatch, golden):
    ns = np.arange(1, 901, dtype=np.int64)
    _, coords = point_batch(golden, ns)
    seen = _count_fallback(monkeypatch)
    assert covering_estimate(coords, 30.0, 0.5) == GOLDEN_T30_COVERING
    assert seen == []


def test_min_pairwise_distance_widens_past_a_pair_two_cubes_apart():
    # an fcc lattice is sparser than the first cubes (two points per edge), and
    # the closest pair, P and Q, lies two cubes apart along x: the first pass
    # misses it, and no minimum it finds lies below the cube edge
    lattice = np.array([p for p in itertools.product(range(4), repeat=3) if sum(p) % 2 == 0]) / 3
    P, Q = np.array([0.38, 0.0, 1.0]), np.array([0.82, 0.0, 1.0])
    far = (np.linalg.norm(lattice - P, axis=1) > 0.45) & (np.linalg.norm(lattice - Q, axis=1) > 0.45)
    coords = np.vstack([lattice[far], P, Q])
    assert packing_oracle(coords) < packing_oracle(coords[:-1])  # P and Q are closest
    assert min_pairwise_distance(coords) == packing_oracle(coords)


@settings(max_examples=150, deadline=None)
@given(clouds(), st.data())
def test_min_pairwise_distance_equals_all_pairs_oracle(cloud, data):
    coords, _, _ = cloud
    copies = data.draw(st.lists(st.integers(0, len(coords) - 1), max_size=4))
    coords = np.vstack([coords, coords[copies]])  # exact duplicates are 0 apart
    assert min_pairwise_distance(coords) == packing_oracle(coords)


def test_small_pair_budget_keeps_both_radii_exact(monkeypatch):
    # the drawn clouds are too small to cut a run or split a gather at the
    # default budget; at 64 pairs, crowded cubes are cut and every call gathers
    # many times, and the shell's hole sends probes to the one-cube fallback
    monkeypatch.setattr(delone, "_PAIR_BUDGET", 64)
    seen = _count_fallback(monkeypatch)
    rng = np.random.default_rng(11)
    T, res = 4.0, 0.5
    v = rng.normal(size=(400, 3))
    shell = T * rng.uniform(0.7, 1.0, (400, 1)) * v / np.linalg.norm(v, axis=1, keepdims=True)
    crowd = rng.uniform(-0.3, 0.3, (300, 2))
    crowd[::7] = crowd[1::7][:len(crowd[::7])]  # exact duplicates
    for coords in (shell, crowd, rng.uniform(-T, T, (300, 3))):
        assert covering_estimate(coords, T, res) == covering_oracle(coords, T, res)
        assert min_pairwise_distance(coords) == packing_oracle(coords)
    assert seen and min(seen) > 0
    probes = _probe_grid(T, res, 3)
    for coords in (shell, shell[:100]):  # one run of 7 pieces, and of 2
        diff = probes[:, None, :] - coords[None, :, :]
        nearest = np.sqrt((diff * diff).sum(axis=2)).min(axis=1)
        assert np.array_equal(_brute_min_distance(probes, coords), nearest)
    # three clusters of 100 points, each inside one cube: runs cut mid-array
    points = np.repeat(rng.uniform(-2, 2, (3, 2)), 100, axis=0)
    points += rng.normal(scale=1e-3, size=points.shape)
    queries = points + rng.normal(scale=0.05, size=points.shape)
    diff = queries[:, None, :] - points[None, :, :]
    grid = delone._cell_grid(list(points.T), [-3.0, -3.0], 0.5, 12)
    assert np.array_equal(delone._nearest_sq(list(queries.T), grid),
                          (diff * diff).sum(axis=2).min(axis=1))
