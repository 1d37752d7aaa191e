"""The forest scan's segment query against brute force over every stored
point: a hit is the smallest index within eps, a miss means no stored point
comes within eps. On the rational ladder and the golden angle, whose
candidates come in closed form, the candidate sources are pinned against
every stored point, and the ladder's segment query exactly. The batched
forest check equals its window-by-window query. The visible-ray verdict, the
first index below eps_floor else the minimum over the budget, is pinned
exactly on the ladder and the golden angle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import save_sequence_file, triangular_isqrt

from spiralvis import (
    GOLDEN_RATIO,
    LineParam,
    SequenceSpec,
    annulus_index_range,
    check_dense_forest,
    point_batch,
)
from spiralvis.geometry import segment_distances
from spiralvis.sequences import rotation_convergents
from spiralvis.sphere import unit_vector
from spiralvis.spirals import CHUNK, iter_point_chunks
from spiralvis import visibility
from spiralvis.cli import main
from spiralvis.visibility import (
    HitWitness,
    RefusedSegmentError,
    _closer,
    _first_hit,
    _segment_candidates,
    random_lines,
    segment_norm_range,
    visible_point_test,
)


def _window_range(spec, a, b, eps, budget):
    """The indices the forest check reads for the window [a, b]: its annulus
    widened by eps, up to the budget."""
    near, far = segment_norm_range(a, b)
    n_lo, n_hi = annulus_index_range(max(0.0, near - eps), far + eps, spec.d)
    return n_lo, min(n_hi, budget)


def _assert_first_witness_matches_brute(spec, ns, coords, a, b, eps):
    (got_dist, got_n, got_t), hit = _first_hit(
        spec, a, b, eps, *_window_range(spec, a, b, eps, len(ns)), None)
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
        (got_dist, got_n, got_t), hit = _first_hit(ladder, a, b, eps, n_lo, n_hi, None)
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
        got = _assert_candidates_cover(ladder, a, b, reach, n_lo, n_hi, ns, coords)
        if reach <= 1.0:
            assert len(got) <= max(1000, (n_hi - n_lo + 1) // 20)


def _assert_candidates_cover(spec, a, b, reach, n_lo, n_hi, ns, coords):
    """``_segment_candidates`` yields, in index order and in blocks of at
    most CHUNK, the stored coordinates of every index of [n_lo, n_hi] within
    reach of [a, b], ``ns`` and ``coords`` being the stored points from 1
    on; returns the candidates."""
    blocks = list(_segment_candidates(spec, a, b, reach, n_lo, n_hi))
    got = np.concatenate([blk[0] for blk in blocks]) if blocks else ns[:0]
    assert all(0 < len(blk[0]) <= CHUNK for blk in blocks)
    assert np.all(np.diff(got) > 0) and np.all((got >= n_lo) & (got <= n_hi))
    for blk_ns, _, blk_coords in blocks:
        assert np.array_equal(blk_coords, coords[blk_ns - 1])
    dist, _ = segment_distances(coords[n_lo - 1:n_hi], a, b)
    within = ns[n_lo - 1:n_hi][dist <= reach]
    assert np.all(np.isin(within, got))
    return got


GOLDEN_SIDE = 300  # the golden property test stores indices up to 300^2
COORD = st.floats(-200.0, 200.0)
STEP = st.floats(-40.0, 40.0)


@settings(max_examples=120, deadline=None)
@given(theta=st.sampled_from([GOLDEN_RATIO, math.sqrt(2.0), 0.123456789, 1.0, 1e-4])
       | st.floats(2.0**-12, 8.0),
       a=st.tuples(COORD, COORD), step=st.tuples(STEP, STEP),
       reach=st.floats(math.log(0.01), math.log(60.0)).map(math.exp),
       shell=st.integers(1, GOLDEN_SIDE - 1), data=st.data())
@example(theta=GOLDEN_RATIO, a=(-120.0, 35.0), step=(30.0, 25.0), reach=0.05, shell=90,
         data=None)
def test_golden_candidates_cover_every_point_within_reach(theta, a, step, reach, shell,
                                                          data):
    """The golden source, closed form when {theta} * 2^64 is an integer
    (1e-4 is below 2^-12 and reads its annulus whole; theta = 1 puts every
    point at angle 0, so its shells of over 64 indices are read whole), over
    ranges that start anywhere in a shell [s^2, s^2 + 2s]. On phi and
    sqrt(2), whose partial quotients are small, it stays as small as the
    ladder's."""
    spec = SequenceSpec("golden-angle", theta=theta)
    ns = np.arange(1, GOLDEN_SIDE**2 + 1, dtype=np.int64)
    _, coords = point_batch(spec, ns)
    a = np.array(a)
    b = a + np.array(step)
    n_lo = shell * shell + (data.draw(st.integers(0, 2 * shell)) if data else shell)
    n_hi = data.draw(st.integers(n_lo, len(ns))) if data else len(ns)
    got = _assert_candidates_cover(spec, a, b, reach, n_lo, n_hi, ns, coords)
    if reach <= 1.0 and theta in (GOLDEN_RATIO, math.sqrt(2.0)):
        assert len(got) <= max(1000, (n_hi - n_lo + 1) // 20)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["golden-angle", "rational-ladder"]),
       a=st.tuples(COORD, COORD), scale=st.sampled_from([1.0, 2.0**-500, 2.0**-1000, 0.0]),
       length=st.integers(-1074, -40).map(lambda e: 2.0**e),
       angle=st.floats(0.0, 2.0 * math.pi),
       reach=st.floats(math.log(0.05), math.log(5.0)).map(math.exp))
@example(kind="golden-angle", a=(1.0, 0.0), scale=1.0, length=1e-160, angle=math.pi / 2,
         reach=0.5)
def test_candidates_cover_segments_of_subnormal_length(kind, a, scale, length, angle, reach):
    """Segments far shorter than the float resolution of their radii, down
    to subnormal lengths and squared lengths, near the origin and away from
    it: the closed-form sources still yield every index within reach, and
    no division by the length overflows."""
    spec = SequenceSpec(kind)
    ns = np.arange(1, GOLDEN_SIDE**2 + 1, dtype=np.int64)
    _, coords = point_batch(spec, ns)
    a = np.array(a) * scale
    b = a + length * np.array([math.cos(angle), math.sin(angle)])
    _assert_candidates_cover(spec, a, b, reach, 1, len(ns), ns, coords)


@settings(max_examples=200, deadline=None)
@given(theta=st.sampled_from([GOLDEN_RATIO, math.sqrt(2.0), 0.123456789, 0.11])
       | st.floats(2.0**-12, 1e6), m=st.integers(1, 10**12), b=st.integers(0, 2**62),
       j=st.floats(0.0, 1.0))
def test_convergent_turns_stay_within_one_step(theta, m, b, j):
    """What the golden source relies on: for q the largest convergent
    denominator at most m, index b + j, 0 <= j < q, sits within 1/q of turn
    {b x} + (j p mod q)/q, x = {theta}, on the circle."""
    qs, ps, inverses = rotation_convergents(theta)
    at = int(np.searchsorted(qs, m, side="right")) - 1
    q, p, inverse = int(qs[at]), int(ps[at]), int(inverses[at])
    assert q == 1 or p * inverse % q == 1
    j = min(q - 1, int(j * q))
    x = Fraction(theta) % 1
    off = ((b + j) * x - b * x - Fraction(j * p % q, q)) % 1
    assert min(off, 1 - off) < Fraction(1, q)


def _forest_by_windows(spec, eps, lines, budget):
    """The forest check's failures, witnesses and hit count, window by
    window through ``_first_hit``."""
    ends = [(line.point(line.t0), line.point(line.t1)) for line in lines]
    got = [_first_hit(spec, a, b, eps, *_window_range(spec, a, b, eps, budget), None)
           for a, b in ends]
    failures = [{"line": i, "min_distance": dist}
                for i, ((dist, _, _), hit) in enumerate(got) if not hit]
    witnesses = [HitWitness(n, line.t0 + t, dist)
                 for line, ((dist, n, t), hit) in zip(lines, got) if hit][:100]
    return failures, witnesses, sum(hit for _, hit in got)


@pytest.mark.parametrize("threads", ["1", "3"])
def test_batched_forest_matches_window_by_window(tmp_path, monkeypatch, threads, golden,
                                                 ladder, constant_seq):
    """One pass over every window's candidates reports exactly what the
    window-by-window query does, misses with their exact minima, on each
    kind: closed-form candidates (golden angle, sqrt(2), ladder) and whole
    annuli (constant, file), whether the windows share one pass or are
    dealt out to three groups, one per thread. Windows through the origin
    are included."""
    monkeypatch.setenv("SPIRAL_THREADS", threads)
    path = tmp_path / "directions.txt"
    save_sequence_file(path, np.random.default_rng(3).normal(size=(30_000, 2)))
    cases = [  # (spec, eps, V, lam_max, budget)
        (golden, 0.1, 44.0, 100.0, 10**7),
        (SequenceSpec("golden-angle", theta=math.sqrt(2.0)), 0.03, 44.0, 100.0, 10**7),
        (ladder, 0.3, 30.0, 60.0, 10**7),
        (constant_seq, 0.2, 20.0, 20.0, 10**7),
        (SequenceSpec("file", path=str(path)), 0.15, 20.0, 40.0, 30_000),
    ]
    for i, (spec, eps, V, lam_max, budget) in enumerate(cases):
        rng = np.random.default_rng(40 + i)
        lines = random_lines(rng, 40, V, lam_max)
        lines += [LineParam.at_angle(0.0, rng.uniform(0, 2 * math.pi), -V / 3, 2 * V / 3)
                  for _ in range(3)]  # through the origin
        report = check_dense_forest(spec, eps, V, lines, index_budget=budget)
        failures, witnesses, hits = _forest_by_windows(spec, eps, lines, budget)
        assert report.failures == failures and report.witnesses == witnesses
        assert report.witness_count == hits and 0 < hits < len(lines), spec.kind


# the first index of ladder shell 3,037,000,499, from which on k(k+1)
# passes 2^63, and those of the last shells, ladder 4,294,967,295 and golden
# 3,037,000,499, which both end past 2^63 - 1
LADDER_SHELL_START = 4_611_686_016_981_624_750
LAST_LADDER_SHELL = 9_223_372_034_707_292_160
LAST_GOLDEN_SHELL = 3_037_000_499**2
TOP = 2**63 - 1  # the last int64 index


@pytest.mark.parametrize("n", [2**62 - 5, 2**62, LADDER_SHELL_START, LAST_GOLDEN_SHELL,
                               LAST_LADDER_SHELL, 2**63 - 6, 2**63 - 3, TOP])
@pytest.mark.parametrize("kind", ["golden-angle", "rational-ladder"])
def test_closed_form_scans_reach_the_last_shells(kind, n):
    """The ladder's point u_n sqrt(n) is the Python-int formula's, and a
    forest window and a visible ray, the segment of length 2 up the vertical
    through it, find n at distance 0 within the budget 2^63 - 1: the
    smallest index within eps = 1e-3, whose tube holds about 1e-3 points. A
    ladder shell's first index shares its direction with the previous
    shell's p = k twin, about 1e-10 nearer the origin, so there the twin
    comes first, at a distance of float noise."""
    spec = SequenceSpec(kind)
    k, p = triangular_isqrt(n)
    want = n - 1 if kind == "rational-ladder" and p == 0 else n
    _, (point,) = point_batch(spec, np.array([n], dtype=np.int64))
    if kind == "rational-ladder":  # the point from Python ints
        turn = 2.0 * math.pi * (p / k)
        assert np.allclose(point, math.sqrt(n) * np.array([math.cos(turn), math.sin(turn)]),
                           rtol=1e-12, atol=0.0)
    budget = TOP
    line = LineParam(lam=abs(point[0]), v=np.array([math.copysign(1.0, point[0]), 0.0]),
                     w=np.array([0.0, 1.0]), t0=point[1] - 1.0, t1=point[1] + 1.0)
    report = check_dense_forest(spec, 1e-3, 2.0, [line], index_budget=budget)
    (ray,) = visible_point_test(spec, point - [0.0, 1.0], [[0.0, 1.0]], 1e-3, 2.0,
                                index_budget=budget)
    for hit in (*report.witnesses, ray.witness):
        assert hit.n == want and hit.distance <= 1e-9
    assert len(report.witnesses) == 1


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["golden-angle", "rational-ladder"]),
       base=st.sampled_from([TOP + 1 - 2**20, LAST_LADDER_SHELL - 2**19,
                             LAST_GOLDEN_SHELL - 2**19]),
       start=st.integers(0, 2**20 - 1), size=st.integers(1, 2**20), near=st.integers(0),
       offset=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       step=st.tuples(STEP, STEP),
       reach=st.floats(math.log(0.05), math.log(5.0)).map(math.exp))
@example(kind="rational-ladder", base=LAST_LADDER_SHELL - 2**19, start=2**19 - 3, size=7,
         near=3, offset=(0.0, 0.5), step=(0.0, -1.0), reach=1.0)
@example(kind="golden-angle", base=LAST_GOLDEN_SHELL - 2**19, start=2**19 - 3, size=7,
         near=3, offset=(0.5, 0.0), step=(1.0, 1.0), reach=1.0)
@example(kind="rational-ladder", base=TOP + 1 - 2**20, start=2**20 - 9, size=9, near=8,
         offset=(0.0, 0.0), step=(-4.0, 0.5), reach=5.0)
def test_closed_form_candidates_at_the_top_of_int64(kind, base, start, size, near, offset,
                                                    step, reach):
    """Ranges of up to 2^20 indices below 2^63 - 1 and around the first
    indices of the last ladder and golden shells, which end past it: the
    closed-form sources yield, in index order, every index within reach of a
    segment near a point of the range, against the range's stored points."""
    spec = SequenceSpec(kind)
    n_lo = base + start
    n_hi = min(base + 2**20 - 1, n_lo + size - 1)
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    _, coords = point_batch(spec, ns)
    a = coords[near % len(ns)] + reach * np.array(offset)
    b = a + np.array(step)
    blocks = list(_segment_candidates(spec, a, b, reach, n_lo, n_hi))
    got = np.concatenate([blk[0] for blk in blocks]) if blocks else ns[:0]
    assert np.all(np.diff(got) > 0) and np.all((got >= n_lo) & (got <= n_hi))
    for blk_ns, _, blk_coords in blocks:
        assert np.array_equal(blk_coords, coords[blk_ns - n_lo])
    dist, _ = segment_distances(coords, a, b)
    assert np.all(np.isin(ns[dist <= reach], got))


def test_scans_across_index_2_62(golden, ladder):
    """A ray and a forest window whose ranges reach 2^62 and past it read
    the same closed-form candidates as below it: the golden ray finds
    n = 2^62 - 5 at distance 0, and the ladder's window in the vacant strip
    misses with the minimum it has at budget 2^62 - 1. At 2^63 - 1 the
    window reads the ladder's p = 0 points past 2^62, which lie on y = 0 up
    to float noise."""
    _, (p,) = point_batch(golden, np.array([2**62 - 5]))
    line = LineParam.at_angle(1.0, math.pi / 2, -2.0**31 - 1.0, -2.0**31)
    for budget, want in ((2**62 - 1, 1.055135715914776), (2**62, 1.055135715914776),
                         (TOP, 0.9999998685045512)):
        (ray,) = visible_point_test(golden, p - (1.0, 0.0), [(1.0, 0.0)], 0.5, 2.0,
                                    index_budget=budget)
        assert ray.witness == HitWitness(2**62 - 5, 1.0, 0.0)
        report = check_dense_forest(ladder, 0.5, 1.0, [line], index_budget=budget)
        assert report.failures == [{"line": 0, "min_distance": want}]


def test_ranges_past_int64_are_refused(golden, capsys):
    """With a budget above 2^63 - 1, a forest window or a ray whose range
    reaches past it is refused, naming it, and the CLI exits 2; rays and
    windows near the origin keep their verdicts."""
    budget = 10**19
    with pytest.raises(ValueError, match=r"forest window 0, .* reaches index \d+, past 2\^63"):
        check_dense_forest(golden, 0.5, 1.0, [LineParam.at_angle(3.04e9, 0.0, 0.0, 1.0)],
                           index_budget=budget)
    with pytest.raises(ValueError, match=r"the segment from .* past 2\^63 - 1"):
        visible_point_test(golden, (3.04e9, 0.0), [(0.0, 1.0)], 0.5, 1.0, index_budget=budget)
    (ray,) = visible_point_test(golden, (0.3, 0.1), [(1.0, 0.0)], 0.01, 50.0,
                                index_budget=budget)
    assert ray.witness.n == 610
    report = check_dense_forest(golden, 0.1, 5.0, [LineParam.at_angle(1.0, 0.0, 0.0, 5.0)],
                                index_budget=budget)
    assert report.passed
    for argv in (["visible", "--x", "3040000000,0", "--dir", "0,1", "--Tmax", "1"],
                 ["forest", "--line", "3040000000,0,0,1", "--eps", "0.5", "--V", "1"]):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--budget", str(budget)])
        assert err.value.code == 2
        assert "past 2^63 - 1" in capsys.readouterr().err


def test_non_unit_directions_are_refused(constant_seq, golden):
    """A ray direction or a window's v or w of norm other than 1 is
    refused: the ray-to-ray bound assumes unit vectors (a direction (2, 0)
    would certify a bound of sqrt(2) with a point at 1.0), and a window of
    length V along a w of norm 3 would reach 3V."""
    with pytest.raises(ValueError, match="ray directions must be unit vectors"):
        visible_point_test(constant_seq, [0.0, 1.0], [[2.0, 0.0]], 1.2, 50.0)
    (ray,) = visible_point_test(constant_seq, [0.0, 1.0], [[1.0, 0.0]], 1.2, 50.0)
    assert ray.certificate["bound"] == 1.0 and not ray.certified
    with pytest.raises(ValueError, match="v and w must be unit vectors"):
        LineParam(lam=1.0, v=[2, 0], w=[0, 3], t0=0, t1=5)
    with pytest.raises(ValueError, match="v and w must be unit vectors"):
        LineParam(lam=1.0, v=np.array([1.0, 0.0]), w=np.array([0.0, 1.0 + 1e-9]), t0=0, t1=5)


def test_forest_errors_name_their_window(golden):
    eps, V = 0.1, 5.0
    near = LineParam.at_angle(1.0, 0.0, 0.0, V)
    far = LineParam.at_angle(1.0, 0.0, 5000.0, 5000.0 + V)
    a, b = far.point(far.t0), far.point(far.t1)
    with pytest.raises(ValueError) as err:
        check_dense_forest(golden, eps, V, [near, far], index_budget=10**6)
    assert str(err.value) == (f"forest window 1, from {a.tolist()} to {b.tolist()}, lies "
                              "wholly past the index budget 1000000: every index of its "
                              "eps-widened annulus exceeds it")
    huge = LineParam.at_angle(1e300, 0.0, 0.0, V)
    with pytest.raises(RefusedSegmentError, match="squared norm overflows") as err:
        check_dense_forest(golden, eps, V, [near, far, huge])
    assert err.value.position == 2  # its overflow comes before the budget's check


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


def test_non_ladder_misses_match_brute(golden, constant_seq, monkeypatch):
    """A miss reads the ray's annulus once: the search for the minimum then
    reads only the indices outside the range the first pass read."""
    read = []

    def counting(*args, **kwargs):
        for block in iter_point_chunks(*args, **kwargs):
            read.append(len(block[0]))
            yield block

    monkeypatch.setattr(visibility, "iter_point_chunks", counting)
    # the constant sequence's negative control: about 1.0042e6 indices lie
    # within eps_floor of the ray's radii, and its nearest point n=1 below them
    got = _assert_ray_matches_brute(constant_seq, (0, 2), (0, 1), 0.1, 1000.0)
    assert got.visible_at_scale and got.witness.n == 1
    assert sum(read) <= 1.01e6
    # nearest points beyond the far end, across the axis and at the start
    for x, v in (((0.5, -30.0), (0, 1)), ((-3.0, 0.5), (1, 0)), ((40.0, 1.0), (1, 1))):
        got = _assert_ray_matches_brute(constant_seq, x, v, 0.1, 20.0)
        assert got.visible_at_scale
    # a golden-angle miss whose nearest point, n=3000, lies 0.02 past its far end
    r, p = point_batch(golden, np.array([3000]))
    u = p[0] / r[0]
    got = _assert_ray_matches_brute(golden, p[0] - 5.02 * u, u, 0.01, 5.0)
    assert got.visible_at_scale and got.witness.n == 3000
    assert got.min_distance == pytest.approx(0.02, abs=1e-12)
    rng = np.random.default_rng(37)
    for _ in range(8):
        origin = rng.uniform(-30, 30, 2)
        ang = rng.uniform(0, 2 * math.pi)
        got = _assert_ray_matches_brute(golden, origin, (math.cos(ang), math.sin(ang)),
                                        1e-4, rng.uniform(1, 10))
        assert got.visible_at_scale


def test_nearest_merge_keeps_the_smaller_index_on_ties():
    ties = (np.array([4]), np.array([0.5]), np.array([0.0]))
    assert _closer((0.5, 9, 1.0), *ties) == (0.5, 4, 0.0)
    assert _closer((0.5, 2, 1.0), *ties) == (0.5, 2, 1.0)
