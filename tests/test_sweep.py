"""The circle cover and the direct minimal visibility, each against an
oracle: the cover against the stamping it replaced (every annulus point
stamped into every cell it reaches with ``np.minimum.at``, then each witness
recomputed with ``point_batch``), and the direct V against a
max-over-cells of a min-over-points from stored points and against the
doubling-then-bisection search it replaced."""

import functools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from oracles import mask_halfwidth, net_directions, save_sequence_file
import spiralvis.visibility as vis
from spiralvis import (
    DirectionNet,
    SequenceSpec,
    build_direction_net,
    check_orchard,
    check_uniform_orchard,
    estimate_min_visibility,
)
from spiralvis.sequences import (
    GOLDEN_RATIO,
    angle_batch,
    rotation_largest_gap,
    shell_start,
    triangular_decompose,
)
from spiralvis.spirals import CHUNK, annulus_index_range, iter_point_chunks, point_batch
from spiralvis.visibility import (
    BLOCK_SLACK,
    DEFAULT_BUDGET,
    MISS,
    _arc_blocks,
    _block_covers,
    _block_margin,
    _certificate_arcs,
    _circle_check,
    _circle_cover,
    _net_check,
    _passes,
    _window_arcs,
)

TWO_PI = 2 * math.pi
SPECS = {
    "golden-angle": SequenceSpec("golden-angle"),
    "rational-ladder": SequenceSpec("rational-ladder"),
    "constant": SequenceSpec("constant", d=1, v=np.array([0.6, 0.8])),
}


# -- the stamping oracle -----------------------------------------------------


def _stamped(spec, K, parts):
    """Smallest index per cell over (flip, n_lo, n_hi, halfwidths) parts:
    every point's whole arc stamped with np.minimum.at."""
    witness = np.full(K, MISS, dtype=np.int64)
    step = TWO_PI / K
    for flip, n_lo, n_hi, halfwidths in parts:
        for ns, radii, coords in iter_point_chunks(spec, n_lo, n_hi):
            angles = (np.arctan2(coords[:, 1], coords[:, 0]) + flip) % TWO_PI
            halfw = halfwidths(radii)
            ok = halfw >= 0.0
            lo = np.ceil((angles[ok] - halfw[ok]) / step).astype(np.int64)
            hi = np.floor((angles[ok] + halfw[ok]) / step).astype(np.int64)
            # an arc of half-width pi covers the circle, however pi/step rounds
            counts = np.where(halfw[ok] >= math.pi, K, np.clip(hi - lo + 1, 0, K))
            offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            np.minimum.at(witness, (np.repeat(lo, counts) + offsets) % K,
                          np.repeat(ns[ok], counts))
    return witness


def _recomputed(spec, witness, t_lo, t_hi):
    """(t, distance) of each cell's witness from a fresh point_batch."""
    K = len(witness)
    t_out, d_out = np.full(K, math.nan), np.full(K, math.nan)
    hit = np.flatnonzero(witness != MISS)
    if len(hit):
        radii, coords = point_batch(spec, witness[hit])
        delta = np.arctan2(coords[:, 1], coords[:, 0]) - hit * (TWO_PI / K)
        along = radii * np.cos(delta)
        t_star = np.clip(along, t_lo, t_hi)
        d_out[hit] = np.hypot(along - t_star, radii * np.sin(delta))
        t_out[hit] = t_star
    return t_out, d_out


def _halves(spec, t_lo, t_hi, eps):
    """(flip, lo, hi, n_lo, n_hi) per half of the window split at the origin:
    [lo, hi] along c (flip 0) or -c (flip pi), and the indices of its
    annulus widened by eps."""
    for flip, lo, hi in ((0.0, max(t_lo, 0.0), t_hi), (math.pi, max(-t_hi, 0.0), -t_lo)):
        if (flip == 0.0 and t_hi < 0) or (flip != 0.0 and t_lo >= 0):
            continue
        yield (flip, lo, hi, *annulus_index_range(max(0.0, lo - eps), hi + eps + 1e-12, spec.d))


def _stamped_window(spec, K, t_lo, t_hi, eps, budget):
    parts = [(flip, n_lo, min(n_hi, budget),
              functools.partial(mask_halfwidth, t_lo=lo, t_hi=hi, eps=eps))
             for flip, lo, hi, n_lo, n_hi in _halves(spec, t_lo, t_hi, eps)]
    witness = _stamped(spec, K, parts)
    return (witness, *_recomputed(spec, witness, t_lo, t_hi))


def _assert_same(got, want):
    """The failing cells exactly (so the hit count, the cells that do not
    fail), and the 100 reported witnesses with their exact (t, distance)
    against the oracle's witness array."""
    failures, witnesses = got
    witness, t, dist = want
    assert np.array_equal(failures, np.flatnonzero(witness == MISS))
    top = np.flatnonzero(witness != MISS)[:100]
    assert [(w.n, w.t, w.distance) for w in witnesses] == list(
        zip(witness[top].tolist(), t[top].tolist(), dist[top].tolist()))


def _small_blocks(marks):
    return mock.patch.object(vis, "_MARKS_PER_BATCH", marks if marks else vis._MARKS_PER_BATCH)


def _small_chunks(points):
    """The circle sweeps read CHUNK // 4 points per block."""
    return mock.patch.object(vis, "CHUNK", 4 * points if points else vis.CHUNK)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(SPECS)),
       K=st.integers(3, 3000),
       eps=st.floats(0.05, 0.9),
       t0=st.one_of(st.floats(-40.0, 40.0), st.floats(-0.5, 0.0)),
       V=st.floats(0.3, 40.0),
       budget=st.sampled_from([DEFAULT_BUDGET, 1, 40, 700]),
       points=st.sampled_from([None, 1, 50]))
def test_window_sweep_matches_stamping(kind, K, eps, t0, V, budget, points):
    # windows behind, straddling and ahead of the origin; clipping budgets;
    # blocks down to one point. A window wholly past the budget is rejected.
    spec = SPECS[kind]
    _, _, _, n_lo, n_hi = zip(*_halves(spec, t0, t0 + V, eps))
    if max(n_hi) >= min(n_lo) > budget:
        with pytest.raises(ValueError, match="lies wholly past the index budget"):
            _window_arcs(spec, t0, t0 + V, eps, budget)
        return
    window = _window_arcs(spec, t0, t0 + V, eps, budget)
    with _small_chunks(points):
        got = _circle_check(spec, K, *window, t0, t0 + V)
        _assert_same(got, _stamped_window(spec, K, t0, t0 + V, eps, budget))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(SPECS)),
       count=st.integers(3, 2000),
       eps=st.floats(0.05, 0.9),
       V=st.floats(1.0, 30.0),
       K_const=st.floats(0.1, 2.0),
       kappa=st.floats(0.5, 8.0),
       budget=st.sampled_from([DEFAULT_BUDGET, 25]))
def test_certificate_sweep_matches_stamping(kind, count, eps, V, K_const, kappa, budget):
    spec = SPECS[kind]
    net = build_direction_net(1, math.pi / (count - 0.5))
    assert len(net) == count
    n_cap = min(budget, math.floor(Fraction(K_const) * Fraction(V) ** 2))
    witness = _stamped(spec, count, [(0.0, 1, n_cap,
                                      lambda r: np.minimum(kappa * eps / r, math.pi))])
    with mock.patch.multiple(vis, K_CERT=K_const, KAPPA_CERT=kappa):
        arcs = _certificate_arcs(spec, eps, V, budget)
        _assert_same(_net_check(spec, net, *arcs, 0.0, V),
                     (witness, *_recomputed(spec, witness, 0.0, V)))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from([*sorted(SPECS), "fibonacci-sphere"]),
       theta=st.floats(2.0**-20, 1.0),
       eps=st.floats(0.05, 0.5),
       V=st.floats(0.5, 30.0))
@example(kind="golden-angle", theta=0.4070223282075782, eps=0.13149827824074845,
         V=1.1533606353246721)
def test_certificate_failures_hold_the_direct_failures(kind, theta, eps, V):
    # certificate => direct, direction by direction on one net: an index of
    # the certificate's range n <= V^(d+1) has r <= V, where the direct
    # reach arcsin(eps/r) (pi for r <= eps) holds the certificate reach
    # min(eps/r, pi), and the direct range [1, (V + eps)^(d+1)] holds the
    # certificate's. Golden angles of any theta, the ladder and the
    # constant kind in d=1; small-V windows of the Fibonacci sphere in d=2.
    # The example's V^2 is no integer: an index of radius above V would hit
    # directions the direct check fails
    if kind == "fibonacci-sphere":
        spec, eps, V = SequenceSpec(kind, d=2), 0.2 + eps / 2, 1.0 + V / 15
    else:
        spec = SequenceSpec(kind, theta=theta) if kind == "golden-angle" else SPECS[kind]
    direct = check_orchard(spec, eps, V)
    certificate = check_orchard(spec, eps, V, method="certificate")
    assert direct.total_checks == certificate.total_checks
    assert set(direct.failures.directions.tolist()) <= set(
        certificate.failures.directions.tolist())


def _brute_cells(K, angle, halfw):
    """The cells of one arc, cell by cell: those j with j + m*K, for some
    integer m, between the float ends ceil((angle - halfw)/step) and
    floor((angle + halfw)/step); every cell from half-width pi, none below 0."""
    step = TWO_PI / K
    lo, hi = math.ceil((angle - halfw) / step), math.floor((angle + halfw) / step)
    if halfw < 0.0:
        return set()
    if halfw >= math.pi:
        return set(range(K))
    return {j for j in range(K) if any(lo <= j + m * K <= hi for m in range(-2, 4))}


@settings(max_examples=200, deadline=None)
@given(K=st.one_of(st.integers(1, 2), st.integers(3, 40)),
       columns=st.integers(1, 2),
       arcs=st.lists(st.tuples(
           st.one_of(st.sampled_from(["first", "last", "top"]), st.floats(0.0, TWO_PI)),
           st.one_of(st.sampled_from([-1.0, 0.0, math.pi, 4.0, TWO_PI]),
                     st.floats(0.0, 1.0), st.integers(0, 3))), min_size=2, max_size=40))
def test_arc_cells_and_runs_match_each_cell(K, columns, arcs):
    # arcs about cell 0, cell K - 1 and 2*pi (wrapping past either end),
    # half-widths -1, 0, pi and above, and whole cell steps; K = 1 and 2.
    # The cover's runs of each point hold exactly its arcs' cells, and over
    # the block each cell's writer is the least index whose arcs hold it
    step = TWO_PI / K
    angles, halfw = [], []
    for where, h in arcs[:len(arcs) // columns * columns]:
        angles.append({"first": 0.0, "last": (K - 1) * step, "top": TWO_PI}.get(where, where))
        halfw.append(min(h * step, TWO_PI) if isinstance(h, int) else h)
    angles = np.array(angles).reshape(-1, columns)
    halfw = np.array(halfw).reshape(-1, columns)
    want = [_brute_cells(K, a, h) for a, h in zip(angles.ravel(), halfw.ravel())]
    at, lo, counts = vis._arc_cells(K, angles, halfw)
    assert np.array_equal(at, np.arange(angles.size) // columns)
    assert all(0 <= s < K or (s == K and c == 0) for s, c in zip(lo, counts))
    assert [set((s + np.arange(c)) % K) for s, c in zip(lo, counts)] == want
    ns = np.arange(10 + len(angles), 10, -1)  # the least index comes last
    reached = [set().union(*want[row * columns:(row + 1) * columns]) for row in range(len(ns))]
    for row in range(len(ns)):
        opened, _, _ = _circle_cover(K, [(ns[row:row + 1], None, None, angles[row:row + 1],
                                          halfw[row:row + 1])])
        assert set(range(K)) - set(opened.tolist()) == reached[row]
    least = [min((n for n, cells in zip(ns.tolist(), reached) if j in cells), default=MISS)
             for j in range(K)]
    opened, cells, first = _circle_cover(K, [(ns, None, None, angles, halfw)])
    assert opened.tolist() == [j for j in range(K) if least[j] == MISS]
    assert cells.tolist() == [j for j in range(K) if least[j] != MISS]
    assert first.tolist() == [least[j] for j in cells.tolist()]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), K=st.one_of(st.integers(1, 2), st.integers(3, 400)))
def test_circle_cover_ignores_empty_runs(data, K):
    # blocks of runs, the later ones a few runs each so that the cover ranks
    # them among the open cells, with empty runs (start == stop) at any cell
    # from 0 to K, open or not, and a list of the cells to cover (every cell
    # when None): the cover gives the same (open, cells, first) with and
    # without the empty runs, and the same as marking each run's cells: the
    # listed cells left open, the first 100 listed covered cells and their
    # least writers. A run start..stop-1 is the arc about its middle reaching
    # a quarter cell past its end cells; an empty run at cell a is an arc a
    # tenth of a cell wide, half a cell below a, which reaches no cell
    run = st.integers(0, K).flatmap(lambda a: st.tuples(st.just(a), st.integers(a, K)))
    empty = st.integers(0, K).map(lambda a: (a, a))
    blocks = data.draw(st.lists(st.lists(st.one_of(run, empty), min_size=1, max_size=6),
                                min_size=1, max_size=12))
    listed = data.draw(st.none() | st.lists(st.integers(0, K - 1), unique=True).map(sorted))
    # a block's indices exceed the last block's, in any order within it
    runs = [(np.array(data.draw(st.permutations(range(len(b)))), dtype=np.int64) + 100 * i,
             *np.array(b, dtype=np.int64).T)
            for i, b in enumerate(blocks)]
    covered = np.full(K, MISS, dtype=np.int64)
    for ns, start, stop in runs:
        for n, a, b in zip(ns, start, stop):
            covered[a:b] = np.minimum(covered[a:b], n)
    cand = np.arange(K) if listed is None else np.array(listed, dtype=np.int64)
    hit = cand[covered[cand] != MISS][:100]
    want = (cand[covered[cand] == MISS], hit, covered[hit])
    nonempty = [(ns[stop > start], start[stop > start], stop[stop > start])
                for ns, start, stop in runs]
    step = TWO_PI / K
    for source in (runs, nonempty):
        arcs = [(ns, None, None, (np.where(stop > start, (start + stop - 1) / 2, start - 0.5)
                                  * step)[:, None],
                 (np.where(stop > start, (stop - 1 - start) / 2 + 0.25, 0.1) * step)[:, None])
                for ns, start, stop in source]
        got = _circle_cover(K, arcs, None if listed is None else cand.copy())
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _counted_reads(monkeypatch) -> list:
    """The length of each ``angle_batch`` call the circle sweeps make, as
    they make them."""
    read = []
    real = vis.angle_batch
    monkeypatch.setattr(vis, "angle_batch",
                        lambda spec, ns: read.append(len(ns)) or real(spec, ns))
    return read


def test_sweep_stops_when_every_cell_is_resolved(ladder, monkeypatch):
    # the cover of the ladder orchard at eps 0.02 (read with no block, which
    # would certify it) resolves every cell within the first block of
    # 65,536 points, a sixth of the window's index range
    eps, V = 0.02, 4 * math.pi / 0.02
    net = build_direction_net(1, eps / (4 * V))
    read = _counted_reads(monkeypatch)
    n_lo, n_hi, arcs, _ = _window_arcs(ladder, 0.0, V, eps, DEFAULT_BUDGET)
    failures, witnesses = _net_check(ladder, net, n_lo, n_hi, arcs, None, 0.0, V)
    assert not len(failures) and len(witnesses) == 100
    assert 0 < sum(read) < annulus_index_range(0.0, V + eps, 1)[1] / 4


def test_failing_window_reads_each_block_once(golden, monkeypatch):
    # the golden orchard at eps 0.1, V 20 fails 276 of 2,514 cells, cell 0
    # among them, on a range of one 404-index block: the cover stamps the
    # first 100 hit cells' writers in the same pass
    read = _counted_reads(monkeypatch)
    rep = check_orchard(golden, 0.1, 20.0)
    assert len(rep.failures) == 276 and rep.failures.directions[0] == 0
    assert rep.total_checks == 2514
    assert len(rep.witnesses) == 100 and read == [404]


# -- the block bound ----------------------------------------------------------


ROTATIONS = (st.sampled_from([GOLDEN_RATIO, math.sqrt(2.0)])
             | st.floats(-1e-6, 1e-6).map(lambda d: GOLDEN_RATIO + d)
             | st.floats(2.0**-12, 1.0) | st.floats(2.0**-12, 0.01))


@settings(max_examples=300, deadline=None)
@given(theta=ROTATIONS,
       eps=st.floats(0.03, 0.5),
       width=st.floats(3.0, 10.0),
       t0=st.just(0.0) | st.floats(0.0, 150.0),
       K=st.integers(1, 20000),
       clip=st.none() | st.floats(0.3, 1.0))
def test_block_bound_certifies_only_what_the_cover_passes(theta, eps, width, t0, K, clip):
    # rotation windows at and ahead of the origin, V = width / eps, budgets
    # that clip the block's end. Where the bound certifies, the cover leaves
    # no cell open and gives the certified path's failures and witnesses;
    # the float angles' gap stays within the stated bound, and no
    # block point's half-width falls below the h_min the bound read
    spec, V = SequenceSpec("golden-angle", theta=theta), width / eps
    budget = DEFAULT_BUDGET if clip is None else math.ceil((t0 + clip * V) ** 2)
    n_lo, n_hi, arcs, block = _window_arcs(spec, t0, t0 + V, eps, budget)
    margin = _block_margin(spec, block, arcs)
    event("certified" if margin >= BLOCK_SLACK else "covered")
    if margin < BLOCK_SLACK:
        return
    a, b, _ = block
    bound = (rotation_largest_gap(theta, b - a + 1) + 2**11) * TWO_PI / 2**64
    ns = np.arange(a, b + 1)
    turns = np.sort(angle_batch(spec, ns))
    gap = max(np.diff(turns).max(), turns[0] + TWO_PI - turns[-1])
    assert gap <= bound + 4 * np.spacing(TWO_PI)
    h = arcs[0][1](ns, np.sqrt(ns))
    assert h.min() >= margin + bound / 2 - 4 * np.spacing(math.pi)
    assert h.min() - gap / 2 >= BLOCK_SLACK
    assert not len(_circle_cover(K, _arc_blocks(spec, n_lo, n_hi, arcs))[0])
    (f_got, w_got), (f_want, w_want) = (
        _circle_check(spec, K, n_lo, n_hi, arcs, given_block, t0, t0 + V)
        for given_block in (block, None))
    assert np.array_equal(f_got, f_want) and not len(f_got) and w_got == w_want


def test_block_bound_needs_a_rotation_of_integer_alpha(monkeypatch):
    # theta = 1e-5 < 2^-12 has no integer alpha = {theta} * 2^64, so there is
    # no three-distance gap: its windows ahead of the origin have a block, yet
    # read no margin and take the full-range cover pass, as with no block,
    # not the certified wedge's segment candidates
    spec = SequenceSpec("golden-angle", theta=1e-5)
    assert rotation_largest_gap(spec.theta, 100) is None
    monkeypatch.setattr(vis, "_segment_candidates", None)
    for eps, V, t0, K in ((0.3, 20.0, 0.0, 500), (0.1, 50.0, 30.0, 3000)):
        n_lo, n_hi, arcs, block = _window_arcs(spec, t0, t0 + V, eps, DEFAULT_BUDGET)
        assert block is not None and _block_margin(spec, block, arcs) == -math.inf
        (f_got, w_got), (f_want, w_want) = (
            _circle_check(spec, K, n_lo, n_hi, arcs, given_block, t0, t0 + V)
            for given_block in (block, None))
        assert np.array_equal(f_got, f_want) and w_got == w_want and len(w_got)


def test_block_bound_skips_the_cover_of_the_golden_sweep(golden, monkeypatch):
    # the circle-sweep workload's golden windows, V = 5/eps: the bound
    # certifies 9 of the 12, all but t0 = 0 at eps 0.1, 0.05 and 0.025
    # (2 h_min - gap from 1.9e-6 to 6.6e-4 rad), and a certified window's
    # cover reads only the candidates near cells 0..99, no block of the
    # full range
    certified = {}
    for eps in (0.1, 0.05, 0.025, 0.0125):
        for t0 in (0.0, 100.0, 1000.0):
            window = _window_arcs(golden, t0, t0 + 5.0 / eps, eps, DEFAULT_BUDGET)
            certified[eps, t0] = 2 * _block_margin(golden, window[3], window[2])
    assert {key for key, slack in certified.items() if slack < 2 * BLOCK_SLACK} == {
        (0.1, 0.0), (0.05, 0.0), (0.025, 0.0)}
    assert 1.8e-6 < min(s for s in certified.values() if s > 0) < 2e-6
    assert 6.5e-4 < max(certified.values()) < 6.7e-4
    monkeypatch.setattr(vis, "_arc_blocks", None)
    read = _counted_reads(monkeypatch)
    report = check_uniform_orchard(golden, 0.0125, 400.0, [1000.0])
    assert report.passed and report.witness_count == report.total_checks == 402124
    assert len(report.witnesses) == 10 and 0 < sum(read) < 5000
    # candidates that hold no writer of a covered cell are a fault of the bound
    monkeypatch.setattr(vis, "_segment_candidates", lambda *args: iter(()))
    with pytest.raises(RuntimeError, match=r"which its block covers, left cells \[0, 1, "):
        check_uniform_orchard(golden, 0.0125, 400.0, [1000.0])


def _ladder_shells(a, b):
    """(k1, N): the first and the last ladder shell k, indices k(k+1)/2 +
    [0, k], lying wholly in a..b."""
    k1, N = triangular_decompose(a)[0], triangular_decompose(b)[0]
    return k1 + (shell_start(k1) < a), N - (shell_start(N) + N > b)


@settings(max_examples=300, deadline=None)
@given(eps=st.floats(0.03, 0.5),
       width=st.floats(3.0, 20.0),
       t0=st.just(0.0) | st.floats(0.0, 5.0) | st.floats(0.0, 150.0),
       K=st.integers(2, 20000) | st.none(),
       clip=st.none() | st.floats(0.3, 1.0))
@example(eps=0.1, width=4.0, t0=0.0, K=None, clip=None)
@example(eps=0.05, width=4.0, t0=0.0, K=None, clip=None)
@example(eps=0.2, width=6.0, t0=0.0, K=None, clip=None)
def test_ladder_bound_certifies_only_what_the_cover_passes(ladder, eps, width, t0, K, clip):
    # ladder windows at and ahead of the origin, V = width / eps, on grids up
    # to the eps/(4V) rule's (K None), budgets that clip the block's end.
    # Where Dirichlet's bound certifies, no reach of a point of shell s_q
    # falls below the margin plus the gap term 2*pi/(q(M+1)) it read, the
    # cover leaves no cell open and gives the certified path's failures and
    # witnesses. The examples at width 4 fall short (their covers leave 50
    # and 115 cells open), the one at width 6 certifies
    V = width / eps
    K = K or math.ceil(TWO_PI / (eps / (4 * V)))
    budget = DEFAULT_BUDGET if clip is None else math.ceil((t0 + clip * V) ** 2)
    n_lo, n_hi, arcs, block = _window_arcs(ladder, t0, t0 + V, eps, budget)
    margin = _block_margin(ladder, block, arcs)
    event("certified" if margin >= BLOCK_SLACK else "covered")
    if margin < BLOCK_SLACK:
        return
    k1, N = _ladder_shells(*block[:2])
    M = min(N - k1 + 1, CHUNK)
    ns = np.arange(shell_start(k1), shell_start(N) + N + 1)
    h = np.minimum.reduceat(arcs[0][1](ns, np.sqrt(ns)), shell_start(np.arange(k1, N + 1)) - ns[0])
    q = np.arange(1, M + 1)
    s = -(-k1 // q) * q
    assert s.max() <= N
    assert np.all(h[s - k1] >= margin + TWO_PI / (q * (M + 1)) - 4 * np.spacing(math.pi))
    assert not len(_circle_cover(K, _arc_blocks(ladder, n_lo, n_hi, arcs))[0])
    (f_got, w_got), (f_want, w_want) = (
        _circle_check(ladder, K, n_lo, n_hi, arcs, given_block, t0, t0 + V)
        for given_block in (block, None))
    assert np.array_equal(f_got, f_want) and not len(f_got) and w_got == w_want


@pytest.mark.parametrize("seed, k1, M", [(1, 1, 1), (2, 1, 2), (3, 1, 1777), (4, 7, 40),
                                          (5, 1000, 300), (6, 212, 1565)])
def test_ladder_shells_hold_a_dirichlet_angle_near_each_direction(ladder, seed, k1, M):
    # the bound's Dirichlet step on the float angles of ``angle_batch``: each
    # direction lies within 2*pi/(q(M+1)) of an angle 2*pi*j/q of shell
    # s_q = ceil(k1/q)*q for some q <= M (k1 = 1, M = 1777 is the eps 0.01
    # ladder orchard's block)
    x = np.random.default_rng(seed).uniform(0.0, TWO_PI, 4096)
    excess = np.full(len(x), math.inf)
    for q in range(1, M + 1):
        s = -(-k1 // q) * q
        angles = angle_batch(ladder, shell_start(s) + np.arange(q) * (s // q))
        near = angles[np.rint(x * q / TWO_PI).astype(np.int64) % q]
        gap = np.abs(x - near)
        np.minimum(excess, np.minimum(gap, TWO_PI - gap) - TWO_PI / (q * (M + 1)), out=excess)
    assert excess.max() <= 8 * np.spacing(TWO_PI)


def test_block_bound_skips_the_cover_of_the_ladder_sweep(ladder, monkeypatch):
    # the circle-sweep workload's ladder orchards, V = 4*pi/eps: Dirichlet's
    # bound certifies all five, and the eps 0.01 check, 1,579,137 cells,
    # reads no block of the full range; the full-range cover, in its ranked
    # regime, gives the same
    margins = {}
    for eps in (0.2, 0.1, 0.05, 0.02, 0.01):
        window = _window_arcs(ladder, 0.0, 4 * math.pi / eps, eps, DEFAULT_BUDGET)
        margins[eps] = _block_margin(ladder, window[3], window[2])
    assert 2.37e-3 < margins[0.2] < 2.38e-3 and 5.95e-4 < margins[0.1] < 5.96e-4
    assert 1.49e-4 < margins[0.05] < 1.50e-4 and 2.38e-5 < margins[0.02] < 2.39e-5
    assert 5.96e-6 < margins[0.01] < 5.97e-6
    V = 4 * math.pi / 0.01
    K = len(build_direction_net(1, 0.01 / (4 * V)))
    n_lo, n_hi, arcs, block = window
    covered = _circle_check(ladder, K, n_lo, n_hi, arcs, None, 0.0, V)
    monkeypatch.setattr(vis, "_arc_blocks", None)
    report = check_orchard(ladder, 0.01, V)
    assert report.passed and report.witness_count == report.total_checks == K == 1579137
    assert len(report.witnesses) == 100
    certified = _circle_check(ladder, K, n_lo, n_hi, arcs, block, 0.0, V)
    assert np.array_equal(certified[0], covered[0]) and certified[1] == covered[1]


def test_ladder_bound_reads_a_bounded_number_of_shells(ladder):
    # a block of about 1e8 whole shells (V 7.1e7, indices to 5e15) reads
    # CHUNK of them, so its margin forms in a few MB, where all would take
    # arrays of about 2.8e8 elements. Shells 1..M = CHUNK certify it, with
    # the margin of shell M, h about sqrt(2)*eps/M, less 2*pi/(M(M+1))
    V, eps = 1e8 / math.sqrt(2.0), 0.5
    _, _, arcs, block = _window_arcs(ladder, 0.0, V, eps, 2**62)
    k1, N = _ladder_shells(*block[:2])
    assert N - k1 > 0.99e8
    tracemalloc.start()
    try:
        margin = _block_margin(ladder, block, arcs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, peak
    assert math.isclose(margin, (math.sqrt(2.0) * eps - TWO_PI / (CHUNK + 1)) / CHUNK,
                        rel_tol=1e-4)


@settings(max_examples=200, deadline=None)
@given(theta=ROTATIONS | st.none(),
       eps=st.floats(0.03, 0.5),
       width=st.floats(3.0, 20.0),
       t0=st.just(0.0) | st.floats(0.0, 5.0) | st.floats(0.0, 150.0),
       K=st.integers(2, 20000),
       over=st.just(1.0) | st.floats(1.0, 2.0),
       clip=st.none() | st.floats(0.3, 1.0))
def test_block_bound_settles_a_later_start(theta, eps, width, t0, K, over, clip):
    # the estimator's skip: wherever the block bound certifies [t0, t0 + V],
    # the reach of that start under any bound >= V stays within V on any
    # circle grid, so the start cannot raise the round's V (theta None reads
    # the ladder, certified by Dirichlet's theorem)
    spec = SPECS["rational-ladder"] if theta is None else SequenceSpec("golden-angle", theta=theta)
    V = width / eps
    budget = DEFAULT_BUDGET if clip is None else math.ceil((t0 + clip * V) ** 2)
    _, _, arcs, block = _window_arcs(spec, t0, t0 + V, eps, budget)
    certified = _block_covers(spec, block, arcs)
    event("certified" if certified else "read")
    if not certified:
        return
    net = build_direction_net(1, math.pi / (K - 0.5))
    assert len(net) == K
    assert vis._window_reach(spec, net, t0, eps, over * V, budget).max() <= V


def _verdict(call):
    """``call()``, or the message of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(SPECS)),
       theta=ROTATIONS,
       eps=st.floats(0.05, 0.5),
       width=st.floats(0.5, 8.0),
       t0_list=st.lists(st.floats(-20.0, 150.0), min_size=1, max_size=3, unique=True),
       fine=st.floats(1.0, 3.0),
       clip=st.none() | st.floats(0.3, 1.0),
       stored=st.booleans())
def test_passes_is_the_checks_verdict(kind, theta, eps, width, t0_list, fine, clip, stored):
    # the estimator's failures-only confirmation gives the check's verdict,
    # or its refusal of a window past the budget, on the circle grid and on
    # the same directions stored in a plain net (the cap sweep)
    spec = SequenceSpec("golden-angle", theta=theta) if kind == "golden-angle" else SPECS[kind]
    V = width / eps
    # a budget that clips the farthest window, or refuses it
    budget = (DEFAULT_BUDGET if clip is None
              else max(1, math.ceil((clip * (max(map(abs, t0_list)) + V)) ** 2)))
    net = build_direction_net(1, eps / (4 * V) / fine)
    if stored:
        net = DirectionNet(dimension=1, mesh=net.mesh, count=len(net),
                           covering_radius=net.covering_radius, centers=net_directions(net))
    got = _verdict(lambda: _passes(spec, eps, V, t0_list, budget, net))
    want = _verdict(lambda: check_uniform_orchard(spec, eps, V, t0_list, net=net,
                                                  index_budget=budget).passed)
    event({True: "passes", False: "fails"}.get(got, "refused"))
    assert got == want


@pytest.mark.parametrize("eps, V, t0_list, budget", [
    (0.5, 1.0, [0.0, 10.0], DEFAULT_BUDGET),
    (0.2, 1.25, [0.0, -10.0, 20.0], DEFAULT_BUDGET),
    (0.5, 2.0, [3.0, 0.0], 100),  # the budget clips the first window
    (0.5, 2.0, [0.0, 30.0], 1000),  # and refuses the second
])
def test_passes_is_the_checks_verdict_on_the_cube_sphere(fib_sphere, eps, V, t0_list, budget):
    net = build_direction_net(2, eps / (4 * V))
    assert _verdict(lambda: _passes(fib_sphere, eps, V, t0_list, budget, net)) == _verdict(
        lambda: check_uniform_orchard(fib_sphere, eps, V, t0_list, net=net,
                                      index_budget=budget).passed)


def test_estimate_of_the_golden_sweep_skips_settled_starts(golden, monkeypatch):
    # the circle-sweep workload's query: the block bound settles 6 of the 8
    # later starts (all but t0 = 100 at eps 0.05 and 0.025), so the rounds
    # run 16 reaches, not 22, and the confirmation forms no witness
    calls = {name: 0 for name in ("_window_reach", "_passes", "_circle_cover",
                                  "_segment_candidates", "_exact_cell_witnesses")}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(vis, name, counted(name, getattr(vis, name)))
    curve = estimate_min_visibility(golden, "uniform", [0.2, 0.1, 0.05, 0.025],
                                    t0_list=(0, 100, 1000))
    assert [e.status for e in curve.entries] == ["ok"] * 4
    assert calls == {"_window_reach": 16, "_passes": 4, "_circle_cover": 6,
                     "_segment_candidates": 0, "_exact_cell_witnesses": 0}


# -- the direct minimal visibility ------------------------------------------


def _brute_reach(spec, centers, eps, t0, n_max):
    """Per direction c, the min over points 1..n_max of max(a - t0, 0), [a, b]
    the stretch of t c within eps of the point, over points with b >= t0
    (inf if a direction has no such point)."""
    best = np.full(len(centers), math.inf)
    for radii, coords in (point_batch(spec, np.arange(lo, min(lo + 256, n_max + 1)))
                          for lo in range(1, n_max + 1, 256)):
        if spec.d == 1:
            theta = np.arctan2(coords[:, 1], coords[:, 0])
            delta = theta[:, None] - np.arange(len(centers)) * (TWO_PI / len(centers))
            along, perp = radii[:, None] * np.cos(delta), radii[:, None] * np.sin(delta)
        else:  # |p - along c|, not sqrt(r^2 - along^2), which cancels near the line
            along = coords @ centers.T
            perp = np.linalg.norm(coords[:, None, :] - along[:, :, None] * centers, axis=2)
        half = np.sqrt(np.maximum(eps * eps - perp * perp, 0.0))
        ok = (np.abs(perp) <= eps) & (along + half >= t0)
        need = np.where(ok, np.maximum(along - half - t0, 0.0), math.inf)
        best = np.minimum(best, need.min(axis=0))
    return best


@pytest.mark.parametrize("kind, d, delta, eps, t0", [
    ("golden-angle", 1, 0.004, 0.2, 0.0),
    ("golden-angle", 1, 0.004, 0.2, 30.0),
    ("golden-angle", 1, 0.004, 0.2, -7.0),
    ("rational-ladder", 1, 0.002, 0.15, 0.0),
    ("constant", 1, 0.01, 0.3, -3.0),
    ("file", 1, 0.004, 0.9, 0.0),
    ("file", 1, 0.004, 0.9, 20.0),
    ("fibonacci-sphere", 2, 0.3, 0.5, 0.0),
    ("fibonacci-sphere", 2, 0.3, 0.5, 4.0),
    ("fibonacci-sphere", 2, 0.3, 0.5, -7.0),
    ("fibonacci-sphere", 2, 0.3, 0.5, -70.0),
])
def test_window_reach_matches_brute(kind, d, delta, eps, t0, tmp_path):
    # circle grid and cube-sphere nets; window starts ahead of, at and behind
    # the origin, and on S^2 windows straddling 0 and wholly behind it, which
    # only the flipped caps reach. Random directions (the file kind) put later
    # points within eps of a direction with a smaller a, which the early stop
    # must wait for.
    budget = DEFAULT_BUDGET
    if kind == "file":
        angles = np.random.default_rng(4).uniform(0.0, TWO_PI, 4000)
        save_sequence_file(tmp_path / "random.txt",
                           np.column_stack([np.cos(angles), np.sin(angles)]))
        spec, budget = SequenceSpec("file", path=str(tmp_path / "random.txt")), 4000
    else:
        spec = SPECS[kind] if kind in SPECS else SequenceSpec(kind, d=d)
    net, V = build_direction_net(d, delta), 60.0
    # points beyond radius max(|t0|, |t0 + V|) + eps cannot come within eps
    # of a window
    n_max = min(budget, annulus_index_range(
        0.0, max(abs(t0), abs(t0 + V)) + eps + 1.0, d)[1])
    want = _brute_reach(spec, net_directions(net), eps, t0, n_max)
    fits = want <= V
    assert fits.any()
    # blocks of a few points, and of a few marks, stop the sweep early
    for points, marks in ((None, None), (3, 1), (40, 37)):
        with _small_chunks(points), _small_blocks(marks):
            got = vis._window_reach(spec, net, t0, eps, V, budget)
        assert np.allclose(got[fits], want[fits], rtol=1e-12, atol=0)
        assert np.all(got[~fits] > V)


@pytest.fixture(scope="module")
def random_directions(tmp_path_factory):
    """A file spiral of 4000 random directions: later points come within eps
    of a direction with a smaller a, which settling must wait for."""
    path = tmp_path_factory.mktemp("reach") / "random.txt"
    angles = np.random.default_rng(4).uniform(0.0, TWO_PI, 4000)
    save_sequence_file(path, np.column_stack([np.cos(angles), np.sin(angles)]))
    return SequenceSpec("file", path=str(path))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(SPECS) + ["file"]),
       K=st.integers(3, 400),
       eps=st.floats(0.05, 0.9),
       t0=st.one_of(st.floats(-30.0, -0.5), st.floats(-0.5, 0.0), st.floats(40.0, 80.0)),
       V=st.floats(0.3, 20.0),
       marks=st.sampled_from([1, 37, 1 << 10, None]),
       points=st.sampled_from([None, 1, 50]))
def test_window_reach_d1_matches_brute(random_directions, kind, K, eps, t0, V, marks,
                                       points):
    # windows behind the origin (only the flipped arcs reach them),
    # straddling it and far ahead of it; batches down to one mark settle the
    # open cells at every batch's first point, blocks down to one point
    spec, budget = (random_directions, 4000) if kind == "file" else (SPECS[kind],
                                                                       DEFAULT_BUDGET)
    # the file's 4000 points end at radius sqrt(4000) = 63.2
    assume(kind != "file" or t0 + V + eps < 63.0)
    net = build_direction_net(1, math.pi / (K - 0.5))
    assert len(net) == K
    n_max = min(budget, annulus_index_range(
        0.0, max(abs(t0), abs(t0 + V)) + eps + 1.0, 1)[1])
    want = _brute_reach(spec, net_directions(net), eps, t0, n_max)
    fits = want <= V
    with _small_chunks(points), _small_blocks(marks):
        got = vis._window_reach(spec, net, t0, eps, V, budget)
    # a reach a - t0 cancels: its rounding scales with |t0| + V, not with it
    assert np.allclose(got[fits], want[fits], rtol=0, atol=1e-12 * (1.0 + abs(t0) + V))
    assert np.all(got[~fits] > V)


def test_window_reach_marks_settle_per_batch(golden, monkeypatch):
    # the largest round of the golden uniform curve at eps 0.025 (t0 = 0,
    # bound 258.54): cells settled at each batch's first point take no more
    # marks, which keeps the (point, cell) pairs written under 200,000 (the
    # block-level settling wrote 527,992)
    eps, V, marks = 0.025, 258.54, []
    real = vis._mark_windows

    def counting(K, still_open, angles, halfw, write, *args, **kwargs):
        def counted(at, cells):
            marks.append(len(cells))
            write(at, cells)
        real(K, still_open, angles, halfw, counted, *args, **kwargs)

    monkeypatch.setattr(vis, "_mark_windows", counting)
    vis._window_reach(golden, vis._require_net(golden, eps, V, None), 0.0, eps, V,
                      DEFAULT_BUDGET)
    assert 0 < sum(marks) <= 200_000


@pytest.mark.parametrize("kind, eps_grid, t0_list", [
    ("orchard", [0.2, 0.1], (0.0,)),
    ("uniform", [0.2], (0.0, 30.0, -10.0)),
])
def test_estimate_on_its_own_net(golden, kind, eps_grid, t0_list, monkeypatch):
    # V is the brute max over the cells of the net its check confirmed it on
    # (the last net built before that check) and the t0s (one part in 1e9
    # above it); its check passes there and fails one 2% step below. The
    # budget caps the bound near 64 at the largest t0.
    step, budget = 0.02, math.ceil((max(t0_list) + 65.0) ** 2)
    nets, confirmed, build, passes = [], [], vis.build_direction_net, vis._passes
    monkeypatch.setattr(vis, "build_direction_net", lambda *a: nets.append(build(*a)) or nets[-1])
    monkeypatch.setattr(vis, "_passes", lambda *a: confirmed.append(nets[-1]) or passes(*a))
    curve = estimate_min_visibility(golden, kind, eps_grid, t0_list=t0_list,
                                    index_budget=budget)
    assert len(confirmed) == len(curve.entries)
    for i, (e, net) in enumerate(zip(curve.entries, confirmed)):
        assert e.status == "ok"
        want = max(_brute_reach(golden, net_directions(net), e.eps, t0, math.ceil(
            (abs(t0) + e.V + 1.0) ** 2)).max() for t0 in t0_list)
        assert e.V == pytest.approx(want * (1 + 1e-9), rel=1e-12)
        for V, passes_at_V in ((e.V, True), (e.V / (1 + step), False)):
            assert _passes(golden, e.eps, V, t0_list, budget, net) is passes_at_V


def _bisection_curve(spec, eps_grid, t0_list, v_cap=2.0**20, rtol=0.02):
    """The search that the direct estimate replaced: doubling from V = 1, then
    bisection to rtol, each trial a full check on its own eps/(4V) net."""
    values = []
    for eps in sorted(set(eps_grid), reverse=True):
        def ok(V):
            return check_uniform_orchard(spec, eps, V, t0_list).passed

        V = 1.0
        while V <= v_cap and not ok(V):
            V *= 2.0
        lo, hi = V / 2.0, V
        if V == 1.0:
            while lo > 1.0 / 64 and ok(lo):
                lo, hi = lo / 2.0, lo
        while hi / lo > 1.0 + rtol:
            mid = math.sqrt(lo * hi)
            if ok(mid):
                hi = mid
            else:
                lo = mid
        values.append(max([hi] + values))
    return values


@pytest.mark.parametrize("kind, seq, eps_grid, t0_list", [
    ("uniform", "golden-angle", [0.2, 0.1], (0.0, 100.0)),
    ("orchard", "rational-ladder", [0.2, 0.1, 0.05], (0.0,)),
])
def test_estimate_within_rtol_of_bisection(kind, seq, eps_grid, t0_list):
    # one confirming check per eps, and V within 2% of the old bisection
    spec, rtol = SequenceSpec(seq), 0.02
    trials = []
    real = vis._passes

    def counting(*args):
        trials.append(args[2])
        return real(*args)

    with mock.patch.object(vis, "_passes", counting):
        curve = estimate_min_visibility(spec, kind, eps_grid, t0_list=t0_list)
    assert len(trials) == len(eps_grid)
    old = _bisection_curve(spec, eps_grid, t0_list, rtol=rtol)
    for e, V_old in zip(curve.entries, old):
        assert e.status == "ok"
        assert abs(math.log(e.V / V_old)) <= math.log(1 + rtol)
