"""The circle cover and the direct minimal visibility, each against an
oracle: the cover against the stamping it replaced (every annulus point
stamped into every cell it reaches with ``np.minimum.at``, then each witness
recomputed with ``point_batch``), and the direct V against a
max-over-cells of a min-over-points from stored points and against the
doubling-then-bisection search it replaced."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from oracles import mask_halfwidth, save_sequence_file
import spiralvis.visibility as vis
from spiralvis import (
    SequenceSpec,
    build_direction_net,
    check_orchard,
    check_uniform_orchard,
    estimate_min_visibility,
)
from spiralvis.sequences import GOLDEN_RATIO, angle_batch, rotation_largest_gap
from spiralvis.spirals import annulus_index_range, iter_point_chunks, point_batch
from spiralvis.visibility import (
    BLOCK_SLACK,
    DEFAULT_BUDGET,
    MISS,
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
    n_cap = min(budget, math.ceil(K_const * V**2))
    witness = _stamped(spec, count, [(0.0, 1, n_cap,
                                      lambda r: np.minimum(kappa * eps / r, math.pi))])
    with mock.patch.multiple(vis, K_CERT=K_const, KAPPA_CERT=kappa):
        arcs = _certificate_arcs(spec, eps, V, budget)
        _assert_same(_net_check(spec, net, *arcs, 0.0, V),
                     (witness, *_recomputed(spec, witness, 0.0, V)))


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
    # half-widths -1, 0, pi and above, and whole cell steps; K = 1 and 2
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
    ns = np.arange(10, 10 + len(angles))
    with mock.patch.object(vis, "_arc_blocks", lambda *_: iter([(ns, None, None, angles, halfw)])):
        (run_ns, start, stop), = vis._cell_runs(None, K, 0, 0, None)
    assert np.all((0 <= start) & (start <= stop) & (stop <= K))
    per_point = {n: [0] * K for n in ns.tolist()}
    for n, a, b in zip(run_ns.tolist(), start.tolist(), stop.tolist()):
        for j in range(a, b):
            per_point[n][j] += 1
    for row, n in enumerate(ns.tolist()):  # each cell once per arc that reaches it
        reached = want[row * columns:(row + 1) * columns]
        assert per_point[n] == [sum(j in cells for cells in reached) for j in range(K)]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), K=st.one_of(st.integers(1, 2), st.integers(3, 400)))
def test_circle_cover_ignores_empty_runs(data, K):
    # blocks of runs, the later ones a few runs each so that the cover ranks
    # them among the open cells, with empty runs (start == stop) at any cell
    # from 0 to K, open or not: the cover gives the same (open, cells, first)
    # with and without them, and the same as marking each run's cells: the
    # open cells, the first 100 covered cells and their least writers
    run = st.integers(0, K).flatmap(lambda a: st.tuples(st.just(a), st.integers(a, K)))
    empty = st.integers(0, K).map(lambda a: (a, a))
    blocks = data.draw(st.lists(st.lists(st.one_of(run, empty), min_size=1, max_size=6),
                                min_size=1, max_size=12))
    # a block's indices exceed the last block's, in any order within it
    runs = [(np.array(data.draw(st.permutations(range(len(b)))), dtype=np.int64) + 100 * i,
             *np.array(b, dtype=np.int64).T)
            for i, b in enumerate(blocks)]
    covered = np.full(K, MISS, dtype=np.int64)
    for ns, start, stop in runs:
        for n, a, b in zip(ns, start, stop):
            covered[a:b] = np.minimum(covered[a:b], n)
    hit = np.flatnonzero(covered != MISS)[:100]
    want = (np.flatnonzero(covered == MISS), hit, covered[hit])
    nonempty = [(ns[stop > start], start[stop > start], stop[stop > start])
                for ns, start, stop in runs]
    for source in (runs, nonempty):
        with mock.patch.object(vis, "_cell_runs", lambda *_: iter(source)):
            got = vis._circle_cover(None, K, 0, 0, None)
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
    # the ladder orchard at eps 0.02 resolves every cell within the first
    # block of 65,536 points, a sixth of the window's index range
    eps, V = 0.02, 4 * math.pi / 0.02
    net = build_direction_net(1, eps / (4 * V))
    read = _counted_reads(monkeypatch)
    failures, witnesses = _net_check(
        ladder, net, *_window_arcs(ladder, 0.0, V, eps, DEFAULT_BUDGET), 0.0, V)
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
    assert not len(_circle_cover(spec, K, n_lo, n_hi, arcs)[0])
    (f_got, w_got), (f_want, w_want) = (
        _circle_check(spec, K, n_lo, n_hi, arcs, given_block, t0, t0 + V)
        for given_block in (block, None))
    assert np.array_equal(f_got, f_want) and not len(f_got) and w_got == w_want


def test_block_bound_needs_a_rotation_of_integer_alpha(monkeypatch):
    # theta = 1e-5 < 2^-12 has no integer alpha = {theta} * 2^64, so there is
    # no three-distance gap: its windows ahead of the origin have a block, yet
    # read no margin and take the cover pass, as with no block
    spec = SequenceSpec("golden-angle", theta=1e-5)
    assert rotation_largest_gap(spec.theta, 100) is None
    monkeypatch.setattr(vis, "_block_writers", None)
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
    # (2 h_min - gap from 1.9e-6 to 6.6e-4 rad), and a certified window
    # reads only the candidates near cells 0..99, no cover pass
    certified = {}
    for eps in (0.1, 0.05, 0.025, 0.0125):
        for t0 in (0.0, 100.0, 1000.0):
            window = _window_arcs(golden, t0, t0 + 5.0 / eps, eps, DEFAULT_BUDGET)
            certified[eps, t0] = 2 * _block_margin(golden, window[3], window[2])
    assert {key for key, slack in certified.items() if slack < 2 * BLOCK_SLACK} == {
        (0.1, 0.0), (0.05, 0.0), (0.025, 0.0)}
    assert 1.8e-6 < min(s for s in certified.values() if s > 0) < 2e-6
    assert 6.5e-4 < max(certified.values()) < 6.7e-4
    monkeypatch.setattr(vis, "_circle_cover", None)
    read = _counted_reads(monkeypatch)
    report = check_uniform_orchard(golden, 0.0125, 400.0, [1000.0])
    assert report.passed and report.witness_count == report.total_checks == 402124
    assert len(report.witnesses) == 10 and 0 < sum(read) < 5000


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
    want = _brute_reach(spec, net.centers, eps, t0, n_max)
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
    want = _brute_reach(spec, net.centers, eps, t0, n_max)
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
        want = max(_brute_reach(golden, net.centers, e.eps, t0, math.ceil(
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
