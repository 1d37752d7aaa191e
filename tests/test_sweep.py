"""The index-order circle sweep and the direct minimal visibility, each
against an oracle: the sweep against the stamping it replaced (every annulus
point stamped into every cell it reaches with ``np.minimum.at``, then each
witness recomputed with ``point_batch``), and the direct V against a
max-over-cells of a min-over-points from stored points and against the
doubling-then-bisection search it replaced."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spiralvis.visibility as vis
from spiralvis import SequenceSpec, build_direction_net, estimate_min_visibility
from spiralvis.geometry import radial_hit_halfwidth
from spiralvis.sequences import save_sequence_file
from spiralvis.spirals import annulus_index_range, iter_point_chunks, point_batch
from spiralvis.visibility import (
    DEFAULT_BUDGET,
    MISS,
    _certificate_witnesses,
    _circle_witnesses,
    _line_reach,
    _passes,
    _window_arcs,
    _window_reach,
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
            counts = np.clip(hi - lo + 1, 0, K)
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


def _stamped_window(spec, K, t_lo, t_hi, eps, budget):
    parts = []
    for flip, lo, hi in ((0.0, max(t_lo, 0.0), t_hi), (math.pi, max(-t_hi, 0.0), -t_lo)):
        if (flip == 0.0 and t_hi < 0) or (flip != 0.0 and t_lo >= 0):
            continue
        n_lo, n_hi = annulus_index_range(max(0.0, lo - eps), hi + eps + 1e-12, spec.d)
        parts.append((flip, n_lo, min(n_hi, budget),
                      functools.partial(radial_hit_halfwidth, t_lo=lo, t_hi=hi, eps=eps)))
    witness = _stamped(spec, K, parts)
    return (witness, *_recomputed(spec, witness, t_lo, t_hi))


def _assert_same(got, want):
    """The witness arrays bit for bit, and the recovered (t, distance) of
    every hit cell."""
    witness, exact = got
    assert np.array_equal(witness, want[0])
    hit = np.flatnonzero(witness != MISS)
    for g, w in zip(exact(hit), want[1:]):
        assert np.array_equal(g, w[hit])


def _small_blocks(marks):
    return mock.patch.object(vis, "_mark_windows",
                             functools.partial(vis._mark_windows, marks_per_batch=marks))


def _small_chunks(points):
    """The circle sweep reads CHUNK // 4 points per block."""
    return mock.patch.object(vis, "CHUNK", 4 * points if points else vis.CHUNK)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(SPECS)),
       K=st.integers(3, 3000),
       eps=st.floats(0.05, 0.9),
       t0=st.one_of(st.floats(-40.0, 40.0), st.floats(-0.5, 0.0)),
       V=st.floats(0.3, 40.0),
       budget=st.sampled_from([DEFAULT_BUDGET, 1, 40, 700]),
       marks=st.sampled_from([None, 1, 37]),
       points=st.sampled_from([None, 1, 50]))
def test_window_sweep_matches_stamping(kind, K, eps, t0, V, budget, marks, points):
    # windows behind, straddling and ahead of the origin; clipping budgets;
    # blocks down to one pair and one point
    spec = SPECS[kind]
    with _small_blocks(marks), _small_chunks(points):
        got = _circle_witnesses(spec, K, *_window_arcs(spec, t0, t0 + V, eps, budget),
                                t0, t0 + V)
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
    got = _certificate_witnesses(spec, net, eps, V, K_const, kappa, budget)
    n_cap = min(budget, math.ceil(K_const * V**2))
    witness = _stamped(spec, count, [(0.0, 1, n_cap,
                                      lambda r: np.minimum(kappa * eps / r, math.pi))])
    _assert_same(got, (witness, *_recomputed(spec, witness, 0.0, V)))


def test_sweep_stops_when_every_cell_is_resolved(ladder, monkeypatch):
    # the ladder orchard at eps 0.02 resolves every cell by index ~49k, an
    # eighth of the window's index range
    eps, V = 0.02, 4 * math.pi / 0.02
    K = len(build_direction_net(1, eps / (4 * V)))
    read = []
    real = vis.iter_point_chunks

    def counting(*args):
        for block in real(*args):
            read.append(len(block[0]))
            yield block

    monkeypatch.setattr(vis, "iter_point_chunks", counting)
    witness, _ = _circle_witnesses(ladder, K, *_window_arcs(ladder, 0.0, V, eps,
                                                               DEFAULT_BUDGET), 0.0, V)
    assert np.all(witness != MISS)
    assert sum(read) < annulus_index_range(0.0, V + eps, 1)[1] / 4


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
        else:
            along = coords @ centers.T
            perp = np.sqrt(np.maximum(radii[:, None] ** 2 - along**2, 0.0))
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
])
def test_window_reach_matches_brute(kind, d, delta, eps, t0, tmp_path):
    # circle grid and cube-sphere nets; window starts ahead of, at and behind
    # the origin. Random directions (the file kind) put later points within
    # eps of a direction with a smaller a, which the early stop must wait for.
    budget = DEFAULT_BUDGET
    if kind == "file":
        angles = np.random.default_rng(4).uniform(0.0, TWO_PI, 4000)
        save_sequence_file(tmp_path / "random.txt",
                           np.column_stack([np.cos(angles), np.sin(angles)]))
        spec, budget = SequenceSpec("file", path=str(tmp_path / "random.txt")), 4000
    else:
        spec = SPECS[kind] if kind in SPECS else SequenceSpec(kind, d=d)
    net, V = build_direction_net(d, delta), 60.0
    # points beyond radius |t0| + V + eps cannot come within eps of a window
    n_max = min(budget, annulus_index_range(0.0, abs(t0) + V + eps + 1.0, d)[1])
    want = _brute_reach(spec, net.centers, eps, t0, n_max)
    fits = want <= V
    assert fits.any()
    for points in (None, 3, 40):  # blocks of a few points stop the sweep early
        with _small_chunks(points):
            got = vis._window_reach(spec, net, t0, eps, V, budget)
        assert np.allclose(got[fits], want[fits], rtol=1e-12, atol=0)
        assert np.all(got[~fits] > V)


def test_line_reach_matches_brute(golden, ladder):
    eps, V = 0.3, 60.0
    for spec in (golden, ladder):
        lines = vis.random_lines(np.random.default_rng(5), 12, V)
        far = max(np.linalg.norm(line.point(t)) for line in lines for t in (line.t0, line.t1))
        _, coords = point_batch(spec, np.arange(1, math.ceil((far + eps + 1) ** 2)))
        for line in lines:
            along, perp = coords @ line.w, coords @ line.v - line.lam
            half = np.sqrt(np.maximum(eps * eps - perp * perp, 0.0))
            ok = (np.abs(perp) <= eps) & (along + half >= line.t0)
            want = np.where(ok, np.maximum(along - half - line.t0, 0.0), math.inf).min()
            got = _line_reach(spec, line, eps, DEFAULT_BUDGET)
            assert got == want if want <= V else got > V


@pytest.mark.parametrize("kind, eps_grid, t0_list", [
    ("orchard", [0.2, 0.1], (0.0,)),
    ("uniform", [0.2], (0.0, 30.0, -10.0)),
])
def test_estimate_on_supplied_net(golden, kind, eps_grid, t0_list):
    # V is the brute max over the net's cells and the t0s (one part in 1e9
    # above it); its check passes there and fails one step below
    rtol, v_cap = 0.02, 64.0
    net = build_direction_net(1, min(eps_grid) / (4 * v_cap))
    curve = estimate_min_visibility(golden, kind, eps_grid, net=net, v_cap=v_cap,
                                    t0_list=t0_list, rtol=rtol)
    for i, e in enumerate(curve.entries):
        assert e.status == "ok"
        want = max(_brute_reach(golden, net.centers, e.eps, t0, math.ceil(
            (abs(t0) + e.V + 1.0) ** 2)).max() for t0 in t0_list)
        assert e.V == pytest.approx(want * (1 + 1e-9), rel=1e-12)
        for V, passes in ((e.V, True), (e.V / (1 + rtol), False)):
            assert _passes(golden, kind, e.eps, V, t0_list, i, 64, DEFAULT_BUDGET,
                           net) is passes


def _bisection_curve(spec, kind, eps_grid, t0_list=(0.0,), v_cap=2.0**20, rtol=0.02,
                     lines_per_eps=64, seed=0):
    """The search that the direct estimate replaced: doubling from V = 1, then
    bisection to rtol, each trial a full check on its own eps/(4V) net."""
    values = []
    for i, eps in enumerate(sorted(set(eps_grid), reverse=True)):
        def ok(V):
            return _passes(spec, kind, eps, V, t0_list, seed + i, lines_per_eps,
                           DEFAULT_BUDGET, None)

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


@pytest.mark.parametrize("kind, seq, eps_grid, t0_list, lines", [
    ("uniform", "golden-angle", [0.2, 0.1], (0.0, 100.0), 64),
    ("orchard", "rational-ladder", [0.2, 0.1, 0.05], (0.0,), 64),
    ("forest", "golden-angle", [0.2], (0.0,), 16),
])
def test_estimate_within_rtol_of_bisection(kind, seq, eps_grid, t0_list, lines):
    spec, rtol = SequenceSpec(seq), 0.02
    trials = []
    real = vis._passes

    def counting(*args):
        trials.append(args[3])
        return real(*args)

    with mock.patch.object(vis, "_passes", counting):
        curve = estimate_min_visibility(spec, kind, eps_grid, t0_list=t0_list,
                                        lines_per_eps=lines, rtol=rtol)
    assert len(trials) <= 2 * len(eps_grid)
    old = _bisection_curve(spec, kind, eps_grid, t0_list, rtol=rtol, lines_per_eps=lines)
    for e, V_old in zip(curve.entries, old):
        assert e.status == "ok"
        assert abs(math.log(e.V / V_old)) <= math.log(1 + rtol)
