import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest

from oracles import growth_along_h, net_directions
import spiralvis.covering as covering
from spiralvis import (
    build_direction_net,
    covering_radius,
    direction_batch,
    uniform_covering_parameter,
    uniform_orchard_criterion,
    visibility_from_covering,
)
from spiralvis.cli import build_parser, main
from spiralvis.covering import DEFAULT_H_CAP, _net_covering_radius
from spiralvis.reports import dump_json

GOLDEN_100_RADIUS = 0.04132959128021163  # exact gap scan, first 100 terms


def window_indices(spec, h, x):
    """The indices h^(d+1)+1 .. h^(d+1)+floor(x) of a window of the windowed
    covering criteria."""
    start = h ** (spec.d + 1)
    return np.arange(start + 1, start + int(x) + 1)


def circle_points(angles):
    a = np.asarray(angles, dtype=np.float64)
    return np.column_stack([np.cos(a), np.sin(a)])


def test_covering_radius_examples():
    four = circle_points([0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert covering_radius(four, d=1) == pytest.approx(math.pi / 4)
    assert covering_radius(circle_points([1.3]), d=1) == pytest.approx(math.pi)


def test_covering_radius_golden_100(golden):
    pts = direction_batch(golden, np.arange(1, 101, dtype=np.int64))
    assert covering_radius(pts, d=1) == pytest.approx(GOLDEN_100_RADIUS, abs=1e-12)


def test_covering_radius_invariances():
    rng = np.random.default_rng(0)
    angles = rng.uniform(0, 2 * math.pi, 40)
    pts = circle_points(angles)
    base = covering_radius(pts, d=1)
    perm = covering_radius(pts[rng.permutation(40)], d=1)
    assert perm == pytest.approx(base, abs=1e-15)
    rot = rng.uniform(0, 2 * math.pi)
    R = np.array([[math.cos(rot), -math.sin(rot)], [math.sin(rot), math.cos(rot)]])
    rotated = covering_radius(pts @ R.T, d=1)
    assert rotated == pytest.approx(base, abs=1e-9)


def test_covering_radius_net_mode_agrees_with_exact():
    # the sup over a circle net of mesh 0.02 of the distance to the set
    grid = net_directions(build_direction_net(1, 0.02))
    rng = np.random.default_rng(1)
    for _ in range(100):
        pts = circle_points(rng.uniform(0, 2 * math.pi, rng.integers(2, 50)))
        exact = covering_radius(pts, d=1)
        on_net = float(np.arccos(np.clip((grid @ pts.T).max(axis=1), -1, 1)).max())
        assert abs(on_net - exact) <= 0.02


def test_sphere_net_radius_agrees_across_resolutions(fib_sphere):
    # each net value lies at most its mesh below the true radius and never
    # above it, so the values at two resolutions bracket each other
    for start, count in ((0, 40), (1000, 300), (8**3, 64)):
        pts = direction_batch(fib_sphere, np.arange(start + 1, start + count + 1))
        coarse = covering_radius(pts, d=2, resolution=0.1)
        fine = covering_radius(pts, d=2, resolution=0.03)
        assert coarse <= fine + 0.03
        assert fine <= coarse + 0.1


def test_sphere_net_radius_blocks_agree_and_stay_small(monkeypatch):
    # blocks of centers down to one row give the sup of the one product of
    # all centers with all points, up to rounding: BLAS may take another
    # kernel for a block of another shape and round its dots differently
    rng = np.random.default_rng(6)
    for d, resolution in ((2, 0.1), (3, 0.2)):
        pts = rng.normal(size=(700, d + 1))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        centers = build_direction_net(d, resolution).centers
        whole = float(np.arccos(np.clip((centers @ pts.T).max(axis=1), -1, 1)).max())
        for dots in (1, 700, 5000, 1 << 22):
            monkeypatch.setattr(covering, "_DOTS_PER_PRODUCT", dots)
            got = _net_covering_radius(pts, d, resolution)
            assert got == pytest.approx(whole, rel=0, abs=1e-12)
    # 1014 centers x 5000 points take 40 MB in one product, 0.5 MB per block
    pts = rng.normal(size=(5000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    monkeypatch.setattr(covering, "_DOTS_PER_PRODUCT", 1 << 16)
    tracemalloc.start()
    try:
        _net_covering_radius(pts, 2, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_covering_radius_errors():
    with pytest.raises(ValueError):
        covering_radius(np.zeros((0, 2)), d=1)
    with pytest.raises(ValueError, match="needs a resolution"):
        covering_radius(np.eye(3), d=2)


def test_window_nesting_and_monotone_covering(golden):
    small = window_indices(golden, 3, 10.0)
    large = window_indices(golden, 3, 25.0)
    assert set(small.tolist()) <= set(large.tolist())
    r_small = covering_radius(direction_batch(golden, small), d=1)
    r_large = covering_radius(direction_batch(golden, large), d=1)
    assert r_large <= r_small + 1e-15


def test_ucp_constant_diverges(constant_seq):
    est = uniform_covering_parameter(constant_seq, 1.0, [0], [100, 1000, 10000])
    scaled = [row["scaled"] for row in est.rows]
    # distance to the antipode is pi, so the estimate grows like N * pi
    assert scaled == pytest.approx([math.pi * 100, math.pi * 1000, math.pi * 10000])


def test_ucp_single_window_reduction(golden):
    est = uniform_covering_parameter(golden, 1.0, [5], [1])
    # any single direction covers at pi
    assert est.uniform_covering_parameter == pytest.approx(math.pi)


def test_ucp_golden_bounded(golden):
    est = uniform_covering_parameter(golden, 1.0, [0, 1000, 10**6],
                                     [100, 1000, 10000])
    assert est.uniform_covering_parameter < 8.0
    assert est.grids["N"] == [100, 1000, 10000]


def test_criterion_cells_reproducible(golden):
    table = uniform_orchard_criterion(golden, lambda e: 1.0 / e, K=1.0,
                                      eps_grid=(0.1,), h_mults=(2,))
    row = table.rows[0]
    h, eps = row["h"], row["eps"]
    w = window_indices(golden, h, 1.0 * h * (1.0 / eps))
    again = covering_radius(direction_batch(golden, w), d=1)
    assert row["radius"] == pytest.approx(again, abs=0)
    assert row["value"] == pytest.approx(h / eps * again, abs=0)


def test_criterion_golden_bounded_constant_grows(golden, constant_seq):
    tab = uniform_orchard_criterion(golden, lambda e: 1.0 / e)
    assert tab.sup < 8.0
    tab_const = uniform_orchard_criterion(constant_seq, lambda e: 1.0 / e)
    for ratios in growth_along_h(tab_const).values():
        assert all(r >= 1.5 for r in ratios)


def test_criterion_skips_over_budget(golden):
    tab = uniform_orchard_criterion(golden, lambda e: 1.0 / e, eps_grid=(0.001,),
                                    h_mults=(1, 1024), index_budget=10**6)
    statuses = [row["status"] for row in tab.rows]
    assert "skipped" in statuses


def test_tables_read_windows_through_one_budget_rule(golden):
    # one window cut by the budget: covering refuses it, criterion skips its
    # row, defvisi leaves its h out; a window ending at the budget is read
    with pytest.raises(ValueError, match=r"^window \[1001, 2000.0\] exceeds index budget 1999$"):
        uniform_covering_parameter(golden, 1.0, [0, 1000], [100, 1000], index_budget=1999)
    last = uniform_covering_parameter(golden, 1.0, [0, 1000], [100, 1000],
                                      index_budget=2000).rows[-1]
    assert (last["m"], last["N"]) == (1000, 1000)
    with pytest.raises(ValueError, match=r"^window \[1, inf\] exceeds index budget"):
        uniform_covering_parameter(golden, 1e300, [0], [1e10])  # C*N is inf
    # h = 10 and 20 read [101, 200] and [401, 600]
    full, cut = (uniform_orchard_criterion(golden, lambda e: 1.0 / e, eps_grid=(0.1,),
                                           h_mults=(1, 2), index_budget=budget)
                 for budget in (600, 599))
    assert [row["status"] for row in full.rows] == ["ok", "ok"]
    assert full.argmax == {"eps": 0.1, "h": 20}
    assert [row["status"] for row in cut.rows] == ["ok", "skipped"]
    assert cut.rows[1]["radius"] is None and cut.rows[0] == full.rows[0]
    assert (cut.sup, cut.argmax) == (full.rows[0]["value"], {"eps": 0.1, "h": 10})
    # x = 7 reads h = 8 and 16, [65, 120] and [257, 368]
    full, cut = (visibility_from_covering(golden, (0.2,), (7,), h_cap=16,
                                          index_budget=budget).inner[0]
                 for budget in (368, 367))
    assert full["h_argmax"] == 16
    radius = covering_radius(direction_batch(golden, window_indices(golden, 8, 8 * 7)), d=1)
    assert cut == {"x": 7.0, "sup": 8 * radius, "h_argmax": 8}


def test_visibility_from_covering_monotone(golden):
    curve = visibility_from_covering(golden, (0.2, 0.1, 0.05),
                                     (1, 2, 4, 8, 16, 32, 64, 128, 256))
    vals = {entry["eps"]: entry["V"] for entry in curve.curve}
    assert vals[0.05] <= vals[0.1] <= vals[0.2]
    assert vals[0.2] > 0
    inner = [row["sup"] for row in curve.inner]
    assert all(b <= a * 1.05 for a, b in zip(inner, inner[1:]))  # trajectory sinks


def test_one_default_window_scale_cap():
    # defvisi and the library read the same window scales by default
    default = inspect.signature(visibility_from_covering).parameters["h_cap"].default
    assert default == DEFAULT_H_CAP == build_parser().parse_args(["defvisi"]).h_cap


def test_visibility_from_covering_constant_zero(constant_seq):
    curve = visibility_from_covering(constant_seq, (0.2, 0.1), (1, 2, 4, 8),
                                     h_cap=64)
    assert all(entry["V"] == 0.0 for entry in curve.curve)


def test_visibility_from_covering_refuses_an_empty_x_grid(golden, capsys):
    # an empty grid once read V = 0.0 in the library; the CLI names the flag
    with pytest.raises(ValueError, match="x grid needs at least one value"):
        visibility_from_covering(golden, (0.2,), ())
    with pytest.raises(SystemExit) as err:
        main(["defvisi", "--eps", "0.2", "--x-grid", ""])
    assert err.value.code == 2 and "--x-grid" in capsys.readouterr().err


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_visibility_from_covering_refuses_a_non_finite_x(golden, x):
    # floor(x) once raised a bare ValueError for nan and an OverflowError
    # for +-inf; the refusal names the value before any window is read
    with pytest.raises(ValueError, match=f"^the x grid value {x!r} is not finite$"):
        visibility_from_covering(golden, (0.2,), (2.0, x))


def test_sup_over_no_measured_window_is_unbounded(capsys):
    # a budget that cuts every window of an x leaves its inner sup inf, so no
    # eps holds it feasible; a criterion with no measured row has sup inf
    def payload(*argv):
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    curve = payload("defvisi", "--budget", "3")["curve"]
    assert {row["sup"] for row in curve["inner"]} == {"inf"}
    assert [entry["V"] for entry in curve["curve"]] == [0.0, 0.0, 0.0]
    curve = payload("defvisi", "--budget", "1000")["curve"]
    inner = {row["x"]: row for row in curve["inner"]}
    assert all(inner[x]["sup"] == "inf" and inner[x]["h_argmax"] is None for x in (32.0, 64.0))
    assert all(isinstance(inner[x]["sup"], float) for x in (1.0, 2.0, 4.0, 8.0, 16.0))
    assert [entry["V"] for entry in curve["curve"]] == [0.0, 0.0, 0.0]
    table = payload("criterion", "--budget", "20")["table"]
    assert {row["status"] for row in table["rows"]} == {"skipped"} and len(table["rows"]) == 12
    assert (table["sup"], table["argmax"]) == ("inf", None)


def test_covering_parameter_over_an_empty_grid_is_unbounded(golden):
    # once -inf at argmax (0, 0), a cell outside the grid
    est = uniform_covering_parameter(golden, 1.0, [], [100])
    assert (est.uniform_covering_parameter, est.argmax, est.rows) == (math.inf, None, [])
    assert json.loads(dump_json(est))["argmax"] is None
    # N = 0 scaled an empty window's inf radius by 0: a nan cell
    for N_grid in ([0], [0, 100], [100, math.nan]):
        with pytest.raises(ValueError, match="is empty, so it has no covering radius"):
            uniform_covering_parameter(golden, 1.0, [0], N_grid)
    # a window of int(C*N) = 0 points has no covering radius; it once read as inf
    with pytest.raises(ValueError, match=r"^the window of 0.5 points after index 0 is empty"):
        uniform_covering_parameter(golden, 0.5, [0], [1, 100])
    with pytest.raises(ValueError, match="scale constant C must be positive, got 0"):
        uniform_covering_parameter(golden, 0.0, [0], [100])
