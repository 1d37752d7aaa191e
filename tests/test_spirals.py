import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import puncture_scan, read_points_csv, save_sequence_file, write_points_csv
from spiralvis import (
    PunctureSpec,
    PunctureUnresolvedError,
    SequenceSpec,
    annulus_index_range,
    count_in_ball,
    point_batch,
)
from spiralvis import spirals
from spiralvis.sequences import GOLDEN_RATIO, fractional_multiples
from spiralvis.spirals import (
    index_range,
    iter_point_chunks,
    puncture_blocks,
    radius_of_index,
    read_points_binary,
    write_point_blocks,
    write_points_binary,
)


def test_spiral_point_examples(ladder, golden):
    assert np.allclose(point_batch(ladder, [1, 4])[1], [[1.0, 0.0], [-2.0, 0.0]], atol=1e-12)
    (radius,), (p,) = point_batch(golden, [100])
    assert radius == pytest.approx(10.0, abs=1e-12)
    angle = math.atan2(p[1], p[0]) % (2 * math.pi)
    want = 2 * math.pi * fractional_multiples(GOLDEN_RATIO, np.array([100]))[0]
    assert angle == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radius_power_law(d):
    ns = np.unique(np.logspace(0, 7, 200).astype(np.int64))
    r = radius_of_index(ns, d)
    assert np.all(np.abs(r ** (d + 1) - ns) <= 1e-9 * ns)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 2**53 - 1))
def test_radius_d1_is_the_correctly_rounded_sqrt(n):
    assert radius_of_index(n, 1) == math.sqrt(n)
    assert radius_of_index(np.array([n], dtype=np.int64), 1)[0] == math.sqrt(n)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 2**53 - 1))
def test_radius_d2_within_one_ulp_of_the_cube_root(n):
    r = radius_of_index(np.array([n], dtype=np.int64), 2)[0]
    assert radius_of_index(n, 2) == r
    below, above = math.nextafter(r, 0.0), math.nextafter(r, math.inf)
    assert Fraction(below) ** 3 <= n <= Fraction(above) ** 3


@pytest.mark.parametrize("r,R,d,want", [
    (1.0, 2.0, 1, (1, 4)),
    (0.0, 10.0, 1, (1, 100)),
    (3.0, 3.0, 2, (27, 27)),
])
def test_annulus_range_examples(r, R, d, want):
    assert annulus_index_range(r, R, d) == want


def test_annulus_range_exact_boundaries():
    # n_lo is the least n >= 1 with n >= r^(d+1); n_hi the greatest with
    # n <= R^(d+1); verified in exact rational arithmetic
    rng = np.random.default_rng(0)
    for _ in range(300):
        d = int(rng.integers(1, 4))
        r = float(rng.uniform(0, 30))
        R = r + float(rng.uniform(0, 10))
        n_lo, n_hi = annulus_index_range(r, R, d)
        q = d + 1
        lo_pow = Fraction(r) ** q
        hi_pow = Fraction(R) ** q
        assert n_lo >= 1
        assert Fraction(n_lo) >= lo_pow or n_lo == 1
        if n_lo > 1:
            assert Fraction(n_lo - 1) < lo_pow
        assert Fraction(n_hi) <= hi_pow
        assert Fraction(n_hi + 1) > hi_pow
        if n_hi < n_lo:
            assert n_hi == n_lo - 1


# radii up to 1e4: arbitrary floats, integers (whose powers are exact
# boundaries), their float neighbours, and float square roots of indices
RADII = st.one_of(
    st.floats(0.0, 1e4),
    st.integers(0, 10**4).map(float),
    st.integers(1, 10**4).map(lambda m: math.nextafter(float(m), 0.0)),
    st.integers(0, 10**4).map(lambda m: math.nextafter(float(m), math.inf)),
    st.integers(0, 10**8).map(lambda n: math.sqrt(n)),
)


@settings(max_examples=400, deadline=None)
@given(d=st.sampled_from([1, 2]), radii=st.lists(RADII, min_size=2, max_size=2))
def test_annulus_range_fraction_oracle(d, radii):
    r, R = sorted(radii)
    n_lo, n_hi = annulus_index_range(r, R, d)
    lo_pow, hi_pow = Fraction(r) ** (d + 1), Fraction(R) ** (d + 1)
    # n_lo: the least n >= 1 with n >= r^(d+1); n_hi: the greatest n <= R^(d+1)
    assert n_lo >= 1 and Fraction(n_lo) >= lo_pow
    assert n_lo == 1 or Fraction(n_lo - 1) < lo_pow
    assert Fraction(n_hi) <= hi_pow < Fraction(n_hi + 1)


def test_annulus_range_rejects_bad_args():
    with pytest.raises(ValueError):
        annulus_index_range(2.0, 1.0, 1)
    with pytest.raises(ValueError):
        annulus_index_range(-1.0, 1.0, 1)


def test_index_range_edges():
    assert index_range(5, 20, 10, "w") == (5, 10)
    assert index_range(10, 20, 10, "w") == (10, 10)  # n_lo at the budget reads it
    with pytest.raises(ValueError, match="^w lies wholly past the index budget 10: "):
        index_range(11, 20, 10, "w")
    assert index_range(11, 10, 10, "w") == (11, 10)  # empty: nothing is read, nothing refused
    top = 2**63 - 1
    assert index_range(1, top, 2**64, "w") == (1, top)
    assert index_range(1, 2**63, top, "w") == (1, top)  # the budget keeps it inside
    with pytest.raises(ValueError, match=r"^w reaches index 9223372036854775808, past 2\^63 - 1$"):
        index_range(1, 2**63, 2**64, "w")
    with pytest.raises(ValueError, match="past 2\\^63 - 1"):
        index_range(2**63, 2**63, 2**64, "w")


def test_finite_density(golden):
    # exactly floor(T^(d+1)) points in B(0, T), by construction
    for T in (10.0, 30.0, 100.0):
        n = count_in_ball(T, 1)
        assert n == math.floor(T * T)
        assert n / T**2 <= 1.0 + 1e-12
        radii, _ = point_batch(golden, np.arange(1, n + 1, dtype=np.int64))
        assert radii.max() <= T + 1e-9


def test_chunked_generation_matches_batch(golden):
    parts = list(iter_point_chunks(golden, 5, 5000, chunk=997))
    ns = np.concatenate([p[0] for p in parts])
    coords = np.vstack([p[2] for p in parts])
    assert np.array_equal(ns, np.arange(5, 5001))
    _, want = point_batch(golden, ns)
    assert np.array_equal(coords, want)


# -- puncture ----------------------------------------------------------------


def make_puncture(ladder):
    return PunctureSpec.geometric(ladder, np.array([0.0, 1.0]), 0.5, 4, 20, 1.0)


def test_puncture_membership_geometry(ladder):
    ps = make_puncture(ladder)
    # behind the ray: distance is the norm
    assert not ps.in_region(np.array([[0.0, -3.0]]))[0]
    # on the ray within delta, radius not on an annulus
    assert ps.in_region(np.array([[0.2, 5.0]]))[0]
    # angular offset beyond (pi/2) * delta / r puts the point outside
    r = 40.0
    ang = math.pi / 2 + 1.6 * 0.5 / r
    pt = r * np.array([math.cos(ang), math.sin(ang)])
    assert not ps.in_region(pt[None, :])[0]


def test_puncture_keeps_outside_points(ladder):
    ps = make_puncture(ladder)
    (ns, coords, redirected), = puncture_blocks(ps, 1, 1)  # (1, 0): far from the +y ray
    assert redirected == 0
    assert np.array_equal(coords, point_batch(ladder, ns)[1])


def test_puncture_clears_region_up_to_1e6(ladder):
    ps = make_puncture(ladder)
    for ns, coords, _ in puncture_blocks(ps, 1, 10**6):
        assert int(ps.in_region(coords).sum()) == 0
        # redirected points keep their radius
        radii = np.linalg.norm(coords, axis=1)
        assert np.allclose(radii, radius_of_index(ns, 1), atol=1e-9)


def test_puncture_agrees_on_annuli(ladder):
    ps = make_puncture(ladder)
    (ns, coords, _), = puncture_blocks(ps, 1, 10**5)
    base = point_batch(ladder, ns)[1]
    kept = ps.in_kept_annulus(np.linalg.norm(base, axis=1))
    assert kept.sum() > 0
    assert np.array_equal(coords[kept], base[kept])


def scanned(ps, n_lo, n_hi):
    """The oracle's points over [n_lo, n_hi], or the error it raises first."""
    try:
        return np.array([puncture_scan(ps, n) for n in range(n_lo, n_hi + 1)])
    except PunctureUnresolvedError as exc:
        return exc


def streamed(ps, n_lo, n_hi):
    """``puncture_blocks``' points over [n_lo, n_hi], or the error it raises;
    each block's redirected count is the number of its points that moved."""
    try:
        blocks = list(puncture_blocks(ps, n_lo, n_hi))
    except PunctureUnresolvedError as exc:
        return exc
    for ns, coords, redirected in blocks:
        moved = np.any(coords != point_batch(ps.base, ns)[1], axis=1)
        assert redirected == moved.sum()
    return np.vstack([coords for _, coords, _ in blocks])


def test_puncture_unresolved_error(monkeypatch):
    monkeypatch.setattr(spirals, "PUNCTURE_SCAN_CAP", 500)
    stuck = SequenceSpec("constant", d=1, v=np.array([0.0, 1.0]))
    ps = PunctureSpec.geometric(stuck, np.array([0.0, 1.0]), 0.5, 4, 20, 1.0)
    for n_lo in (1, 2):  # every index is in D, so the first one fails
        got, want = streamed(ps, n_lo, 100), scanned(ps, n_lo, 100)
        assert isinstance(got, PunctureUnresolvedError)
        assert got.n == want.n == n_lo and str(got) == str(want)
    assert str(got) == "puncture unresolved for n=2: no replacement within 500 indices"


FILE_LENGTH = 2500


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["golden", "sqrt2", "ladder", "file"]),
       v0_angle=st.floats(0.0, 2 * math.pi), delta=st.floats(0.05, 2.0),
       n_lo=st.one_of(st.integers(1, FILE_LENGTH), st.integers(1, 10**6)),
       count=st.integers(1, 1500), seed=st.integers(0, 2**32 - 1),
       round_size=st.sampled_from([1, 7, 64, spirals.PUNCTURE_ROUND]))
def test_puncture_blocks_match_the_scalar_scan(tmp_path_factory, kind, v0_angle, delta,
                                               n_lo, count, seed, round_size):
    v0 = np.array([math.cos(v0_angle), math.sin(v0_angle)])
    if kind == "file":
        # most directions within a few strip widths of v0, so that redirects
        # read many candidates, and run into the file's end
        rng = np.random.default_rng(seed)
        near = v0_angle + rng.normal(0.0, 0.02, FILE_LENGTH)
        angles = np.where(rng.random(FILE_LENGTH) < 0.8, near,
                          rng.uniform(0.0, 2 * math.pi, FILE_LENGTH))
        path = tmp_path_factory.mktemp("seq") / "dirs.txt"
        save_sequence_file(path, np.column_stack([np.cos(angles), np.sin(angles)]))
        base = SequenceSpec("file", path=str(path))
        n_lo = min(n_lo, FILE_LENGTH)
        n_hi = min(n_lo + count - 1, FILE_LENGTH)
    else:
        base = {"golden": SequenceSpec("golden-angle"),
                "sqrt2": SequenceSpec("golden-angle", theta=math.sqrt(2.0)),
                "ladder": SequenceSpec("rational-ladder")}[kind]
        n_hi = n_lo + count - 1
    ps = PunctureSpec.geometric(base, v0, delta, 4, 20, 1.0)
    with mock.patch.object(spirals, "PUNCTURE_ROUND", round_size):
        got = streamed(ps, n_lo, n_hi)
    want = scanned(ps, n_lo, n_hi)
    if isinstance(want, PunctureUnresolvedError):
        assert isinstance(got, PunctureUnresolvedError) and str(got) == str(want)
    else:
        assert np.array_equal(got, want)


def test_puncture_schedule_validation(ladder):
    with pytest.raises(ValueError):
        PunctureSpec(base=ladder, v0=np.array([0.0, 1.0]), delta=0.5,
                     outer_radii=np.array([16.0]), thicknesses=np.array([20.0]))
    with pytest.raises(ValueError):
        PunctureSpec.factorial(ladder, np.array([0.0, 1.0]), 0.5, n_lo=3, n_hi=7,
                               scale_constant=1.0)
    ok = PunctureSpec.factorial(ladder, np.array([0.0, 1.0]), 0.5, n_lo=5, n_hi=7,
                                scale_constant=1.0)
    assert ok.outer_radii[-1] == math.factorial(7)


def test_point_dump_round_trips(tmp_path, golden):
    ns = np.arange(1, 101, dtype=np.int64)
    _, coords = point_batch(golden, ns)
    csv = tmp_path / "pts.csv"
    write_point_blocks(csv, 1, 1, 100, [(ns, coords)])
    back_n, back_x = read_points_csv(csv)
    assert np.array_equal(back_n, ns)
    assert np.allclose(back_x, coords, atol=0)

    binp = tmp_path / "pts.bin"
    write_points_binary(binp, 1, 1, 100, coords)
    d, lo, hi, back = read_points_binary(binp)
    assert (d, lo, hi) == (1, 1, 100)
    assert np.array_equal(back, coords)


def test_csv_dump_matches_one_savetxt(tmp_path, golden):
    ns = np.arange(1, 301, dtype=np.int64)
    _, coords = point_batch(golden, ns)
    write_point_blocks(tmp_path / "got.csv", 1, 1, 300,
                       [(ns[:128], coords[:128]), (ns[128:], coords[128:])])
    write_points_csv(tmp_path / "want.csv", ns, coords)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_binary_dump_validates_shape(tmp_path):
    with pytest.raises(ValueError):
        write_points_binary(tmp_path / "x.bin", 1, 1, 10, np.zeros((5, 2)))


def _raw_dump(path, header, n_floats):
    path.write_bytes(np.array(header, dtype="<i8").tobytes()
                     + np.zeros(n_floats, dtype="<f8").tobytes())
    return path


def test_binary_dump_rejects_truncated_file(tmp_path):
    path = _raw_dump(tmp_path / "x.bin", [1, 1, 10], 19)
    with pytest.raises(ValueError):
        read_points_binary(path)
    (tmp_path / "h.bin").write_bytes(b"\x01" * 10)
    with pytest.raises(ValueError):
        read_points_binary(tmp_path / "h.bin")


def test_binary_dump_rejects_trailing_bytes(tmp_path):
    path = _raw_dump(tmp_path / "x.bin", [1, 1, 10], 21)
    with pytest.raises(ValueError):
        read_points_binary(path)


def test_binary_dump_rejects_negative_row_count(tmp_path):
    # n_hi = n_lo - 2 would be -1 rows; 5 rows of payload must not rescue it
    path = _raw_dump(tmp_path / "x.bin", [1, 3, 1], 10)
    with pytest.raises(ValueError):
        read_points_binary(path)
    empty = _raw_dump(tmp_path / "e.bin", [1, 3, 2], 0)
    d, lo, hi, coords = read_points_binary(empty)
    assert (d, lo, hi) == (1, 3, 2) and coords.shape == (0, 2)


def test_binary_dump_rejects_bad_dimension(tmp_path):
    for d in (0, -2):
        path = _raw_dump(tmp_path / f"d{d}.bin", [d, 1, 10], 10)
        with pytest.raises(ValueError):
            read_points_binary(path)
