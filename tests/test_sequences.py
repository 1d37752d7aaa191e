import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    fibonacci_sphere_direction,
    save_sequence_file,
    star_discrepancy,
    triangular_isqrt,
)
from spiralvis import (
    GOLDEN_RATIO,
    SequenceSpec,
    direction_batch,
    triangular_decompose,
    unit_vector,
)
from spiralvis.covering import _window_radius
from spiralvis.sequences import (
    angle_batch,
    convergents,
    fractional_multiples,
    load_sequence_file,
    rotation_largest_gap,
    shell_start,
)

TWO_PI = 2 * math.pi


@pytest.mark.parametrize("n,k,p", [(1, 1, 0), (10, 4, 0), (12, 4, 2), (2, 1, 1),
                                   (3, 2, 0), (5, 2, 2), (6, 3, 0)])
def test_triangular_examples(n, k, p):
    assert triangular_decompose(n) == (k, p)
    ks, ps = triangular_decompose(np.array([n], dtype=np.int64))
    assert (ks.tolist(), ps.tolist()) == ([k], [p])
    assert shell_start(k) + p == n


def test_triangular_rejects_nonpositive():
    with pytest.raises(ValueError):
        triangular_decompose(0)
    with pytest.raises(ValueError):
        triangular_decompose(np.array([3, 0], dtype=np.int64))


def test_triangular_round_trip_to_1e7():
    ns = np.arange(1, 10**7 + 1, dtype=np.int64)
    k, p = triangular_decompose(ns)
    assert np.all(shell_start(k) + p == ns)
    assert np.all(p >= 0)
    assert np.all(p <= k)
    assert np.all(k >= 1)


INT64_MAX = 2**63 - 1


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, INT64_MAX), k=st.integers(1, 2**32 - 1),
       step=st.sampled_from([-1, 0, 1, "k", "k+1"]))
@example(n=INT64_MAX, k=2**32 - 1, step=0)
@example(n=2**62 - 5, k=3_037_000_499, step=-1)
@example(n=2**53, k=2**27, step=-1)
@example(n=1, k=1, step=-1)
def test_triangular_bracket(n, k, step):
    """Both forms, the Python int's and the int64 array's, give the isqrt
    reference's (k, p) for any index n in [1, 2^63 - 1] and next to the
    triangular numbers up to k = 2^32 - 1, the last shell an int64 index
    reaches: at k(k+1)/2 - 1, k(k+1)/2, k(k+1)/2 + 1 and the shell's last
    two indices. There the array form's float root is one off either way,
    and k(k+1) passes 2^63 from k = 3,037,000,499 on."""
    step = {"k": k, "k+1": k + 1}.get(step, step)
    ns = [n, min(INT64_MAX, max(1, k * (k + 1) // 2 + step))]
    ks, ps = triangular_decompose(np.array(ns, dtype=np.int64))
    assert list(zip(ks.tolist(), ps.tolist())) == [triangular_isqrt(m) for m in ns]
    assert [triangular_decompose(m) for m in ns] == [triangular_isqrt(m) for m in ns]
    assert np.array_equal(shell_start(ks), [shell_start(j) for j in ks.tolist()])


def test_ladder_terms(ladder):
    assert np.allclose(direction_batch(ladder, [1]), [[1.0, 0.0]], atol=1e-15)
    # n=4 -> k=2, p=1 -> angle pi
    assert np.allclose(direction_batch(ladder, [4]), [[-1.0, 0.0]], atol=1e-12)


def test_golden_angle_first_term(golden):
    u = direction_batch(golden, [1])[0]
    angle = math.atan2(u[1], u[0]) % TWO_PI
    assert angle == pytest.approx(TWO_PI * (GOLDEN_RATIO - 1.0), abs=1e-9)


def test_fractional_multiples_precision():
    # split arithmetic keeps |{n theta}| accurate where naive float64 drifts
    ns = np.array([10**7], dtype=np.int64)
    got = fractional_multiples(GOLDEN_RATIO, ns)[0]
    import fractions
    exact = fractions.Fraction(GOLDEN_RATIO) * 10**7
    want = float(exact - math.floor(exact))
    assert got == pytest.approx(want, abs=1e-9)


def _fixed_point(theta: float) -> bool:
    """True when {theta} is a multiple of 2^-64, the fixed-point branch."""
    return (Fraction(theta) % 1 * 2**64).denominator == 1


SMALL_THETAS = st.floats(2.0**-60, 2.0**-11).flatmap(lambda t: st.sampled_from([t, -t]))
THETAS = (st.sampled_from([GOLDEN_RATIO, GOLDEN_RATIO - 1.0, -GOLDEN_RATIO,
                           1.0 - GOLDEN_RATIO, 2.0**-11, -(2.0**-12)])
          | st.floats(-1e6, 1e6, allow_nan=False) | SMALL_THETAS)


@settings(max_examples=300, deadline=None)
@given(theta=THETAS, n=st.integers(-(2**62), 2**62))
@example(theta=GOLDEN_RATIO, n=2**62)
@example(theta=GOLDEN_RATIO - 1.0, n=10**7)
def test_fractional_multiples_fixed_point_is_exact(theta, n):
    assume(_fixed_point(theta))
    got = fractional_multiples(theta, np.array([n], dtype=np.int64))[0]
    assert got == math.floor(Fraction(theta) * n % 1 * 2**53) / 2**53


@settings(max_examples=200, deadline=None)
@given(theta=SMALL_THETAS, n=st.integers(0, 10**7))
@example(theta=1e-5, n=10**7)
@example(theta=-(2.0**-40) * 3, n=12345)
def test_fractional_multiples_fine_theta_falls_back(theta, n):
    # a {theta} finer than 2^-64 keeps the split-float sum, ~1e-12 up to n = 1e7
    assume(not _fixed_point(theta))
    got = fractional_multiples(theta, np.array([n], dtype=np.int64))[0]
    err = abs(got - float(Fraction(theta) * n % 1))
    assert min(err, 1.0 - err) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(x=st.fractions(max_denominator=2**70)
       | st.floats(-1e6, 1e6, allow_nan=False).map(Fraction))
@example(x=Fraction(0))
@example(x=Fraction(1, 2))
def test_convergents_end_at_x_and_approach_it(x):
    pairs = list(convergents(x))
    assert pairs[0] == (math.floor(x), 1)
    assert Fraction(*pairs[-1]) == x
    for (p, q), (_, q_next) in zip(pairs, pairs[1:]):
        assert q <= q_next
        assert abs(x - Fraction(p, q)) <= Fraction(1, q * q_next)


def _sorted_gap(alpha: int, start: int, N: int) -> int:
    """The largest gap between circularly adjacent distinct points of
    n * alpha mod 2^64, start <= n < start + N, from a sort of Python ints."""
    turns = sorted({n * alpha % 2**64 for n in range(start, start + N)})
    return max(b - a for a, b in zip(turns, turns[1:] + [turns[0] + 2**64]))


@settings(max_examples=300, deadline=None)
@given(theta=st.sampled_from([GOLDEN_RATIO, math.sqrt(2.0), 0.5, 1 / 3, 0.11, 3.0])
       | st.integers(0, 2**64 - 1).map(lambda alpha: alpha / 2**64)
       | st.floats(2.0**-12, 1.0),
       start=st.integers(0, 2**62), N=st.integers(1, 2**12))
@example(theta=GOLDEN_RATIO, start=0, N=1)
@example(theta=0.5, start=7, N=3)  # two distinct points repeat: one gap of a half turn
def test_rotation_largest_gap_matches_a_sort(theta, start, N):
    alpha = int(Fraction(theta) % 1 * 2**64)
    assert rotation_largest_gap(theta, N) == _sorted_gap(alpha, start, N)


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(2.0**-12, 1e6) | st.sampled_from([GOLDEN_RATIO, math.sqrt(2.0)]),
       start=st.integers(0, 10**9), N=st.integers(1, 2**16))
def test_rotation_largest_gap_matches_the_window_radius(theta, start, N):
    # the float directions' covering radius is half their largest gap: it
    # lies within the truncation of each turn to 53 bits (2^11 units) and the
    # rounding of cos, sin and arctan2 (a few ulps of 2*pi) of the kernel's
    radius = _window_radius(SequenceSpec("golden-angle", theta=theta), start, N, None, 2**62)
    half = rotation_largest_gap(theta, N) * math.pi / 2**64
    assert abs(radius - half) <= 2**11 * math.pi / 2**64 + 4 * np.spacing(TWO_PI)


def test_rotation_largest_gap_needs_an_integer_alpha_and_a_point():
    assert rotation_largest_gap(1e-5, 10) is None  # the float fallback's theta
    assert rotation_largest_gap(0.0, 5) == 2**64
    with pytest.raises(ValueError, match="N >= 1"):
        rotation_largest_gap(GOLDEN_RATIO, 0)


def test_fractional_multiples_branches():
    assert _fixed_point(GOLDEN_RATIO) and _fixed_point(-(2.0**-12))
    assert not _fixed_point(1e-5) and not _fixed_point(3 * 2.0**-70)


@pytest.mark.parametrize("kind", ["golden-angle", "rational-ladder"])
def test_closed_form_angles_match_arctan2(kind):
    spec = SequenceSpec(kind)
    rng = np.random.default_rng(5)
    ns = np.concatenate([np.arange(1, 5000), rng.integers(1, 10**12, 20000)])
    got = angle_batch(spec, ns)
    assert np.all((got >= 0.0) & (got <= TWO_PI))
    u = direction_batch(spec, ns)
    gap = (got - np.arctan2(u[:, 1], u[:, 0])) % TWO_PI
    assert np.max(np.minimum(gap, TWO_PI - gap)) <= 1e-15


def test_angles_of_other_kinds_are_arctan2():
    got = angle_batch(SequenceSpec("constant", d=1, v=np.array([-1.0, -1.0])),
                      np.arange(1, 4))
    assert np.all(got == math.atan2(-1.0, -1.0))


def test_golden_equidistribution_smoke(golden):
    n = 10**5
    vals = fractional_multiples(GOLDEN_RATIO, np.arange(1, n + 1))
    assert star_discrepancy(vals) < 10 / math.sqrt(n)


def test_constant_sequence_is_constant(constant_seq):
    pts = direction_batch(constant_seq, np.arange(1, 100, dtype=np.int64))
    assert np.all(pts == pts[0])


def test_kind_dimension_validation():
    with pytest.raises(ValueError):
        SequenceSpec("golden-angle", d=2)
    with pytest.raises(ValueError):
        SequenceSpec("fibonacci-sphere", d=1)
    with pytest.raises(ValueError):
        SequenceSpec("constant", d=1)  # needs v
    with pytest.raises(ValueError):
        SequenceSpec("file", d=1)  # needs path
    with pytest.raises(ValueError):
        SequenceSpec("spiral-of-doom", d=1)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2**53, INT64_MAX))
@example(n=2**62 - 1)
@example(n=2**62)
@example(n=2**62 + 5)
@example(n=INT64_MAX)
def test_fibonacci_sphere_matches_int_formula(n):
    """The block of n is its bit length less one for every int64 index: the
    float log2 rounds up to the next power of two below it, and no shift
    passes bit 62."""
    spec = SequenceSpec("fibonacci-sphere", d=2)
    got = direction_batch(spec, np.array([n], dtype=np.int64))[0]
    assert np.allclose(got, fibonacci_sphere_direction(n), rtol=0.0, atol=1e-12)


def test_fibonacci_sphere_blocks(fib_sphere):
    pts = direction_batch(fib_sphere, np.arange(1, 4097, dtype=np.int64))
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # block at index 2^b holds a full 2^b-point lattice: its covering is small
    from spiralvis import covering_radius
    block = pts[1023:2047]
    assert covering_radius(block, d=2, resolution=0.1) < 0.15


def test_file_sequence_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((50, 2))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    path = tmp_path / "seq.txt"
    save_sequence_file(path, pts)
    spec = SequenceSpec("file", d=1, path=str(path))
    assert np.allclose(direction_batch(spec, [7]), pts[6:7], atol=1e-12)
    with pytest.raises(IndexError):
        direction_batch(spec, [51])
    loaded = load_sequence_file(path, 1)
    assert np.allclose(loaded, pts, atol=1e-12)


def test_file_normalizes_on_load(tmp_path):
    path = tmp_path / "raw.txt"
    path.write_text("3 4\n0 2\n")
    loaded = load_sequence_file(path, 1)
    assert np.allclose(np.linalg.norm(loaded, axis=1), 1.0)


def test_directions_that_cannot_be_normalized_are_rejected(tmp_path):
    for v in ([0.0, 0.0, 0.0], [math.nan, 0.0, 1.0], [math.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="cannot be normalized"):
            SequenceSpec("constant", d=2, v=np.array(v))
    path = tmp_path / "rows.txt"
    for bad in ("nan 0 1", "0 inf 0", "0 0 0", "1e308 inf 0"):
        path.write_text(f"0 0 1\n1 0 0\n{bad}\n")
        with pytest.raises(ValueError, match="row 3 .* cannot be normalized"):
            load_sequence_file(path, 2)


def test_tiny_and_huge_directions_are_normalized(tmp_path):
    # squared norms that underflow to 0 or overflow to inf, and their unit vectors
    cases = {(1e-200, 0.0): (1.0, 0.0), (3e-170, 4e-170): (0.6, 0.8),
             (1e308, 1e308): (math.sqrt(0.5), math.sqrt(0.5)),
             (-5e-324, 0.0): (-1.0, 0.0)}
    path = tmp_path / "rows.txt"
    path.write_text("".join(f"{x!r} {y!r}\n" for x, y in cases))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = load_sequence_file(path, 1)
        for (v, want), row in zip(cases.items(), rows):
            for got in (SequenceSpec("constant", d=1, v=list(v)).v, unit_vector(v), row):
                assert got == pytest.approx(want, rel=1e-15)
    # a direction whose norm is representable keeps the bits of v / |v|
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-150, 150, (200, 1))
    save_sequence_file(path, pts)
    pts = np.loadtxt(path)
    assert np.array_equal(load_sequence_file(path, 2),
                          pts / np.linalg.norm(pts, axis=1, keepdims=True))
    for v in pts[:20]:
        want = v / np.linalg.norm(v)
        assert np.array_equal(SequenceSpec("constant", d=2, v=v).v, want)
        assert np.array_equal(unit_vector(v), want)


def test_spec_json_round_trip(tmp_path, golden, constant_seq):
    for spec in (golden, constant_seq, SequenceSpec("rational-ladder")):
        blob = json.dumps(spec.to_json())
        back = SequenceSpec.from_json(json.loads(blob))
        assert back.kind == spec.kind
        assert back.d == spec.d
        got = direction_batch(back, np.arange(1, 20, dtype=np.int64))
        want = direction_batch(spec, np.arange(1, 20, dtype=np.int64))
        assert np.array_equal(got, want)


def test_indices_must_be_positive(golden):
    with pytest.raises(ValueError):
        direction_batch(golden, [0])
    with pytest.raises(ValueError):
        direction_batch(golden, np.array([3, -1]))
