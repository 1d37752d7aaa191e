"""Spherical sequences feeding the spiral construction.

Planar kinds: ``golden-angle`` (angle 2*pi*n*theta, default theta the golden
ratio) and ``rational-ladder`` (angle 2*pi*p/k from the triangular
decomposition n = k(k+1)/2 + p, which ``triangular_decompose`` reads exactly
for every int64 index). For S^2 a block-structured spherical Fibonacci
lattice stands in for explicit higher-dimensional constructions;
``constant`` is a negative control and ``file`` reads user-supplied points.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .sphere import normalized

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
TWO_PI = 2.0 * math.pi

KINDS = ("golden-angle", "rational-ladder", "fibonacci-sphere", "constant", "file")


def shell_start(k):
    """k(k+1)/2, the first index of the ladder's shell k, for a Python int
    or an int64 array. The array product is taken in uint64, so it is exact
    for every k < 2^32, which holds the shell of every int64 index."""
    if isinstance(k, np.ndarray):
        k = k.view(np.uint64)
        return (k * (k + 1) >> np.uint64(1)).view(np.int64)
    return k * (k + 1) // 2


def triangular_decompose(n):
    """The unique (k, p) with n = k(k+1)/2 + p, 0 <= p <= k, for a Python
    int n >= 1 or an int64 array of them, exact for every n < 2^63. An int
    takes the largest k with 2k+1 <= isqrt(8n+1). For an array, (sqrt(8n) -
    1)/2 lies in (k - 1/2, k + 1), below k only at a shell's first index, so
    its float floor is off by at most one, either way, and one
    ``shell_start`` picks the way."""
    if not isinstance(n, np.ndarray):
        if n < 1:
            raise ValueError(f"index must be >= 1, got {n}")
        k = (math.isqrt(8 * n + 1) - 1) // 2
        return k, n - shell_start(k)
    if n.size and n.min() < 1:
        raise ValueError("indices must be >= 1")
    k = ((np.sqrt(8.0 * n) - 1.0) / 2.0).astype(np.int64)
    start = shell_start(k)
    k += (n - start > k).astype(np.int64) - (start > n)
    return k, n - shell_start(k)


def fractional_multiples(theta: float, ns: np.ndarray) -> np.ndarray:
    """{n * theta} for the float ``theta``, exact to 2^-53.

    theta's fractional part is a dyadic rational; when it is a multiple of
    2^-64 (every theta of magnitude 2^-12 or more), alpha = {theta} * 2^64
    is an integer and n * alpha mod 2^64 is 2^64 * {n * theta} exactly, so
    wrap-around uint64 products give floor({n * theta} * 2^53) / 2^53 for
    every int64 n. Finer thetas fall back to a split-theta float sum: a
    26-bit head (product exact for n < 2^26) and a tail, accurate to ~1e-12
    for n up to 1e7.
    """
    alpha = Fraction(theta) % 1 * 2**64
    if alpha.denominator != 1:
        ns = np.asarray(ns, dtype=np.float64)
        scale = 2.0**26
        hi = math.floor(theta * scale) / scale
        lo = theta - hi
        frac = (ns * hi) % 1.0 + ns * lo
        return frac % 1.0
    fixed = np.asarray(ns, dtype=np.int64).view(np.uint64) * np.uint64(alpha.numerator)
    fixed >>= np.uint64(11)
    return fixed * 2.0**-53


def convergents(x: Fraction):
    """(p, q) of each continued-fraction convergent p/q of the rational x,
    from p/q = floor(x)/1 to x itself; q is nondecreasing and each p/q lies
    within 1/(q q') of x, q' the next convergent's denominator."""
    num, den = x.numerator, x.denominator
    p_prev, q_prev, p, q = 0, 1, 1, 0  # p/q of the indices -2 and -1
    while den:
        a, (num, den) = num // den, (den, num % den)
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        yield p, q


MAX_CONVERGENT = 1 << 31  # j * p^-1 mod q stays inside int64 for q up to this


@functools.cache
def rotation_convergents(theta: float):
    """(q, p, p^-1 mod q) arrays of the continued-fraction convergents p/q of
    x = alpha / 2^64 with q <= MAX_CONVERGENT, q nondecreasing, or None when
    alpha = {theta} * 2^64 is no integer (``fractional_multiples``' float
    fallback). Each satisfies |x - p/q| < 1/(q q'), q' the next convergent's
    denominator, or x = p/q, so {(b + j) x} lies within j/(q q') < 1/q of
    {b x} + (j p mod q)/q for 0 <= j < q: the three-distance structure of
    {n theta} (Sos 1958) in the form the golden segment scans read."""
    alpha = Fraction(theta) % 1 * 2**64
    if alpha.denominator != 1:
        return None
    ps, qs = zip(*itertools.takewhile(lambda c: c[1] <= MAX_CONVERGENT,
                                      convergents(alpha / 2**64)))
    return (np.array(qs, dtype=np.int64), np.array(ps, dtype=np.int64),
            np.array([pow(p, -1, q) if q > 1 else 0 for q, p in zip(qs, ps)],
                     dtype=np.int64))


def _fibonacci_sphere_block(ns: np.ndarray) -> np.ndarray:
    """Blocked spherical Fibonacci lattice on S^2.

    Index n in [2^b, 2^(b+1)) is point n - 2^b of a 2^b-point lattice, so every
    dyadic tail window contains one full lattice.
    """
    ns = np.asarray(ns, dtype=np.int64)
    b = np.floor(np.log2(ns)).astype(np.int64)
    # the float log2 can round across a power of two; n >> b is 1 when b is right
    lead = ns >> b
    b += (lead > 1).astype(np.int64) - (lead == 0)
    size = np.int64(1) << b
    i = ns - size
    z = 1.0 - (2.0 * i + 1.0) / size
    azimuth = TWO_PI * fractional_multiples(GOLDEN_RATIO - 1.0, i)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([s * np.cos(azimuth), s * np.sin(azimuth), z])


@dataclass
class SequenceSpec:
    """Which spherical sequence to use, and in which dimension.

    ``theta`` applies to golden-angle, ``v`` to constant, ``path`` to file.
    """

    kind: str
    d: int = 1
    theta: float = GOLDEN_RATIO
    v: np.ndarray | None = None
    path: str | None = None
    _file_points: np.ndarray | None = field(default=None, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}; expected one of {KINDS}")
        if self.kind in ("golden-angle", "rational-ladder") and self.d != 1:
            raise ValueError(f"{self.kind} requires d=1, got d={self.d}")
        if self.kind == "golden-angle" and not math.isfinite(self.theta):
            raise ValueError(f"golden-angle theta must be finite, got {self.theta}")
        if self.kind == "fibonacci-sphere" and self.d != 2:
            raise ValueError(f"fibonacci-sphere requires d=2, got d={self.d}")
        if self.kind == "constant":
            if self.v is None:
                raise ValueError("constant kind needs a direction v")
            v = np.asarray(self.v, dtype=np.float64)
            if v.size != self.d + 1:
                raise ValueError(f"constant direction has {v.size} coords, expected {self.d + 1}")
            u = normalized(v)
            if not np.isfinite(u).all():
                raise ValueError(f"constant direction v {v.tolist()} cannot be normalized: "
                                 "its norm must be finite and nonzero")
            self.v = u
        if self.kind == "file" and self.path is None:
            raise ValueError("file kind needs a path")

    def file_points(self) -> np.ndarray:
        if self._file_points is None:
            self._file_points = load_sequence_file(self.path, self.d)
        return self._file_points

    def to_json(self) -> dict:
        params: dict = {}
        if self.kind == "golden-angle":
            params["theta"] = self.theta
        elif self.kind == "constant":
            params["v"] = list(map(float, self.v))
        elif self.kind == "file":
            params["path"] = self.path
        return {"kind": self.kind, "d": self.d, "params": params}

    @classmethod
    def from_json(cls, obj: dict) -> "SequenceSpec":
        params = obj.get("params", {})
        return cls(
            kind=obj["kind"],
            d=int(obj["d"]),
            theta=float(params.get("theta", GOLDEN_RATIO)),
            v=np.asarray(params["v"], dtype=np.float64) if "v" in params else None,
            path=params.get("path"),
        )


def load_sequence_file(path: str | Path, d: int) -> np.ndarray:
    """One point per line, d+1 whitespace-separated decimals, normalized on
    load; a zero or non-finite row is rejected."""
    pts = np.loadtxt(path, dtype=np.float64, ndmin=2)
    if pts.shape[1] != d + 1:
        raise ValueError(f"{path}: expected {d + 1} columns, found {pts.shape[1]}")
    units = normalized(pts)
    bad = np.flatnonzero(~np.isfinite(units).all(axis=1))
    if len(bad):
        raise ValueError(f"{path}: row {bad[0] + 1} ({' '.join(map(str, pts[bad[0]]))}) "
                         "cannot be normalized: its norm must be finite and nonzero")
    return units


class SequenceFileOverrunError(IndexError):
    """An index past the last point of a ``file`` sequence."""


def direction_batch(spec: SequenceSpec, ns: np.ndarray) -> np.ndarray:
    """Directions u_n for an array of indices, as an (m, d+1) array."""
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size and ns.min() < 1:
        raise ValueError("indices must be >= 1")
    if spec.kind in ("golden-angle", "rational-ladder"):
        angles = angle_batch(spec, ns)
        return np.column_stack([np.cos(angles), np.sin(angles)])
    if spec.kind == "fibonacci-sphere":
        return _fibonacci_sphere_block(ns)
    if spec.kind == "constant":
        return np.broadcast_to(spec.v, (ns.size, spec.d + 1)).copy()
    if spec.kind == "file":
        pts = spec.file_points()
        if ns.size and ns.max() > len(pts):
            raise SequenceFileOverrunError(
                f"sequence file holds {len(pts)} points, index {int(ns.max())} requested"
            )
        return pts[ns - 1]
    raise ValueError(f"unknown kind {spec.kind!r}")


def angle_batch(spec: SequenceSpec, ns: np.ndarray) -> np.ndarray:
    """Polar angles of the planar directions u_n: 2*pi*{n*theta} for
    golden-angle and 2*pi*p/k for rational-ladder, read in closed form, else
    the arctan2 of ``direction_batch``."""
    if spec.kind == "golden-angle":
        return TWO_PI * fractional_multiples(spec.theta, ns)
    if spec.kind == "rational-ladder":
        k, p = triangular_decompose(np.asarray(ns, dtype=np.int64))
        return TWO_PI * (p / k)
    u = direction_batch(spec, ns)
    return np.arctan2(u[:, 1], u[:, 0])
