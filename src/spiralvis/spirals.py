"""Spiral point sets: radius n^(1/(d+1)) along the n-th sequence direction.

Also streams the punctured variant (a ray neighborhood emptied except on a
sparse family of annuli) block by block, and writes the point-dump file
formats.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .sequences import SequenceSpec, direction_batch
from .sphere import unit_vector

CHUNK = 1 << 18
DEFAULT_BUDGET = 10**7  # the default largest index any scan, table or CLI run reads
PUNCTURE_SCAN_CAP = 100_000  # the most indices past n a replacement direction is sought in
PUNCTURE_ROUND = 512  # points redirected together, and candidates each reads, per round


class PunctureUnresolvedError(ValueError):
    """No replacement direction found within the scan cap."""

    def __init__(self, n: int, cap: int):
        super().__init__(f"puncture unresolved for n={n}: no replacement within {cap} indices")
        self.n = n


def radius_of_index(n, d: int):
    """n^(1/(d+1)): the correctly rounded ``np.sqrt`` for d=1, ``np.cbrt``
    (within one ulp) for d=2, else exp(ln(n)/(d+1)) with one Newton polish."""
    ns = np.asarray(n, dtype=np.float64)
    if d == 1:
        r = np.sqrt(ns)
    elif d == 2:
        r = np.cbrt(ns)
    else:
        r = np.exp(np.log(ns) / (d + 1))
        r = r - (r ** (d + 1) - ns) / ((d + 1) * r**d)
    return r if isinstance(n, np.ndarray) else float(r)


def point_batch(spec: SequenceSpec, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(radii, coords) for an index array."""
    ns = np.asarray(ns, dtype=np.int64)
    radii = radius_of_index(ns, spec.d)
    coords = direction_batch(spec, ns) * radii[:, None]
    return radii, coords


def iter_point_chunks(spec: SequenceSpec, n_lo: int, n_hi: int, chunk: int = CHUNK):
    """Yield (ns, radii, coords) over [n_lo, n_hi] in index order, memory-bounded."""
    lo = max(1, n_lo)
    while lo <= n_hi:
        hi = min(n_hi, lo + chunk - 1)
        ns = np.arange(lo, hi + 1, dtype=np.int64)
        radii, coords = point_batch(spec, ns)
        yield ns, radii, coords
        lo = hi + 1


def _ceil_power(r: float, q: int) -> int:
    # exact: float r is a rational, so r**q compares exactly as a Fraction
    return math.ceil(Fraction(r) ** q)


def _floor_power(R: float, q: int) -> int:
    return math.floor(Fraction(R) ** q)


def annulus_index_range(r: float, R: float, d: int) -> tuple[int, int]:
    """Smallest and largest n with r <= n^(1/(d+1)) <= R.

    Boundaries are exact (rational comparison, no float powers). Returns
    (n_lo, n_hi) with n_hi < n_lo when the annulus holds no index.
    """
    if r < 0 or R < 0:
        raise ValueError("radii must be nonnegative")
    if r > R:
        raise ValueError(f"need r <= R, got r={r} > R={R}")
    q = d + 1
    n_lo = max(1, _ceil_power(r, q))
    n_hi = _floor_power(R, q)
    return n_lo, n_hi


def index_range(n_lo: int, n_hi: int, index_budget: int, what: str) -> tuple[int, int]:
    """(n_lo, min(n_hi, index_budget)), the indices of [n_lo, n_hi] a scan
    reads. A nonempty range wholly past the budget (whose verdict would come
    from the budget, not the points) or past 2^63 - 1 is refused, naming ``what``."""
    if n_hi >= n_lo > index_budget:
        raise ValueError(f"{what} lies wholly past the index budget {index_budget}: "
                         "every index of its eps-widened annulus exceeds it")
    n_hi = min(n_hi, index_budget)
    if max(n_lo, n_hi) >= 2**63:
        raise ValueError(f"{what} reaches index {max(n_lo, n_hi)}, past 2^63 - 1")
    return n_lo, n_hi


def count_in_ball(T: float, d: int) -> int:
    """Exactly floor(T^(d+1)) spiral indices have radius <= T."""
    return annulus_index_range(0.0, T, d)[1]


@dataclass
class PunctureSpec:
    """Empty a delta-neighborhood of the ray toward ``v0``, except on annuli.

    Annulus m spans radii [outer[m] - thickness[m], outer[m]]; the punctured
    set keeps base points there and redirects base points found elsewhere in
    the neighborhood.
    """

    base: SequenceSpec
    v0: np.ndarray
    delta: float
    outer_radii: np.ndarray
    thicknesses: np.ndarray

    def __post_init__(self):
        self.v0 = unit_vector(self.v0)
        if len(self.v0) != self.base.d + 1:
            raise ValueError(f"v0 has {len(self.v0)} coordinates; a d={self.base.d} "
                             f"spiral lies in R^{self.base.d + 1}")
        self.outer_radii = np.asarray(self.outer_radii, dtype=np.float64)
        self.thicknesses = np.asarray(self.thicknesses, dtype=np.float64)
        if not 0 < self.delta < math.inf:
            raise ValueError(f"strip half-width delta must be finite and positive, "
                             f"got {self.delta}")
        if not len(self.outer_radii):
            raise ValueError("the schedule holds no annulus")
        if len(self.outer_radii) != len(self.thicknesses):
            raise ValueError("outer radii and thicknesses must pair up")
        if not (np.isfinite(self.outer_radii).all() and np.all(np.diff(self.outer_radii) > 0)):
            raise ValueError("outer radii must be finite and increase")
        if not np.all(self.thicknesses > 0):
            raise ValueError("thicknesses must be positive")
        if np.any(self.outer_radii - self.thicknesses <= 0):
            raise ValueError("every annulus needs outer radius minus thickness > 0")

    @classmethod
    def geometric(cls, base, v0, delta, m_lo, m_hi, scale_constant):
        """Outer radii 2^m paired with target scale 2^(-m/2).

        Thickness 2*C*(2^(-m/2))^(-d) = 2*C*2^(m*d/2), C = ``scale_constant``.
        Only for d = 1 does thickness/radius, 2*C*2^(-m/2), go to 0, which is
        what the vanishing-transfer-error argument needs. At d = 2 the
        thickness is 2*C times the radius for every m, so the schedule holds
        an annulus only for C < 1/2; for d >= 3 it outgrows the radius. The
        factorial schedule overflows desk scale.
        """
        ms = np.arange(m_lo, m_hi + 1)
        with np.errstate(over="ignore", invalid="ignore"):  # the spec rejects inf and nan
            outer = 2.0**ms
            thick = 2.0 * scale_constant * 2.0 ** (ms * base.d / 2.0)
        return cls(base=base, v0=v0, delta=delta, outer_radii=outer, thicknesses=thick)

    @classmethod
    def factorial(cls, base, v0, delta, n_lo, n_hi, scale_constant):
        """Outer radii n! with thickness 2*C*2^(n*d); d=1 only fits up to 7!."""
        ns = np.arange(n_lo, n_hi + 1)
        # 170! is the last factorial below the float range; the spec rejects inf
        outer = np.array([float(math.factorial(int(n))) if n <= 170 else math.inf for n in ns])
        with np.errstate(over="ignore", invalid="ignore"):  # the spec rejects inf and nan
            thick = 2.0 * scale_constant * 2.0 ** (ns * base.d)
        return cls(base=base, v0=v0, delta=delta, outer_radii=outer, thicknesses=thick)

    def in_kept_annulus(self, radii) -> np.ndarray:
        r = np.atleast_1d(np.asarray(radii, dtype=np.float64))
        idx = np.searchsorted(self.outer_radii, r)
        idx_c = np.minimum(idx, len(self.outer_radii) - 1)
        inner = self.outer_radii[idx_c] - self.thicknesses[idx_c]
        return (idx < len(self.outer_radii)) & (r >= inner)

    def in_region(self, coords, radii=None) -> np.ndarray:
        """Membership in D: the ray neighborhood minus the kept annuli."""
        pts = np.atleast_2d(np.asarray(coords, dtype=np.float64))
        r = np.linalg.norm(pts, axis=1) if radii is None else np.atleast_1d(radii)
        proj = pts @ self.v0
        perp = np.sqrt(np.maximum(0.0, r * r - proj * proj))
        dist_to_ray = np.where(proj > 0, perp, r)
        return (dist_to_ray <= self.delta) & ~self.in_kept_annulus(r)


def puncture_blocks(pspec: PunctureSpec, n_lo: int, n_hi: int):
    """Yield (ns, coords, redirected) of the punctured spiral over
    [n_lo, n_hi], one ``iter_point_chunks`` block at a time, ``redirected``
    the number of the block's points that moved: every one in D.

    A point outside D stays. A point in D keeps its radius and takes the
    first direction u_m, n <= m <= n + PUNCTURE_SCAN_CAP, whose point at that
    radius leaves D; a ``file`` sequence's candidates stop at its last point.
    A block's points in D move together, in rounds of at most PUNCTURE_ROUND
    points by PUNCTURE_ROUND candidates, each point reading its candidates in
    index order. When a point has no such direction, PunctureUnresolvedError
    names the smallest such n.
    """
    base = pspec.base
    last = len(base.file_points()) if base.kind == "file" else n_hi + PUNCTURE_SCAN_CAP
    for ns, radii, coords in iter_point_chunks(base, n_lo, n_hi):
        inside = np.flatnonzero(pspec.in_region(coords, radii))
        for start in range(0, len(inside), PUNCTURE_ROUND):
            rows = inside[start:start + PUNCTURE_ROUND]  # still in D, in index order
            lo = 0  # the offset from each row's n that this round reads first
            while rows.size and lo <= min(PUNCTURE_SCAN_CAP, last - ns[rows[0]]):
                ms = ns[rows, None] + np.arange(
                    lo, min(PUNCTURE_SCAN_CAP, lo + PUNCTURE_ROUND - 1) + 1)
                r = np.repeat(radii[rows], ms.shape[1])
                dirs = direction_batch(base, np.minimum(ms, last).ravel())
                leaves = ~pspec.in_region(r[:, None] * dirs, r).reshape(ms.shape) & (ms <= last)
                hit = leaves.any(axis=1)
                first = dirs.reshape(*ms.shape, -1)[hit, leaves.argmax(axis=1)[hit]]
                coords[rows[hit]] = radii[rows[hit], None] * first
                rows = rows[~hit]
                lo += PUNCTURE_ROUND
            if rows.size:
                n = int(ns[rows[0]])
                raise PunctureUnresolvedError(n, min(PUNCTURE_SCAN_CAP, last - n))
        yield ns, coords, len(inside)


def _csv_writer(fh, width: int):
    """Write the CSV header to ``fh``; return write(ns, coords) for its rows."""
    fh.write(",".join(["n"] + [f"x{i}" for i in range(width)]) + "\n")
    return lambda ns, coords: np.savetxt(
        fh, np.column_stack([np.asarray(ns, dtype=np.float64), coords]),
        delimiter=",", fmt=["%d"] + ["%.17g"] * width)


def _binary_writer(fh, d: int, n_lo: int, n_hi: int):
    """Write the binary header to ``fh``; return write(ns, coords) for its points."""
    fh.write(np.array([d, n_lo, n_hi], dtype="<i8").tobytes())
    # the array's own buffer, not a bytes copy
    return lambda ns, coords: fh.write(np.ascontiguousarray(coords, dtype="<f8").data)


def write_points_binary(path: str | Path, d: int, n_lo: int, n_hi: int,
                        coords: np.ndarray) -> None:
    """Header {d, n_lo, n_hi} as little-endian int64, then (d+1) float64 per point."""
    if np.shape(coords) != (n_hi - n_lo + 1, d + 1):
        raise ValueError(f"coords shape {np.shape(coords)} does not match header "
                         f"({n_hi - n_lo + 1}, {d + 1})")
    with open(path, "wb") as fh:
        _binary_writer(fh, d, n_lo, n_hi)(None, coords)


def write_point_blocks(path: str | Path, d: int, n_lo: int, n_hi: int, blocks) -> None:
    """Points n_lo..n_hi, given as (ns, coords) ``blocks`` in index order, to
    ``path``: the bytes of ``write_points_binary`` for a ``.bin`` path, else
    CSV (header n,x0,...,x_d, then n and the coordinates in %.17g per row),
    holding one block at a time. A dump that an error cuts short is removed."""
    binary = str(path).endswith(".bin")
    fh = open(path, "wb" if binary else "w")
    try:
        with fh:
            write = _binary_writer(fh, d, n_lo, n_hi) if binary else _csv_writer(fh, d + 1)
            for ns, coords in blocks:
                write(ns, coords)
    except BaseException:  # leave no partial dump behind
        os.remove(path)
        raise


def read_points_binary(path: str | Path) -> tuple[int, int, int, np.ndarray]:
    """Inverse of ``write_points_binary``; a header that disagrees with the
    file size is a ValueError."""
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) != 24:
            raise ValueError(f"{path}: truncated header")
        d, n_lo, n_hi = (int(x) for x in np.frombuffer(header, dtype="<i8"))
        if d < 1 or n_lo < 1 or n_hi < n_lo - 1:
            raise ValueError(f"{path}: bad header d={d}, n_lo={n_lo}, n_hi={n_hi}")
        shape = (n_hi - n_lo + 1, d + 1)
        payload = os.fstat(fh.fileno()).st_size - 24
        if payload != shape[0] * shape[1] * 8:
            raise ValueError(f"{path}: {payload} payload bytes, header needs "
                             f"{shape[0] * shape[1] * 8}")
        coords = np.fromfile(fh, dtype="<f8", count=shape[0] * shape[1])
    return d, n_lo, n_hi, coords.reshape(shape)
