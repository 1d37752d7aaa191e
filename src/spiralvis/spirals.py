"""Spiral point sets: radius n^(1/(d+1)) along the n-th sequence direction.

Also materializes the punctured variant (a ray neighborhood emptied except on
a sparse family of annuli) and the point-dump file formats.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .sequences import SequenceSpec, direction_batch, sequence_term
from .sphere import unit_vector

CHUNK = 1 << 18
DEFAULT_BUDGET = 10**7  # the default largest index any scan, table or CLI run reads


class PunctureUnresolvedError(RuntimeError):
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


@dataclass(frozen=True)
class SpiralPoint:
    n: int
    radius: float
    direction: np.ndarray

    @property
    def coords(self) -> np.ndarray:
        return self.radius * self.direction


def spiral_point(spec: SequenceSpec, n: int) -> SpiralPoint:
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    return SpiralPoint(n=n, radius=radius_of_index(n, spec.d), direction=sequence_term(spec, n))


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
    scan_cap: int = 100_000

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
    def geometric(cls, base, v0, delta, m_lo=4, m_hi=20, scale_constant=1.0, **kw):
        """Outer radii 2^m paired with target scale 2^(-m/2).

        Thickness 2*C*(2^(-m/2))^(-d) keeps thickness/radius -> 0, which is
        what the vanishing-transfer-error argument needs; the factorial
        schedule overflows desk scale.
        """
        ms = np.arange(m_lo, m_hi + 1)
        with np.errstate(over="ignore", invalid="ignore"):  # the spec rejects inf and nan
            outer = 2.0**ms
            thick = 2.0 * scale_constant * 2.0 ** (ms * base.d / 2.0)
        return cls(base=base, v0=v0, delta=delta, outer_radii=outer, thicknesses=thick, **kw)

    @classmethod
    def factorial(cls, base, v0, delta, n_lo=5, n_hi=7, scale_constant=1.0, **kw):
        """Outer radii n! with thickness 2*C*2^(n*d); d=1 only fits up to 7!."""
        ns = np.arange(n_lo, n_hi + 1)
        outer = np.array([float(math.factorial(int(n))) for n in ns])
        with np.errstate(over="ignore", invalid="ignore"):  # the spec rejects inf and nan
            thick = 2.0 * scale_constant * 2.0 ** (ns * base.d)
        return cls(base=base, v0=v0, delta=delta, outer_radii=outer, thicknesses=thick, **kw)

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


def puncture_transform(pspec: PunctureSpec, n: int) -> SpiralPoint:
    """The n-th punctured point: unchanged outside D, redirected inside.

    The replacement direction is the first u_m, m >= n, whose point at radius
    n^(1/(d+1)) leaves D; a scan cap turns non-termination into an error.
    """
    base_pt = spiral_point(pspec.base, n)
    if not pspec.in_region(base_pt.coords[None, :], np.array([base_pt.radius]))[0]:
        return base_pt
    r = base_pt.radius
    lo = n
    while lo <= n + pspec.scan_cap:
        hi = min(n + pspec.scan_cap, lo + 511)
        ms = np.arange(lo, hi + 1, dtype=np.int64)
        dirs = direction_batch(pspec.base, ms)
        outside = ~pspec.in_region(r * dirs, np.full(len(ms), r))
        hits = np.flatnonzero(outside)
        if hits.size:
            return SpiralPoint(n=n, radius=r, direction=dirs[hits[0]])
        lo = hi + 1
    raise PunctureUnresolvedError(n, pspec.scan_cap)


def puncture_batch(pspec: PunctureSpec, n_lo: int, n_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(ns, coords) of the punctured spiral over an index range."""
    all_ns = []
    all_coords = []
    for ns, radii, coords in iter_point_chunks(pspec.base, n_lo, n_hi):
        inside = pspec.in_region(coords, radii)
        for i in np.flatnonzero(inside):
            coords[i] = puncture_transform(pspec, int(ns[i])).coords
        all_ns.append(ns)
        all_coords.append(coords)
    return np.concatenate(all_ns), np.vstack(all_coords)


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


def write_points_csv(path: str | Path, ns: np.ndarray, coords: np.ndarray) -> None:
    with open(path, "w") as fh:
        _csv_writer(fh, coords.shape[1])(ns, coords)


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
    those of ``write_points_csv``, holding one block at a time."""
    binary = str(path).endswith(".bin")
    with open(path, "wb" if binary else "w") as fh:
        write = _binary_writer(fh, d, n_lo, n_hi) if binary else _csv_writer(fh, d + 1)
        for ns, coords in blocks:
            write(ns, coords)


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
