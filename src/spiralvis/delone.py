"""Delone diagnostics (packing/covering in balls) and the badly-approximable
diagnostic for circle rotations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .sequences import SequenceSpec
from .spirals import count_in_ball, iter_point_chunks

GOLDEN_RATIO_QUOTIENTS = itertools.repeat(1)


def _fraction_quotients(x: Fraction):
    """Finite continued-fraction expansion of a rational."""
    num, den = x.numerator, x.denominator
    while den:
        a, rem = divmod(num, den)
        yield int(a)
        num, den = den, rem


def _tail_value(quotients: list[int]) -> float:
    """Numeric value of [a0; a1, a2, ...] from a finite quotient list."""
    val = math.inf
    for a in reversed(quotients):
        val = a + (0.0 if val == math.inf else 1.0 / val)
    return val


def badness(theta, Q: int, quotients=None) -> float:
    """min over 1 <= q <= Q of q * distance(q*theta, Z), via convergents.

    The minimum over q <= Q is attained at a convergent denominator (best
    approximations), so only those are evaluated. A float theta is treated as
    the exact rational it represents; for irrational targets pass their
    partial quotients (e.g. ``itertools.repeat(1)`` for the golden ratio),
    since float64 error alone distorts q*||q*theta|| by ~Q^2 * 1e-16.
    """
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    if quotients is not None:
        return _badness_from_quotients(quotients, Q)
    frac = theta if isinstance(theta, Fraction) else Fraction(theta)
    qs = list(_fraction_quotients(frac))
    best = math.inf
    p_prev, q_prev = 1, 0
    p_cur, q_cur = qs[0], 1
    if q_cur <= Q:
        best = min(best, float(q_cur * abs(q_cur * frac - p_cur)))
    for a in qs[1:]:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if q_cur > Q:
            break
        best = min(best, float(q_cur * abs(q_cur * frac - p_cur)))
    return best


def _badness_from_quotients(quotients, Q: int, tail_terms: int = 48) -> float:
    qs_iter = iter(quotients)
    window: list[int] = list(itertools.islice(qs_iter, tail_terms + 2))
    if not window:
        raise ValueError("empty quotient stream")
    best = math.inf
    p_prev, q_prev = 1, 0
    p_cur, q_cur = window[0], 1
    k = 0
    while q_cur <= Q:
        # |q_k theta - p_k| = 1 / (alpha_(k+1) q_k + q_(k-1))
        tail = window[k + 1:]
        nxt = next(qs_iter, None)
        if nxt is not None:
            window.append(nxt)
        if not tail:
            best = min(best, 0.0)  # rational: exact hit at its denominator
            break
        alpha = _tail_value(tail)
        best = min(best, q_cur / (alpha * q_cur + q_prev))
        k += 1
        a = window[k]
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return best


def brute_badness(theta: float, Q: int) -> float:
    """Reference scan over every q <= Q in float arithmetic (test oracle)."""
    q = np.arange(1, Q + 1, dtype=np.float64)
    frac = (q * theta) % 1.0
    return float((q * np.minimum(frac, 1.0 - frac)).min())


def liouville_like(levels: int = 3) -> Fraction:
    """Sum of 10^(-j!) up to ``levels``: huge partial quotients, nearly rational."""
    return sum((Fraction(1, 10 ** math.factorial(j)) for j in range(1, levels + 1)),
               Fraction(0))


@dataclass(frozen=True)
class DeloneReport:
    T: float
    packing: float
    covering: float
    probe_resolution: float
    n_points: int


def min_pairwise_distance(coords: np.ndarray) -> float:
    """Exact minimum pairwise distance of radius-sorted points.

    Stride sweep: pairs (i, i+k) for growing k, stopping once the smallest
    radial gap at stride k already exceeds the best distance found (radial
    gap lower-bounds Euclidean distance).
    """
    n = len(coords)
    if n < 2:
        return math.inf
    radii = np.linalg.norm(coords, axis=1)
    order = np.argsort(radii, kind="stable")
    coords = coords[order]
    radii = radii[order]
    best = math.inf
    for k in range(1, n):
        gaps = radii[k:] - radii[:-k]
        if float(gaps.min()) > best:
            break
        d = np.linalg.norm(coords[k:] - coords[:-k], axis=1)
        best = min(best, float(d.min()))
    return best


def _probe_grid(T: float, resolution: float, dim: int) -> np.ndarray:
    axis = np.arange(-T, T + resolution / 2, resolution)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    return pts[np.linalg.norm(pts, axis=1) <= T]


def covering_estimate(coords: np.ndarray, T: float, resolution: float) -> float:
    """Max distance-to-set over a probe grid of mesh ``resolution`` in B(0,T);
    underestimates the true covering radius by at most the resolution."""
    probes = _probe_grid(T, resolution, coords.shape[1])
    covering = 0.0
    for pchunk in np.array_split(probes, max(1, len(probes) // 2048)):
        dmin = np.full(len(pchunk), math.inf)
        for cchunk in np.array_split(coords, max(1, len(coords) // 4096)):
            diff = pchunk[:, None, :] - cchunk[None, :, :]
            np.minimum(dmin, np.sqrt((diff * diff).sum(axis=2)).min(axis=1), out=dmin)
        covering = max(covering, float(dmin.max()))
    return covering


def delone_report(spec: SequenceSpec, T: float, probe_resolution: float,
                  index_budget: int = 10**8) -> DeloneReport:
    """Packing and covering radii of the spiral inside B(0, T).

    Packing is exact; covering is a max over a probe grid of mesh
    ``probe_resolution`` and underestimates the true value by at most that
    resolution.
    """
    if T <= 1:
        raise ValueError("T must exceed 1 so the ball holds points")
    if probe_resolution <= 0:
        raise ValueError("probe resolution must be positive")
    n_hi = count_in_ball(T, spec.d)
    if n_hi > index_budget:
        n_hi = index_budget
    chunks = [c for _, _, c in iter_point_chunks(spec, 1, n_hi)]
    coords = np.vstack(chunks)
    packing = min_pairwise_distance(coords)
    covering = covering_estimate(coords, T, probe_resolution)
    return DeloneReport(T=float(T), packing=packing, covering=covering,
                        probe_resolution=float(probe_resolution), n_points=len(coords))
