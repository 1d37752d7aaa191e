"""Reference implementations the tests compare the library against, helpers
that build their inputs, and the radial/angular proximity sandwich whose
constants acceptance 8 pins; the library itself does not use them."""

import math
from fractions import Fraction

import numpy as np

from spiralvis import spirals
from spiralvis.sequences import GOLDEN_RATIO, TWO_PI, direction_batch
from spiralvis.sphere import _sphere_area
from spiralvis.spirals import PunctureUnresolvedError, point_batch


def brute_badness(theta: float, Q: int) -> float:
    """min over q <= Q of q * ||q theta||, scanning every q in float arithmetic."""
    q = np.arange(1, Q + 1, dtype=np.float64)
    frac = (q * theta) % 1.0
    return float((q * np.minimum(frac, 1.0 - frac)).min())


def liouville_like(levels: int = 3) -> Fraction:
    """Sum of 10^(-j!) up to ``levels``: huge partial quotients, nearly rational."""
    return sum((Fraction(1, 10 ** math.factorial(j)) for j in range(1, levels + 1)),
               Fraction(0))


def star_discrepancy(values: np.ndarray) -> float:
    """Star discrepancy of a sample in [0, 1): max deviation of the empirical CDF."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - xs), np.max(xs - (i - 1) / n)))


def triangular_isqrt(n: int) -> tuple[int, int]:
    """(k, p) with n = k(k+1)/2 + p, 0 <= p <= k, in Python ints: k(k+1)/2
    <= n exactly when 2k+1 <= isqrt(8n+1)."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    k = (math.isqrt(8 * n + 1) - 1) // 2
    return k, n - k * (k + 1) // 2


def fibonacci_sphere_direction(n: int) -> np.ndarray:
    """u_n of the blocked spherical Fibonacci lattice from Python ints: n in
    [2^b, 2^(b+1)) is point i = n - 2^b of 2^b, at z = 1 - (2i+1)/2^b and
    turn {i (phi - 1)} floored to 2^-53 (``fractional_multiples``)."""
    b = n.bit_length() - 1
    i = n - (1 << b)
    z = 1.0 - (2 * i + 1) / (1 << b)
    turn = math.floor(Fraction(GOLDEN_RATIO - 1.0) * i % 1 * 2**53) / 2**53
    s = math.sqrt(max(0.0, 1.0 - z * z))
    return np.array([s * math.cos(TWO_PI * turn), s * math.sin(TWO_PI * turn), z])


def puncture_scan(pspec, n: int) -> np.ndarray:
    """The n-th point of the punctured spiral, one index at a time: the base
    point outside D; inside, the point at its radius along the first u_m,
    n <= m <= n + PUNCTURE_SCAN_CAP and m no later than a ``file``
    sequence's last point, that leaves D, read 512 candidates at a time;
    PunctureUnresolvedError when there is none."""
    base = pspec.base
    radii, coords = point_batch(base, [n])
    r = radii[0]
    if not pspec.in_region(coords, radii)[0]:
        return coords[0]
    last = n + spirals.PUNCTURE_SCAN_CAP
    if base.kind == "file":
        last = min(last, len(base.file_points()))
    for lo in range(n, last + 1, 512):
        dirs = direction_batch(base, np.arange(lo, min(last, lo + 511) + 1))
        hits = np.flatnonzero(~pspec.in_region(r * dirs, np.full(len(dirs), r)))
        if hits.size:
            return r * dirs[hits[0]]
    raise PunctureUnresolvedError(n, last - n)


def write_points_csv(path, ns: np.ndarray, coords: np.ndarray) -> None:
    """A point dump as CSV in one ``np.savetxt``: header n,x0,...,x_d, then
    each index and its coordinates in %.17g."""
    width = coords.shape[1]
    np.savetxt(path, np.column_stack([np.asarray(ns, dtype=np.float64), coords]),
               delimiter=",", header=",".join(["n"] + [f"x{i}" for i in range(width)]),
               comments="", fmt=["%d"] + ["%.17g"] * width)


def read_points_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(indices, coordinates) of a point dump written as CSV."""
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return body[:, 0].astype(np.int64), body[:, 1:]


def save_sequence_file(path, points: np.ndarray) -> None:
    """Write ``points`` as a ``file`` sequence, one row per direction."""
    np.savetxt(path, np.asarray(points, dtype=np.float64), fmt="%.17g")


def count_bound_ok(net) -> bool:
    """Whether ``net`` holds no more centers than a packing allows: 4/mesh on
    the circle; on S^d, d >= 2, pairwise-(3*mesh/4)-separated directions
    have disjoint caps of radius 3*mesh/8, and sin(t) >= (2/pi) t on
    [0, pi/2] bounds their count by C1 (4*pi/(3*mesh))^d, C1 = 2 d
    area(S^d) / (pi area(S^(d-1)))."""
    d = net.dimension
    c_net = 4.0 if d == 1 else (2 * d * _sphere_area(d) / (math.pi * _sphere_area(d - 1))
                                * (4 * math.pi / 3) ** d)
    return len(net) <= c_net * net.mesh ** (-d)


def net_directions(net) -> np.ndarray:
    """A direction net's centers as rows: the stored ones, or for the uniform
    circle grid (``centers`` None) the K = len(net) directions at angles
    j * 2*pi/K."""
    if net.centers is not None:
        return net.centers
    angles = np.arange(len(net)) * (TWO_PI / len(net))
    return np.column_stack([np.cos(angles), np.sin(angles)])


def growth_along_h(table) -> dict[float, list]:
    """Per-eps ratios of consecutive cell values of a ``CriterionTable`` as h
    doubles."""
    out: dict[float, list] = {}
    for eps in sorted({row["eps"] for row in table.rows}, reverse=True):
        vals = [r["value"] for r in table.rows if r["eps"] == eps and r["status"] == "ok"]
        out[eps] = [b / a for a, b in zip(vals, vals[1:]) if a > 0]
    return out


def mask_halfwidth(r, t_lo: float, t_hi: float, eps: float) -> np.ndarray:
    """``geometry.radial_hit_halfwidth`` in its mask form, the reference for
    its run form: every case is a boolean mask over all of ``r``."""
    if not 0.0 <= t_lo <= t_hi:
        raise ValueError(f"need 0 <= t_lo <= t_hi, got [{t_lo}, {t_hi}]")
    r = np.asarray(r, dtype=np.float64)
    out = np.full(r.shape, -1.0)
    hits_everywhere = r + t_lo <= eps  # farthest configuration is the antipode
    nearest = np.maximum(t_lo - r, np.maximum(r - t_hi, 0.0))
    misses = nearest > eps
    solvable = ~hits_everywhere & ~misses

    foot = np.sqrt(np.maximum(0.0, r * r - eps * eps))
    interior = solvable & (r >= eps) & (foot >= t_lo) & (foot <= t_hi)
    out[interior] = np.arcsin(np.clip(eps / np.maximum(r[interior], 1e-300), 0.0, 1.0))

    at_lo = solvable & ~interior & ((r < eps) | (foot < t_lo))
    at_hi = solvable & ~interior & ~at_lo
    for sel, t_end in ((at_lo, t_lo), (at_hi, t_hi)):
        if not np.any(sel):
            continue
        rs = r[sel]
        if t_end <= 0.0:  # window endpoint at the origin: distance r at all angles
            out[sel] = np.where(rs <= eps, math.pi, -1.0)
            continue
        cosv = (rs * rs + t_end * t_end - eps * eps) / (2.0 * rs * t_end)
        out[sel] = np.arccos(np.clip(cosv, -1.0, 1.0))
    out[hits_everywhere] = math.pi
    return out


def _split_test(radii, coords, rho, targets, eps, c: float) -> np.ndarray:
    """Both split inequalities of points ``coords`` at ``radii`` against line
    points ``targets`` at ``rho``: radius within eps, angle within c*eps/rho."""
    cosang = np.einsum("ij,ij->i", coords / radii[:, None], targets / rho[:, None])
    ang = np.arccos(np.clip(cosang, -1.0, 1.0))
    return (np.abs(radii - rho) <= eps) & (ang <= c * eps / rho)


def verify_proximity_sandwich(spec, c: float, cp: float, n_samples: int = 10**4,
                              seed: int = 0) -> int:
    """Violation count of: exact <= eps/c' => split check (eps, c) => exact
    <= c'*eps, over ``n_samples`` random (point, line-point, eps) instances."""
    rng = np.random.default_rng(seed)
    ns = rng.integers(1, 10**6, n_samples)
    radii, coords = point_batch(spec, ns)
    # aim half the samples near the point radius so both sandwich sides bind
    rho = np.where(rng.random(n_samples) < 0.5,
                   radii * np.exp(rng.normal(0, 0.02, n_samples)),
                   rng.uniform(1.0, 1000.0, n_samples))
    phase = rng.uniform(0, 2 * math.pi, n_samples)
    angles_v = rng.uniform(0, 2 * math.pi, n_samples)
    eps = np.exp(rng.uniform(math.log(0.01), math.log(0.5), n_samples))
    vs = np.column_stack([np.cos(angles_v), np.sin(angles_v)])
    ws = np.column_stack([-np.sin(angles_v), np.cos(angles_v)])
    lams = rho * np.abs(np.cos(phase))
    t_signed = rho * np.sin(phase)
    targets = lams[:, None] * vs + t_signed[:, None] * ws
    exact = np.linalg.norm(coords - targets, axis=1)
    check = _split_test(radii, coords, rho, targets, eps, c)
    return int(np.sum(~check[exact <= eps / cp])) + int(np.sum(exact[check] > cp * eps[check]))


def calibrate_proximity_sandwich(spec, n_samples: int = 10**4, seed: int = 0):
    """Find (c, c') with zero violations of the sandwich
    (``verify_proximity_sandwich``): exact distance <= eps/c' implies the
    split check at (eps, c) implies exact <= c'*eps.

    Returns (c, c', samples) with the smallest passing c'.
    """
    for cp in (1.3, 1.5, 1.7, 2.0, 2.5, 3.0):
        for c in (0.9, 1.0, 1.2, 1.5, 1.8):
            if verify_proximity_sandwich(spec, c, cp, n_samples, seed) == 0:
                return c, cp, n_samples
    raise RuntimeError("no sandwich constants found on the calibration grids")
