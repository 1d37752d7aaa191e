"""Reference implementations the tests compare the library against, helpers
that build their inputs, and the radial/angular proximity sandwich whose
constants acceptance 8 pins; the library itself does not use them."""

import math
from fractions import Fraction

import numpy as np

from spiralvis.sphere import _sphere_area
from spiralvis.spirals import point_batch


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
