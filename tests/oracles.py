"""Reference implementations the tests compare the library against, and
helpers that build their inputs; the library itself does not use them."""

import math

import numpy as np

from spiralvis.sphere import _sphere_area


def brute_badness(theta: float, Q: int) -> float:
    """min over q <= Q of q * ||q theta||, scanning every q in float arithmetic."""
    q = np.arange(1, Q + 1, dtype=np.float64)
    frac = (q * theta) % 1.0
    return float((q * np.minimum(frac, 1.0 - frac)).min())


def star_discrepancy(values: np.ndarray) -> float:
    """Star discrepancy of a sample in [0, 1): max deviation of the empirical CDF."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - xs), np.max(xs - (i - 1) / n)))


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
