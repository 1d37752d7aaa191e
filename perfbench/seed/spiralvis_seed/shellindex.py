"""Shell-polar bucket index for fast proximity queries over spiral chunks.

Radial shells exploit the exact radius-index law of spirals; within a shell,
points are bucketed by angular cell, sized so cells are roughly square. All
candidate gathering is conservative and every result is re-filtered by exact
Euclidean distance, so queries agree with an exhaustive scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import segment_distances, distance_origin_to_segment

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class HitWitness:
    """A stored point within reach of a query segment: index, arc parameter, distance."""

    n: int
    t: float
    distance: float


class ShellIndex:
    """Immutable after build; queries are read-only and thread-safe.

    The ``stats`` counters are test diagnostics and are not synchronized.
    """

    def __init__(self, ns: np.ndarray, coords: np.ndarray, shell_width: float = 2.0):
        coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
        if coords.shape[0] == 0:
            raise ValueError("cannot index an empty point list")
        self.ns = np.asarray(ns, dtype=np.int64)
        if len(self.ns) != len(coords):
            raise ValueError("index array and coordinates disagree in length")
        self.coords = coords
        self.d = coords.shape[1] - 1
        self.shell_width = float(shell_width)
        if self.shell_width <= 0:
            raise ValueError("shell width must be positive")
        self.radii = np.linalg.norm(coords, axis=1)
        self.n_shells = int(self.radii.max() // self.shell_width) + 1
        self._build()
        self.stats = {"buckets_visited": 0, "candidates_checked": 0}

    # -- construction ------------------------------------------------------

    def _cells_in_shell(self, s: int) -> int:
        r_out = (s + 1) * self.shell_width
        if self.d == 1:
            return max(1, math.ceil(TWO_PI * r_out / self.shell_width))
        if self.d == 2:
            return self._lat_counts(s).sum()
        return 1  # d >= 3: one bucket per shell, exact filter does the rest

    def _lat_counts(self, s: int) -> np.ndarray:
        r_out = (s + 1) * self.shell_width
        bands = max(1, math.ceil(math.pi * r_out / self.shell_width))
        mids = (np.arange(bands) + 0.5) * (math.pi / bands)
        return np.maximum(
            1, np.ceil(TWO_PI * r_out * np.sin(mids) / self.shell_width)
        ).astype(np.int64)

    def _cell_ids(self, shell: np.ndarray, coords: np.ndarray) -> np.ndarray:
        if self.d == 1:
            counts = self._shell_cells[shell]
            angles = np.arctan2(coords[:, 1], coords[:, 0]) % TWO_PI
            return np.minimum((angles / (TWO_PI / counts)).astype(np.int64), counts - 1)
        if self.d == 2:
            ids = np.zeros(len(coords), dtype=np.int64)
            r = np.maximum(self.radii, 1e-300)
            polar = np.arccos(np.clip(coords[:, 2] / r, -1.0, 1.0))
            az = np.arctan2(coords[:, 1], coords[:, 0]) % TWO_PI
            for s in np.unique(shell):
                sel = shell == s
                counts = self._lat_counts(int(s))
                bands = len(counts)
                band = np.minimum((polar[sel] / (math.pi / bands)).astype(np.int64), bands - 1)
                base = np.concatenate([[0], np.cumsum(counts)[:-1]])
                m = counts[band]
                ids[sel] = base[band] + np.minimum((az[sel] / (TWO_PI / m)).astype(np.int64),
                                                   m - 1)
            return ids
        return np.zeros(len(coords), dtype=np.int64)

    def _build(self) -> None:
        self._shell_cells = np.array(
            [self._cells_in_shell(s) for s in range(self.n_shells)], dtype=np.int64
        )
        self._shell_base = np.concatenate([[0], np.cumsum(self._shell_cells)])
        shell = np.minimum((self.radii / self.shell_width).astype(np.int64),
                           self.n_shells - 1)
        keys = self._shell_base[shell] + self._cell_ids(shell, self.coords)
        self.order = np.argsort(keys, kind="stable")
        self.sorted_keys = keys[self.order]

    def __len__(self) -> int:
        return len(self.ns)

    # -- gathering ---------------------------------------------------------

    def _gather_key_range(self, k_lo: int, k_hi: int) -> np.ndarray:
        """Stored-point positions with bucket key in [k_lo, k_hi]."""
        i0, i1 = np.searchsorted(self.sorted_keys, [k_lo, k_hi + 1])
        if i1 > i0:
            self.stats["buckets_visited"] += int(
                len(np.unique(self.sorted_keys[i0:i1]))
            )
        return self.order[i0:i1]

    def _gather_shell_window(self, s: int, mid_angle: float, halfwidth: float) -> list:
        """Candidates of shell s whose angular cell meets the window (d=1)."""
        base = self._shell_base[s]
        count = int(self._shell_cells[s])
        if halfwidth >= math.pi or count == 1:
            return [self._gather_key_range(base, base + count - 1)]
        step = TWO_PI / count
        c_lo = math.floor((mid_angle - halfwidth) / step)
        c_hi = math.floor((mid_angle + halfwidth) / step)
        if c_hi - c_lo + 1 >= count:
            return [self._gather_key_range(base, base + count - 1)]
        chunks = []
        if c_lo < 0 or c_hi >= count:  # wraps: split into two in-range spans
            chunks.append(self._gather_key_range(base + (c_lo % count), base + count - 1))
            chunks.append(self._gather_key_range(base, base + (c_hi % count)))
        else:
            chunks.append(self._gather_key_range(base + c_lo, base + c_hi))
        return chunks

    def _gather_shell_cap(self, s: int, center: np.ndarray, cap: float) -> list:
        """Candidates of shell s within an angular cap (d=2), conservative."""
        base = self._shell_base[s]
        count = int(self._shell_cells[s])
        if count == 1 or cap >= math.pi:
            return [self._gather_key_range(base, base + count - 1)]
        counts = self._lat_counts(s)
        bands = len(counts)
        r_out = (s + 1) * self.shell_width
        cell_diag = 2.0 * self.shell_width / max(r_out, self.shell_width)
        mids = (np.arange(bands) + 0.5) * (math.pi / bands)
        centers_polar = math.acos(max(-1.0, min(1.0, float(center[2]))))
        band_sel = np.flatnonzero(np.abs(mids - centers_polar) <= cap + cell_diag + math.pi / bands)
        az_c = math.atan2(float(center[1]), float(center[0])) % TWO_PI
        chunks = []
        band_base = np.concatenate([[0], np.cumsum(counts)[:-1]])
        for b in band_sel:
            m = int(counts[b])
            # azimuth window from the cap opening at this latitude
            sin_lat = max(math.sin(mids[b]), 1e-9)
            half = min(math.pi, (cap + cell_diag) / sin_lat + TWO_PI / m)
            step = TWO_PI / m
            c_lo = math.floor((az_c - half) / step)
            c_hi = math.floor((az_c + half) / step)
            if c_hi - c_lo + 1 >= m:
                chunks.append(self._gather_key_range(base + band_base[b],
                                                     base + band_base[b] + m - 1))
            elif c_lo < 0 or c_hi >= m:
                chunks.append(self._gather_key_range(base + band_base[b] + (c_lo % m),
                                                     base + band_base[b] + m - 1))
                chunks.append(self._gather_key_range(base + band_base[b],
                                                     base + band_base[b] + (c_hi % m)))
            else:
                chunks.append(self._gather_key_range(base + band_base[b] + c_lo,
                                                     base + band_base[b] + c_hi))
        return chunks

    def _shell_range(self, r_lo: float, r_hi: float) -> range:
        s_lo = max(0, int(max(r_lo, 0.0) // self.shell_width))
        s_hi = min(self.n_shells - 1, int(r_hi // self.shell_width))
        return range(s_lo, s_hi + 1)

    def _candidates_in_tube(self, a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
        ab = b - a
        length = float(np.linalg.norm(ab))
        u = ab / length
        au = float(a @ u)
        a_sq = float(a @ a)
        d_min = distance_origin_to_segment(a, b)
        d_max = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
        picked = []
        for s in self._shell_range(d_min - eps, d_max + eps):
            band_lo = s * self.shell_width
            band_hi = (s + 1) * self.shell_width
            intervals = self._segment_bands(a_sq, au, length, band_lo - eps, band_hi + eps)
            pad_r = max(band_lo, 1e-9) if band_lo > 0 else 0.0
            for t0, t1 in intervals:
                p0 = a + t0 * u
                p1 = a + t1 * u
                if self.d == 1:
                    th0 = math.atan2(p0[1], p0[0])
                    th1 = math.atan2(p1[1], p1[0])
                    swing = (th1 - th0 + math.pi) % TWO_PI - math.pi
                    mid = th0 + swing / 2.0
                    pad = math.pi if pad_r <= eps else math.asin(min(1.0, eps / pad_r))
                    picked.extend(self._gather_shell_window(s, mid % TWO_PI,
                                                            abs(swing) / 2.0 + pad))
                else:
                    mid_pt = 0.5 * (p0 + p1)
                    norm = float(np.linalg.norm(mid_pt))
                    if norm < 1e-12:
                        picked.append(self._gather_key_range(
                            self._shell_base[s],
                            self._shell_base[s] + self._shell_cells[s] - 1))
                        continue
                    c = mid_pt / norm
                    spread = 0.0
                    for p in (p0, p1):
                        np_ = float(np.linalg.norm(p))
                        if np_ > 1e-12:
                            spread = max(spread, math.acos(
                                max(-1.0, min(1.0, float(p @ c) / np_))))
                    pad = math.pi if pad_r <= eps else math.asin(min(1.0, eps / pad_r))
                    if self.d == 2:
                        picked.extend(self._gather_shell_cap(s, c, spread + pad))
                    else:
                        picked.append(self._gather_key_range(
                            self._shell_base[s],
                            self._shell_base[s] + self._shell_cells[s] - 1))
        if not picked:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(picked))

    @staticmethod
    def _segment_bands(a_sq: float, au: float, length: float,
                       r_lo: float, r_hi: float) -> list:
        """t-intervals of [0, length] where |a + t u| falls in [r_lo, r_hi]."""

        def roots(rr):
            disc = au * au - a_sq + rr * rr
            if disc < 0:
                return None
            sq = math.sqrt(disc)
            return (-au - sq, -au + sq)

        outer = roots(max(r_hi, 0.0))
        if outer is None:
            return []
        inner = roots(r_lo) if r_lo > 0 else None
        if inner is None:
            raw = [outer]
        else:
            raw = [(outer[0], inner[0]), (inner[1], outer[1])]
        out = []
        for lo, hi in raw:
            lo, hi = max(lo, 0.0), min(hi, length)
            if hi >= lo:
                out.append((lo, hi))
        return out

    # -- queries -----------------------------------------------------------

    def within_segment(self, a, b, eps: float) -> list[HitWitness]:
        """Exactly the stored points within eps of segment [a, b], by exact
        projection distance, sorted by point index."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if np.array_equal(a, b):
            idx = self.within_ball(a, eps)
            d = np.linalg.norm(self.coords[idx] - a, axis=1)
            order = np.argsort(self.ns[idx], kind="stable")
            return [HitWitness(int(self.ns[idx][i]), 0.0, float(d[i])) for i in order]
        cand = self._candidates_in_tube(a, b, eps)
        self.stats["candidates_checked"] += len(cand)
        if not len(cand):
            return []
        dist, t = segment_distances(self.coords[cand], a, b)
        keep = dist <= eps
        cand, dist, t = cand[keep], dist[keep], t[keep]
        order = np.argsort(self.ns[cand], kind="stable")
        return [
            HitWitness(int(self.ns[cand][i]), float(t[i]), float(dist[i])) for i in order
        ]

    def within_ball(self, x, r: float) -> np.ndarray:
        """Positions (into .ns/.coords) of stored points within r of x."""
        x = np.asarray(x, dtype=np.float64)
        norm_x = float(np.linalg.norm(x))
        picked = []
        for s in self._shell_range(norm_x - r, norm_x + r):
            base = self._shell_base[s]
            count = int(self._shell_cells[s])
            if norm_x <= r or count == 1:
                picked.append(self._gather_key_range(base, base + count - 1))
                continue
            half = math.asin(min(1.0, r / norm_x))  # cone tangent to the ball
            if self.d == 1:
                mid = math.atan2(x[1], x[0]) % TWO_PI
                picked.extend(self._gather_shell_window(s, mid, half))
            elif self.d == 2:
                picked.extend(self._gather_shell_cap(s, x / norm_x, half))
            else:
                picked.append(self._gather_key_range(base, base + count - 1))
        if not picked:
            return np.empty(0, dtype=np.int64)
        cand = np.unique(np.concatenate(picked))
        self.stats["candidates_checked"] += len(cand)
        keep = np.linalg.norm(self.coords[cand] - x, axis=1) <= r
        return cand[keep]

    def nearest(self, x) -> tuple[int, float]:
        """(point index n, distance) of the nearest stored point to x."""
        x = np.asarray(x, dtype=np.float64)
        r = self.shell_width
        r_max = float(self.radii.max()) + float(np.linalg.norm(x)) + self.shell_width
        while True:
            idx = self.within_ball(x, r)
            if len(idx):
                d = np.linalg.norm(self.coords[idx] - x, axis=1)
                j = int(np.argmin(d))
                ties = np.flatnonzero(d == d[j])
                best = ties[np.argmin(self.ns[idx][ties])]
                return int(self.ns[idx][best]), float(d[best])
            if r > r_max:
                raise RuntimeError("nearest-point search exhausted the index")
            r *= 2.0

    def reset_stats(self) -> None:
        self.stats = {"buckets_visited": 0, "candidates_checked": 0}


def build_index(points, shell_width: float = 2.0) -> ShellIndex:
    """Index a point list: SpiralPoint sequence or an (ns, coords) pair."""
    if isinstance(points, tuple) and len(points) == 2:
        ns, coords = points
        return ShellIndex(np.asarray(ns), np.asarray(coords), shell_width)
    pts = list(points)
    if not pts:
        raise ValueError("cannot index an empty point list")
    ns = np.array([p.n for p in pts], dtype=np.int64)
    coords = np.array([p.coords for p in pts], dtype=np.float64)
    return ShellIndex(ns, coords, shell_width)
