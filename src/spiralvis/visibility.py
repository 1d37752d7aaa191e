"""Checkers and estimators for the four visibility properties of spirals.

Each continuum property ("every direction", "every line") is certified on a
finite direction net whose covering radius is proved (the uniform circle grid
for d=1, the equiangular cube sphere for d>=2); with
net mesh at most eps/(4V) a pass certifies the continuum statement for the
window [0, V] at tolerance eps + V*mesh. For a shifted window [t0, t0 + V]
the triangle inequality gives only eps + max(|t0|, |t0 + V|)*mesh; every
report, the uniform check's included, still records eps + V*mesh. Candidate
indices are capped in closed form from the query window, inflated by eps,
so truncation is rigorous rather than heuristic.

Window sweeps turn each point into a cap of directions it reaches
(``geometry.radial_hit_halfwidth``) and read points in index order until no
direction is open. A block's radii are sorted, so the half-width splits
them by radius class: the run of each of its five cases is found by
bisection and each formula is evaluated on its run only, and each half of a
window through the origin hands it only the block's slice inside that
half's index range. The orchard, uniform and certificate checks each pick
their arcs (``_window_arcs``, ``_certificate_arcs``) and hand them to one
``_net_check``. On the circle grid it is one cover pass (``_circle_check``):
each arc is a run of integer cells (``_arc_cells``, which masks only the
arcs that reach no cell or every cell and takes the first cell mod K by one
conditional add and one conditional subtract), an arc that reaches no cell
is an empty run, which cancels, one difference array per block of points
marks every cell the block's runs cover, and the cells left open fail. The
first block's array spans all K cells; once the runs and the open cells
number under K/4, a block's runs are ranked in the list of open cells and
its array spans those ranks only (``_circle_cover``). Blocks come in index
order, so the same pass stamps the first writers of the first 100 hit cells
in the block that covers each one. A golden-angle window with t_lo >= 0
skips that pass when its block bound holds (``_block_margin``): the
indices of radius in [t_lo, t_hi] have a largest gap, in closed form from
the three-distance theorem (``rotation_largest_gap``), at most twice their
least half-width less BLOCK_SLACK, so their arcs alone cover the circle, no
cell fails, and one segment scan near cells 0..99 stamps those cells' first
writers (``_block_writers``). On any other net (S^d)
``_directional_window_check``
runs ``_cap_witnesses``. It and the S^d minimal-visibility reach
(``_window_reach``) share one pair sweep, ``_band_pairs``, which keeps the
open centers sorted by their last coordinate z and pairs each point only
with the run of centers whose z lies in its cap's polar band
(``_polar_bands``), so no point-by-center matrix is formed: the checks keep
the pairs that pass the exact cap test and lower each center's witness, the
reach lowers each center's least reach offset. On the circle grid the reach
hands each point of a block (``_arc_blocks``) the still-open cells it
reaches (``_mark_windows``), in batches of about 2^16 (point, cell) marks;
before each batch the cells its first point's radius settles leave the open
list, and an int32 prefix count over that list ranks the batch's arcs.

Segment scans (the forest windows and the visible-point rays) take their
points from one candidate source, ``_segment_candidates``: blocks, in index
order, holding every index of a range whose point lies within a reach D of
the segment, taken from the segment's annulus widened by D. Two kinds have
closed-form candidates, O(shells) work instead of O(points): per shell and
per sub-segment of the segment inside it (``_shell_arcs``), the rational
ladder's shell k, at angles 2*pi*p/k, gives a p-interval, and the golden
angle's shell [s^2, s^2 + 2s], read through a convergent p/q of theta
(``rotation_convergents``), gives intervals of j*p mod q. Both read every
int64 index. The golden source needs alpha = {theta} * 2^64 to be an
integer, as every theta >= 2^-12 has; any other kind or theta reads the
annulus whole, starting with a small block. One exact filter
(``geometry.segment_distances``) serves every scan. A query asks for the
smallest index within eps, else the exact minimum over the range, and two
drivers answer it: ``_first_hit`` for one segment (a ray, or a forest
window of a kind with no closed form) and ``_forest_hits`` for a group of
forest windows, one pass over all their closed-form candidates
(``check_dense_forest`` runs a group per thread). Each finishes its misses
with the one exact-minimum search, ``_line_min_distance(spec, a, b, eps,
ranges, exclude, best)``: D starts at the distance of ``best``, the nearest
candidate the first pass read, and doubles until a candidate lies within
it. A forest window's range is its eps-widened annulus, clipped by the
budget in ``spirals.index_range`` as every check's range is; a ray's is
[1, budget], and its eps is just below eps_floor. No range may reach past
2^63 - 1; a refused window or ray raises ``RefusedSegmentError``."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ._par import parallel_map, thread_count
from .geometry import radial_hit_halfwidth, ray_to_ray_distance, segment_distances
from .reports import DirectionFailures
from .sequences import (
    SequenceSpec,
    angle_batch,
    fractional_multiples,
    rotation_convergents,
    rotation_largest_gap,
    shell_start,
    triangular_decompose,
)
from .sphere import DirectionNet, build_direction_net
from .spirals import (
    CHUNK,
    DEFAULT_BUDGET,
    annulus_index_range,
    index_range,
    iter_point_chunks,
    point_batch,
    radius_of_index,
)

TWO_PI = 2.0 * math.pi
MISS = np.iinfo(np.int64).max
# the certificate route's K and kappa: indices n <= K * V^(d+1), each reaching
# the directions within kappa * eps / r of its own
K_CERT = KAPPA_CERT = 1.0

# vacant-strip half-width of the rational-ladder spiral: proven for every n
# (exhaustive scan covers k <= 1413; for larger k the bound
# sqrt(k(k+1)/2)*sin(pi/k) >= (pi/sqrt 2)*(1 - pi^2/(6 k^2)) > 2.22 applies)
LADDER_STRIP_HALFWIDTH = 2.0


class NetMeshError(ValueError):
    """The supplied net is too coarse for the requested (eps, V)."""

    def __init__(self, mesh: float, required: float):
        super().__init__(
            f"net mesh {mesh:.3g} too coarse: the eps/(4V) rule requires {required:.3g}"
        )
        self.required_mesh = required


@dataclass(frozen=True)
class HitWitness:
    """A point within reach of a query window: index, arc parameter, distance."""

    n: int
    t: float
    distance: float


@dataclass(frozen=True)
class LineParam:
    """Line {lam*v + t*w}, v and w orthonormal, restricted to t in [t0, t1]."""

    lam: float
    v: np.ndarray
    w: np.ndarray
    t0: float
    t1: float

    def __post_init__(self):
        for name in ("lam", "t0", "t1", "v", "w"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"line {name} must be finite, got {getattr(self, name)}")
        if self.lam < 0:
            raise ValueError("line offset lam must be nonnegative")
        if not all(abs(np.linalg.norm(u) - 1.0) <= 1e-10 for u in (self.v, self.w)):
            raise ValueError(f"v and w must be unit vectors, got {self.v} and {self.w}")
        if abs(float(np.dot(self.v, self.w))) > 1e-10:
            raise ValueError("v and w must be orthogonal")
        if not self.t1 > self.t0:
            raise ValueError(f"degenerate window [{self.t0}, {self.t1}] rejected")

    @classmethod
    def at_angle(cls, lam: float, angle: float, t0: float, t1: float) -> "LineParam":
        """The window with v at ``angle`` and w = v turned a quarter counterclockwise."""
        if not math.isfinite(angle):
            raise ValueError(f"line angle must be finite, got {angle}")
        v = np.array([math.cos(angle), math.sin(angle)])
        w = np.array([-math.sin(angle), math.cos(angle)])
        return cls(lam=lam, v=v, w=w, t0=t0, t1=t1)

    def point(self, t: float) -> np.ndarray:
        return self.lam * np.asarray(self.v) + t * np.asarray(self.w)

    @property
    def length(self) -> float:
        return self.t1 - self.t0


@dataclass
class CurveEntry:
    eps: float
    V: float
    status: str  # "ok" or "diverged"


@dataclass
class VisibilityCurve:
    """Estimated minimal visibility per eps. ``slope`` is the log-log fit of
    V against eps over the ``ok`` entries, None below two of them."""

    kind: str
    entries: list[CurveEntry]

    def __post_init__(self):
        eps = [e.eps for e in self.entries]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("entries must have strictly decreasing eps")
        vals = [e.V for e in self.entries if e.status == "ok"]
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("V must be nondecreasing as eps decreases")

    @property
    def slope(self) -> float | None:
        oks = [e for e in self.entries if e.status == "ok"]
        if len(oks) < 2:
            return None
        return float(np.polyfit(np.log([e.eps for e in oks]), np.log([e.V for e in oks]), 1)[0])

    def to_json(self) -> dict:
        return {**asdict(self), "slope": self.slope}


@dataclass
class CheckReport:
    """What a check measured: ``total_checks`` directions or windows, the
    ``failures`` among them (a ``DirectionFailures`` for the net checks, a
    list of rows for the forest) and the first witnesses of the rest. The
    verdict and its counts are derived: ``passed`` when nothing failed,
    ``witness_count`` the checks that did not fail, and
    ``certified_tolerance`` eps + V*mesh, the mesh ``net["delta"]`` (None,
    read as 0, for the forest's windows)."""

    property: str
    spec: dict
    eps: float
    V: float
    constants: dict
    net: dict
    total_checks: int
    failures: list | DirectionFailures
    witnesses: list
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not len(self.failures)

    @property
    def witness_count(self) -> int:
        return self.total_checks - len(self.failures)

    @property
    def certified_tolerance(self) -> float:
        return self.eps + self.V * (self.net["delta"] or 0)

    @property
    def pass_fraction(self) -> float:
        if self.total_checks == 0:
            return 0.0
        return 1.0 - len(self.failures) / self.total_checks

    def to_json(self) -> dict:
        """The fields and the derived values, with the first 1,000 failures
        (still arrays when they are a ``DirectionFailures``) and the first
        100 witnesses; an empty ``extra`` is left out."""
        failures = self.failures
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload.update({
            "failures": (failures.head(1000) if isinstance(failures, DirectionFailures)
                         else failures[:1000]),
            "failure_count": len(failures),
            "witnesses": self.witnesses[:100],
            "passed": self.passed,
            "pass_fraction": self.pass_fraction,
            "witness_count": self.witness_count,
            "certified_tolerance": self.certified_tolerance,
        })
        if not self.extra:
            del payload["extra"]
        return payload


def _require_scale(eps: float, V: float) -> None:
    """Every check's scale: eps in (0, 1), V finite and positive."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not 0 < V < math.inf:
        raise ValueError(f"visibility V must be finite and positive, got {V}")


def _require_net(spec: SequenceSpec, eps: float, V: float,
                 net: DirectionNet | None) -> DirectionNet:
    _require_scale(eps, V)
    required = eps / (4.0 * V)
    if net is None:  # a rule mesh above pi gets the mesh-pi net, finer than it needs
        return build_direction_net(spec.d, min(required, math.pi))
    if net.mesh > required * (1 + 1e-12):
        raise NetMeshError(net.mesh, required)
    if net.dimension != spec.d:
        raise ValueError("net dimension does not match the sequence")
    return net


def _net_info(delta: float | None, count: int) -> dict:
    return {"delta": delta, "count": count, "seed": None}


# -- circle cover ------------------------------------------------------------


def _arc_cells(K: int, angles: np.ndarray, halfw: np.ndarray):
    """(at, lo, counts): per arc (row ``at`` of ``angles``; columns are more
    arcs of that row), the ``counts`` cells j*2*pi/K within halfw of its
    angle, from cell ``lo`` on, mod K. A negative half-width reaches none and
    one of pi or more reaches all K (rounded, pi/step may fall just short of
    K/2). For angles in [0, 2*pi] and half-widths in [-1, 2*pi] the first
    cell lies in [-K, 2K], so one add and one subtract of K take it mod K,
    to K instead of 0 only for a K = 1 arc that reaches no cell."""
    step = TWO_PI / K
    lo = np.ceil((angles - halfw) / step).astype(np.int64).ravel()
    counts = np.floor((angles + halfw) / step).astype(np.int64).ravel()
    counts -= lo - 1
    np.clip(counts, 0, K, out=counts)
    counts[halfw.ravel() < 0.0] = 0
    counts[halfw.ravel() >= math.pi] = K
    np.add(lo, K, out=lo, where=lo < 0)
    np.subtract(lo, K, out=lo, where=lo >= K)
    return np.repeat(np.arange(angles.shape[0]), angles.shape[1]), lo, counts


_MARKS_PER_BATCH = 1 << 16  # (point, cell) marks per batch of the circle reach


def _mark_windows(K: int, still_open, angles: np.ndarray, halfw: np.ndarray, write) -> None:
    """Hand ``write(at, cells)`` each row ``at`` (a point; columns are more
    arcs of it) with the open cells of its arcs (``_arc_cells``), in batches
    of at most ``_MARKS_PER_BATCH`` pairs. Before each batch,
    ``still_open(row)`` gives the cells open at its first row (sorted), and
    an int32 prefix count over them turns every arc into a run of ranks in
    that list."""
    at, lo, counts = _arc_cells(K, angles, halfw)
    while len(lo):
        open_ = still_open(at[0])
        if not (R := len(open_)):
            return
        prefix = np.zeros(K + 1, dtype=np.int32)
        prefix[open_ + 1] = 1
        np.cumsum(prefix, out=prefix)
        wrap = lo + counts > K
        runs = prefix[lo + counts - K * wrap] - prefix[lo] + R * wrap
        bounds = np.cumsum(runs)
        stop = max(1, int(np.searchsorted(bounds, _MARKS_PER_BATCH, side="right")))
        c = runs[:stop]
        ranks = np.repeat(prefix[lo[:stop]] - bounds[:stop] + c, c) + np.arange(bounds[stop - 1])
        write(np.repeat(at[:stop], c), open_[ranks % R])
        lo, counts, at = lo[stop:], counts[stop:], at[stop:]


def _window_arcs(spec: SequenceSpec, t_lo: float, t_hi: float, eps: float,
                 index_budget: int):
    """(n_lo, n_hi, arcs, block): the window split at the origin, its t < 0
    half as [max(-t_hi, 0), -t_lo] along -c (flip pi); the halves' index
    range (their annuli widened by eps, through ``index_range``) and (flip,
    reach(ns, radii)) each. ``block`` is (a, b, eps) for a golden-angle
    window with t_lo >= 0, a..b the indices of [n_lo, n_hi] whose radius
    lies in [t_lo, t_hi], when they are two or more; their arcs alone may
    cover the circle (``_block_margin``). It is None for any other window."""
    ranges, arcs = [], []
    halves = [(0.0, max(t_lo, 0.0), t_hi)] if t_hi >= 0 else []
    halves += [(math.pi, max(-t_hi, 0.0), -t_lo)] if t_lo < 0 else []
    for flip, lo, hi in halves:
        ranges.append(annulus_index_range(max(0.0, lo - eps), hi + eps + 1e-12, spec.d))

        def reach(ns, radii, lo=lo, hi=hi, r=ranges[-1]):  # ns sorted
            out = np.full(len(ns), -1.0)
            i, j = np.searchsorted(ns, r[0]), np.searchsorted(ns, r[1], side="right")
            out[i:j] = radial_hit_halfwidth(radii[i:j], lo, hi, eps)
            return out

        arcs.append((flip, reach))
    n_lo, n_hi = index_range(min(r[0] for r in ranges), max(r[1] for r in ranges),
                             index_budget, f"the window [{t_lo!r}, {t_hi!r}]")
    block = None
    if t_lo >= 0 and spec.kind == "golden-angle":
        a, b = annulus_index_range(t_lo, t_hi, spec.d)
        if (b := min(b, n_hi)) > a:
            block = (a, b, eps)
    return n_lo, n_hi, arcs, block


def _certificate_arcs(spec: SequenceSpec, eps: float, V: float, index_budget: int):
    """(1, n_cap, arcs, None) of the certificate route: each index n <=
    K*V^(d+1) (through ``index_range``) reaches the directions within
    min(kappa*eps/r, pi) of its own, K = ``K_CERT`` and kappa =
    ``KAPPA_CERT``; no block bound applies."""
    return (*index_range(1, math.ceil(K_CERT * V ** (spec.d + 1)), index_budget,
                         f"the certificate range of V {V!r}"),
            [(0.0, lambda ns, radii: np.minimum(KAPPA_CERT * eps / radii, math.pi))], None)


def _point_arcs(spec: SequenceSpec, ns: np.ndarray, arcs):
    """(radii, theta, angles, halfw) of the sorted indices ``ns``: theta the
    polar angles (``angle_batch``), and one column of angles (theta + flip)
    mod 2*pi and one of half-widths reach(ns, radii) per (flip, reach) in
    ``arcs``. A lone flip-0 arc whose angles already lie in [0, 2*pi) takes
    theta as its column: the remainder is the identity there."""
    radii, theta = radius_of_index(ns, 1), angle_batch(spec, ns)
    if len(arcs) == 1 and arcs[0][0] == 0.0 and 0.0 <= theta.min() and theta.max() < TWO_PI:
        angles = theta[:, None]
    else:
        angles = np.column_stack([(theta + flip) % TWO_PI for flip, _ in arcs])
    return radii, theta, angles, np.column_stack([reach(ns, radii) for _, reach in arcs])


def _arc_blocks(spec: SequenceSpec, n_lo: int, n_hi: int, arcs):
    """(ns, radii, theta, angles, halfw) (``_point_arcs``) per block of
    CHUNK // 4 indices of [n_lo, n_hi], in index order."""
    block = CHUNK // 4
    for lo in range(max(1, n_lo), n_hi + 1, block):
        ns = np.arange(lo, min(n_hi, lo + block - 1) + 1, dtype=np.int64)
        yield ns, *_point_arcs(spec, ns, arcs)


def _runs(K: int, ns: np.ndarray, angles: np.ndarray, halfw: np.ndarray):
    """(ns, start, stop): one run of cells start..stop-1 (0 <= start <= stop
    <= K) and the index ``ns`` of its point per arc (``_arc_cells``); an arc
    that wraps past cell K - 1 is two runs, and one that reaches no cell is
    an empty run (start == stop), which covers and stamps nothing."""
    at, lo, counts = _arc_cells(K, angles, halfw)
    end = lo + counts
    wrap = end > K
    return (ns[np.concatenate([at, at[wrap]])],
            np.concatenate([lo, np.zeros(int(wrap.sum()), dtype=np.int64)]),
            np.concatenate([np.minimum(end, K), end[wrap] - K]))


def _cell_runs(spec: SequenceSpec, K: int, n_lo: int, n_hi: int, arcs):
    """The runs (``_runs``) of each block of ``_arc_blocks``."""
    for ns, _, _, angles, halfw in _arc_blocks(spec, n_lo, n_hi, arcs):
        yield _runs(K, ns, angles, halfw)


def _stamp_first(cells: np.ndarray, ns, start, stop) -> np.ndarray:
    """The smallest of ``ns`` whose run start..stop-1 holds each of ``cells``
    (sorted, not empty; MISS where none does)."""
    first = np.full(len(cells), MISS, dtype=np.int64)
    near = (start <= cells[-1]) & (stop > cells[0])
    ns, i0 = ns[near], np.searchsorted(cells, start[near])
    c = np.searchsorted(cells, stop[near]) - i0
    np.minimum.at(first, np.repeat(i0 - np.cumsum(c) + c, c) + np.arange(c.sum()),
                  np.repeat(ns, c))
    return first


def _circle_cover(spec: SequenceSpec, K: int, n_lo: int, n_hi: int, arcs):
    """(open, cells, first): the cells j*2*pi/K that no arc of an index in
    [n_lo, n_hi] reaches (sorted), the first 100 cells some arc reaches
    (sorted), and the smallest index whose arc reaches each of those. Per
    block, a difference array marks every cell the block's runs cover: one
    over all K cells, unless the runs and the cells still open number under
    K/4 together, when the runs are ranked in the list of open cells and it
    spans their ranks only. Blocks come in index order, so a cell's first
    writer is the least index among the runs of the block that first covers
    it, and each block stamps its new cells below the 100th kept one. The
    sweep stops when no cell is open."""
    open_ = None  # the open cells, sorted; None while every cell is
    cells = first = np.zeros(0, dtype=np.int64)
    for ns, start, stop in _cell_runs(spec, K, n_lo, n_hi, arcs):
        R = K if open_ is None else len(open_)
        if 4 * (len(start) + R) < K:  # sorted keys keep the bisections local
            depth = np.bincount(np.searchsorted(open_, np.sort(start)), minlength=R + 1)
            depth -= np.bincount(np.searchsorted(open_, np.sort(stop)), minlength=R + 1)
            still = np.cumsum(depth, out=depth)[:R] == 0
        else:
            depth = np.bincount(start, minlength=K + 1)
            depth -= np.bincount(stop, minlength=K + 1)
            still = np.cumsum(depth, out=depth)[:K] == 0
            still = still if open_ is None else still[open_]
        del depth  # freed before the next block's runs
        if open_ is None:  # any prefix holds at most len(open_) open cells
            open_ = np.flatnonzero(still)
            new = np.flatnonzero(~still[:100 + len(open_)])[:100]
        else:  # only cells below the 100th kept one can join the kept
            m = len(open_) if len(cells) < 100 else np.searchsorted(open_, cells[-1])
            new, open_ = open_[:m][~still[:m]][:100], open_[still]
        if len(new):
            cells = np.concatenate([cells, new])
            first = np.concatenate([first, _stamp_first(new, ns, start, stop)])
            order = np.argsort(cells)[:100]
            cells, first = cells[order], first[order]
        if not len(open_):
            break
    return (np.arange(K) if open_ is None else open_), cells, first


# float error of the block bound, in radians, past the angles' truncation to
# 53 bits (which the gap bound adds): the 2*pi product of ``angle_batch`` and
# arcsin(eps/r) of ``radial_hit_halfwidth`` are each within a few ulps of
# 2*pi, and so are ``_arc_cells``' quotients (angle -+ half-width) / (2*pi/K)
# before their ceil and floor, measured in radians, at any K
BLOCK_SLACK = 1e-9


def _block_margin(spec: SequenceSpec, block, arcs) -> float:
    """h_min - gap/2 in radians for a window's ``block`` (a, b, eps) of
    ``_window_arcs``: gap bounds the largest gap between the float angles of
    the indices a..b, and h_min is the least of their half-widths (the
    lone arc's reach); -inf with no block, or when the kind is no rotation
    (``rotation_largest_gap`` is None). At BLOCK_SLACK or more, every angle
    lies within h_min - BLOCK_SLACK of a block point's, so the block's runs
    alone hold every cell of any circle grid.

    The gap: ``angle_batch`` keeps the top 53 of the 64 bits of each exact
    turn n * alpha mod 2^64, so each float angle lies below its exact turn
    by less than 2^11 units of 2^-64 turn, in the same order, and every gap
    is below (G + 2^11) * 2*pi / 2^64, G = rotation_largest_gap(theta,
    b - a + 1).

    h_min: for t_lo <= r <= t_hi the half-width h(r) of
    ``radial_hit_halfwidth`` does not increase in r. Neither miss holds (t_lo
    - r <= 0 and r - t_hi <= 0), and foot(r) = sqrt(r^2 - eps^2) < r <= t_hi
    rules out the cap at t_hi. After pi (r + t_lo <= eps, the smallest r)
    come the cap at t_lo, while foot(r) < t_lo, then arcsin(eps/r), which
    falls. The cap's cosine (r^2 + t_lo^2 - eps^2) / (2 r t_lo) has the
    derivative (r^2 - t_lo^2 + eps^2) / (2 r^2 t_lo) > 0, so the cap falls
    too, and at foot(r) = t_lo the cosine is t_lo / r = cos(arcsin(eps/r)):
    the two meet. So h_min is h at the block's last index. The cap's radii
    have r^2 < t_lo^2 + eps^2 < t_lo^2 + 1, which holds at most the block's
    first index, and arccos near 1 loses about an ulp over h there; so h is
    read at both ends, and h_min is the less."""
    if block is None:
        return -math.inf
    a, b, _ = block
    gap = rotation_largest_gap(spec.theta, b - a + 1)
    if gap is None:
        return -math.inf
    [(_, reach)] = arcs
    ends = np.array([a, b], dtype=np.int64)
    return float(reach(ends, radius_of_index(ends, 1)).min()) - (gap + 2**11) * (math.pi / 2**64)


def _block_writers(spec: SequenceSpec, K: int, n_lo: int, n_hi: int, arcs, eps: float,
                   t_lo: float, t_hi: float):
    """(cells, first): the cells 0..m-1, m = min(100, K), of a window whose
    block covers every cell (``_block_margin``), and the least index of
    [n_lo, n_hi] whose run (``_runs``, formed as the cover forms it) holds
    each: the cover's first writers. The cells span the wedge of half-angle
    beta = (m - 1)*pi/K about the angle beta. A point whose float run holds one lies within eps,
    plus rounding, of that cell's segment, so within eps + far*(beta +
    2*pi/K) + 1e-9*(1 + far), far = t_hi + eps, of [t_lo u, t_hi u], u at
    the angle beta: the segment candidates (``_segment_candidates``), in
    index order, hold every such index. Their runs are stamped
    (``_stamp_first``) until every cell has a writer; a cell left without
    one is a fault of the bound, and raises."""
    m = min(100, K)
    cells, first = np.arange(m), np.full(m, MISS, dtype=np.int64)
    beta = (m - 1) * math.pi / K
    u = np.array([math.cos(beta), math.sin(beta)])
    far = t_hi + eps
    reach = eps + far * (beta + TWO_PI / K) + 1e-9 * (1.0 + far)
    for ns, _, _ in _segment_candidates(spec, t_lo * u, t_hi * u, reach, n_lo, n_hi):
        _, _, angles, halfw = _point_arcs(spec, ns, arcs)
        np.minimum(first, _stamp_first(cells, *_runs(K, ns, angles, halfw)), out=first)
        if first.max() < MISS:
            return cells, first
    raise RuntimeError(f"the window [{t_lo!r}, {t_hi!r}], which its block covers, left "
                       f"cells {cells[first == MISS].tolist()} of {K} with no writer")


def _circle_check(spec: SequenceSpec, K: int, n_lo: int, n_hi: int, arcs, block,
                  t_lo: float, t_hi: float):
    """(failures, witnesses) on the circle grid of K cells: the cells no arc
    reaches, and the first writers of the first 100 hit cells with their
    exact (t, distance) on [t_lo, t_hi]. When the window's ``block`` covers
    the circle (``_block_margin`` at least BLOCK_SLACK), no cell is open and
    one scan near cells 0..99 finds their writers (``_block_writers``);
    otherwise one cover pass gives both (``_circle_cover``)."""
    if _block_margin(spec, block, arcs) >= BLOCK_SLACK:
        failures = np.zeros(0, dtype=np.int64)
        cells, writers = _block_writers(spec, K, n_lo, n_hi, arcs, block[2], t_lo, t_hi)
    else:
        failures, cells, writers = _circle_cover(spec, K, n_lo, n_hi, arcs)
    t, dist = _exact_cell_witnesses(spec, K, cells, writers, t_lo, t_hi)
    return failures, _hit_witnesses(writers, t, dist)


def _exact_cell_witnesses(spec: SequenceSpec, K: int, cells: np.ndarray,
                          writers: np.ndarray, t_lo: float, t_hi: float):
    """Exact (t, distance) on [t_lo, t_hi] of the witnesses ``writers`` of
    the circle cells ``cells`` of a K-cell grid, from their points' radii
    and angles."""
    radius, coords = point_batch(spec, writers)
    delta = np.arctan2(coords[:, 1], coords[:, 0]) - cells * (TWO_PI / K)
    along = radius * np.cos(delta)
    t_star = np.clip(along, t_lo, t_hi)
    return t_star, np.hypot(along - t_star, radius * np.sin(delta))


# -- generic (any-d) direction sweep ----------------------------------------


# rounding allowance of the polar band: it covers the error of a computed
# dot of near-unit vectors and that of the band's edges
BAND_SLACK = 8 * np.finfo(np.float64).eps
_PAIRS_PER_BLOCK = 1 << 21  # (point, center) pairs per chunk of the cap sweep


def _polar_bands(z: np.ndarray, s: np.ndarray, cos_h: np.ndarray):
    """(lo, hi) per cap {c : w.c >= cos_h} (cos_h = -inf for the whole
    sphere): a range of last coordinates holding every center the cap holds,
    for w with last coordinate z and s the hypot of its other coordinates.

    A direction c within angle h of w has its polar angle (from the +z pole)
    within h of w's, theta_w, and z = cos(polar angle) decreases in it, so
    c's last coordinate lies in [cos(theta_w + h), cos(theta_w - h)] =
    [z C - s S, z C + s S] with C = cos h, S = sin h; the range opens to -1
    or +1 when that pole lies inside the cap (-z >= C or z >= C). s is taken
    as a hypot, not as sin(arccos(z)), which loses about 1e-8 rad near the
    poles. C is lowered by BAND_SLACK, so the cap also holds every c whose
    computed dot passes, and the edges are widened by BAND_SLACK against
    their own rounding: the band is a superset of the centers the exact test
    can accept.
    """
    C = np.maximum(cos_h, -1.0) - BAND_SLACK
    S = np.sqrt(np.maximum((1.0 - C) * (1.0 + C), 0.0))
    lo = np.where(-z >= C, -np.inf, z * C - s * S - BAND_SLACK)
    hi = np.where(z >= C, np.inf, z * C + s * S + BAND_SLACK)
    return lo, hi


def _band_pairs(spec: SequenceSpec, centers: np.ndarray, n_lo: int, n_hi: int, arcs,
                still_open, write) -> None:
    """Hand ``write(ns, radii, units, point, center, dots, sign, cos_h)``
    each chunk of the (point, center) pairs of [n_lo, n_hi] x ``centers``
    whose center may lie in the point's cap: ``point`` indexes the block's
    ``ns``, ``radii`` and unit directions ``units``, ``center`` indexes
    ``centers``, ``dots`` is u.c, and the cap is {c : sign * u.c >= cos_h},
    about c for flip 0 (sign 1) and about -c for flip pi (sign -1), of
    half-width h = reach(ns, radii) per (flip, reach) in ``arcs`` (negative
    half-widths reach nothing; half-widths of pi or more have cos_h = -inf).

    The open centers are kept sorted by their last coordinate, so the
    centers a cap about +-u can hold are one contiguous run, found by
    ``searchsorted`` on its polar band (``_polar_bands``); only those pairs
    are handed on. Points are read in index order, in blocks of at most
    ``_PAIRS_PER_BLOCK`` // (open centers) points (and at most ``CHUNK``),
    and a block's pairs go in chunks of at most ``_PAIRS_PER_BLOCK``. Before
    each block, the centers (indices ``c`` into ``centers``) for which
    ``still_open(c, r)`` is false leave the sweep, r the radius of the
    block's first point; the sweep stops when none is left.
    """
    open_ = np.argsort(centers[:, -1], kind="stable")
    ordered = centers[open_]
    lo = max(1, n_lo)
    while lo <= n_hi:
        keep = still_open(open_, radius_of_index(lo, spec.d))
        open_, ordered = open_[keep], ordered[keep]
        if not len(open_):
            return
        hi = min(n_hi, lo + min(CHUNK, max(1, _PAIRS_PER_BLOCK // len(open_))) - 1)
        ns = np.arange(lo, hi + 1, dtype=np.int64)
        lo = hi + 1
        radii, coords = point_batch(spec, ns)
        units = coords / radii[:, None]
        z, s = units[:, -1], np.linalg.norm(units[:, :-1], axis=1)
        zs = np.ascontiguousarray(ordered[:, -1])
        rows = []
        for flip, reach in arcs:
            h = reach(ns, radii)
            at = np.flatnonzero(h >= 0.0)
            sign = math.cos(flip)
            cos_h = np.where(h[at] >= math.pi, -np.inf, np.cos(h[at]))
            band_lo, band_hi = _polar_bands(sign * z[at], s[at], cos_h)
            first = np.searchsorted(zs, band_lo, side="left")
            rows.append((at, np.full(len(at), sign), cos_h, first,
                         np.searchsorted(zs, band_hi, side="right") - first))
        point, sign, cos_h, start, count = map(np.concatenate, zip(*rows))
        ends, total = np.cumsum(count), int(count.sum())
        for q0 in range(0, total, _PAIRS_PER_BLOCK):
            q = np.arange(q0, min(q0 + _PAIRS_PER_BLOCK, total))
            row = np.searchsorted(ends, q, side="right")
            at = start[row] + q - (ends[row] - count[row])
            dots = np.einsum("ij,ij->i", units[point[row]], ordered[at])
            write(ns, radii, units, point[row], open_[at], dots, sign[row], cos_h[row])


def _cap_witnesses(spec: SequenceSpec, centers: np.ndarray, n_lo: int, n_hi: int,
                   arcs) -> np.ndarray:
    """Smallest index in [n_lo, n_hi] per center whose point lies in that
    center's cap, from the pair sweep (``_band_pairs``): the pairs that pass
    the exact test sign * u.c >= cos(h) lower their center's witness, and a
    center leaves the sweep once it has one."""
    witness = np.full(len(centers), MISS, dtype=np.int64)

    def write(ns, radii, units, point, center, dots, sign, cos_h):
        inside = np.flatnonzero(sign * dots >= cos_h)
        np.minimum.at(witness, center[inside], ns[point[inside]])

    _band_pairs(spec, centers, n_lo, n_hi, arcs, lambda c, r: witness[c] == MISS, write)
    return witness


def _directional_window_check(spec: SequenceSpec, centers: np.ndarray, n_lo: int,
                              n_hi: int, arcs, t_lo: float, t_hi: float):
    """(failures, witnesses) of the cap sweep (``_cap_witnesses``) on
    ``centers``: the directions no arc reaches, and the witnesses of the
    first 100 hit directions with their exact (t, distance) on [t_lo,
    t_hi]."""
    witness = _cap_witnesses(spec, centers, n_lo, n_hi, arcs)
    top = np.flatnonzero(witness != MISS)[:100]
    t, dist = _exact_direction_witnesses(spec, centers, witness, top, t_lo, t_hi)
    return np.flatnonzero(witness == MISS), _hit_witnesses(witness[top], t, dist)


def _exact_direction_witnesses(spec: SequenceSpec, centers: np.ndarray, witness: np.ndarray,
                               cells: np.ndarray, t_lo: float, t_hi: float):
    """Exact (t, distance) of the witness point p of each direction c of
    ``cells`` (all hit) to the window {t c : t_lo <= t <= t_hi}:
    t = clip(p.c, t_lo, t_hi), distance |p - t c|."""
    _, coords = point_batch(spec, witness[cells])
    c = centers[cells]
    t_best = np.clip(np.einsum("ij,ij->i", coords, c), t_lo, t_hi)
    return t_best, np.linalg.norm(coords - t_best[:, None] * c, axis=1)


def _hit_witnesses(ns, t, dist) -> list[HitWitness]:
    return [HitWitness(int(n), float(tj), float(dj)) for n, tj, dj in zip(ns, t, dist)]


def _net_check(spec: SequenceSpec, net: DirectionNet, n_lo: int, n_hi: int, arcs, block,
               t_lo: float, t_hi: float):
    """(failures, witnesses) of the arcs of the indices [n_lo, n_hi] on
    ``net``, witnesses measured against [t_lo, t_hi]: the circle check, which
    reads the window's ``block``, on the circle grid, the cap sweep on any
    other net. Every direction that does not fail is hit, so the hits number
    len(net) - len(failures)."""
    if net.uniform_grid:
        return _circle_check(spec, len(net), n_lo, n_hi, arcs, block, t_lo, t_hi)
    return _directional_window_check(spec, net.centers, n_lo, n_hi, arcs, t_lo, t_hi)


def check_orchard(spec: SequenceSpec, eps: float, V_value: float,
                  index_budget: int = DEFAULT_BUDGET,
                  method: str = "direct") -> CheckReport:
    """Every net direction must approach some point at parameter 0 < t < V.

    ``direct`` measures exact segment distances; ``certificate`` instead
    checks the arithmetic condition: an index n <= K*V^(d+1) with angular
    distance to the direction at most kappa*eps/n^(1/(d+1)). Its constants
    are fixed at K = kappa = 1, and the report records them.
    """
    net = _require_net(spec, eps, V_value, None)
    if method == "direct":
        constants = {}
        window = _window_arcs(spec, 0.0, V_value, eps, index_budget)
    elif method == "certificate":
        constants = {"K": K_CERT, "kappa": KAPPA_CERT}
        window = _certificate_arcs(spec, eps, V_value, index_budget)
    else:
        raise ValueError(f"unknown method {method!r}")
    failures, witnesses = _net_check(spec, net, *window, 0.0, V_value)
    return CheckReport(
        property=f"orchard[{method}]", spec=spec.to_json(), eps=eps, V=V_value,
        constants=constants, net=_net_info(net.mesh, len(net)), total_checks=len(net),
        failures=DirectionFailures(failures), witnesses=witnesses,
    )


def _window_starts(t0_list) -> list[float]:
    """The distinct window starts of ``t0_list`` in first-seen order, which
    must be finite and nonempty."""
    t0_list = list(dict.fromkeys(float(t0) for t0 in t0_list))
    if not t0_list or not all(math.isfinite(t0) for t0 in t0_list):
        raise ValueError(f"window starts t0 must be finite and nonempty, got {t0_list}")
    return t0_list


def check_uniform_orchard(spec: SequenceSpec, eps: float, V_value: float,
                          t0_list, net: DirectionNet | None = None,
                          index_budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Orchard condition with the window shifted to (t0, t0 + V), for each
    distinct t0 in first-seen order."""
    net = _require_net(spec, eps, V_value, net)
    t0_list = _window_starts(t0_list)
    all_failures, all_witnesses = [], []
    per_t0 = {}
    for t0 in t0_list:
        failures, witnesses = _net_check(
            spec, net, *_window_arcs(spec, t0, t0 + V_value, eps, index_budget),
            t0, t0 + V_value)
        all_failures.append(failures)
        all_witnesses.extend(witnesses[:10])
        per_t0[t0] = {"failures": len(failures), "hits": len(net) - len(failures)}
    failures = DirectionFailures(np.concatenate(all_failures),
                                 np.repeat(t0_list, [len(f) for f in all_failures]))
    return CheckReport(
        property="uniform-orchard", spec=spec.to_json(), eps=eps, V=V_value,
        constants={}, net=_net_info(net.mesh, len(net)), total_checks=len(net) * len(t0_list),
        failures=failures, witnesses=all_witnesses, extra={"t0": per_t0},
    )


# -- segment scans: one candidate source, one exact filter ------------------


NO_POINT = (math.inf, -1, math.nan)  # (distance, n, t) before any point is seen
FIRST_BLOCK = 1 << 12
FIRST_SHELLS = 1 << 6  # the closed-form scans' first slice, FIRST_BLOCK indices at the origin


class RefusedSegmentError(ValueError):
    """A forest window or a ray that the scans refuse; ``position`` is its
    place in the list of windows or of directions."""

    def __init__(self, position: int, message: str):
        super().__init__(message)
        self.position = position


def _at(position: int, call, *args):
    """``call(*args)``; a ValueError it raises is raised again as a
    ``RefusedSegmentError`` at ``position``."""
    try:
        return call(*args)
    except ValueError as exc:
        raise RefusedSegmentError(position, str(exc)) from None


def _shell_arcs(a, b, reach: float, pad, r1, r2):
    """(lo, hi, take, whole) per row i: the segment [a[i], b[i]] (rows of
    ``a`` and ``b``) against the shell of radii [r1[i], r2[i]], with
    ``pad[i]`` of float slack on the radii.

    A shell point within ``reach`` of the segment is within reach of the
    segment's part inside the annulus [r1 - reach, r2 + reach], which is at
    most two sub-segments, and its angle lies within asin(reach / (r1 -
    reach)) of theirs. ``lo``, ``hi`` and ``take`` hold one array per
    sub-segment: the angles [lo, hi] (radians) of its span so widened, and
    whether it exists. ``whole`` marks the shells to take whole: those the
    segment reaches with r1 - reach <= reach, where the angle bound fails.
    A segment below the float resolution of r2 + reach is read as its end a,
    its reach widened by its length, so that no division by it overflows.
    """
    ab = b - a
    length_sq = np.einsum("ij,ij->i", ab, ab)
    point = length_sq <= (2.0**-52 * (r2 + reach + pad)) ** 2
    reach = reach + point * np.hypot(ab[:, 0], ab[:, 1])
    r_in = r1 - reach - pad
    r_out = r2 + reach + pad
    ab[point], length_sq[point] = 0.0, 1.0
    # |a + s*ab|^2 = h^2 + |ab|^2 * (s - foot)^2, h = |a| for a point
    foot = -np.einsum("ij,ij->i", a, ab) / length_sq
    h = np.where(point, np.hypot(a[:, 0], a[:, 1]),
                 np.abs(a[:, 0] * ab[:, 1] - a[:, 1] * ab[:, 0]) / np.sqrt(length_sq))
    s_out = np.sqrt(np.maximum(0.0, (r_out - h) * (r_out + h)) / length_sq)
    r_cut = np.maximum(r_in, 0.0)
    s_in = np.sqrt(np.maximum(0.0, (r_cut - h) * (r_cut + h)) / length_sq)
    widen = np.arcsin(reach / np.maximum(r_in, reach))
    lo, hi, take = [], [], []
    for s0, s1 in ((np.maximum(foot - s_out, 0.0), np.minimum(foot - s_in, 1.0)),
                   (np.maximum(foot + s_in, 0.0), np.minimum(foot + s_out, 1.0))):
        q0 = a + s0[:, None] * ab
        q1 = a + s1[:, None] * ab
        theta = np.arctan2(q0[:, 1], q0[:, 0])
        turn = np.arctan2(q0[:, 0] * q1[:, 1] - q0[:, 1] * q1[:, 0],
                          np.einsum("ij,ij->i", q0, q1))
        lo.append(theta + np.minimum(turn, 0.0) - widen)
        hi.append(theta + np.maximum(turn, 0.0) + widen)
        take.append((s0 <= s1) & (r_out >= h))
    take[1] &= ~point  # a point's one span is its first, when r_in <= |a| <= r_out
    return lo, hi, take, (r_in <= reach) & (take[0] | take[1])


def _ladder_boxes(spec: SequenceSpec, k, i0, i1, a, b, reach: float, pad):
    """Boxes (``_box_members``) of the ladder's shells k, indices [i0, i1]
    of k(k+1)/2 + p, 0 <= p <= k, at angle 2*pi*p/k (p = k shares angle 0
    with p = 0). Each arc of ``_shell_arcs`` gives a p-interval mod k,
    padded by one step, and a p-interval holding p = 0 holds p = k too, when
    i1 is that twin. No member past i1, or past int64, is formed."""
    base = shell_start(k)
    lo, hi, take, whole = _shell_arcs(a, b, reach, pad, np.sqrt(i0), np.sqrt(i1))
    row, ones = np.arange(len(k)), np.ones(len(k), dtype=np.int64)
    limit = np.minimum(k, i1 - base + 1)
    boxes = []
    for arc in range(2):
        j_lo = np.ceil(lo[arc] * k / TWO_PI).astype(np.int64) - 1
        j_hi = np.floor(hi[arc] * k / TWO_PI).astype(np.int64) + 1
        full = whole | (j_hi - j_lo + 1 >= k)
        start = np.where(full, 0, j_lo % k)
        count = np.where(full, k, j_hi - j_lo + 1) * (whole | take[arc] if arc == 0
                                                      else take[arc] & ~whole)
        boxes.append((row, base, start, count, ones, k, limit))
        twin = (i1 - base == k) & (count > 0) & ((start == 0) | (start + count > k))
        boxes.append((row, i1, 0 * ones, twin.astype(np.int64), ones, ones, ones))
    return boxes


def _golden_boxes(spec: SequenceSpec, s, i0, i1, a, b, reach: float, pad):
    """Boxes (``_box_members``) of the golden angle's shells s, indices
    [i0, i1] of [s^2, s^2 + 2s], from the rotation's convergents p/q
    (``rotation_convergents``). A shell row of m indices takes q the
    largest denominator not above m and splits into parts of q indices from
    i0. Index b + j of the part from b, 0 <= j < q, sits at turn {b*theta}
    + (j*p mod q)/q within 1/q, so the j whose turn lies in an arc
    [u_lo, u_hi] of ``_shell_arcs`` are rho * p^-1 mod q for the integers
    rho in q*(u - {b*theta}) + (-1, 1), taken from floor(q*(u_lo - {b*theta}))
    - 1 to ceil(q*(u_hi - {b*theta})) + 1 against rounding: about
    q*(u_hi - u_lo) + 3 candidates per part and arc. A row that would split
    into more than MAX_PARTS parts, theta lying too near p/q for its size,
    is read whole as one part."""
    qs, _, inverses = rotation_convergents(spec.theta)
    lo, hi, take, whole = _shell_arcs(a, b, reach, pad, np.sqrt(i0), np.sqrt(i1))
    m = i1 - i0 + 1
    at = np.searchsorted(qs, m, side="right") - 1
    coarse = m > MAX_PARTS * qs[at]
    q = np.where(coarse, m, qs[at])
    parts = -(-m // q)
    row = np.repeat(np.arange(len(m)), parts)
    q, inverse, coarse = q[row], inverses[at][row], coarse[row]
    base = i0[row] + q * (np.arange(len(row)) - np.repeat(np.cumsum(parts) - parts, parts))
    size = np.minimum(q, i1[row] - base + 1)
    phase = fractional_multiples(spec.theta, base)
    boxes = []
    for arc in range(2):
        rho = np.floor((lo[arc][row] / TWO_PI - phase) * q).astype(np.int64) - 1
        count = np.ceil((hi[arc][row] / TWO_PI - phase) * q).astype(np.int64) + 2 - rho
        full = whole[row] | coarse | (count >= q)
        keep = (whole | take[arc] if arc == 0 else take[arc] & ~whole)[row]
        boxes.append((row, base, np.where(full, 0, rho % q), np.where(full, size, count) * keep,
                      np.where(full, 1, inverse), q, size))
    return boxes


MAX_PARTS = 1 << 6  # parts of one golden shell row, each with its own boxes
ROWS_PER_PIECE = CHUNK // MAX_PARTS  # so the parts of a piece's rows number at most CHUNK


def _closed_form(spec: SequenceSpec):
    """(shell of an index, a shell's first index, its span, boxes) of the
    kinds whose candidates come in closed form: the ladder's shells
    k(k+1)/2 + [0, k], and the golden angle's s^2 + [0, 2s] when its alpha =
    {theta} * 2^64 is an integer; else None."""
    if spec.kind == "rational-ladder":
        return lambda n: triangular_decompose(n)[0], shell_start, lambda k: k, _ladder_boxes
    if spec.kind == "golden-angle" and rotation_convergents(spec.theta) is not None:
        return math.isqrt, lambda s: s * s, lambda s: 2 * s, _golden_boxes
    return None


def _box_members(base, start, count, mult, mod, limit):
    """(box, n) per member of each box: n = base + ((start + i) mod q *
    mult mod q) for 0 <= i < count, q = mod, kept when the offset is below
    ``limit``. When every box is a run, mult 1 and start + count <= q, the
    offset is start + i."""
    box = np.repeat(np.arange(len(count)), count)
    offset = np.arange(len(box)) - np.repeat(np.cumsum(count) - count - start, count)
    if np.any(mult != 1) or np.any(start + count > mod):
        offset = offset % mod[box] * mult[box] % mod[box]
    keep = offset < limit[box]
    return box[keep], base[box[keep]] + offset[keep]


def _distinct(ns: np.ndarray) -> np.ndarray:
    """The distinct values of ``ns``, sorted: ``ns`` itself when it is
    strictly increasing, else one sort, which on int64 runs many times
    faster than ``np.unique``'s hash table."""
    if np.all(ns[1:] > ns[:-1]):
        return ns
    ns = np.sort(ns)
    keep = np.ones(len(ns), dtype=bool)
    keep[1:] = ns[1:] != ns[:-1]
    return ns[keep]


def _candidate_groups(spec: SequenceSpec, shells, a, b, reach: float, pad, lo, hi,
                      first_hit=None):
    """(win, ns) per group of shells, in order of window, then shell: every
    index of [lo[w], hi[w]] whose point lies within ``reach`` of the segment
    [a[w], b[w]] (rows of ``a``, ``b``; ``pad[w]`` of slack on its radii),
    w = win, from the closed-form boxes of ``shells`` (``_closed_form``).
    Indices may repeat where arcs overlap. The (window, shell) rows are
    built ROWS_PER_PIECE at a time, and a group holds at most CHUNK
    candidates or one shell. A shell whose first index in range exceeds
    ``first_hit[w]`` is left out, so a window found to hit reads no later
    shell. A shell ends in range at min(first, hi - span) + span <= hi."""
    shell_of, first, span, boxes_of = shells
    s_lo = np.array([shell_of(max(1, int(n))) for n in lo], dtype=np.int64)
    s_hi = np.array([shell_of(max(1, int(n))) for n in hi], dtype=np.int64)
    per = np.where(hi >= lo, s_hi - s_lo + 1, 0)
    ends = np.cumsum(per)
    for r0 in range(0, int(ends[-1]), ROWS_PER_PIECE):
        r = np.arange(r0, min(r0 + ROWS_PER_PIECE, int(ends[-1])))
        win = np.searchsorted(ends, r, side="right")
        shell = s_lo[win] + r - (ends[win] - per[win])
        i0 = np.maximum(first(shell), lo[win])
        i1 = np.minimum(first(shell), hi[win] - span(shell)) + span(shell)
        row, *box = map(np.concatenate, zip(*boxes_of(spec, shell, i0, i1, a[win], b[win],
                                                        reach, pad[win])))
        order = np.argsort(row, kind="stable")
        row, box = row[order], [field[order] for field in box]
        edges = np.searchsorted(row, np.arange(len(r) + 1))
        bounds = np.cumsum(np.bincount(row, weights=box[2], minlength=len(r)))
        g0 = 0
        while g0 < len(r):
            g1 = max(g0 + 1, int(np.searchsorted(bounds, (bounds[g0 - 1] if g0 else 0) + CHUNK,
                                                 side="right")))
            sel = slice(edges[g0], edges[g1])
            base, start, count, mult, mod, limit = (field[sel] for field in box)
            if first_hit is not None:
                count = count * (i0[row[sel]] <= first_hit[win[row[sel]]])
            at, ns = _box_members(base, start, count, mult, mod, limit)
            at = row[sel][at]
            inside = (ns >= i0[at]) & (ns <= i1[at])
            yield win[at[inside]], ns[inside]
            g0 = g1


def _segment_candidates(spec: SequenceSpec, a: np.ndarray, b: np.ndarray,
                        reach: float, n_lo: int, n_hi: int):
    """(ns, radii, coords) blocks, in index order, holding every index of
    [n_lo, n_hi] whose point lies within ``reach`` of the segment [a, b].

    Only the indices of the segment's annulus widened by ``reach`` are read.
    The ladder and the golden angle narrow them to closed-form boxes
    (``_candidate_groups``), in two slices, the range's first FIRST_SHELLS
    shells and then the rest, so that a hit near the start reads few; any
    other kind reads them all, a first block of FIRST_BLOCK points, then
    CHUNK blocks. A range reaching past 2^63 - 1 is rejected.
    """
    near, far = segment_norm_range(a, b)
    pad = 1e-9 * (1.0 + far)  # float slack on radii; the exact filter decides
    lo, hi = annulus_index_range(max(0.0, near - reach - pad), far + reach + pad, spec.d)
    lo, hi = max(lo, n_lo), min(hi, n_hi)
    if hi > MISS:
        raise ValueError(f"the segment from {a.tolist()} to {b.tolist()}, widened by "
                         f"{reach!r}, reaches index {hi}, past 2^63 - 1")
    shells = _closed_form(spec)
    if shells is None:
        if lo <= hi:
            yield from iter_point_chunks(spec, lo, min(hi, lo + FIRST_BLOCK - 1), FIRST_BLOCK)
            yield from iter_point_chunks(spec, lo + FIRST_BLOCK, hi)
        return
    shell_of, first, _, _ = shells
    split = min(hi, first(shell_of(lo) + FIRST_SHELLS) - 1)
    ends = np.array([a, b], dtype=np.float64)[:, None]
    for start, stop in ((lo, split), (split + 1, hi)):
        if start > stop:
            break
        for _, ns in _candidate_groups(spec, shells, *ends, reach, np.array([pad]),
                                       np.array([start]), np.array([stop])):
            ns = _distinct(ns)
            for i in range(0, len(ns), CHUNK):
                radii, coords = point_batch(spec, ns[i:i + CHUNK])
                yield ns[i:i + CHUNK], radii, coords


def _candidate_distances(spec, a, b, reach, n_lo, n_hi, exclude):
    """The exact filter over ``_segment_candidates``: (ns, dist, t) blocks of
    distances and arc parameters to the segment [a, b]; a point at
    ``exclude`` gets distance inf."""
    for ns, _, coords in _segment_candidates(spec, a, b, reach, n_lo, n_hi):
        dist, t = segment_distances(coords, a, b)
        if exclude is not None:
            dist[np.linalg.norm(coords - exclude, axis=1) <= 1e-12] = math.inf
        yield ns, dist, t


def _closer(best, ns, dist, t):
    """``best`` or the block's first nearest point, whichever is nearer, the
    smaller index on ties."""
    j = int(np.argmin(dist))
    return (float(dist[j]), int(ns[j]), float(t[j])) if (dist[j], ns[j]) < best[:2] else best


def _first_hit(spec, a, b, eps, n_lo, n_hi, exclude):
    """((distance, n, t), hit): the smallest index of [n_lo, n_hi] within eps
    of the segment [a, b], else the exact minimum (``_line_min_distance``);
    a point at ``exclude`` (if not None) is left out."""
    best, seen, read = NO_POINT, 0, (n_hi + 1, n_hi)
    for ns, dist, t in _candidate_distances(spec, a, b, eps, n_lo, n_hi, exclude):
        hits = np.flatnonzero(dist <= eps)
        if len(hits):
            j = int(hits[0])
            return (float(dist[j]), int(ns[j]), float(t[j])), True
        best = _closer(best, ns, dist, t)
        seen += len(ns)
        read = (min(read[0], int(ns[0])), int(ns[-1]))
    if seen < n_hi - n_lo + 1:  # the source left out points farther than eps
        # when the blocks read one whole index range, only the rest is read again
        ranges = [(n_lo, read[0] - 1), (read[1] + 1, n_hi)] \
            if seen == read[1] - read[0] + 1 else [(n_lo, n_hi)]
        best = _line_min_distance(spec, a, b, eps, ranges, exclude, best)
    return best, False


def _line_min_distance(spec, a, b, eps, ranges, exclude, best):
    """(distance, n, t) of the point nearest the segment [a, b] among ``best``
    and the indices of ``ranges`` (inclusive (lo, hi) pairs), smallest index
    on ties; a point at ``exclude`` (if not None) is left out. The reach
    starts at best's distance (2*eps for ``NO_POINT``) and doubles until a
    candidate lies within it, so every point at the minimum is a candidate,
    or until the source yields every index."""
    reach = best[0] if best[0] < math.inf else 2.0 * eps
    ranges = [(lo, hi) for lo, hi in ranges if lo <= hi]
    size = sum(hi - lo + 1 for lo, hi in ranges)
    while True:
        found, seen = best, 0
        for lo, hi in ranges:
            for ns, dist, t in _candidate_distances(spec, a, b, reach, lo, hi, exclude):
                found = _closer(found, ns, dist, t)
                seen += len(ns)
        if found[0] <= reach or seen >= size:
            return found
        reach *= 2.0


def segment_norm_range(a, b) -> tuple[float, float]:
    """[min, max] of |a + s(b-a)| over s in [0,1]; a segment is rejected when
    |a|^2, |b|^2 or |b - a|^2, which the segment scans form, overflows
    (Python floats overflow to inf without a warning)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x, y = a.tolist(), b.tolist()
    if math.isinf(max(sum(u * u for u in x), sum(v * v for v in y),
                      sum((v - u) * (v - u) for u, v in zip(x, y)))):
        raise ValueError(f"the segment from {x} to {y} leaves the float range: its "
                         "squared norm overflows")
    d, _ = segment_distances(np.zeros((1, len(a))), a, b)
    return float(d[0]), max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))


def _forest_hits(spec: SequenceSpec, shells, a: np.ndarray, b: np.ndarray, pad: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray, eps: float):
    """``_first_hit`` per forest window [a[w], b[w]] over [lo[w], hi[w]], the
    hits from one pass over every window's closed-form candidates
    (``_candidate_groups`` of ``shells``), at most CHUNK a round; a window
    with a hit reads no later shell. Each round reads the points of its
    candidates with one ``point_batch`` and measures each window's own
    candidates with one ``segment_distances``. A window with no point within
    eps goes on to ``_line_min_distance`` from the nearest candidate read."""
    first = np.full(len(lo), MISS, dtype=np.int64)
    best = [NO_POINT] * len(lo)
    for win, ns in _candidate_groups(spec, shells, a, b, eps, pad, lo, hi, first):
        for i in range(0, len(ns), CHUNK):
            wins, part = win[i:i + CHUNK], ns[i:i + CHUNK]
            points = _distinct(part)
            _, coords = point_batch(spec, points)
            coords = coords[np.searchsorted(points, part)]
            cuts = [0, *(np.flatnonzero(np.diff(wins)) + 1).tolist(), len(wins)]
            for c0, c1 in zip(cuts, cuts[1:]):  # the runs of one window each
                w = int(wins[c0])
                dist, t = segment_distances(coords[c0:c1], a[w], b[w])
                within = np.flatnonzero(dist <= eps)
                if len(within):
                    j = within[np.argmin(part[c0:c1][within])]
                    if part[c0 + j] <= first[w]:  # MISS is itself an index
                        first[w] = part[c0 + j]
                        best[w] = (float(dist[j]), int(first[w]), float(t[j]))
                elif first[w] == MISS:
                    best[w] = _closer(best[w], part[c0:c1], dist, t)
    # ranges as Python ints: an np.int64 near 2^63 overflows triangular_decompose's 8n + 1
    return [(found, True) if found[0] <= eps else
            (_line_min_distance(spec, a[w], b[w], eps, [(int(lo[w]), int(hi[w]))], None,
                                found), False)
            for w, found in enumerate(best)]


def random_lines(rng, count: int, V: float, lam_max: float = 100.0) -> list[LineParam]:
    """``count`` length-V windows in the plane; each draws its angle, then t0
    in [-100, 100], then lam in [0, lam_max]."""
    lines = []
    for _ in range(count):
        angle = rng.uniform(0, TWO_PI)
        t0 = rng.uniform(-100.0, 100.0)
        lines.append(LineParam.at_angle(rng.uniform(0, lam_max), angle, t0, t0 + V))
    return lines


def check_dense_forest(spec: SequenceSpec, eps: float, V_value: float,
                       lines: list[LineParam],
                       index_budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Every supplied window (anywhere, any direction) must be approached:
    its witness is the smallest index within eps, and a window with none
    records its exact minimum distance (``_line_min_distance``).

    Each window's norm and index range (``index_range``) are computed
    once; a window whose squared norms overflow, or whose range is refused,
    raises ``RefusedSegmentError`` naming it, every norm before any range.
    The windows are dealt out to one group per thread (``parallel_map``). A
    group's windows go through one pass over their closed-form candidates
    (``_forest_hits``), or, for a kind with none, through ``_first_hit``
    one by one.
    """
    ends = [(line.point(line.t0), line.point(line.t1)) for line in lines]
    norms = [_at(i, segment_norm_range, a, b) for i, (a, b) in enumerate(ends)]
    _require_scale(eps, V_value)
    if not lines:
        raise ValueError("a forest check needs at least one window")
    for line in lines:
        if abs(line.length - V_value) > 1e-9 * max(1.0, V_value):
            raise ValueError("every line window must have length V")
    ranges = [_at(i, index_range, *annulus_index_range(max(0.0, near - eps), far + eps, spec.d),
                  index_budget, f"forest window {i}, from {a.tolist()} to {b.tolist()},")
              for i, ((a, b), (near, far)) in enumerate(zip(ends, norms))]
    shells = _closed_form(spec)

    def scan(group):
        if shells is None:
            return [_first_hit(spec, *ends[i], eps, *ranges[i], None) for i in group]
        return _forest_hits(
            spec, shells, *(np.array([ends[i][side] for i in group], dtype=np.float64)
                            for side in range(2)),
            np.array([1e-9 * (1.0 + norms[i][1]) for i in group]),
            *np.array([ranges[i] for i in group], dtype=np.int64).T, eps)

    count = min(thread_count(), len(lines))
    groups = [range(g, len(lines), count) for g in range(count)]
    results = [None] * len(lines)
    for group, got in zip(groups, parallel_map(scan, groups, min_chunk=2)):
        for i, found in zip(group, got):
            results[i] = found
    failures = [{"line": i, "min_distance": dist}
                for i, ((dist, _, _), hit) in enumerate(results) if not hit]
    witnesses = [HitWitness(n, line.t0 + t, dist)
                 for line, ((dist, n, t), hit) in zip(lines, results) if hit][:100]
    return CheckReport(
        property="dense-forest", spec=spec.to_json(), eps=eps, V=V_value,
        constants={}, net=_net_info(None, len(lines)), total_checks=len(lines),
        failures=failures, witnesses=witnesses,
    )


# -- visible points ----------------------------------------------------------


@dataclass
class RayVerdict:
    direction: np.ndarray
    min_distance: float
    witness: HitWitness | None
    visible_at_scale: bool
    certified: bool
    certificate: dict | None
    eps_floor: float
    T_max: float


def _vacant_strip_certificate(spec: SequenceSpec, x: np.ndarray,
                              v: np.ndarray) -> dict | None:
    """Lower bound on the distance from the infinite ray to the whole spiral,
    from a proven point-free region. Applies only when the ray stays inside."""
    if spec.kind == "rational-ladder":
        # no spiral ordinate lies in (0, LADDER_STRIP_HALFWIDTH)
        if abs(v[1]) < 1e-15 and 0.0 < x[1] < LADDER_STRIP_HALFWIDTH:
            bound = min(x[1], LADDER_STRIP_HALFWIDTH - x[1])
            return {"kind": "vacant-strip", "bound": bound,
                    "strip": [0.0, LADDER_STRIP_HALFWIDTH]}
    if spec.kind == "constant":
        bound = ray_to_ray_distance(x, v, np.asarray(spec.v), s_min=1.0)
        if bound > 0.0:
            return {"kind": "ray-to-ray", "bound": bound}
    return None


def visible_point_test(spec: SequenceSpec, x, directions, eps_floor: float,
                       T_max: float, index_budget: int = DEFAULT_BUDGET) -> list[RayVerdict]:
    """Per direction v, the spiral's approach to the truncated ray
    {x + t v : 0 <= t <= T_max}, x itself left out: the smallest index of
    [1, index_budget] at distance below eps_floor, else the exact minimum
    over that range, smallest index on ties. A semi-decision unless a proven
    vacant region certifies the whole ray. Directions must be unit vectors;
    a ray whose scan is refused raises ``RefusedSegmentError`` naming it.
    """
    if not 0 < eps_floor < math.inf:
        raise ValueError(f"eps_floor must be finite and positive, got {eps_floor}")
    if not math.isfinite(T_max) or T_max <= 0:
        raise ValueError("T_max must be finite and positive")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"ray origin must be finite, got {x}")
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    if not np.all(np.abs(np.linalg.norm(directions, axis=1) - 1.0) <= 1e-10):
        raise ValueError(f"ray directions must be unit vectors, got {directions.tolist()}")
    below = math.nextafter(eps_floor, 0.0)  # dist <= below iff dist < eps_floor

    def run(i):
        v = directions[i]
        cert = _vacant_strip_certificate(spec, x, v)
        best, _ = _at(i, _first_hit, spec, x, x + T_max * v, below, 1, index_budget, x)
        witness = None if best[1] < 0 else HitWitness(best[1], best[2], best[0])
        certified = cert is not None and cert["bound"] >= eps_floor
        visible = best[0] >= eps_floor
        return RayVerdict(direction=v, min_distance=best[0], witness=witness,
                          visible_at_scale=visible, certified=certified,
                          certificate=cert, eps_floor=eps_floor, T_max=T_max)

    return parallel_map(run, range(len(directions)))


# -- minimal-visibility estimation -------------------------------------------


def _reach_offsets(along, perp, eps: float, t0: float):
    """max(a - t0, 0) for points at (along, perp) whose eps-disc covers [a, b]
    of the line; inf where it misses or b < t0."""
    half = np.sqrt(np.maximum(eps * eps - perp * perp, 0.0))
    return np.where((np.abs(perp) <= eps) & (along + half >= t0),
                    np.maximum(along - half - t0, 0.0), math.inf)


def _window_reach(spec: SequenceSpec, net: DirectionNet, t0: float, eps: float,
                  V: float, index_budget: int) -> np.ndarray:
    """Per net direction, the least W (min of ``_reach_offsets``) with
    [t0, t0 + W] within eps of a point, or above V. Points of radius
    r > 2*eps - t0 have a >= r - 2*eps, so a direction at most r - 3*eps - t0
    is settled. On the circle grid each block's points (``_arc_blocks``)
    write only the open cells they reach (``_mark_windows``), the open list
    settled again before each batch of marks at the radius of its first
    point, and the sweep stops when no cell is open; on any other net the
    pairs of the cap sweep (``_band_pairs``) lower their unsettled centers.
    The window is rejected as the checks reject it (``_window_arcs``)."""
    best = np.full(len(net), math.inf)

    def still_open(c, r):
        return best[c] > (r - 3.0 * eps - t0 if r > 3.0 * eps - t0 else -math.inf)

    n_lo, n_hi, arcs, _ = _window_arcs(spec, t0, t0 + V, eps, index_budget)
    if net.uniform_grid:
        open_ = np.arange(len(net))

        def settle(r):
            nonlocal open_
            open_ = open_[still_open(open_, r)]
            return open_

        for _, radii, theta, angles, halfw in _arc_blocks(spec, n_lo, n_hi, arcs):
            def write(at, cells):
                r, delta = radii[at], theta[at] - cells * (TWO_PI / len(net))
                np.minimum.at(best, cells, _reach_offsets(r * np.cos(delta),
                                                          r * np.sin(delta), eps, t0))

            _mark_windows(len(net), lambda row: settle(radii[row]), angles, halfw, write)
            if not len(settle(radii[-1])):
                break
        return best

    def write(ns, radii, units, point, center, dots, sign, cos_h):
        # perp is r |u - (u.c) c|: sqrt(r^2 - along^2) cancels for a point
        # near the line, losing ~1e-11 of a reach at t0 = -70
        r = radii[point]
        perp = r * np.linalg.norm(units[point] - dots[:, None] * net.centers[center], axis=1)
        np.minimum.at(best, center, _reach_offsets(r * dots, perp, eps, t0))

    _band_pairs(spec, net.centers, n_lo, n_hi, arcs, still_open, write)
    return best


def _passes(spec: SequenceSpec, eps: float, V: float, t0_list, index_budget: int,
            net: DirectionNet) -> bool:
    return check_uniform_orchard(spec, eps, V, t0_list, net=net,
                                 index_budget=index_budget).passed


def _budget_cap(spec: SequenceSpec, eps: float, t0_list, index_budget: int) -> float:
    """The largest V with every window [t0, t0 + V], t0 in ``t0_list``,
    inside the budget: its far radius max(|t0|, |t0 + V|), widened by eps,
    within that of index ``index_budget``; -inf once some |t0| lies past it."""
    far = radius_of_index(index_budget, spec.d) - eps - 1e-12
    return min(far - t0 if abs(t0) <= far else -math.inf for t0 in t0_list)


def estimate_min_visibility(spec: SequenceSpec, kind: str, eps_grid, t0_list=(0.0,),
                            index_budget: int = DEFAULT_BUDGET) -> VisibilityCurve:
    """Smallest V per eps for which the uniform orchard check over the
    windows [t0, t0 + V], t0 in ``t0_list``, passes; the ``orchard`` kind is
    the same search at t0 = 0. It is computed: a point whose eps-disc covers
    [a, b] of a direction's line reaches the window iff b >= t0 and
    a <= t0 + V, so V is the max over directions and t0s of a min over points
    of max(a - t0, 0). Each round reads V on ``_require_net``'s net for a
    bound (1, then the previous entry's V) and confirms it by one check
    (``_passes``) on that same net; a V above the bound, or one that fails
    the check, doubles the bound, up to the eps's cap (``_budget_cap``), the
    largest V whose windows the budget reads whole.

    An entry that still fails at the cap is ``diverged``: its V lies beyond
    what ``index_budget`` reads, which does not prove it infinite. Every
    ``ok`` entry was read and confirmed on windows inside the budget. There
    is no forest kind: V over every segment needs a sweep over every segment
    in a ball, and a sample of windows understates it.
    """
    if kind not in ("orchard", "uniform"):
        raise ValueError(f"unknown kind {kind!r}: the estimate reads 'orchard' or 'uniform'")
    t0_list = _window_starts(t0_list if kind == "uniform" else [0.0])
    eps_grid = sorted(set(float(e) for e in eps_grid), reverse=True)
    entries, bound, best = [], 1.0, -math.inf
    for eps in eps_grid:
        cap = _budget_cap(spec, eps, t0_list, index_budget)
        # a cap below the least V reported still gets one round, which
        # rejects a window wholly past the budget as the checks do
        bound = max(min(bound, cap), 2.0**-6)
        while True:
            net = _require_net(spec, eps, bound, None)
            V = 0.0
            for t0 in t0_list:
                reach = _window_reach(spec, net, t0, eps, bound, index_budget)
                if (V := max(V, float(reach.max()))) > bound:
                    break
            V = max(V * (1.0 + 1e-9), 2.0**-6)  # float rounding may miss the exact boundary
            if V <= bound <= cap and _passes(spec, eps, V, t0_list, index_budget, net):
                best = max(best, V)  # the reported V may not decrease as eps shrinks
                entries.append(CurveEntry(eps=eps, V=best, status="ok"))
                bound = V
                break
            if bound >= cap:
                entries.append(CurveEntry(eps=eps, V=math.inf, status="diverged"))
                break
            bound = min(2.0 * bound, cap)
    return VisibilityCurve(kind=kind, entries=entries)
