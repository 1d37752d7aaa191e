"""Command-line surface: generation, plots, property checks, and criteria.

Every payload embeds the resolved run configuration; identical configurations
and seeds produce byte-identical outputs. Exit codes: 2 for argument errors,
1 when --assert is set and a checked property fails, 0 otherwise.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .covering import (
    DEFAULT_H_CAP,
    EmptyWindowError,
    uniform_covering_parameter,
    uniform_orchard_criterion,
    visibility_from_covering,
)
from .delone import badness, delone_report
from .plotting import scatter_svg
from .reports import dump_json, write_csv
from .sequences import GOLDEN_RATIO, SequenceFileOverrunError, SequenceSpec
from .sphere import unit_vector
from .spirals import (
    DEFAULT_BUDGET,
    PunctureSpec,
    PunctureUnresolvedError,
    count_in_ball,
    index_range,
    iter_point_chunks,
    point_batch,
    puncture_blocks,
    write_point_blocks,
)
from .visibility import (
    LineParam,
    RefusedSegmentError,
    check_dense_forest,
    check_orchard,
    check_uniform_orchard,
    random_lines,
    segment_norm_range,
    visible_point_test,
)


GENERATE_BLOCK = 1 << 16  # points per block written by generate
SCHEDULE_RANGES = {"geometric": (4, 20), "factorial": (5, 7)}  # --schedule -> default annuli


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _require(flag: str, values, ok, what: str) -> None:
    """Name ``flag`` and its first value that is not ``what``, or that it has none."""
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    for value in values:
        if not ok(value):
            raise ValueError(f"{flag} {value!r} is not {what}")


def _positive(flag: str, values) -> None:
    _require(flag, values, lambda x: 0 < x < math.inf, "finite and positive")


def _whole(flag: str, values, least: int) -> list[int]:
    _require(flag, values, lambda x: float(x).is_integer() and x >= least,
             f"a whole number >= {least}")
    return [int(x) for x in values]


def _point(text: str) -> np.ndarray:
    return np.array(_floats(text), dtype=np.float64)


# the categories of library error that main words, each its own way
ERRORS = (ValueError, MemoryError, ArithmeticError)


def _named(flags: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``, with ``flags`` put before the message of an
    error of one of the ``ERRORS`` categories that it raises. The error is
    raised again as its category (numpy's ``_ArrayMemoryError`` as a
    MemoryError, say), so ``main`` words it the same."""
    try:
        return call(*args, **kwargs)
    except ERRORS as exc:
        category = next(c for c in ERRORS if isinstance(exc, c))
        raise category(f"{flags}: {exc}") from None


def _write_points(ns, d: int, n_hi: int, blocks) -> dict:
    """Points 1..n_hi, as (indices, coords) blocks, to --out: binary for a
    ``.bin`` path, else CSV."""
    write_point_blocks(ns.out, d, 1, n_hi, blocks)
    return {"written": ns.out, "points": n_hi}


# -- subcommand handlers -----------------------------------------------------


def _cmd_generate(spec, ns):
    _, n_hi = index_range(1, ns.n, ns.budget, f"--n {ns.n}")
    blocks = ((idx, coords) for idx, _, coords in
              iter_point_chunks(spec, 1, n_hi, GENERATE_BLOCK))
    return _write_points(ns, spec.d, n_hi, blocks), False


def _overlay(path: str) -> tuple[list, list]:
    """The rays along the failing directions and the witness points of the
    d=1 check report, or first report of the CLI payload, in the file ``path``."""
    try:
        with open(path) as fh:
            report = json.load(fh)
        if "reports" in report:  # unwrap a CLI payload
            report = report["reports"][0]
        if "spec" not in report:
            raise ValueError("holds no check report with a 'spec' (orchard, uniform or forest)")
        rspec = SequenceSpec.from_json(report["spec"])
        if rspec.d != 1:  # direction indices of an S^d net are not circle angles
            raise ValueError(f"holds a d={rspec.d} report; only circle (d=1) reports "
                             "can be overlaid")
        count = report.get("net", {}).get("count")
        rays = []
        for f in report.get("failures", []):
            if count and "direction" in f:
                ang = f["direction"] * 2.0 * math.pi / count
                rays.append((0.0, 0.0, math.cos(ang), math.sin(ang)))
        wit_n = [w["n"] for w in report.get("witnesses", [])]
        if bad := [n for n in wit_n if not isinstance(n, int) or isinstance(n, bool)]:
            raise ValueError(f"witness index {bad[0]!r} is not an integer")
        return rays, [tuple(p) for p in point_batch(rspec, np.array(wit_n, dtype=np.int64))[1]]
    except (OSError, ValueError, ArithmeticError, SequenceFileOverrunError) as exc:
        raise ValueError(f"--overlay-json {path}: {exc}") from None
    except (LookupError, TypeError, AttributeError) as exc:  # JSON of another shape
        raise ValueError(f"--overlay-json {path}: not a check report "
                         f"({type(exc).__name__}: {exc})") from None


def _cmd_plot(spec, ns):
    _positive("--T", [ns.T])
    _positive("--marker", [ns.marker])
    strip = None
    if ns.strip:
        strip = _named(f"--strip {ns.strip}", _floats, ns.strip)
        if not (len(strip) == 2 and -math.inf < strip[0] < strip[1] < math.inf):
            raise ValueError(f"--strip {ns.strip} is not two finite values lo,hi with lo < hi")
    _, n_hi = index_range(1, count_in_ball(ns.T, spec.d), ns.budget, f"--T {ns.T}")
    _, coords = point_batch(spec, np.arange(1, n_hi + 1, dtype=np.int64))
    rays, crosses = _overlay(ns.overlay_json) if ns.overlay_json else ([], [])
    scatter_svg(ns.out, coords, ns.T, marker=ns.marker, strip=strip,
                rays=rays, crosses=crosses)
    return {"written": ns.out, "points": int(n_hi)}, False


def _forest_check(spec, eps, V, ns):
    if spec.d != 1:
        raise ValueError(f"forest windows (--line, --lines) are planar, but --seq "
                         f"{spec.kind} lies in R^{spec.d + 1}; use a d=1 sequence")
    if len(ns.eps) != 1 or len(ns.V) != 1:
        raise ValueError(f"forest checks one window size: give one --eps and one --V, "
                         f"got {len(ns.eps)} and {len(ns.V)} values")
    _whole("--lines", [ns.lines], 0)
    _require("--lam-max", [ns.lam_max], lambda x: x >= 0, ">= 0")
    lines = []
    for text in ns.line or []:
        values = _floats(text)
        if len(values) != 4:
            raise ValueError(f"--line {text} has {len(values)} values; "
                             "a --line needs lam,angle,t0,t1")
        lines.append((f"--line {text}", LineParam.at_angle(*values)))
    if ns.lines:
        lines += [(f"--V {V} with --lam-max {ns.lam_max}", line) for line in
                  random_lines(np.random.default_rng(ns.seed), ns.lines, V, ns.lam_max)]
    if not lines:
        raise ValueError("forest needs --line or --lines")
    try:
        return check_dense_forest(spec, eps, V, [line for _, line in lines],
                                  index_budget=ns.budget)
    except RefusedSegmentError as exc:  # the flags of the window it names
        raise ValueError(f"{lines[exc.position][0]}: {exc}") from None


# subcommand -> check(spec, eps, V, ns) -> CheckReport
CHECKS = {
    "orchard": lambda spec, eps, V, ns: check_orchard(
        spec, eps, V, index_budget=ns.budget, method=ns.method),
    "uniform": lambda spec, eps, V, ns: check_uniform_orchard(
        spec, eps, V, ns.t0, index_budget=ns.budget),
    "forest": _forest_check,
}


def _cmd_check(spec, ns):
    """One report per (--eps, --V) pair, a single --V serving every --eps;
    --assert fails unless every report passes."""
    if not ns.eps:
        raise ValueError(f"{ns.subcommand} needs at least one --eps value to check")
    v_list = ns.V * len(ns.eps) if len(ns.V) == 1 else ns.V
    if len(v_list) != len(ns.eps):
        raise ValueError(f"--eps and --V must have matching lengths, got "
                         f"{len(ns.eps)} and {len(v_list)} values")
    reports = [_named(f"--eps {eps} and --V {V}", CHECKS[ns.subcommand], spec, eps, V, ns)
               for eps, V in zip(ns.eps, v_list)]
    return {"reports": reports}, not all(r.passed for r in reports)


def _cmd_visible(spec, ns):
    for flag, text in [("--x", ns.x)] + [("--dir", t) for t in ns.dir]:
        count = len(_floats(text))
        if count != spec.d + 1:
            raise ValueError(f"{flag} {text} has {count} coordinates; "
                             f"a d={spec.d} spiral lies in R^{spec.d + 1}")
    _positive("--Tmax", [ns.Tmax])  # before --x + --Tmax * --dir is formed
    x = _point(ns.x)
    dirs = np.array([_named(f"--dir {t}", unit_vector, _point(t)) for t in ns.dir])
    for text, v in zip(ns.dir, dirs):  # each ray's check covers --x as well
        _named(f"--Tmax {ns.Tmax} from --x {ns.x} along --dir {text}", segment_norm_range,
               x, x + ns.Tmax * v)
    try:
        verdicts = visible_point_test(spec, x, dirs, ns.eps_floor, ns.Tmax,
                                      index_budget=ns.budget)
    except RefusedSegmentError as exc:  # the flag of the ray it names
        raise ValueError(f"--dir {ns.dir[exc.position]}: {exc}") from None
    # --assert fails when no direction is visible at this scale
    return {"verdicts": verdicts}, not any(v.visible_at_scale for v in verdicts)


def _covering_table(spec, ns):
    _positive("--C", [ns.C])
    m_grid = _whole("--m", ns.m, 0)
    _require("--m", ns.m, lambda m: m < ns.budget, f"below --budget {ns.budget}")
    N_grid = _whole("--N", ns.N, 1)
    _require("--N", N_grid, lambda N: ns.C * N >= 1, f"at least 1/--C = {1 / ns.C!r} "
             f"(--C {ns.C}): its windows of int(--C * --N) points would be empty")
    return uniform_covering_parameter(spec, ns.C, m_grid, N_grid,
                                      resolution=ns.resolution, index_budget=ns.budget)


def _criterion_table(spec, ns):
    _positive("--eps", ns.eps)
    _positive("--K", [ns.K])
    power = ns.V_power if ns.V_power is not None else float(spec.d)
    flags = f"--V-const {ns.V_const} and --V-power {power}"
    try:
        return uniform_orchard_criterion(
            spec, lambda e: _named(flags, lambda: ns.V_const * e ** (-power)), K=ns.K,
            eps_grid=ns.eps, h_mults=_whole("--h-mults", ns.h_mults, 1),
            resolution=ns.resolution, index_budget=ns.budget)
    except EmptyWindowError as exc:  # a window of --K * h^d * V(eps) points
        raise ValueError(f"--K {ns.K} with {flags}: {exc}") from None


def _defvisi_curve(spec, ns):
    _positive("--eps", ns.eps)
    _positive("--x-grid", ns.x_grid)
    # the window scales of x run h = floor(x) + 1, doubling, up to --h-cap
    _require("--x-grid", ns.x_grid, lambda x: x < ns.h_cap,
             f"below --h-cap {ns.h_cap}, so no window scale h > x is measured")
    try:
        return visibility_from_covering(spec, ns.eps, ns.x_grid, h_cap=ns.h_cap,
                                        resolution=ns.resolution, index_budget=ns.budget)
    except EmptyWindowError as exc:  # a window of h^d * x points
        raise ValueError(f"--x-grid {','.join(map(repr, ns.x_grid))}: {exc}") from None


# subcommand -> (payload key, field of its row list, build(spec, ns))
TABLES = {
    "covering": ("estimate", "rows", _covering_table),
    "criterion": ("table", "rows", _criterion_table),
    "defvisi": ("curve", "curve", _defvisi_curve),
}


def _cmd_table(spec, ns):
    """A table payload; --csv writes its row list."""
    key, rows, build = TABLES[ns.subcommand]
    if ns.resolution is not None:
        _positive("--resolution", [ns.resolution])
    table = build(spec, ns)
    if ns.csv:
        write_csv(ns.csv, getattr(table, rows))
    return {key: table}, False


def _cmd_delone(spec, ns):
    if ns.badness_Q and spec.kind != "golden-angle":
        raise ValueError(f"--badness-Q reads the rotation theta of --seq golden-angle, "
                         f"which --seq {ns.seq} does not have")
    payload = {"report": _named(f"--T {ns.T} and --probe-res {ns.probe_res}", delone_report,
                                spec, ns.T, ns.probe_res, index_budget=ns.budget)}
    if ns.badness_Q:
        payload["badness"] = {"theta": spec.theta, "Q": ns.badness_Q,
                              "value": badness(spec.theta, ns.badness_Q)}
    return payload, False


def _cmd_puncture(spec, ns):
    _, n_hi = index_range(1, ns.n, ns.budget, f"--n {ns.n}")
    lo, hi = SCHEDULE_RANGES[ns.schedule]  # put in ns, so the payload records the range run
    ns.m_lo = lo if ns.m_lo is None else ns.m_lo
    ns.m_hi = hi if ns.m_hi is None else ns.m_hi
    ns.v0 = ",".join(["0"] * spec.d + ["1"]) if ns.v0 is None else ns.v0
    flags = (f"--schedule {ns.schedule} with --v0 {ns.v0}, --delta {ns.delta}, "
             f"--m-lo {ns.m_lo}, --m-hi {ns.m_hi}, --strip-C {ns.strip_C}")
    # --v0 is parsed inside the call, so an error parsing it names the flags too
    pspec = _named(flags, lambda: getattr(PunctureSpec, ns.schedule)(
        spec, _point(ns.v0), ns.delta, ns.m_lo, ns.m_hi, scale_constant=ns.strip_C))
    moved = still_inside = 0

    def counted():  # tallied block by block as the blocks stream to --out
        nonlocal moved, still_inside
        for idx, coords, redirected in puncture_blocks(pspec, 1, n_hi):
            moved += redirected
            still_inside += int(pspec.in_region(coords).sum())
            yield idx, coords

    try:
        written = _write_points(ns, spec.d, n_hi, counted())
    except PunctureUnresolvedError as exc:  # a --seq-file error names only the file
        raise ValueError(f"{flags}: {exc}") from None
    return {**written, "redirected": moved,
            "remaining_in_region": still_inside}, still_inside > 0


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(prog="spiralvis", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seq", default="golden-angle",
                        help="sequence kind (golden-angle, rational-ladder, "
                             "fibonacci-sphere, constant, file)")
    common.add_argument("--d", type=int, default=1, help="sphere dimension")
    common.add_argument("--theta", type=float, default=GOLDEN_RATIO,
                        help="rotation number for golden-angle")
    common.add_argument("--v", default=None, help="direction for constant kind, e.g. 1,0")
    common.add_argument("--seq-file", default=None, help="points file for file kind")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="cap on any touched sequence index")
    common.add_argument("--out", default=None, help="output path")
    common.add_argument("--config", default=None,
                        help="JSON object of flag values; explicit flags win")
    common.add_argument("--assert", dest="assert_", action="store_true",
                        help="exit 1 when a checked property fails")
    check = argparse.ArgumentParser(add_help=False)
    check.add_argument("--eps", type=_floats, default=None)
    check.add_argument("--V", type=_floats, default=None)
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--csv", default=None, help="also write the row list as CSV")
    table.add_argument("--resolution", type=float, default=None)

    def add(name, fn, help, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=help)
        p.set_defaults(func=fn)
        return p

    p = add("generate", _cmd_generate, "write spiral points to CSV or binary")
    p.add_argument("--n", type=int, default=None)

    p = add("plot", _cmd_plot, "SVG scatter of points in a ball")
    p.add_argument("--T", type=float, default=30.0)
    p.add_argument("--marker", type=float, default=1.5)
    p.add_argument("--strip", default=None, help="shade band lo,hi")
    p.add_argument("--overlay-json", default=None,
                   help="check report whose failures/witnesses to overlay")

    p = add("orchard", _cmd_check, "origin-anchored visibility check", check)
    p.add_argument("--method", choices=["direct", "certificate"], default="direct")

    p = add("uniform", _cmd_check, "shifted-window visibility check", check)
    p.add_argument("--t0", type=_floats, default=[0.0])

    p = add("forest", _cmd_check, "anywhere-window visibility check", check)
    p.add_argument("--lines", type=int, default=0, help="random line count")
    p.add_argument("--lam-max", type=_finite, default=100.0)
    p.add_argument("--line", action="append",
                   help="explicit window lam,angle,t0,t1 (repeatable)")

    p = add("visible", _cmd_visible, "truncated-ray visibility verdicts")
    p.add_argument("--x", default=None, help="ray origin, e.g. 0,1")
    p.add_argument("--dir", action="append", default=None,
                   help="ray direction (repeatable)")
    p.add_argument("--eps-floor", type=float, default=0.1)
    p.add_argument("--Tmax", type=float, default=1e3)

    p = add("covering", _cmd_table, "uniform covering parameter estimate", table)
    p.add_argument("--C", type=_finite, default=1.0)
    p.add_argument("--m", type=_floats, default=[0, 1000, 1000000])
    p.add_argument("--N", type=_floats, default=[100, 1000, 10000])

    p = add("criterion", _cmd_table, "windowed covering criterion table", table)
    p.add_argument("--V-const", type=float, default=1.0)
    p.add_argument("--V-power", type=float, default=None,
                   help="V(eps) = V_const * eps^-power; defaults to d")
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--eps", type=_floats, default=[0.2, 0.1, 0.05])
    p.add_argument("--h-mults", type=_floats, default=[1, 2, 4, 8])

    p = add("defvisi", _cmd_table, "visibility curve from covering radii", table)
    p.add_argument("--eps", type=_floats, default=[0.2, 0.1, 0.05])
    p.add_argument("--x-grid", type=_floats, default=[1, 2, 4, 8, 16, 32, 64])
    p.add_argument("--h-cap", type=int, default=DEFAULT_H_CAP)

    p = add("delone", _cmd_delone, "packing/covering diagnostics in a ball")
    p.add_argument("--T", type=float, default=30.0)
    p.add_argument("--probe-res", type=float, default=0.5)
    p.add_argument("--badness-Q", type=int, default=0,
                   help="also report the badly-approximable diagnostic")

    p = add("puncture", _cmd_puncture, "write the punctured spiral")
    p.add_argument("--v0", default=None,
                   help="emptied ray direction; default the last coordinate axis")
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--schedule", choices=["geometric", "factorial"],
                   default="geometric")
    p.add_argument("--m-lo", type=int, default=None, help="first annulus; default by --schedule")
    p.add_argument("--m-hi", type=int, default=None, help="last annulus; default by --schedule")
    p.add_argument("--strip-C", type=float, default=1.0)
    p.add_argument("--n", type=int, default=None)

    return parser


# Flags a subcommand cannot run without. Where --out is one, it names the
# subcommand's own output file, and the payload goes to stdout only.
REQUIRED = {"generate": ("out", "n"), "plot": ("out",), "puncture": ("out", "n"),
            "orchard": ("eps", "V"), "uniform": ("eps", "V"), "forest": ("eps", "V"),
            "visible": ("x", "dir")}


def _config_flags(path: str, ns) -> list[str]:
    """The --config JSON object as flags: a key is the name of one of the
    subcommand's flags without its dashes (``eps-floor``), and a value is its
    text. A list of strings repeats the flag, another list is joined by
    commas, true is a bare switch, false and null keep the default."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"--config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"--config {path} must hold a JSON object of flag values, "
                         f"not a {type(cfg).__name__}")
    names = {dest.rstrip("_").replace("_", "-") for dest in vars(ns)
             if dest not in ("func", "subcommand", "config")}
    unknown = [key for key in cfg if key not in names]
    if unknown:
        raise ValueError(f"--config {path}: {ns.subcommand} has no flag "
                         f"{', '.join(map(repr, unknown))}")
    flags = []
    for key, value in cfg.items():
        if isinstance(value, list) and all(isinstance(x, str) for x in value):
            flags += [f"--{key}={x}" for x in value]
        elif isinstance(value, list):
            flags.append(f"--{key}={','.join(map(str, value))}")
        elif value is True:
            flags.append(f"--{key}")
        elif value is not None and value is not False:
            flags.append(f"--{key}={value}")
    return flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.config:  # its flags go before the command line's, so those win
        try:
            flags = _config_flags(ns.config, ns)
        except ValueError as exc:
            parser.error(str(exc))
        at = argv.index(ns.subcommand) + 1
        ns = parser.parse_args([*argv[:at], *flags, *argv[at:]])
    required = REQUIRED.get(ns.subcommand, ())
    for name in required:
        if getattr(ns, name) is None:
            parser.error(f"{ns.subcommand} requires --{name}")
    if ns.budget < 1:
        parser.error(f"--budget caps the sequence indices and must be at least 1, "
                     f"got {ns.budget}")
    if "n" in required and ns.n < 1:
        parser.error(f"{ns.subcommand} needs at least one point, got --n {ns.n}")
    try:
        spec = SequenceSpec(kind=ns.seq, d=ns.d, theta=ns.theta,
                            v=_point(ns.v) if ns.v else None, path=ns.seq_file)
        payload, failed = ns.func(spec, ns)
    except (ValueError, FileNotFoundError) as exc:
        parser.error(str(exc))
    except SequenceFileOverrunError as exc:  # a file sequence read past its last point
        parser.error(f"--seq-file {ns.seq_file}: {exc}; --budget caps the indices read")
    except ArithmeticError as exc:  # e.g. a power of the input past the float range
        parser.error(f"the input's arithmetic failed: {exc}")
    except MemoryError as exc:  # e.g. a direction net too fine to allocate
        parser.error(f"the input needs more memory than is available: {exc}")
    args = {k: v for k, v in sorted(vars(ns).items()) if k != "func"}
    payload["config"] = {"version": __version__, "subcommand": ns.subcommand, "args": args}
    sys.stdout.write(dump_json(payload, None if "out" in required else ns.out))
    return 1 if (failed and ns.assert_) else 0


if __name__ == "__main__":
    raise SystemExit(main())
