"""Command-line surface: generation, plots, property checks, and criteria.

Every payload embeds the resolved run configuration; identical configurations
and seeds produce byte-identical outputs. Exit codes: 2 for argument errors,
1 when --assert is set and a checked property fails, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .covering import (
    uniform_covering_parameter,
    uniform_orchard_criterion,
    visibility_from_covering,
)
from .delone import badness, delone_report
from .plotting import scatter_svg
from .reports import dump_json
from .sequences import GOLDEN_RATIO, SequenceSpec
from .sphere import unit_vector
from .spirals import (
    PunctureSpec,
    PunctureUnresolvedError,
    count_in_ball,
    iter_point_chunks,
    point_batch,
    puncture_batch,
    write_points_binary,
    write_points_csv,
)
from .visibility import (
    LineParam,
    check_dense_forest,
    check_orchard,
    check_uniform_orchard,
    random_lines,
    visible_point_test,
)

TWO_PI = 2.0 * math.pi


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _point(text: str) -> np.ndarray:
    return np.array(_floats(text), dtype=np.float64)


def _spec_from_args(ns) -> SequenceSpec:
    return SequenceSpec(
        kind=ns.seq,
        d=ns.d,
        theta=ns.theta,
        v=_point(ns.v) if getattr(ns, "v", None) else None,
        path=getattr(ns, "seq_file", None),
    )


def _config_payload(ns) -> dict:
    skip = {"func"}
    args = {k: v for k, v in sorted(vars(ns).items()) if k not in skip}
    for k, v in args.items():
        if isinstance(v, np.ndarray):
            args[k] = [float(x) for x in v]
    return {"version": __version__, "subcommand": ns.subcommand, "args": args}


# -- subcommand handlers -----------------------------------------------------


def _cmd_generate(ns):
    spec = _spec_from_args(ns)
    n_hi = min(ns.n, ns.budget)
    if n_hi < 1:
        raise ValueError(f"generate needs at least one point, got --n {ns.n} "
                         f"and --budget {ns.budget}")
    all_x = np.empty((n_hi, spec.d + 1))  # filled in place: one copy of the points
    for idx, _, coords in iter_point_chunks(spec, 1, n_hi):
        all_x[idx[0] - 1:idx[-1]] = coords
    if ns.out.endswith(".bin"):
        write_points_binary(ns.out, spec.d, 1, n_hi, all_x)
    else:
        write_points_csv(ns.out, np.arange(1, n_hi + 1, dtype=np.int64), all_x)
    return {"written": ns.out, "points": int(n_hi)}, False


def _cmd_plot(ns):
    spec = _spec_from_args(ns)
    n_hi = min(count_in_ball(ns.T, spec.d), ns.budget)
    _, coords = point_batch(spec, np.arange(1, n_hi + 1, dtype=np.int64))
    strip = tuple(_floats(ns.strip)) if ns.strip else None
    rays, crosses = [], []
    if ns.overlay_json:
        with open(ns.overlay_json) as fh:
            report = json.load(fh)
        if "reports" in report:  # unwrap a CLI payload
            report = report["reports"][0]
        if "spec" not in report:
            raise ValueError(f"--overlay-json {ns.overlay_json} holds no check "
                             "report with a 'spec' (orchard, uniform or forest)")
        rspec = SequenceSpec.from_json(report["spec"])
        if rspec.d != 1:  # direction indices of an S^d net are not circle angles
            raise ValueError(f"--overlay-json {ns.overlay_json} holds a d={rspec.d} "
                             "report; only circle (d=1) reports can be overlaid")
        count = report.get("net", {}).get("count")
        for f in report.get("failures", []):
            if count and "direction" in f:
                ang = f["direction"] * TWO_PI / count
                rays.append((0.0, 0.0, math.cos(ang), math.sin(ang)))
        wit_n = [w["n"] for w in report.get("witnesses", [])]
        if wit_n:
            _, wc = point_batch(rspec, np.array(wit_n, dtype=np.int64))
            crosses = [tuple(p) for p in wc]
    scatter_svg(ns.out, coords, ns.T, marker=ns.marker, strip=strip,
                rays=rays, crosses=crosses)
    return {"written": ns.out, "points": int(n_hi)}, False


def _zip_eps_v(ns):
    eps_list = ns.eps
    v_list = ns.V
    if len(v_list) == 1:
        v_list = v_list * len(eps_list)
    if len(v_list) != len(eps_list):
        raise ValueError(f"--eps and --V must have matching lengths, got "
                         f"{len(eps_list)} and {len(v_list)} values")
    return list(zip(eps_list, v_list))


def _cmd_orchard(ns):
    spec = _spec_from_args(ns)
    reports = [
        check_orchard(spec, eps, V, index_budget=ns.budget, method=ns.method)
        for eps, V in _zip_eps_v(ns)
    ]
    failed = not all(r.passed for r in reports)
    return {"reports": [r.to_json() for r in reports]}, failed


def _cmd_uniform(ns):
    spec = _spec_from_args(ns)
    reports = [
        check_uniform_orchard(spec, eps, V, ns.t0, index_budget=ns.budget)
        for eps, V in _zip_eps_v(ns)
    ]
    failed = not all(r.passed for r in reports)
    return {"reports": [r.to_json() for r in reports]}, failed


def _cmd_forest(ns):
    spec = _spec_from_args(ns)
    if spec.d != 1:
        raise ValueError(f"forest windows (--line, --lines) are planar, but --seq "
                         f"{spec.kind} lies in R^{spec.d + 1}; use a d=1 sequence")
    if len(ns.eps) != 1 or len(ns.V) != 1:
        raise ValueError(f"forest checks one window size: give one --eps and one --V, "
                         f"got {len(ns.eps)} and {len(ns.V)} values")
    (eps,), (V,) = ns.eps, ns.V
    lines = []
    for text in ns.line or []:
        values = _floats(text)
        if len(values) != 4:
            raise ValueError(f"--line {text} has {len(values)} values; "
                             "a --line needs lam,angle,t0,t1")
        lines.append(LineParam.at_angle(*values))
    if ns.lines:
        lines.extend(random_lines(np.random.default_rng(ns.seed), ns.lines, V,
                                  ns.lam_max))
    if not lines:
        raise ValueError("forest needs --line or --lines")
    report = check_dense_forest(spec, eps, V, lines, index_budget=ns.budget)
    return {"reports": [report.to_json()]}, not report.passed


def _cmd_visible(ns):
    spec = _spec_from_args(ns)
    for flag, text in [("--x", ns.x)] + [("--dir", t) for t in ns.dir]:
        count = len(_floats(text))
        if count != spec.d + 1:
            raise ValueError(f"{flag} {text} has {count} coordinates; "
                             f"a d={spec.d} spiral lies in R^{spec.d + 1}")
    x = _point(ns.x)
    dirs = np.array([unit_vector(_point(t)) for t in ns.dir])
    verdicts = visible_point_test(spec, x, dirs, ns.eps_floor, ns.Tmax,
                                  index_budget=ns.budget)
    # --assert fails when no direction is visible at this scale
    return {"verdicts": verdicts}, not any(v.visible_at_scale for v in verdicts)


def _cmd_covering(ns):
    spec = _spec_from_args(ns)
    est = uniform_covering_parameter(
        spec, ns.C, [int(m) for m in ns.m], [int(n) for n in ns.N],
        resolution=ns.resolution, index_budget=ns.budget)
    if ns.csv:
        est.to_csv(ns.csv)
    return {"estimate": est.to_json()}, False


def _cmd_criterion(ns):
    spec = _spec_from_args(ns)
    power = ns.V_power if ns.V_power is not None else float(spec.d)
    table = uniform_orchard_criterion(
        spec, lambda e: ns.V_const * e ** (-power), K=ns.K, eps_grid=ns.eps,
        h_mults=[int(m) for m in ns.h_mults], resolution=ns.resolution,
        index_budget=ns.budget)
    if ns.csv:
        table.to_csv(ns.csv)
    return {"table": table.to_json()}, False


def _cmd_defvisi(ns):
    spec = _spec_from_args(ns)
    curve = visibility_from_covering(
        spec, ns.eps, ns.x_grid, h_cap=ns.h_cap, resolution=ns.resolution,
        index_budget=ns.budget)
    if ns.csv:
        curve.to_csv(ns.csv)
    return {"curve": curve.to_json()}, False


def _cmd_delone(ns):
    spec = _spec_from_args(ns)
    rep = delone_report(spec, ns.T, ns.probe_res, index_budget=ns.budget)
    payload = {"report": rep}
    if ns.badness_Q:
        payload["badness"] = {"theta": spec.theta, "Q": ns.badness_Q,
                              "value": badness(spec.theta, ns.badness_Q)}
    return payload, False


def _cmd_puncture(ns):
    spec = _spec_from_args(ns)
    builder = PunctureSpec.geometric if ns.schedule == "geometric" \
        else PunctureSpec.factorial
    pspec = builder(spec, _point(ns.v0), ns.delta, ns.m_lo, ns.m_hi,
                    scale_constant=ns.strip_C)
    n_hi = min(ns.n, ns.budget)
    all_ns, coords = puncture_batch(pspec, 1, n_hi)
    if ns.out.endswith(".bin"):
        write_points_binary(ns.out, spec.d, 1, n_hi, coords)
    else:
        write_points_csv(ns.out, all_ns, coords)
    base_coords = point_batch(spec, all_ns)[1]
    moved = int(np.sum(np.any(coords != base_coords, axis=1)))
    still_inside = int(pspec.in_region(coords).sum())
    return {
        "written": ns.out, "points": int(n_hi), "redirected": moved,
        "remaining_in_region": still_inside,
    }, still_inside > 0


# -- parser ------------------------------------------------------------------


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
    common.add_argument("--budget", type=int, default=10**7,
                        help="cap on any touched sequence index")
    common.add_argument("--out", default=None, help="output path")
    common.add_argument("--config", default=None,
                        help="JSON file of flag defaults; explicit flags win")
    common.add_argument("--assert", dest="assert_", action="store_true",
                        help="exit 1 when a checked property fails")

    def add(name, fn, **kw):
        p = sub.add_parser(name, parents=[common], **kw)
        p.set_defaults(func=fn)
        return p

    p = add("generate", _cmd_generate, help="write spiral points to CSV or binary")
    p.add_argument("--n", type=int, default=None)

    p = add("plot", _cmd_plot, help="SVG scatter of points in a ball")
    p.add_argument("--T", type=float, default=30.0)
    p.add_argument("--marker", type=float, default=1.5)
    p.add_argument("--strip", default=None, help="shade band lo,hi")
    p.add_argument("--overlay-json", default=None,
                   help="check report whose failures/witnesses to overlay")

    p = add("orchard", _cmd_orchard, help="origin-anchored visibility check")
    p.add_argument("--eps", type=_floats, default=None)
    p.add_argument("--V", type=_floats, default=None)
    p.add_argument("--method", choices=["direct", "certificate"], default="direct")

    p = add("uniform", _cmd_uniform, help="shifted-window visibility check")
    p.add_argument("--eps", type=_floats, default=None)
    p.add_argument("--V", type=_floats, default=None)
    p.add_argument("--t0", type=_floats, default=[0.0])

    p = add("forest", _cmd_forest, help="anywhere-window visibility check")
    p.add_argument("--eps", type=_floats, default=None)
    p.add_argument("--V", type=_floats, default=None)
    p.add_argument("--lines", type=int, default=0, help="random line count")
    p.add_argument("--lam-max", type=float, default=100.0)
    p.add_argument("--line", action="append",
                   help="explicit window lam,angle,t0,t1 (repeatable)")

    p = add("visible", _cmd_visible, help="truncated-ray visibility verdicts")
    p.add_argument("--x", default=None, help="ray origin, e.g. 0,1")
    p.add_argument("--dir", action="append", default=None,
                   help="ray direction (repeatable)")
    p.add_argument("--eps-floor", type=float, default=0.1)
    p.add_argument("--Tmax", type=float, default=1e3)

    p = add("covering", _cmd_covering, help="uniform covering parameter estimate")
    p.add_argument("--csv", default=None, help="also write the cell table as CSV")
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--m", type=_floats, default=[0, 1000, 1000000])
    p.add_argument("--N", type=_floats, default=[100, 1000, 10000])
    p.add_argument("--resolution", type=float, default=None)

    p = add("criterion", _cmd_criterion, help="windowed covering criterion table")
    p.add_argument("--csv", default=None, help="also write the cell table as CSV")
    p.add_argument("--V-const", type=float, default=1.0)
    p.add_argument("--V-power", type=float, default=None,
                   help="V(eps) = V_const * eps^-power; defaults to d")
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--eps", type=_floats, default=[0.2, 0.1, 0.05])
    p.add_argument("--h-mults", type=_floats, default=[1, 2, 4, 8])
    p.add_argument("--resolution", type=float, default=None)

    p = add("defvisi", _cmd_defvisi, help="visibility curve from covering radii")
    p.add_argument("--csv", default=None, help="also write the curve as CSV")
    p.add_argument("--eps", type=_floats, default=[0.2, 0.1, 0.05])
    p.add_argument("--x-grid", type=_floats, default=[1, 2, 4, 8, 16, 32, 64])
    p.add_argument("--h-cap", type=int, default=512)
    p.add_argument("--resolution", type=float, default=None)

    p = add("delone", _cmd_delone, help="packing/covering diagnostics in a ball")
    p.add_argument("--T", type=float, default=30.0)
    p.add_argument("--probe-res", type=float, default=0.5)
    p.add_argument("--badness-Q", type=int, default=0,
                   help="also report the badly-approximable diagnostic")

    p = add("puncture", _cmd_puncture, help="write the punctured spiral")
    p.add_argument("--v0", default="0,1", help="emptied ray direction")
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--schedule", choices=["geometric", "factorial"],
                   default="geometric")
    p.add_argument("--m-lo", type=int, default=4)
    p.add_argument("--m-hi", type=int, default=20)
    p.add_argument("--strip-C", type=float, default=1.0)
    p.add_argument("--n", type=int, default=None)

    return parser


FILE_SUBCOMMANDS = {"generate", "plot", "puncture"}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    ns, _ = parser.parse_known_args(argv)
    if getattr(ns, "config", None):
        with open(ns.config) as fh:
            cfg = json.load(fh)
        parser.set_defaults(**cfg)
        for action in parser._subparsers._group_actions:
            if ns.subcommand in getattr(action, "choices", {}):
                action.choices[ns.subcommand].set_defaults(**cfg)
        ns = parser.parse_args(argv)
    else:
        ns = parser.parse_args(argv)
    if ns.subcommand in FILE_SUBCOMMANDS and not ns.out:
        parser.error(f"{ns.subcommand} requires --out")
    required = {"generate": ["n"], "orchard": ["eps", "V"], "uniform": ["eps", "V"],
                "forest": ["eps", "V"], "visible": ["x", "dir"], "puncture": ["n"]}
    for name in required.get(ns.subcommand, []):
        if getattr(ns, name, None) is None:
            parser.error(f"{ns.subcommand} requires --{name}")
    if ns.budget < 1:
        parser.error(f"--budget caps the sequence indices and must be at least 1, "
                     f"got {ns.budget}")
    try:
        payload, failed = ns.func(ns)
    except (ValueError, IndexError, FileNotFoundError, PunctureUnresolvedError) as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error raises SystemExit(2)
    payload["config"] = _config_payload(ns)
    text = dump_json(payload,
                     None if ns.subcommand in FILE_SUBCOMMANDS else ns.out)
    sys.stdout.write(text)
    return 1 if (failed and ns.assert_) else 0


if __name__ == "__main__":
    raise SystemExit(main())
