"""Command-line interface: analyze one polynomial, run sweeps, build gear
wheels, print radius thresholds.

Exit codes: 0 success (no hard violations), 1 I/O or convergence failure,
2 hard bound violation, 64 usage error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

from . import geometry
from .bounds import min_degree_for_radius
from .harness import SweepConfig, ToleranceConfig, certify, json_text, report_json, sweep
from .norms import QuadratureError
from .poly import (
    FAMILY_KINDS,
    Polynomial,
    PolynomialFormatError,
    make_family,
    FamilySpec,
    read_polynomial,
)
from .roots import RootFindingError, find_roots

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    sweep_cfg, tols = SweepConfig(), ToleranceConfig()
    parser = _Parser(prog="polyzero", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)  # the flags of analyze and sweep
    shared.add_argument("--seed", type=int, default=sweep_cfg.seed)
    shared.add_argument("--p", type=_floats, default=sweep_cfg.p_list, help="comma-separated p exponents")
    shared.add_argument("--theta", type=_floats, default=sweep_cfg.theta_list)
    shared.add_argument("--rho", type=_floats, default=sweep_cfg.rho_list)
    shared.add_argument("--centers", type=int, default=sweep_cfg.disk_centers, help="sampled disk centers")

    pa = sub.add_parser(
        "analyze", parents=[shared], help="certify one polynomial against every applicable bound"
    )
    src = pa.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="polynomial file (JSON, or text with --format text)")
    src.add_argument("--family", choices=FAMILY_KINDS, help="generate from a family")
    pa.add_argument("--format", default="json", choices=("json", "text"))
    pa.add_argument("--degree", type=int, default=8, help="family degree / recursion depth")
    pa.add_argument("--root-tol", type=float, default=tols.root_tol)
    pa.add_argument(
        "--quad-tol", type=float, default=tols.quad_tol,
        help="relative half-width of the enclosures of integral |P|^p behind the p-norms and of m+, in (0, 1)",
    )
    pa.add_argument("--sup-tol", type=float, default=tols.sup_tol)
    pa.add_argument("--out", help="write the report JSON here (default stdout)")

    ps = sub.add_parser("sweep", parents=[shared], help="family sweep with aggregate statistics")
    ps.add_argument("--family", default=sweep_cfg.family, choices=FAMILY_KINDS)
    ps.add_argument("--degrees", type=_ints, default=sweep_cfg.degrees)
    ps.add_argument("--trials", type=int, default=sweep_cfg.trials)
    ps.add_argument("--out-json", help="sweep report JSON path")
    ps.add_argument("--out-csv", help="per-entry CSV path")

    pg = sub.add_parser("gear", help="build a gear wheel, render SVG, count roots")
    pg.add_argument("--gamma", type=float, required=True)
    pg.add_argument("--delta", type=float, default=0.0)
    pg.add_argument("--poly", help="optional polynomial file; roots get membership markers")
    pg.add_argument("--format", default="json", choices=("json", "text"))
    pg.add_argument("--svg", help="SVG output path")
    pg.add_argument("--json", dest="json_out", help="JSON output path")
    pg.add_argument("--allow-wide", action="store_true", help="permit gamma > 1/2 (construction only)")

    pt = sub.add_parser("thresholds", help="minimal degrees for radius formulas c*log(n)/sqrt(n) <= b")
    pt.add_argument("--coefficient", type=float)
    pt.add_argument("--bound", type=float)
    return parser


def _load_polynomial(path: str, format: str) -> tuple[Polynomial, bytes]:
    """The polynomial in ``path`` and the file's bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    return read_polynomial(raw, format=format), raw


def _usage_error(exc: ValueError) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return USAGE_ERROR


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _config(args, **fields) -> SweepConfig:
    """The ``SweepConfig`` of the flags ``analyze`` and ``sweep`` share, plus ``fields``."""
    return SweepConfig(
        seed=args.seed,
        p_list=args.p,
        theta_list=args.theta,
        rho_list=args.rho,
        disk_centers=args.centers,
        **fields,
    )


def _run_analyze(args) -> int:
    try:
        cfg = _config(
            args,
            family=args.family or "explicit",
            record_disk_counts=True,
            tolerances=ToleranceConfig(
                root_tol=args.root_tol, quad_tol=args.quad_tol, sup_tol=args.sup_tol
            ),
        )
        if args.family:
            poly = make_family(FamilySpec(args.family, args.degree, seed=args.seed))
    except ValueError as exc:
        return _usage_error(exc)
    if args.poly:
        poly, raw = _load_polynomial(args.poly, args.format)
        descriptor = {"source": args.poly, "sha256": hashlib.sha256(raw).hexdigest()}
    else:
        descriptor = {"family": args.family, "degree": poly.degree, "seed": args.seed}
    report = certify(poly, cfg, descriptor=descriptor)
    text = report_json(report)
    if args.out:
        _write(args.out, text + "\n")
    else:
        print(text)
    if report.root_failure:
        print(f"root finding failed: {report.root_failure}", file=sys.stderr)
        return 1
    if report.hard_violations():
        for entry in report.hard_violations():
            print(f"VIOLATION {entry.bound_id}: margin {entry.margin_favorable}", file=sys.stderr)
        return 2
    return 0


def _run_sweep(args) -> int:
    try:
        cfg = _config(args, family=args.family, degrees=args.degrees, trials=args.trials)
    except ValueError as exc:
        return _usage_error(exc)
    result = sweep(cfg)
    if args.out_json:
        _write(args.out_json, result.to_json() + "\n")
    if args.out_csv:
        _write(args.out_csv, result.to_csv())
    summary = {
        "instances": len(result.reports),
        "hard_violation_count": result.hard_violation_count,
    }
    print(json.dumps(summary, sort_keys=True))
    return 2 if result.failed else 0


_SVG_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000" '
    'width="1000" height="1000">\n'
)


def _gear_svg(gear: geometry.GearWheel, roots=None, membership=None) -> str:
    parts = [_SVG_HEADER]
    parts.append(
        f'<circle cx="500" cy="500" r="{geometry.SVG_RADIUS}" fill="none" '
        'stroke="#888" stroke-width="1"/>\n'
    )
    outline = geometry.region_svg_paths(gear)[0]
    parts.append(f'<path d="{outline}" fill="#dce8f5" stroke="#235" stroke-width="2"/>\n')
    for disk in (geometry.DiskOnCircle(a, gear.gamma) for a in gear.center_angles):
        path = geometry.region_svg_paths(disk)[0]
        parts.append(f'<path d="{path}" fill="none" stroke="#c44" stroke-width="1"/>\n')
    if roots is not None:
        for z, inside in zip(roots, membership):
            x, y = geometry._svg_xy(complex(z))
            color = "#062" if inside else "#a00"
            parts.append(
                f'<circle cx="{round(x, 3)}" cy="{round(y, 3)}" r="3" fill="{color}"/>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts)


def _run_gear(args) -> int:
    try:
        gear = geometry.build_gear(args.gamma, args.delta, allow_wide=args.allow_wide)
    except ValueError as exc:
        return _usage_error(exc)
    payload = {
        "gamma": gear.gamma,
        "delta": gear.delta,
        "teeth": gear.teeth,
        "tooth_arc": gear.tooth_arc,
        "tooth_width_requested": gear.tooth_width_requested,
        "tooth_width_actual": gear.tooth_width_actual,
        "wide": gear.wide,
    }
    roots = membership = None
    if args.poly:
        poly, _ = _load_polynomial(args.poly, args.format)
        roots = find_roots(poly).roots
        membership = geometry.contains(gear, roots)
        payload["roots_total"] = int(len(roots))
        payload["roots_inside_gear"] = int(membership.sum())
    if args.svg:
        _write(args.svg, _gear_svg(gear, roots, membership))
    text = json_text(payload)
    if args.json_out:
        _write(args.json_out, text + "\n")
    else:
        print(text)
    return 0


_DEFAULT_THRESHOLD_ROWS = (
    (9.0, 1.0),
    (33.0 * math.pi, 1.0),
    (9.0, 0.5),
)


def _run_thresholds(args) -> int:
    given = (args.coefficient, args.bound)
    if given.count(None) == 1:
        return _usage_error(ValueError("--coefficient and --bound must be given together"))
    rows = [given] if None not in given else _DEFAULT_THRESHOLD_ROWS
    try:
        lines = [f"{coeff!r} {bound!r} {min_degree_for_radius(coeff, bound)}" for coeff, bound in rows]
    except ValueError as exc:
        return _usage_error(exc)
    print("coefficient bound min_degree")
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "analyze": _run_analyze,
        "sweep": _run_sweep,
        "gear": _run_gear,
        "thresholds": _run_thresholds,
    }[args.command]
    try:
        return handler(args)
    except (OSError, PolynomialFormatError, QuadratureError, RootFindingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
