"""End-to-end certification of one polynomial or a family sweep.

For each instance: compute roots, the norm profile, the observed statistics
(angular discrepancy, annular discrepancies, sampled disk counts, gear
counts), every applicable bound, and a verdict per bound with margins on
both enclosure sides.

One rule (:func:`_entry`) decides every verdict, in this order:

1. INAPPLICABLE when the bound's hypotheses fail;
2. PASS when the conservative-side comparison holds, except INDETERMINATE
   for an entry that reads ``|E|`` when the level set ``|P| = 1`` has a
   material tangent part (``e_tangency``);
3. INDETERMINATE when only the favorable side holds, and for every failing
   report-only entry (margin-only: never a hard verdict);
4. VIOLATION when even the favorable side fails.

A numerical enclosure therefore cannot manufacture a counterexample to a
true statement.  A gear wheel is built on the radius of the disk bound at
the same ``B`` end, and applies only where that disk bound does and its
radius is at most 1/2.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bounds as bounds_mod
from . import geometry
from .norms import NormProfile, ProfileTolerances, b_norm_interval, compute_profile
from .poly import FamilySpec, Polynomial, is_g_class, is_unimodular, make_family
from .roots import ROOT_TOL, RootFindingError, RootSet, find_roots
from .zerostats import (
    angular_discrepancy_report,
    annular_discrepancy,
    disk_counts,
    region_count,
    tau_outside_annulus,
)

SCHEMA = "polyzero-report/1"

PASS = "PASS"
VIOLATION = "VIOLATION"
INDETERMINATE = "INDETERMINATE"
INAPPLICABLE = "INAPPLICABLE"

# Bound ids of the entries that read ``|E|``, whose PASS a tangent level set
# downgrades: ``CorollaryKn`` exactly (not the report-only ``CorollaryKnErf``,
# whose erf term reads no ``|E|``), and every id with one of these prefixes.
_E_DEPENDENT_ID = "CorollaryKn"
_E_DEPENDENT_PREFIXES = ("PropThm0", "Lem2", "Thm4", "Thm2_disk_p", "GearUpper_exact[variant=p_9")


@dataclass
class ToleranceConfig:
    """The limits a caller sets: the root residual, and the relative widths
    of the p-norm and sup-norm enclosures.  Every other accuracy of the
    profile is fixed in :mod:`polyzero.norms`."""

    root_tol: float = ROOT_TOL
    quad_tol: float = 1e-2
    sup_tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.quad_tol < 1.0:  # also false for nan
            raise ValueError("quad_tol must be in (0, 1)")

    def profile_tolerances(self) -> ProfileTolerances:
        return ProfileTolerances(quad_tol=self.quad_tol, sup_tol=self.sup_tol)


_DEFAULT_ARCS = (
    (0.0, math.pi / 2.0),
    (math.pi / 3.0, 4.0 * math.pi / 3.0),
    (5.5, 1.2),  # wrap-around arc
    (0.0, 2.0 * math.pi),
)


@dataclass
class SweepConfig:
    """One family sweep: degrees x trials, fully seeded and reproducible."""

    family: str = "littlewood"
    degrees: tuple[int, ...] = (16, 32, 64, 128, 256)
    trials: int = 50
    seed: int = 0
    p_list: tuple[float, ...] = (1.0, 2.0)
    theta_list: tuple[float, ...] = (0.5, 1.0)
    rho_list: tuple[float, ...] = (0.5, 0.9)
    arcs: tuple[tuple[float, float], ...] = _DEFAULT_ARCS
    disk_centers: int = 720
    gear_deltas: tuple[float, ...] = (0.0, 0.25)
    record_disk_counts: bool = False  # full per-center counts in the report
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)

    def __post_init__(self):
        for ok, message in (
            (all(0.5 <= t <= 1.0 for t in self.theta_list), "theta must be in [1/2, 1]"),
            (all(math.isfinite(p) and p > 0 for p in self.p_list), "p must be finite and > 0"),
            (all(0.0 < r < 1.0 for r in self.rho_list), "rho must be in (0, 1)"),
            (self.trials >= 1, "trials must be >= 1"),
            (all(d >= 1 for d in self.degrees), "degrees must be >= 1"),
            (self.disk_centers >= 1, "disk_centers must be >= 1"),
        ):
            if not ok:
                raise ValueError(message)


@dataclass
class VerdictEntry:
    bound_id: str
    kind: str  # upper | lower | report
    observed: float | None
    bound: float  # conservative-side bound value
    bound_favorable: float
    margin_conservative: float
    margin_favorable: float
    verdict: str
    notes: str = ""

    def to_dict(self) -> dict:
        # The fields are scalars and strings, so a shallow copy is what
        # ``asdict``'s deep copy gives, at a fraction of its cost.  Reading
        # ``self.__dict__`` would attach a dict to every entry for its life.
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class BoundReport:
    descriptor: dict
    profile: dict
    observed: dict
    entries: list[VerdictEntry]
    runtime_seconds: float
    root_failure: str = ""

    @property
    def verdicts(self) -> dict[str, str]:
        return {e.bound_id: e.verdict for e in self.entries}

    def hard_violations(self) -> list[VerdictEntry]:
        return [e for e in self.entries if e.kind != "report" and e.verdict == VIOLATION]

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "schema": SCHEMA,
            "descriptor": self.descriptor,
            "profile": self.profile,
            "observed": self.observed,
            "entries": [e.to_dict() for e in self.entries],
            "root_failure": self.root_failure,
        }
        if include_timing:
            out["timing"] = {"runtime_seconds": self.runtime_seconds}
        return out


def _plain(obj):  # a scalar converted as json_text says
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return repr(obj) if isinstance(obj, float) and not math.isfinite(obj) else obj


@functools.cache
def _encoders(depth: int):
    """Strict and NaN-writing C encoders of a container of scalars at ``depth``."""
    sep = (",\n" + " " * (depth + 1), ": ")
    return [json.JSONEncoder(sort_keys=True, allow_nan=nan, separators=sep).encode for nan in (False, True)]


def _write_json(obj, depth: int, out: list) -> None:
    if not isinstance(obj, (dict, list, tuple)):
        out.append(_encoders(0)[1](_plain(obj)))
        return
    if isinstance(obj, dict) and not all(isinstance(k, str) for k in obj):
        obj = {str(k): v for k, v in obj.items()}
    is_dict = isinstance(obj, dict)
    inner, close = "\n" + " " * (depth + 1), "\n" + " " * depth + ("}" if is_dict else "]")
    if not any(isinstance(v, (dict, list, tuple)) for v in (obj.values() if is_dict else obj)):
        strict, lenient = _encoders(depth)
        try:
            text = strict(obj)
        except (ValueError, TypeError):  # a non-finite float or a numpy scalar: convert, retry
            text = lenient({k: _plain(v) for k, v in obj.items()} if is_dict else [_plain(v) for v in obj])
        out.append(f"{text[0]}{inner}{text[1:-1]}{close}" if obj else text)
        return
    sep = ("{" if is_dict else "[") + inner
    for key in sorted(obj) if is_dict else range(len(obj)):
        out.append(f"{sep}{_encoders(0)[1](key)}: " if is_dict else sep)
        _write_json(obj[key], depth + 1, out)
        sep = "," + inner
    out.append(close)


def json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1)`` byte for byte, with numpy scalars
    unboxed by ``.item()``, non-finite Python floats as ``"nan"``, ``"inf"``, ``"-inf"``,
    and keys as ``str(key)``; other types raise ``TypeError``.  A container of scalars
    is one call of the C encoder (``indent=None``, the ``indent=1`` separators, brackets
    then moved to their own lines): nothing is copied but one that needs a conversion."""
    out: list = []
    _write_json(obj, 0, out)
    return "".join(out)


def report_json(report: BoundReport, include_timing: bool = True) -> str:
    return json_text(report.to_dict(include_timing))


def _profile_summary(profile: NormProfile, p_list) -> dict:
    out = {
        "degree": profile.degree,
        "c0cn_abs": profile.c0cn_abs,
        "p_norms": {f"{p:g}": [v.lo, v.hi] for p, v in profile.p_norms.items()},
        "sup_norm": [profile.sup_norm.lo, profile.sup_norm.hi],
        "mahler": profile.mahler,
        "log_mahler": profile.log_mahler,
        "mahler_plus": profile.mahler_plus,
        "log_mahler_plus": profile.log_mahler_plus,
        "log_mahler_plus_scaled": profile.log_mahler_plus_scaled,
        "e_measure": [profile.e_measure.lo, profile.e_measure.hi],
        "e_tangency": profile.e_tangency,
        "quad_points": dict(profile.quad_points),
        "b_values": {},
    }
    for p in tuple(p_list) + (math.inf,):
        b = b_norm_interval(profile, p)
        out["b_values"]["inf" if math.isinf(p) else f"{p:g}"] = [b.lo, b.hi]
    return out


def _entry(
    bound_id: str,
    kind: str,
    observed: float | None,
    bound: float,
    bound_favorable: float,
    margin_c: float,
    margin_f: float,
    e_tangency: bool = False,
    notes: str = "",
    applicable: bool = True,
) -> VerdictEntry:
    """The entry of one comparison, its verdict by the module's one rule."""
    if not applicable:
        verdict = INAPPLICABLE
    elif margin_c >= 0:
        reads_e = bound_id == _E_DEPENDENT_ID or bound_id.startswith(_E_DEPENDENT_PREFIXES)
        verdict = INDETERMINATE if e_tangency and reads_e else PASS
    elif margin_f >= 0 or kind == "report":
        verdict = INDETERMINATE
    else:
        verdict = VIOLATION
    return VerdictEntry(bound_id, kind, observed, bound, bound_favorable, margin_c, margin_f, verdict, notes)


def _upper_entry(entry: bounds_mod.BoundEntry, observed: float, e_tangency: bool) -> VerdictEntry:
    margins = (entry.value - observed, entry.value_favorable - observed)
    return _entry(entry.bound_id, entry.kind, observed, entry.value, entry.value_favorable, *margins,
                  e_tangency, entry.hypothesis_notes, entry.applicable)


def stratified_center_angles(count: int, seed: int, salt: int = 0) -> np.ndarray:
    """``count`` angles, one uniform draw per equal slice of [0, 2 pi)."""
    key = np.array(
        [seed & 0xFFFFFFFFFFFFFFFF, (0xC2B2AE3D27D4EB4F * (salt + 1)) & 0xFFFFFFFFFFFFFFFF],
        dtype=np.uint64,
    )
    rng = np.random.Generator(np.random.Philox(key=key))
    return 2.0 * math.pi * (np.arange(count) + rng.random(count)) / count


def certify(
    p: Polynomial,
    cfg: SweepConfig | None = None,
    roots: RootSet | None = None,
    descriptor: dict | None = None,
    center_salt: int = 0,
) -> BoundReport:
    """Full bound report for one polynomial.

    ``roots`` may be supplied when known analytically; otherwise the solver
    runs at the configured tolerance.  Root-finding failure yields a partial
    (norm-only) report rather than an exception.  The report is built in
    stages: profile, angular, annular, disk, gear.
    """
    cfg = cfg or SweepConfig()
    t0 = time.monotonic()
    n = p.degree
    descriptor = dict(descriptor or {})
    descriptor.setdefault("degree", n)
    descriptor.setdefault("label", p.label)
    supplied_roots = roots is not None
    roots, root_failure, profile = _profile_stage(p, cfg, roots)
    kn_member = descriptor["kn_member"] = is_unimodular(p)
    gn_member = descriptor["gn_member"] = is_g_class(p)
    observed: dict = {}
    if roots is None or n < 1:
        # Norm-only report: every root-dependent entry is out of reach.
        entries = [
            _entry(e.bound_id, e.kind, None, e.value, e.value_favorable, math.nan, math.nan,
                   notes=root_failure or "degree < 1", applicable=False)
            for e in bounds_mod.discrepancy_bounds(profile, max(n, 1), cfg.p_list, kn_member).values()
        ]
    else:
        entries = _angular_stage(roots, profile, cfg, kn_member, observed)
        entries += _annular_stage(roots, profile, cfg, gn_member, observed)
        disk_entries, disks = _disk_stage(p, roots, supplied_roots, profile, cfg, gn_member, center_salt, observed)
        entries += disk_entries + _gear_stage(roots, profile, cfg, disks, observed)
    return BoundReport(
        descriptor=descriptor,
        profile=_profile_summary(profile, cfg.p_list),
        observed=observed,
        entries=entries,
        runtime_seconds=time.monotonic() - t0,
        root_failure=root_failure,
    )


def _profile_stage(p: Polynomial, cfg: SweepConfig, roots: RootSet | None):
    """Roots (unless supplied) and the norm profile; a solver failure leaves no roots."""
    root_failure = ""
    if roots is None and p.degree >= 1:
        try:
            roots = find_roots(p, tol=cfg.tolerances.root_tol)
        except RootFindingError as exc:
            root_failure = str(exc)
    profile = compute_profile(
        p,
        roots=roots,
        p_list=cfg.p_list,
        tols=cfg.tolerances.profile_tolerances(),
    )
    return roots, root_failure, profile


def _angular_stage(roots, profile, cfg, kn_member, observed) -> list[VerdictEntry]:
    disc = angular_discrepancy_report(roots)
    observed["angular_discrepancy"] = disc["value"]
    observed["angular_discrepancy_attained"] = disc["attained"]
    return [
        _upper_entry(entry, disc["value"], profile.e_tangency)
        for entry in bounds_mod.discrepancy_bounds(profile, profile.degree, cfg.p_list, kn_member).values()
    ]


def _annular_stage(roots, profile, cfg, gn_member, observed) -> list[VerdictEntry]:
    """Worst configured arc per rho, and the mass outside the annulus."""
    entries = []
    annular_observed = observed["annular"] = {}
    for rho in cfg.rho_list:
        tau_out = tau_outside_annulus(roots, rho)
        worst = 0.0
        per_arc = []
        for alpha, beta in cfg.arcs:
            stat = annular_discrepancy(roots, rho, geometry.Sector(alpha, beta))
            per_arc.append(
                {"arc": [alpha, beta], "discrepancy": stat.discrepancy, "tau": stat.tau_annular_sector}
            )
            worst = max(worst, stat.discrepancy)
        annular_observed[f"{rho:g}"] = {
            "tau_outside": tau_out,
            "worst_discrepancy": worst,
            "arcs": per_arc,
        }
        for p_exp in cfg.p_list:
            table = bounds_mod.annular_bounds(profile, profile.degree, rho, p_exp, gn_member=gn_member)
            for entry in table.values():
                obs = tau_out if entry.bound_id.startswith("Lem2_tau_outside") else worst
                entries.append(_upper_entry(entry, obs, profile.e_tangency))
    return entries


def _disk_stage(p, roots, supplied_roots, profile, cfg, gn_member, center_salt, observed):
    """Disk lower bounds against the minimum open count over sampled centers.

    Returns the entries and, for the gear stage, ``(B, conservative,
    favorable)`` disk bounds per ``(theta, variant, p)`` of ``sup_7`` and
    ``p_9`` (``p`` is None for ``sup_7``).

    When the caller supplied the roots, a VIOLATION is re-examined once on
    solver roots at a tenth of ``root_tol``.  Solver roots are not rerun: the
    iteration does not depend on ``tol``, so a rerun would return the same
    iterate and the same verdict.
    """
    n = profile.degree
    center_angles = stratified_center_angles(cfg.disk_centers, cfg.seed, salt=center_salt)
    observed["disk_centers"] = len(center_angles)
    disk_obs = observed["disks"] = {}
    entries = []
    disks = {}
    refined_roots: RootSet | None = None
    cases = [("Thm2_disk", "sup_7", None)]
    cases += [("Thm2_disk_p", "p_9", p_exp) for p_exp in cfg.p_list]
    cases.append(("Thm3_disk", "Gn_9", None))
    for theta in cfg.theta_list:
        for base_id, variant, p_exp in cases:
            p_key = "" if p_exp is None else f"p={p_exp:g},"
            bound_id = f"{base_id}[{p_key}theta={theta:g}]"
            kwargs = dict(
                c0_nonzero=profile.c0_abs > 0,
                c0cn_ge_1=profile.c0cn_at_least_one,
                pnorm_ge_1=profile.pnorm_at_least_one(p_exp) if p_exp else False,
                gn_member=gn_member,
            )
            if variant == "Gn_9":
                cons = fav = bounds_mod.disk_lower_bound(n, 0.0, theta, variant, **kwargs)
            else:
                b = b_norm_interval(profile, p_exp or math.inf)
                # Conservative: smallest disk must hold the largest requirement.
                cons = bounds_mod.disk_lower_bound(n, b.lo, theta, variant, **kwargs)
                fav = bounds_mod.disk_lower_bound(n, b.hi, theta, variant, **kwargs)
                disks[theta, variant, p_exp] = (b, cons, fav)
            if not (cons.applicable and fav.applicable):
                notes = cons.hypothesis_notes or fav.hypothesis_notes
                entries.append(_entry(bound_id, "lower", None, fav.min_zeros, cons.min_zeros, math.nan, math.nan,
                                      notes=notes, applicable=False))
                continue
            entry, obs = _disk_check(cfg, roots, center_angles, cons, fav, bound_id, profile.e_tangency)
            if entry.verdict == VIOLATION and supplied_roots and refined_roots is None:
                try:
                    refined_roots = find_roots(p, tol=cfg.tolerances.root_tol / 10.0)
                except RootFindingError:
                    pass
                if refined_roots is not None:
                    entry, obs = _disk_check(
                        cfg, refined_roots, center_angles, cons, fav, bound_id, profile.e_tangency
                    )
            entries.append(entry)
            disk_obs[bound_id] = obs
    return entries, disks


def _disk_check(cfg, roots, center_angles, cons, fav, bound_id, e_tangency):
    open_c, closed_c = disk_counts(roots, center_angles, cons.gamma)
    open_f = open_c if fav.gamma == cons.gamma else disk_counts(roots, center_angles, fav.gamma)[0]
    # Lower-bound margins: observed open count minus the required count,
    # requirement taken from the opposite enclosure side than the radius.
    margin_c = float(open_c.min() - fav.min_zeros)
    margin_f = float(open_f.min() - cons.min_zeros)
    obs = {
        "radius_conservative": cons.gamma,
        "radius_favorable": fav.gamma,
        "min_open_count": int(open_c.min()),
        "min_closed_count": int(closed_c.min()),
        "required_conservative": fav.min_zeros,
        "required_favorable": cons.min_zeros,
    }
    if cfg.record_disk_counts:
        obs["open_counts"] = [int(v) for v in open_c]
        obs["closed_counts"] = [int(v) for v in closed_c]
    entry = _entry(bound_id, "lower", float(open_c.min()), fav.min_zeros, cons.min_zeros, margin_c, margin_f,
                   e_tangency, cons.hypothesis_notes)
    return entry, obs


def _gear_stage(roots, profile, cfg, disks, observed) -> list[VerdictEntry]:
    """Gear-wheel upper bounds, exact and closed form, on the disk bounds at
    both B ends (``disks`` from :func:`_disk_stage`)."""
    n = profile.degree
    gear_obs = observed["gear"] = {}
    entries = []
    cases = [("sup_7", None, "")] + [("p_9", p_exp, f",p={p_exp:g}") for p_exp in cfg.p_list]
    for theta in cfg.theta_list:
        for delta in cfg.gear_deltas:
            for variant, p_exp, p_tag in cases:
                b, cons_disk, fav_disk = disks[theta, variant, p_exp]
                tag = f"[variant={variant}{p_tag},theta={theta:g},delta={delta:g}]"
                sides = [
                    _gear_side(roots, n, b_val, theta, delta, variant, disk)
                    for b_val, disk in ((b.lo, cons_disk), (b.hi, fav_disk))
                ]
                if None in sides:
                    entries.append(_entry(f"GearUpper_exact{tag}", "upper", None, math.nan, math.nan, math.nan,
                                          math.nan, notes="radius > 1/2 or hypotheses fail", applicable=False))
                    continue
                # Conservative: the end with the smaller exact margin (the B.lo end on a tie).
                sides.sort(key=lambda side: side[1].exact_form - side[2])
                (gear, gb_c, count_c), (_, gb_f, count_f) = sides
                entries.append(_entry(
                    f"GearUpper_exact{tag}", "upper", float(count_c), gb_c.exact_form, gb_f.exact_form,
                    gb_c.exact_form - count_c, gb_f.exact_form - count_f, profile.e_tangency,
                ))
                # The closed form does not depend on B; only the counts differ.
                closed = gb_c.closed_form
                entries.append(_entry(
                    f"GearUpper_closed{tag}", "upper", float(count_c), closed, closed,
                    closed - max(count_c, count_f), closed - min(count_c, count_f), profile.e_tangency,
                ))
                gear_obs[f"GearUpper_exact{tag}"] = {"teeth": gear.teeth, "gamma": gear.gamma, "count": count_c}
    return entries


def _gear_side(roots, n, b_val, theta, delta, variant, disk):
    """``(gear, GearBound, count)`` on one end's disk bound, or None where it does not apply."""
    if not (disk.applicable and disk.gamma <= 0.5):
        return None
    gear = geometry.build_gear(disk.gamma, delta)
    gb = bounds_mod.gear_zero_upper_bound(n, b_val, theta, delta, variant, gear)
    return (gear, gb, region_count(roots, gear).count) if gb.applicable else None


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _instance_seed(seed: int, degree: int, trial: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + degree * 0x100000001B3 + trial * 0x1B873593 + 1) & 0x7FFFFFFFFFFFFFFF


@dataclass
class SweepResult:
    config: SweepConfig
    reports: list[BoundReport]
    aggregates: dict
    hard_violation_count: int

    @property
    def failed(self) -> bool:
        return self.hard_violation_count > 0

    def to_json(self, include_timing: bool = False) -> str:
        payload = {
            "schema": "polyzero-sweep/1",
            "config": asdict(self.config),
            "aggregates": self.aggregates,
            "hard_violation_count": self.hard_violation_count,
            "reports": [r.to_dict(include_timing=include_timing) for r in self.reports],
        }
        return json_text(payload)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "family",
                "degree",
                "seed",
                "bound_id",
                "observed",
                "bound",
                "margin_conservative",
                "margin_favorable",
                "verdict",
            ]
        )
        for report in self.reports:
            d = report.descriptor
            for e in report.entries:
                writer.writerow(
                    [
                        d.get("family", d.get("label", "")),
                        d.get("degree", ""),
                        d.get("seed", ""),
                        e.bound_id,
                        _csv_num(e.observed),
                        _csv_num(e.bound),
                        _csv_num(e.margin_conservative),
                        _csv_num(e.margin_favorable),
                        e.verdict,
                    ]
                )
        return buf.getvalue()


def _csv_num(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return repr(float(x))


def sweep(cfg: SweepConfig) -> SweepResult:
    """Run the full (degree x trial) grid for one family.

    Instances run one after another.  Output ordering and all RNG streams
    depend only on the config, so re-runs are byte-identical apart from
    timing metadata.
    """
    reports = []
    for degree in cfg.degrees:
        for trial in range(cfg.trials):
            inst_seed = _instance_seed(cfg.seed, degree, trial)
            poly = make_family(FamilySpec(cfg.family, degree, seed=inst_seed))
            descriptor = {
                "family": cfg.family,
                "degree": degree,
                "trial": trial,
                "seed": inst_seed,
            }
            reports.append(certify(poly, cfg, descriptor=descriptor, center_salt=inst_seed))
    aggregates = _aggregate(reports)
    hard = sum(len(r.hard_violations()) for r in reports)
    return SweepResult(config=cfg, reports=reports, aggregates=aggregates, hard_violation_count=hard)


def _aggregate(reports: list[BoundReport]) -> dict:
    per_bound: dict[str, dict] = {}
    e_stats: dict[str, list[float]] = {}
    for report in reports:
        degree = str(report.descriptor.get("degree"))
        e_lo, e_hi = report.profile["e_measure"]
        e_stats.setdefault(degree, []).append(0.5 * (e_lo + e_hi))
        for e in report.entries:
            slot = per_bound.setdefault(
                e.bound_id,
                {
                    "applicable": 0,
                    "pass": 0,
                    "violation": 0,
                    "indeterminate": 0,
                    "inapplicable": 0,
                    "max_ratio": None,
                    "min_margin": None,
                },
            )
            slot[e.verdict.lower()] = slot.get(e.verdict.lower(), 0) + 1
            if e.verdict != INAPPLICABLE:
                slot["applicable"] += 1
                if e.kind == "upper" and e.observed is not None and e.bound > 0:
                    ratio = e.observed / e.bound
                    slot["max_ratio"] = ratio if slot["max_ratio"] is None else max(slot["max_ratio"], ratio)
                if math.isfinite(e.margin_conservative):
                    slot["min_margin"] = (
                        e.margin_conservative
                        if slot["min_margin"] is None
                        else min(slot["min_margin"], e.margin_conservative)
                    )
    e_summary = {
        deg: {
            "mean": float(np.mean(vals)),
            "min": float(np.min(vals)),
            "max": float(np.max(vals)),
            "count": len(vals),
        }
        for deg, vals in sorted(e_stats.items())
    }
    return {"per_bound": per_bound, "e_measure_by_degree": e_summary}
