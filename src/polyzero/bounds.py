"""Explicit bound formulas for zero-distribution statistics.

Each function turns a :class:`~polyzero.norms.NormProfile` (plus polynomial
metadata) into bound values with applicability flags.  Bound entries come in
conservative/favorable pairs: the conservative value uses the enclosure
endpoints that make the claimed inequality hardest to satisfy, so numerical
error can never manufacture a violation of a true statement.

Bound identifiers (the ``bound_id`` wire tokens) are grouped as:

* angular discrepancy upper bounds: ``ET16``, ``Ganelius``, ``Mignotte``,
  ``Soundararajan``, ``CarneiroBp∞``, ``ShuWang``, ``PropThm0_p``,
  ``CorollaryKn``, ``CorollaryKnErf`` (report-only)
* annular bounds: ``Lem2_tau_outside``, ``Lem2_annular`` (hard),
  ``Thm4_annular_p``, ``Thm4_annular_Gn`` (report-only margins; the degree
  threshold behind them is not quantified)
* disk lower bounds: ``Thm2_disk``, ``Thm2_disk_p``, ``Thm3_disk``
* gear-wheel upper bounds: ``GearUpper_exact``, ``GearUpper_closed``
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import GearWheel
from .norms import NormProfile, b_norm

DISCREPANCY_IDS = (
    "ET16",
    "Ganelius",
    "Mignotte",
    "Soundararajan",
    "CarneiroBp∞",
    "ShuWang",
    "PropThm0_p",
    "CorollaryKn",
    "CorollaryKnErf",
)

ERDOS_TURAN_C = 16.0
SOUNDARARAJAN_C = 8.0 / math.pi
CARNEIRO_C = 4.0 / math.sqrt(math.pi)


def catalan_constant() -> float:
    """Catalan's constant ``1 - 1/9 + 1/25 - ...``, the float nearest it."""
    return 0.915965594177219


def ganelius_constant() -> float:
    """``sqrt(2 pi / k)`` with ``k`` Catalan's constant (= 2.6191...)."""
    return math.sqrt(2.0 * math.pi / catalan_constant())


@dataclass
class BoundEntry:
    """One theoretical bound evaluated on one polynomial instance.

    ``value`` is the conservative evaluation, ``value_favorable`` the one
    using the opposite enclosure endpoints.  ``kind`` is "upper" when the
    observed statistic must stay below the bound, "lower" for minimum
    zero counts, "report" for margin-only entries.
    """

    bound_id: str
    value: float
    value_favorable: float
    applicable: bool
    kind: str = "upper"
    hypothesis_notes: str = ""


def _sqrt_term(value: float, n: int) -> float:
    return math.sqrt(max(value, 0.0) / n)


def discrepancy_bounds(
    profile: NormProfile,
    n: int,
    p_list: tuple[float, ...] = (1.0, 2.0),
    kn_member: bool = False,
) -> dict[str, BoundEntry]:
    """Angular-discrepancy upper bounds from a norm profile.

    All entries scale like ``C * sqrt(term / n)``; conservative versions use
    the low end of each enclosure (a smaller bound is harder to satisfy).
    ``CorollaryKnErf`` replaces ``1 - |E|`` by an erf expression coming from
    a Gaussian heuristic and is report-only.
    """
    entries: list[BoundEntry] = []
    c0_ok = profile.c0_abs > 0.0
    binf = b_norm(profile, math.inf)
    binf_ok = c0_ok and binf.lo > 0.0
    note_b = "" if binf_ok else "conservative B_inf <= 0 or P(0) = 0"
    for bound_id, coeff in (
        ("ET16", ERDOS_TURAN_C),
        ("Ganelius", ganelius_constant()),
    ):
        entries.append(
            BoundEntry(
                bound_id=bound_id,
                value=coeff * _sqrt_term(binf.lo, n),
                value_favorable=coeff * _sqrt_term(binf.hi, n),
                applicable=binf_ok,
                hypothesis_notes=note_b,
            )
        )
    entries.append(
        BoundEntry(
            bound_id="ShuWang",
            value=_sqrt_term(2.0 * binf.lo, n),
            value_favorable=_sqrt_term(2.0 * binf.hi, n),
            applicable=binf_ok,
            hypothesis_notes=note_b,
        )
    )
    mplus_scaled = profile.log_mahler_plus_scaled
    mp_ok = c0_ok and mplus_scaled.hi < math.inf
    for bound_id, coeff in (
        ("Mignotte", ganelius_constant()),
        ("Soundararajan", SOUNDARARAJAN_C),
        ("CarneiroBp∞", CARNEIRO_C),
    ):
        entries.append(
            BoundEntry(
                bound_id=bound_id,
                value=coeff * _sqrt_term(mplus_scaled.lo, n) if mp_ok else math.nan,
                value_favorable=coeff * _sqrt_term(mplus_scaled.hi, n) if mp_ok else math.nan,
                applicable=mp_ok,
                hypothesis_notes="" if mp_ok else "needs m+ of the normalized polynomial",
            )
        )
    for p in p_list:
        bp = b_norm(profile, p)
        ok = c0_ok and profile.pnorm_at_least_one(p)
        entries.append(
            BoundEntry(
                bound_id=f"PropThm0_p[p={p:g}]",
                value=CARNEIRO_C * _sqrt_term(bp.lo, n),
                value_favorable=CARNEIRO_C * _sqrt_term(bp.hi, n),
                applicable=ok,
                hypothesis_notes="" if ok else f"needs ||P||_{p:g} >= 1 and P(0) != 0",
            )
        )
    coeff = 2.0 * math.sqrt(2.0) / math.sqrt(math.pi)
    e_int = profile.e_measure
    term = lambda e_val: (1.0 - e_val) * math.log(n + 1.0) + math.exp(-1.0)
    entries.append(
        BoundEntry(
            bound_id="CorollaryKn",
            value=coeff * _sqrt_term(term(e_int.hi), n),
            value_favorable=coeff * _sqrt_term(term(e_int.lo), n),
            applicable=kn_member,
            hypothesis_notes="" if kn_member else "needs unimodular coefficients",
        )
    )
    erf_term = 1.0 - 0.25 * math.erf(math.sqrt(2.0 / (n + 1.0))) ** 2
    val = coeff * _sqrt_term(erf_term * math.log(n + 1.0) + math.exp(-1.0), n)
    entries.append(
        BoundEntry(
            bound_id="CorollaryKnErf",
            value=val,
            value_favorable=val,
            applicable=kn_member,
            kind="report",
            hypothesis_notes="Gaussian-limit heuristic; report-only",
        )
    )
    return {e.bound_id: e for e in entries}


_RADIUS_COEFFICIENTS = {"sup_7": 7.0, "p_9": 9.0}


def _radius(n: int, B: float, theta: float, variant: str) -> float:
    """Disk and gear radius ``c (2 B)^theta / sqrt(n)``; ``c`` = 7 (sup_7), 9 (p_9).

    A ``B`` below 0 (an enclosure end past the true, nonnegative value) is
    taken as 0, where a fractional power would be complex.
    """
    return _RADIUS_COEFFICIENTS[variant] * (2.0 * max(B, 0.0)) ** theta / math.sqrt(n)


@dataclass(frozen=True)
class DiskBound:
    variant: str
    theta: float
    gamma: float
    min_zeros: float
    applicable: bool
    hypothesis_notes: str = ""


def disk_lower_bound(
    n: int,
    B: float,
    theta: float,
    variant: str,
    c0_nonzero: bool = True,
    c0cn_ge_1: bool = False,
    pnorm_ge_1: bool = False,
    gn_member: bool = False,
) -> DiskBound:
    """Minimum zero count in disks of the stated radius centered on |z| = 1.

    Variants: ``sup_7`` uses radius ``7 (2 B_inf)^theta / sqrt(n)`` with at
    least ``sqrt(n) (2 B_inf)^theta`` zeros; ``p_9`` the same with constant 9
    and ``B_p``; ``Gn_9`` uses ``9 (log n)^theta / sqrt(n)`` for polynomials
    with unimodular end coefficients; ``custom_radius`` fixes the radius
    ``33 pi log(n) / sqrt(n)`` and guarantees ``31 sqrt(n) log n`` zeros.
    A ``B`` not certified positive leaves ``sup_7`` and ``p_9`` inapplicable,
    with their formulas taken at ``B = 0``.
    """
    if not 0.5 <= theta <= 1.0:
        raise ValueError("theta must be in [1/2, 1]")
    if n < 1:
        raise ValueError("degree must be >= 1")
    notes = []
    if variant in _RADIUS_COEFFICIENTS:
        gamma = _radius(n, B, theta, variant)
        min_zeros = math.sqrt(n) * (2.0 * max(B, 0.0)) ** theta
        if variant == "sup_7":
            ok = c0_nonzero
            if not c0_nonzero:
                notes.append("P(0) = 0")
        else:
            ok = c0cn_ge_1 and pnorm_ge_1
            if not c0cn_ge_1:
                notes.append("|c0 cn| < 1")
            if not pnorm_ge_1:
                notes.append("||P||_p < 1")
        ok = ok and B > 0
        if B <= 0:
            notes.append(f"B_{'inf' if variant == 'sup_7' else 'p'} not certified positive")
    elif variant == "Gn_9":
        gamma = 9.0 * math.log(n) ** theta / math.sqrt(n)
        min_zeros = math.sqrt(n) * math.log(n) ** theta
        ok = gn_member and n >= 2
        if n < 2:
            notes.append("needs n >= 2")
        if not gn_member:
            notes.append("not in the unimodular-ends class")
    elif variant == "custom_radius":
        gamma = 33.0 * math.pi * math.log(n) / math.sqrt(n)
        min_zeros = 31.0 * math.sqrt(n) * math.log(n)
        ok = gn_member
        if not gn_member:
            notes.append("not in the unimodular-ends class")
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if gamma > 1.0:
        ok = False
        notes.append(f"radius {gamma:.4g} > 1")
    return DiskBound(
        variant=variant,
        theta=theta,
        gamma=gamma,
        min_zeros=min_zeros,
        applicable=ok,
        hypothesis_notes="; ".join(notes),
    )


def thm4_constant(n: int, e_measure: float) -> float:
    """``min(sqrt((8/pi)(1 - |E| + 1/(e log(n+1)))), sqrt(2))``."""
    inner = (8.0 / math.pi) * (1.0 - e_measure + 1.0 / (math.e * math.log(n + 1.0)))
    return min(math.sqrt(max(inner, 0.0)), math.sqrt(2.0))


def annular_bounds(
    profile: NormProfile,
    n: int,
    rho: float,
    p: float,
    gn_member: bool = False,
) -> dict[str, BoundEntry]:
    """Annular-sector discrepancy and outside-mass bounds for one (rho, p).

    Hard entries: ``tau(outside annulus) <= 2 B_p / (n (1 - rho))`` and the
    annular-sector bound ``sqrt((2/n) min((8/pi) B_p, B_inf)) + 2 B_p /
    (n (1 - rho))``.  The two ``Thm4_*`` refinements hold for sufficiently
    large degree (threshold unquantified), so they are margin-only.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must be in (0, 1)")
    entries: list[BoundEntry] = []
    bp = b_norm(profile, p)
    binf = b_norm(profile, math.inf)
    hyp_ok = profile.c0cn_at_least_one and profile.pnorm_at_least_one(p)
    notes = "" if hyp_ok else "needs |c0 cn| >= 1 and ||P||_p >= 1"
    outside = lambda b: 2.0 * b / (n * (1.0 - rho))
    entries.append(
        BoundEntry(
            bound_id=f"Lem2_tau_outside[p={p:g},rho={rho:g}]",
            value=outside(bp.lo),
            value_favorable=outside(bp.hi),
            applicable=hyp_ok,
            hypothesis_notes=notes,
        )
    )
    annular = lambda b_p, b_i: (
        math.sqrt((2.0 / n) * max(min((8.0 / math.pi) * b_p, b_i), 0.0)) + outside(b_p)
    )
    entries.append(
        BoundEntry(
            bound_id=f"Lem2_annular[p={p:g},rho={rho:g}]",
            value=annular(bp.lo, binf.lo),
            value_favorable=annular(bp.hi, binf.hi),
            applicable=hyp_ok,
            hypothesis_notes=notes,
        )
    )
    # Refined annular entries: epsilon' from the explicit recipe
    # (2/(1-rho)) sqrt((1-|E|) eps + 1/(e p n)) with eps = B_inf / n.
    e_mid = profile.e_measure.mid
    eps = max(binf.hi, 0.0) / n
    eps_prime = (2.0 / (1.0 - rho)) * math.sqrt(max((1.0 - e_mid) * eps + 1.0 / (math.e * p * n), 0.0))
    val_p = (CARNEIRO_C + eps_prime) * _sqrt_term(bp.hi, n)
    entries.append(
        BoundEntry(
            bound_id=f"Thm4_annular_p[p={p:g},rho={rho:g}]",
            value=val_p,
            value_favorable=val_p,
            applicable=profile.c0cn_at_least_one,
            kind="report",
            hypothesis_notes="asymptotic: degree threshold n(eps, rho) unquantified",
        )
    )
    factor = 1.0 - e_mid + 1.0 / (math.e * math.log(n + 1.0))
    eps_dprime = factor * eps_prime
    c_val = thm4_constant(n, e_mid)
    val_gn = math.sqrt(math.log(n + 1.0) / n) * (c_val + eps_dprime)
    entries.append(
        BoundEntry(
            bound_id=f"Thm4_annular_Gn[p={p:g},rho={rho:g}]",
            value=val_gn,
            value_favorable=val_gn,
            applicable=gn_member,
            kind="report",
            hypothesis_notes="asymptotic: degree threshold n(eps, rho) unquantified",
        )
    )
    return {e.bound_id: e for e in entries}


@dataclass(frozen=True)
class GearBound:
    variant: str
    theta: float
    delta: float
    exact_form: float
    closed_form: float
    applicable: bool
    hypothesis_notes: str = ""


def gear_zero_upper_bound(
    n: int,
    B: float,
    theta: float,
    delta: float,
    variant: str,
    gear: GearWheel,
) -> GearBound:
    """Upper bound on zeros inside a gear wheel built from the same radius.

    ``exact_form = n - G sqrt(n) (2B)^theta`` consumes the realized tooth
    count ``G``; ``closed_form = n (1 - 0.97 pi / (c (1 + delta)))`` with
    ``c = 7`` (sup variant) or ``9`` (p variant).  The exact form is the one
    certified against counts.
    """
    if variant not in _RADIUS_COEFFICIENTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not 0.5 <= theta <= 1.0:
        raise ValueError("theta must be in [1/2, 1]")
    c = _RADIUS_COEFFICIENTS[variant]
    gamma = _radius(n, B, theta, variant)
    notes = []
    ok = True
    if gamma > 0.5:
        ok = False
        notes.append(f"radius {gamma:.4g} > 1/2")
    if abs(gamma - gear.gamma) > 1e-9 * max(1.0, gamma):
        ok = False
        notes.append("gear was built with a different radius")
    if gear.wide:
        ok = False
        notes.append("construction-only gear (gamma > 1/2)")
    exact = n - gear.teeth * math.sqrt(n) * (2.0 * B) ** theta
    closed = n * (1.0 - 0.97 * math.pi / (c * (1.0 + delta)))
    return GearBound(
        variant=variant,
        theta=theta,
        delta=delta,
        exact_form=exact,
        closed_form=closed,
        applicable=ok,
        hypothesis_notes="; ".join(notes),
    )


def min_degree_for_radius(coefficient: float, bound: float) -> int:
    """Smallest integer ``n >= 2`` with ``coefficient * log(n)/sqrt(n) <= bound``.

    The map is increasing up to ``n = e^2`` and decreasing after, so after a
    direct scan of the first few integers a binary search on the decreasing
    branch finds the threshold with the exact postcondition
    ``f(n) <= bound < f(n-1)``.
    """
    if not (0.0 < coefficient < math.inf and 0.0 < bound < math.inf):  # also false for nan
        raise ValueError("coefficient and bound must be positive and finite")
    f = lambda n: coefficient * math.log(n) / math.sqrt(n)
    for n in range(2, 9):
        if f(n) <= bound:
            return n
    lo, hi = 8, 16
    while f(hi) > bound:
        lo, hi = hi, hi * 2
        if hi > 2**62:
            raise ValueError("threshold out of range")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) <= bound:
            hi = mid
        else:
            lo = mid
    return hi
