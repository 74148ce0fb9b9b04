"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py -v``).

Two sub-checks carry strict xfail markers: the quoted decimal for the
Catalan-based discrepancy constant and two radius-threshold integers are
inconsistent with their own defining formulas (verified at 50-digit
precision); the honest formula values are asserted in the main criteria and
the quoted figures are kept as expected failures so any change surfaces.
"""
import math
import time

import mpmath
import numpy as np
import pytest

from polyzero import geometry
from polyzero.bounds import (
    catalan_constant,
    disk_lower_bound,
    ganelius_constant,
    gear_zero_upper_bound,
    min_degree_for_radius,
    thm4_constant,
)
from polyzero.harness import (
    SweepConfig,
    stratified_center_angles,
    sweep,
)
from polyzero.norms import Interval, e_measure_enclosure, mahler, p_norm, sup_norm_enclosure
from polyzero.poly import FamilySpec, cyclotomic, lehmer_polynomial, make_family, power_minus_one, rudin_shapiro_pair, Polynomial
from polyzero.roots import find_roots, unit_roots_rootset
from polyzero.zerostats import angular_discrepancy, disk_counts

SEED = 20240817

CATALAN_REF = 0.915965594177219015054603514932


def report(num, failures, detail="", elapsed=None):
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE CRITERION {num}: {status}"
    if detail:
        line += f" — {detail}"
    if elapsed is not None:
        line += f" [{elapsed:.1f}s]"
    print(line)
    assert not failures, f"{line}; failures: {failures}"


# ---------------------------------------------------------------------------
# Criterion 6 + 9 + 11 share one default sweep; build it once.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_sweeps():
    results = {}
    t0 = time.time()
    for family in ("littlewood", "unimodular", "g_class"):
        cfg = SweepConfig(
            family=family,
            degrees=(16, 32, 64, 128, 256),
            trials=50,
            seed=SEED,
            p_list=(1.0, 2.0),
            theta_list=(0.5, 1.0),
            rho_list=(0.5, 0.9),
            disk_centers=720,
        )
        results[family] = sweep(cfg)
    results["elapsed"] = time.time() - t0
    return results


def test_criterion_1_reference_constants():
    t0 = time.time()
    failures = []
    cat = catalan_constant()
    if abs(cat - CATALAN_REF) > 1e-8:
        failures.append(f"catalan {cat}")
    gan = ganelius_constant()
    # The defining formula sqrt(2 pi / k); its frozen evaluation at the
    # reference Catalan value.
    if abs(gan - math.sqrt(2.0 * math.pi / CATALAN_REF)) > 1e-4:
        failures.append(f"ganelius {gan}")
    if abs(8.0 / math.pi - 2.5464) > 1e-4:
        failures.append("soundararajan")
    c_cap = max(
        thm4_constant_first_arg(n, e)
        for n in (1, 2, 10, 100, 10**6)
        for e in np.linspace(0.0, 1.0, 101)
    )
    if not (1.974 <= c_cap <= 1.9744):
        failures.append(f"thm4 cap {c_cap}")
    if thm4_constant(100, 0.5) > 1.9744:
        failures.append("thm4 min")
    frac = 1.0 - 0.97 * math.pi / 9.0
    if abs(frac - 0.661) > 5e-4:
        failures.append(f"gear fraction {frac}")
    report(1, failures, "constants from defining formulas", time.time() - t0)


def thm4_constant_first_arg(n, e):
    return math.sqrt((8.0 / math.pi) * (1.0 - e + 1.0 / (math.e * math.log(n + 1.0))))


@pytest.mark.xfail(
    strict=True,
    reason="quoted decimal 2.5619 is inconsistent with its defining series: "
    "sqrt(2*pi/0.9159655941...) = 2.6190895861...",
)
def test_criterion_1_quoted_ganelius_decimal():
    assert abs(ganelius_constant() - 2.5619) <= 1e-4


def test_criterion_2_radius_thresholds():
    t0 = time.time()
    failures = []

    def check(coeff, bound, expected):
        n = min_degree_for_radius(coeff, bound)
        f = lambda m: coeff * math.log(m) / math.sqrt(m)
        if n != expected:
            failures.append(f"({coeff:.6g},{bound}) -> {n} != {expected}")
        if not (f(n) <= bound < f(n - 1)):
            failures.append(f"postcondition at {n}")

    check(9.0, 1.0, 6170)
    # The two larger thresholds land one past the quoted integers: at the
    # quoted degrees the radius condition still fails by 1.6e-7 / 4.2e-6
    # (checked at 50-digit precision).
    check(33.0 * math.pi, 1.0, 2307257)
    check(9.0, 0.5, 35583)
    report(2, failures, "6170 / 2307257 / 35583 with exact postconditions", time.time() - t0)


@pytest.mark.xfail(
    strict=True,
    reason="33*pi*log(n)/sqrt(n) <= 1 first holds at n = 2307257 and "
    "9*log(n)/sqrt(n) <= 1/2 at n = 35583; the quoted 2307256/35582 miss "
    "their own inequalities by 1.6e-7 and 4.2e-6",
)
def test_criterion_2_quoted_threshold_integers():
    assert min_degree_for_radius(33.0 * math.pi, 1.0) == 2307256
    assert min_degree_for_radius(9.0, 0.5) == 35582


def test_criterion_3_mahler_measures():
    t0 = time.time()
    failures = []
    leh = lehmer_polynomial()
    rs = find_roots(leh, tol=1e-12)
    m_roots, _ = mahler(leh, roots=rs)
    m_quad, _ = mahler(leh, method="quadrature", tol=1e-9)
    if abs(m_roots - 1.1762808) > 1e-6:
        failures.append(f"lehmer from_roots {m_roots}")
    if abs(m_quad - 1.1762808) > 1e-6:
        failures.append(f"lehmer quadrature {m_quad}")
    coeffs = np.array([1.0])
    for d in (1, 2, 3, 4, 6):
        coeffs = np.convolve(coeffs, np.array(cyclotomic(d), dtype=float))
    cyc = Polynomial(tuple(coeffs))
    m_c_roots, _ = mahler(cyc, roots=find_roots(cyc, tol=1e-12))
    m_c_quad, _ = mahler(cyc, method="quadrature", tol=1e-11)
    if abs(m_c_roots - 1.0) > 1e-10:
        failures.append(f"cyclotomic from_roots {m_c_roots}")
    if abs(m_c_quad - 1.0) > 1e-10:
        failures.append(f"cyclotomic quadrature {m_c_quad}")
    seeded = make_family(FamilySpec("cyclotomic_product", 16, seed=SEED))
    m_s, _ = mahler(seeded, roots=find_roots(seeded, tol=1e-12))
    if abs(m_s - 1.0) > 1e-10:
        failures.append(f"seeded product {m_s}")
    report(3, failures, "Lehmer 1.1762808 both routes; cyclotomic products at 1", time.time() - t0)


def test_criterion_4_rudin_shapiro():
    t0 = time.time()
    failures = []
    for k in range(0, 11):
        pk, _ = rudin_shapiro_pair(k)
        want = 2.0 ** (k / 2.0)
        coeff_norm = math.sqrt(sum(abs(c) ** 2 for c in pk.coeffs))
        if abs(coeff_norm - want) > 1e-12 * want:
            failures.append(f"coefficient norm k={k}")
        quad = p_norm(pk, 2.0, tol=1e-10)
        with mpmath.workdps(30):
            exact_in = mpmath.mpf(2) ** (mpmath.mpf(k) / 2) in quad
        if not exact_in or quad.width > 1e-8 * want:
            failures.append(f"quadrature norm k={k}: {quad}")
    print("  Rudin-Shapiro |E| enclosures (report-only, reference 2^-(k+1)):")
    for k in range(8, 13):
        pk, _ = rudin_shapiro_pair(k)
        enc, tangency = e_measure_enclosure(pk, tol=1e-9)
        ref = 2.0 ** -(k + 1)
        print(
            f"    k={k:2d}: |E| in [{enc.lo:.6e}, {enc.hi:.6e}]"
            f"  reference {ref:.6e}  tangency={tangency}"
        )
    report(4, failures, "norm identities exact; |E| reported for k=8..12", time.time() - t0)


def test_criterion_5_discrepancy_exactness():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(SEED)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        p = make_family(FamilySpec("littlewood", n, seed=int(rng.integers(2**62))))
        rs = find_roots(p, tol=1e-11)
        exact = angular_discrepancy(rs)
        grid = np.arange(10_000) / 10_000
        counts = np.searchsorted(np.sort(rs.args_turns), grid, side="left")
        g = counts / n - grid
        oracle = float(g.max() - g.min())
        if not (oracle - 1e-12 <= exact <= oracle + 2 * math.pi * n / 10_000):
            failures.append(f"grid oracle mismatch n={n}: {exact} vs {oracle}")
        checked += 1
    for n in range(1, 65):
        d = angular_discrepancy(unit_roots_rootset(n))
        if abs(d - 1.0 / n) > 1e-14:
            failures.append(f"D(z^{n}-1) = {d}")
    report(5, failures, f"{checked} random instances vs grid oracle; D(z^n-1)=1/n", time.time() - t0)


def test_criterion_6_discrepancy_certification_sweep(default_sweeps):
    failures = []
    pass_count = 0
    for family in ("littlewood", "unimodular", "g_class"):
        result = default_sweeps[family]
        if result.hard_violation_count:
            failures.append(f"{family}: {result.hard_violation_count} hard violations")
        for bound_id, slot in result.aggregates["per_bound"].items():
            if slot["violation"]:
                failures.append(f"{family}/{bound_id}")
            if bound_id.startswith(("ShuWang", "PropThm0", "CorollaryKn")):
                pass_count += slot["pass"]
    if pass_count < 1000:
        failures.append(f"suspiciously few applicable certifications: {pass_count}")
    report(
        6,
        failures,
        f"750 instances x all bounds, zero hard violations ({pass_count} direct passes)",
        default_sweeps["elapsed"],
    )


def _analytic_b2_unit_roots() -> float:
    # For z^n - 1: |P(e(t))| = 2|sin(pi n t)| < 1 on measure exactly 1/3,
    # and ||P||_2 = sqrt(2), |c0 cn| = 1, so
    # B_2 = (2/3) log sqrt(2) + 1/(2e).
    return (2.0 / 3.0) * 0.5 * math.log(2.0) + 1.0 / (2.0 * math.e)


def test_criterion_7_disk_lower_bounds():
    t0 = time.time()
    failures = []
    centers = stratified_center_angles(720, SEED)

    def check_disk(tag, roots, cons, fav):
        open_c, _ = disk_counts(roots, centers, cons.gamma)
        if open_c.min() < fav.min_zeros:
            failures.append(
                f"{tag}: min count {open_c.min()} < required {fav.min_zeros:.1f}"
            )

    for n in (10**4, 10**5):
        p = power_minus_one(n)
        roots = unit_roots_rootset(n)
        sup = sup_norm_enclosure(p, tol=5e-3, max_points=2**22)
        b_inf = Interval(math.log(sup.lo), math.log(sup.hi))
        two_norm = p_norm(p, 2.0, tol=1e-10, max_points=2**23)
        with mpmath.workdps(30):
            assert mpmath.sqrt(2) in two_norm
        assert two_norm.width < 1e-9
        b2 = _analytic_b2_unit_roots()
        for theta in (0.5, 1.0):
            cons = disk_lower_bound(n, b_inf.lo, theta, "sup_7", c0_nonzero=True)
            fav = disk_lower_bound(n, b_inf.hi, theta, "sup_7", c0_nonzero=True)
            assert cons.applicable and fav.applicable
            check_disk(f"z^{n}-1 sup_7 theta={theta}", roots, cons, fav)
            d2 = disk_lower_bound(n, b2, theta, "p_9", c0cn_ge_1=True, pnorm_ge_1=True)
            assert d2.applicable
            check_disk(f"z^{n}-1 p_9 theta={theta}", roots, d2, d2)
            d3 = disk_lower_bound(n, 0.0, theta, "Gn_9", gn_member=True)
            assert d3.applicable
            check_disk(f"z^{n}-1 Gn_9 theta={theta}", roots, d3, d3)

    n = 8192
    p = make_family(FamilySpec("g_class", n, seed=SEED))
    roots = find_roots(p, tol=1e-8)
    sup = sup_norm_enclosure(p, tol=1e-3, max_points=2**22)
    b_inf = Interval(math.log(sup.lo), math.log(sup.hi))
    for theta in (0.5, 1.0):
        d3 = disk_lower_bound(n, 0.0, theta, "Gn_9", gn_member=True)
        assert d3.applicable and d3.gamma <= 1.0
        check_disk(f"g_class8192 Gn_9 theta={theta}", roots, d3, d3)
        cons = disk_lower_bound(n, b_inf.lo, theta, "sup_7", c0_nonzero=True)
        fav = disk_lower_bound(n, b_inf.hi, theta, "sup_7", c0_nonzero=True)
        if cons.applicable and fav.applicable:
            check_disk(f"g_class8192 sup_7 theta={theta}", roots, cons, fav)
    report(7, failures, "720 centers per variant, zero undercounts", time.time() - t0)


def test_criterion_8_gear_wheel():
    t0 = time.time()
    failures = []
    if geometry.build_gear(0.04, 0.0).teeth != 78:
        failures.append("78-tooth gear")
    gear48 = geometry.build_gear(math.pi / 60.0, 0.2577)
    if gear48.teeth != 48:
        failures.append("48-tooth gear")
    if abs(gear48.tooth_width_actual - math.pi / 120.0) > 1e-4:
        failures.append("48-tooth gear width")

    n = 10**5
    p = power_minus_one(n)
    roots = unit_roots_rootset(n)
    sup = sup_norm_enclosure(p, tol=5e-3, max_points=2**22)
    b2 = _analytic_b2_unit_roots()
    cases = [("sup_7", math.log(sup.lo)), ("sup_7", math.log(sup.hi)), ("p_9", b2)]
    for delta in (0.0, 0.25):
        for variant, b_val in cases:
            coeff = 7.0 if variant == "sup_7" else 9.0
            gamma = coeff * (2.0 * b_val) / math.sqrt(n)
            gear = geometry.build_gear(gamma, delta)
            gb = gear_zero_upper_bound(n, b_val, 1.0, delta, variant, gear)
            assert gb.applicable
            count = int(np.sum(geometry.contains(gear, roots.roots)))
            if count > gb.exact_form:
                failures.append(
                    f"{variant} delta={delta} B={b_val:.4f}: {count} > {gb.exact_form:.1f}"
                )
            if count > gb.closed_form:
                failures.append(f"{variant} delta={delta}: closed form")
    report(8, failures, "z^1e5-1 gear counts below exact-form bounds; 78/48 teeth", time.time() - t0)


def test_criterion_9_annular_bounds(default_sweeps):
    failures = []
    lem2_applicable = 0
    thm4_present = 0
    for family in ("littlewood", "unimodular", "g_class"):
        for bound_id, slot in default_sweeps[family].aggregates["per_bound"].items():
            if bound_id.startswith("Lem2"):
                if slot["violation"]:
                    failures.append(f"{family}/{bound_id}")
                lem2_applicable += slot["applicable"]
            if bound_id.startswith("Thm4"):
                thm4_present += slot["applicable"]
                if slot["violation"]:
                    failures.append(f"{family}/{bound_id} (report entry must never fail hard)")
    if lem2_applicable < 1000:
        failures.append(f"Lem2 entries mostly inapplicable: {lem2_applicable}")
    if thm4_present < 1000:
        failures.append("Thm4 margins not recorded")
    report(
        9,
        failures,
        f"Lem2 hard-certified ({lem2_applicable} applicable), Thm4 margins only ({thm4_present})",
    )


def test_criterion_10_geometry_properties():
    t0 = time.time()
    failures = []
    x = np.linspace(0.0, 1.0, 10_001)
    lhs = np.arcsin(x)
    rhs = math.pi * x / (2.0 + (math.pi - 2.0) * np.sqrt(1.0 - x * x))
    viol = int(np.sum(lhs > rhs + 1e-12))
    if viol:
        failures.append(f"arcsin bound: {viol} grid violations")
    g = np.linspace(1e-9, 0.5, 500_001)
    vals = (1.0 - ((math.pi - 2.0) / (2.0 * math.pi)) * g**2) * (1.0 - g**2 / 4.0) ** (-0.25)
    if vals.min() <= 0.97:
        failures.append(f"0.97 constant: min {vals.min()}")
    rng = np.random.default_rng(SEED)
    for alpha in (0.05, 0.2, 0.5, 0.8):
        for delta in (0.1, 0.5, 1.0):
            cd = geometry.covering_disk(alpha, delta)
            r_in, r_out = 1.0 - alpha, 1.0 / (1.0 - alpha)
            m = 100_000
            pick = rng.integers(0, 3, m)
            rad = np.where(
                pick == 0, r_out, np.where(pick == 1, r_in, r_in + (r_out - r_in) * rng.random(m))
            )
            sign = np.where(rng.random(m) < 0.5, 1.0, -1.0)
            ang = sign * np.where(pick == 2, 1.0, rng.random(m)) * delta
            w = rad * np.exp(1j * ang)
            corners = np.array(
                [r * np.exp(1j * s * delta) for r in (r_in, r_out) for s in (-1.0, 1.0)]
            )
            bad = int(np.sum(np.abs(np.concatenate([w, corners]) - 1.0) > cd.radius + 1e-12))
            if bad:
                failures.append(f"covering ({alpha},{delta}): {bad} escapes")
    report(10, failures, "Shafer-Fink, 0.97 bound, covering disks: zero violations", time.time() - t0)


def test_criterion_11_reproducibility():
    t0 = time.time()
    cfg = SweepConfig(
        family="littlewood", degrees=(16,), trials=5, seed=SEED, disk_centers=64
    )
    first = sweep(cfg)
    second = sweep(cfg)
    failures = []
    if first.to_csv() != second.to_csv():
        failures.append("CSV bytes differ")
    if first.to_json() != second.to_json():
        failures.append("JSON bytes differ (timing excluded)")
    report(11, failures, "repeated sweep byte-identical", time.time() - t0)
