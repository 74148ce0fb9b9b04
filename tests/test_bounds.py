import math

import mpmath
import numpy as np
import pytest

from polyzero.geometry import build_gear
from polyzero.norms import compute_profile
from polyzero.poly import FamilySpec, Polynomial, make_family
from polyzero.roots import find_roots, rootset_from_known
from polyzero.bounds import (
    CARNEIRO_C,
    ERDOS_TURAN_C,
    SOUNDARARAJAN_C,
    annular_bounds,
    catalan_constant,
    discrepancy_bounds,
    disk_lower_bound,
    ganelius_constant,
    gear_zero_upper_bound,
    min_degree_for_radius,
    thm4_constant,
)

# Catalan's constant, 30 digits (standard tables).
CATALAN_REF = 0.915965594177219015054603514932


def erf_series(x: float, terms: int = 60) -> float:
    """Maclaurin series oracle for erf, accurate to ~1e-15 on [0, 4]."""
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * x ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
    return 2.0 / math.sqrt(math.pi) * total


class TestConstants:
    def test_catalan_series_value(self):
        assert catalan_constant() == float(mpmath.catalan)
        assert abs(catalan_constant() - CATALAN_REF) < 1e-14
        assert 0.91596559 <= catalan_constant() <= 0.91596560

    def test_ganelius_constant_is_formula(self):
        c = ganelius_constant()
        assert abs(c * c * catalan_constant() - 2 * math.pi) < 1e-12
        assert abs(c - 2.6190895861472394) < 1e-12

    def test_soundararajan_and_carneiro(self):
        assert abs(SOUNDARARAJAN_C - 2.5464) < 1e-4
        assert abs(CARNEIRO_C - 4 / math.sqrt(math.pi)) == 0.0
        assert CARNEIRO_C < SOUNDARARAJAN_C < ganelius_constant() < ERDOS_TURAN_C

    def test_erf_against_series_oracle(self):
        for x in np.linspace(0.0, 4.0, 200):
            assert abs(math.erf(x) - erf_series(float(x))) <= 1e-10
        assert math.erf(0.0) == 0.0
        assert math.erf(40.0) == pytest.approx(1.0, abs=1e-15)

    def test_thm4_constant_cap(self):
        worst = max(
            math.sqrt((8 / math.pi) * (1 - e + 1 / (math.e * math.log(n + 1))))
            for n in (1, 2, 5, 10, 100, 10**6)
            for e in np.linspace(0, 1, 101)
        )
        assert worst <= 1.9744
        assert abs(worst - 1.9743332836252947) < 1e-12
        assert thm4_constant(100, 0.5) <= math.sqrt(2.0)
        assert thm4_constant(100, 0.9) == math.sqrt(
            (8 / math.pi) * (1 - 0.9 + 1 / (math.e * math.log(101)))
        )

    def test_thm4_constant_sqrt2_branch(self):
        # |E| < 1 - pi/4 forces the sqrt(2) branch.
        for n in (4, 64, 4096):
            assert thm4_constant(n, 0.1) == math.sqrt(2.0)


class TestMinDegreeForRadius:
    def postcondition(self, coeff, bound, n):
        f = lambda m: coeff * math.log(m) / math.sqrt(m)
        assert f(n) <= bound
        if n > 2:
            assert f(n - 1) > bound

    def test_nine_over_one(self):
        n = min_degree_for_radius(9.0, 1.0)
        assert n == 6170
        self.postcondition(9.0, 1.0, n)

    def test_thirty_three_pi(self):
        # 33 pi log(n)/sqrt(n) <= 1 first holds at n = 2307257; the
        # commonly quoted 2307256 misses by 1.6e-7 (see ledger).
        n = min_degree_for_radius(33.0 * math.pi, 1.0)
        assert n == 2307257
        self.postcondition(33.0 * math.pi, 1.0, n)

    def test_nine_over_half(self):
        # 9 log(n)/sqrt(n) <= 1/2 first holds at n = 35583 (35582 misses
        # by 4.2e-6).
        n = min_degree_for_radius(9.0, 0.5)
        assert n == 35583
        self.postcondition(9.0, 0.5, n)

    def test_immediate_clamp(self):
        assert min_degree_for_radius(1.0, 1.0) == 2

    def test_random_postcondition(self, rng):
        for _ in range(20):
            coeff = float(rng.uniform(0.5, 50.0))
            bound = float(rng.uniform(0.05, 2.0))
            self.postcondition(coeff, bound, min_degree_for_radius(coeff, bound))

    def test_validation(self):
        with pytest.raises(ValueError):
            min_degree_for_radius(-1.0, 1.0)


@pytest.fixture(scope="module")
def littlewood_profile():
    p = make_family(FamilySpec("littlewood", 24, seed=11))
    return p, compute_profile(p, roots=find_roots(p, tol=1e-11))


class TestDiscrepancyBounds:
    def test_constant_ordering_on_profile(self, littlewood_profile):
        _, prof = littlewood_profile
        table = discrepancy_bounds(prof, 24, kn_member=True)
        assert table["CarneiroBp∞"].value <= table["Soundararajan"].value
        assert table["Soundararajan"].value <= table["Mignotte"].value
        assert table["Mignotte"].value <= table["Ganelius"].value * (
            1.0 + 1e-12
        )  # same norm term, Mignotte constant equals Ganelius's
        assert table["Ganelius"].value <= table["ET16"].value

    def test_shu_wang_against_degree_one(self):
        # 1 + z: B_inf = log 2, observed discrepancy is 1.
        p = Polynomial((1, 1))
        prof = compute_profile(p, roots=find_roots(p))
        table = discrepancy_bounds(prof, 1, kn_member=True)
        sw = table["ShuWang"]
        assert sw.applicable
        assert sw.value == pytest.approx(math.sqrt(2 * math.log(2)), abs=1e-5)
        assert sw.value >= 1.0  # dominates the observed discrepancy

    def test_power_minus_one_family(self):
        # z^n - 1: B_inf = log 2, bound sqrt(2 log 2 / n) >= 1/n for all n.
        for n in (4, 9, 25, 64):
            assert math.sqrt(2 * math.log(2) / n) >= 1.0 / n

    def test_corollary_entries_need_unimodular(self, littlewood_profile):
        _, prof = littlewood_profile
        table = discrepancy_bounds(prof, 24, kn_member=False)
        assert not table["CorollaryKn"].applicable
        assert table["CorollaryKnErf"].kind == "report"

    def test_prop_entry_per_exponent(self, littlewood_profile):
        _, prof = littlewood_profile
        table = discrepancy_bounds(prof, 24, p_list=(1.0, 2.0), kn_member=True)
        e1 = table["PropThm0_p[p=1]"]
        e2 = table["PropThm0_p[p=2]"]
        assert e1.applicable and e2.applicable
        assert e1.value <= e1.value_favorable
        assert e2.value <= e2.value_favorable


class TestDiskLowerBound:
    def test_gn_applicability_threshold(self):
        # gamma = 9 log(n)/sqrt(n) <= 1 first holds at the same degree the
        # threshold search reports.
        n_star = min_degree_for_radius(9.0, 1.0)
        below = disk_lower_bound(n_star - 1, 0.0, 1.0, "Gn_9", gn_member=True)
        at = disk_lower_bound(n_star, 0.0, 1.0, "Gn_9", gn_member=True)
        assert not below.applicable and below.gamma > 1.0
        assert at.applicable and at.gamma <= 1.0

    def test_sup7_arithmetic(self):
        d = disk_lower_bound(10**4, math.log(2), 1.0, "sup_7", c0_nonzero=True)
        assert d.gamma == pytest.approx(7 * 2 * math.log(2) / 100.0)
        assert d.min_zeros == pytest.approx(100 * 2 * math.log(2))
        assert d.applicable

    def test_p9_needs_hypotheses(self):
        d = disk_lower_bound(10**4, 0.5, 1.0, "p_9", c0cn_ge_1=False, pnorm_ge_1=True)
        assert not d.applicable
        assert "c0 cn" in d.hypothesis_notes

    @pytest.mark.parametrize("variant, name", [("sup_7", "B_inf"), ("p_9", "B_p")])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_negative_b_is_inapplicable_with_real_values(self, variant, name, theta):
        # A conservative B end below 0 once made the fractional power complex.
        d = disk_lower_bound(10**4, -0.25, theta, variant, c0cn_ge_1=True, pnorm_ge_1=True)
        assert not d.applicable
        assert d.gamma == 0.0 and d.min_zeros == 0.0
        assert d.hypothesis_notes == f"{name} not certified positive"

    def test_custom_radius_constants(self):
        n = 2307257
        d = disk_lower_bound(n, 0.0, 1.0, "custom_radius", gn_member=True)
        assert d.gamma == pytest.approx(33 * math.pi * math.log(n) / math.sqrt(n))
        assert d.gamma <= 1.0
        assert d.min_zeros == pytest.approx(31 * math.sqrt(n) * math.log(n))
        # One degree lower the radius cap fails.
        assert not disk_lower_bound(n - 1, 0.0, 1.0, "custom_radius", gn_member=True).applicable

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            disk_lower_bound(100, 1.0, 0.3, "sup_7")


class TestAnnularBounds:
    def test_formula_values(self, littlewood_profile):
        _, prof = littlewood_profile
        n, rho, p_exp = 24, 0.5, 2.0
        table = annular_bounds(prof, n, rho, p_exp, gn_member=True)
        entry = table[f"Lem2_tau_outside[p=2,rho=0.5]"]
        assert entry.applicable
        from polyzero.norms import b_norm

        b_lo = b_norm(prof, 2.0).lo
        assert entry.value == pytest.approx(2 * b_lo / (n * (1 - rho)))
        ann = table[f"Lem2_annular[p=2,rho=0.5]"]
        b_inf_lo = b_norm(prof, math.inf).lo
        want = math.sqrt((2 / n) * min((8 / math.pi) * b_lo, b_inf_lo)) + 2 * b_lo / (n * (1 - rho))
        assert ann.value == pytest.approx(want)

    def test_thm4_entries_report_only(self, littlewood_profile):
        _, prof = littlewood_profile
        table = annular_bounds(prof, 24, 0.9, 1.0, gn_member=True)
        assert table["Thm4_annular_p[p=1,rho=0.9]"].kind == "report"
        assert table["Thm4_annular_Gn[p=1,rho=0.9]"].kind == "report"

    def test_explicit_product_inequality_value(self):
        # (z - 0.1)(z^4 - 1) at rho = 1/2: tau outside is 1/5; the formula
        # value dominates it numerically even though the |c0 cn| >= 1
        # hypothesis fails (the entry is marked inapplicable).
        coeffs = np.convolve([-0.1, 1], [-1, 0, 0, 0, 1])
        p = Polynomial(tuple(coeffs))
        rs = rootset_from_known(p, [0.1, 1, -1, 1j, -1j], tol=1e-10)
        prof = compute_profile(p, roots=rs)
        table = annular_bounds(prof, 5, 0.5, 2.0)
        entry = table["Lem2_tau_outside[p=2,rho=0.5]"]
        assert not entry.applicable
        assert entry.value >= 0.2

    def test_rho_validation(self, littlewood_profile):
        _, prof = littlewood_profile
        with pytest.raises(ValueError):
            annular_bounds(prof, 24, 1.0, 2.0)


class TestGearUpperBound:
    def test_closed_form_fractions(self):
        n = 100_000
        b = math.log(2)
        gamma = 9 * (2 * b) / math.sqrt(n)
        gear = build_gear(gamma, 0.0)
        gb = gear_zero_upper_bound(n, b, 1.0, 0.0, "p_9", gear)
        assert gb.closed_form == pytest.approx(n * (1 - 0.97 * math.pi / 9))
        assert gb.closed_form / n == pytest.approx(0.661, abs=5e-4)
        gamma7 = 7 * (2 * b) / math.sqrt(n)
        gear7 = build_gear(gamma7, 0.25)
        gb7 = gear_zero_upper_bound(n, b, 1.0, 0.25, "sup_7", gear7)
        assert gb7.closed_form == pytest.approx(n * (1 - 0.97 * math.pi / (7 * 1.25)))

    def test_exact_form_uses_realized_teeth(self):
        n = 100_000
        b = math.log(2)
        gamma = 7 * (2 * b) / math.sqrt(n)
        gear = build_gear(gamma, 0.0)
        gb = gear_zero_upper_bound(n, b, 1.0, 0.0, "sup_7", gear)
        assert gb.exact_form == pytest.approx(n - gear.teeth * math.sqrt(n) * 2 * b)
        assert gb.applicable

    def test_radius_cap(self):
        gear = build_gear(0.3, 0.0)
        gb = gear_zero_upper_bound(16, 1.0, 1.0, 0.0, "sup_7", gear)
        assert not gb.applicable  # gamma for n=16 is far above 1/2

    def test_wide_gear_is_inapplicable(self):
        # n = 49, B = 0.4: the sup_7 radius is 7 * 0.8 / 7 = 0.8, the gear's.
        gear = build_gear(0.8, 0.0, allow_wide=True)
        gb = gear_zero_upper_bound(49, 0.4, 1.0, 0.0, "sup_7", gear)
        assert not gb.applicable
        assert "construction-only gear" in gb.hypothesis_notes

    def test_gn_gear_applicability_threshold(self):
        n_star = min_degree_for_radius(9.0, 0.5)
        gamma_at = 9 * math.log(n_star) / math.sqrt(n_star)
        gamma_below = 9 * math.log(n_star - 1) / math.sqrt(n_star - 1)
        assert gamma_at <= 0.5 < gamma_below
