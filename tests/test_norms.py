import math

import mpmath
import numpy as np
import pytest

from polyzero import norms
from polyzero.harness import SweepConfig, certify
from polyzero.poly import (
    FamilySpec,
    Polynomial,
    cyclotomic,
    lehmer_polynomial,
    make_family,
    power_minus_one,
    rudin_shapiro_pair,
)
from polyzero.roots import find_roots
from polyzero.norms import (
    Interval,
    b_norm,
    b_norm_interval,
    classify_unit_level,
    compute_profile,
    e_measure_enclosure,
    mahler,
    mahler_plus,
    p_norm,
    sup_norm_enclosure,
)

ONE_PLUS_Z = Polynomial((1, 1))


def riemann_mean(p, func, points=1_000_000):
    """Midpoint-rule oracle for circle means, independent of the FFT path."""
    t = (np.arange(points) + 0.5) / points
    z = np.exp(2j * np.pi * t)
    acc = np.zeros(points)
    vals = np.zeros(points, dtype=complex)
    vals += p.coeffs[-1]
    for c in p.coeffs[-2::-1]:
        vals = vals * z + c
    return float(np.mean(func(np.abs(vals))))


class TestPNorm:
    def test_parseval_one_plus_z(self):
        assert abs(p_norm(ONE_PLUS_Z, 2.0) - math.sqrt(2)) < 1e-12

    def test_rudin_shapiro_two_norm(self):
        for k in (2, 5, 8):
            pk, _ = rudin_shapiro_pair(k)
            assert abs(p_norm(pk, 2.0) - 2 ** (k / 2)) < 1e-10 * 2 ** (k / 2)

    def test_four_norm_closed_form(self):
        # mean of (2 + 2 cos(2 pi t))^2 is 6, so ||1+z||_4 = 6^(1/4);
        # cross-checked against a million-point Riemann sum.
        val = p_norm(ONE_PLUS_Z, 4.0, tol=1e-11)
        assert abs(val - 6**0.25) < 1e-10
        oracle = riemann_mean(ONE_PLUS_Z, lambda m: m**4) ** 0.25
        assert abs(val - oracle) < 1e-5

    def test_parseval_identity_families(self):
        for kind, n in (("littlewood", 64), ("unimodular", 256), ("g_class", 128)):
            p = make_family(FamilySpec(kind, n, seed=2))
            lhs = p_norm(p, 2.0) ** 2
            rhs = float(np.sum(np.abs(p.coefficient_array()) ** 2))
            assert abs(lhs - rhs) <= 1e-9 * rhs

    def test_norm_monotonicity(self):
        p = make_family(FamilySpec("littlewood", 24, seed=5))
        exps = (0.5, 1.0, 2.0, 4.0)
        vals = [p_norm(p, e, tol=1e-10) for e in exps]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-9

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            p_norm(ONE_PLUS_Z, 0.0)
        with pytest.raises(ValueError):
            p_norm(ONE_PLUS_Z, math.inf)


class TestSupNorm:
    def test_one_plus_z(self):
        enc = sup_norm_enclosure(ONE_PLUS_Z, tol=1e-9)
        assert 2.0 in enc
        assert enc.width < 1e-8

    def test_monomial_constant_modulus(self):
        enc = sup_norm_enclosure(Polynomial((0, 0, 0, 0, 0, 1)))
        assert abs(enc.lo - 1.0) < 1e-12
        assert 1.0 in enc

    def test_contains_dense_grid_max(self):
        p = make_family(FamilySpec("littlewood", 16, seed=7))
        t = np.arange(1_000_000) / 1_000_000
        z = np.exp(2j * np.pi * t)
        vals = np.zeros_like(z) + p.coeffs[-1]
        for c in p.coeffs[-2::-1]:
            vals = vals * z + c
        dense_max = float(np.abs(vals).max())
        enc = sup_norm_enclosure(p, tol=1e-9)
        # The oracle max sits below the true sup, hence below hi; the
        # enclosure's own sampling may legitimately beat the oracle grid.
        assert dense_max <= enc.hi
        assert dense_max >= enc.lo - 1e-6

    def test_degree_zero(self):
        enc = sup_norm_enclosure(Polynomial((3 - 4j,)))
        assert enc.lo == enc.hi == 5.0


class TestEMeasure:
    def test_constant_above(self):
        enc, tangency = e_measure_enclosure(Polynomial((0, 2)))
        assert enc.lo == enc.hi == 0.0
        assert not tangency

    def test_constant_below(self):
        enc, tangency = e_measure_enclosure(Polynomial((0, 0.5)))
        assert enc.lo == enc.hi == 1.0
        assert not tangency

    def test_one_plus_z_third(self):
        # |1 + e(t)| = 2|cos(pi t)| < 1 exactly for t in (1/3, 2/3).
        enc, tangency = e_measure_enclosure(ONE_PLUS_Z, tol=1e-8)
        assert 1.0 / 3.0 in enc
        assert enc.width < 1e-6
        assert not tangency

    def test_degenerate_monomial_flags_tangency(self):
        enc, tangency = e_measure_enclosure(Polynomial((0, 0, 0, 1)), tol=1e-6)
        assert tangency
        assert enc.lo == 0.0 and enc.hi == 1.0

    def test_shifted_level_set(self):
        # |c + z| < 1 on an arc computable in closed form: for c = 1.2 the
        # boundary is cos(2 pi t) = (1 - c^2 - 1)/(2c) -> t measure from arccos.
        c = 1.2
        p = Polynomial((c, 1))
        width = math.acos((1.0 - c * c - 1.0) / (2.0 * c)) / math.pi
        expected = 1.0 - width
        enc, _ = e_measure_enclosure(p, tol=1e-9)
        assert enc.lo - 1e-8 <= expected <= enc.hi + 1e-8

    def test_crossings_located(self):
        info = classify_unit_level(ONE_PLUS_Z, min_width=1e-10)
        mids = sorted(0.5 * (a + b) for a, b in info.crossings)
        assert len(mids) == 2
        assert abs(mids[0] - 1.0 / 3.0) < 1e-9
        assert abs(mids[1] - 2.0 / 3.0) < 1e-9


class TestMahler:
    def test_kronecker_cyclotomic(self):
        p = Polynomial(tuple(float(v) for v in cyclotomic(3)))
        val, log_val = mahler(p, method="quadrature", tol=1e-11)
        assert abs(val - 1.0) < 1e-10
        rs = find_roots(p, tol=1e-12)
        val_r, _ = mahler(p, roots=rs)
        assert abs(val_r - 1.0) < 1e-10

    def test_root_inside_disk(self):
        p = Polynomial((-1, 2))  # 2z - 1, root 1/2
        rs = find_roots(p)
        val, _ = mahler(p, roots=rs)
        assert abs(val - 2.0) < 1e-12
        val_q, _ = mahler(p, method="quadrature", tol=1e-10)
        assert abs(val_q - 2.0) < 1e-8

    def test_lehmer_both_methods(self):
        p = lehmer_polynomial()
        rs = find_roots(p, tol=1e-12)
        val_r, _ = mahler(p, roots=rs)
        val_q, _ = mahler(p, method="quadrature", tol=1e-9)
        assert abs(val_r - 1.1762808) < 1e-6
        assert abs(val_q - 1.1762808) < 1e-6

    @pytest.mark.parametrize("n,seed", [(10, 1), (30, 2), (50, 3)])
    def test_method_agreement_random(self, n, seed):
        p = make_family(FamilySpec("littlewood", n, seed=seed))
        rs = find_roots(p, tol=1e-11)
        val_r, _ = mahler(p, roots=rs)
        val_q, _ = mahler(p, method="quadrature", tol=1e-9)
        assert abs(val_r - val_q) <= 1e-6 * val_r

    def test_from_roots_requires_rootset(self):
        with pytest.raises(ValueError):
            mahler(ONE_PLUS_Z, method="from_roots")


class TestMahlerPlus:
    def test_constant_above_one(self):
        val, _ = mahler_plus(Polynomial((0, 2)))
        assert abs(val - 2.0) < 1e-12

    def test_constant_below_one(self):
        val, log_val = mahler_plus(Polynomial((0, 0.5)))
        assert val == 1.0 and log_val == 0.0

    def test_against_riemann_oracle(self):
        _, mp = mahler_plus(ONE_PLUS_Z, tol=1e-10)
        oracle = riemann_mean(ONE_PLUS_Z, lambda m: np.maximum(np.log(m), 0.0))
        assert abs(mp - oracle) < 1e-6

    def test_ordering_chain(self):
        for kind, n, seed in (("g_class", 12, 4), ("littlewood", 40, 9), ("unimodular", 24, 2)):
            p = make_family(FamilySpec(kind, n, seed=seed))
            rs = find_roots(p, tol=1e-10)
            prof = compute_profile(p, roots=rs)
            assert prof.mahler <= prof.mahler_plus + 1e-8
            assert prof.mahler_plus <= prof.sup_norm.hi + 1e-8


class TestBNorm:
    def test_b_infinity_example(self):
        from polyzero.norms import ProfileTolerances

        rs = find_roots(ONE_PLUS_Z)
        prof = compute_profile(ONE_PLUS_Z, roots=rs, tols=ProfileTolerances(sup_tol=1e-10))
        assert abs(b_norm(prof, math.inf) - math.log(2)) < 1e-8

    def test_b_two_closed_form(self):
        rs = find_roots(ONE_PLUS_Z)
        prof = compute_profile(ONE_PLUS_Z, roots=rs)
        target = math.log(2) / 3.0 + 1.0 / (2.0 * math.e)
        assert abs(b_norm(prof, 2.0) - target) < 1e-6

    def test_direction_ordering(self):
        p = make_family(FamilySpec("littlewood", 20, seed=3))
        prof = compute_profile(p, roots=find_roots(p))
        for exponent in (1.0, 2.0, math.inf):
            lo = b_norm(prof, exponent, "certify_lower")
            mid = b_norm(prof, exponent, "point")
            hi = b_norm(prof, exponent, "certify_upper")
            assert lo <= mid <= hi

    def test_g_class_trivial_bound(self):
        # For unimodular-end polynomials, B_2 <= (1/2) log(n+1) + 1/(2e).
        for seed in (1, 5, 9):
            p = make_family(FamilySpec("g_class", 12, seed=seed))
            prof = compute_profile(p, roots=find_roots(p))
            bound = 0.5 * math.log(13.0) + 0.5 / math.e
            assert b_norm(prof, 2.0, "certify_upper") <= bound + 1e-9

    def test_jensen_step(self):
        # m+(P) <= (1 - |E|_lo) log ||P||_p + 1/(e p) when ||P||_p >= 1.
        for kind, n, seed in (("littlewood", 18, 2), ("unimodular", 30, 7)):
            p = make_family(FamilySpec(kind, n, seed=seed))
            prof = compute_profile(p, roots=find_roots(p), p_list=(0.5, 1.0, 2.0, 4.0))
            for exponent in (0.5, 1.0, 2.0, 4.0):
                if prof.p_norms[exponent] < 1.0:
                    continue
                rhs = (1.0 - prof.e_measure.lo) * math.log(prof.p_norms[exponent])
                rhs += 1.0 / (math.e * exponent)
                assert prof.log_mahler_plus <= rhs + 1e-8

    def test_scaled_mahler_below_b(self):
        # m(P / sqrt|c0 cn|) <= B_p whenever |c0 cn| >= 1.
        for kind, n, seed in (("littlewood", 25, 3), ("unimodular", 40, 1)):
            p = make_family(FamilySpec(kind, n, seed=seed))
            prof = compute_profile(p, roots=find_roots(p))
            assert prof.c0cn_at_least_one
            for exponent in (1.0, 2.0):
                assert prof.log_mahler_scaled <= b_norm(prof, exponent, "certify_upper") + 1e-8

    def test_zero_constant_term_takes_the_limit(self):
        # P(0) = 0 sends log(1/sqrt|c0 cn|) to +inf; a zero weight 1 - |E| keeps B_p finite.
        z_plus_z2 = Polynomial((0, 1, 1))
        prof = compute_profile(z_plus_z2, roots=find_roots(z_plus_z2))
        assert math.isnan(prof.log_mahler_plus_scaled)
        assert b_norm_interval(prof, math.inf) == Interval(math.inf, math.inf)
        assert b_norm_interval(prof, 2.0) == Interval(math.inf, math.inf)
        half_z = Polynomial((0, 0.5))
        prof = compute_profile(half_z, roots=find_roots(half_z))
        assert prof.e_measure == Interval(1.0, 1.0)
        assert b_norm(prof, 2.0, "certify_lower") == b_norm(prof, 2.0, "certify_upper") == 0.5 / math.e

    def test_interval_helper(self):
        prof = compute_profile(ONE_PLUS_Z, roots=find_roots(ONE_PLUS_Z))
        iv = b_norm_interval(prof, 2.0)
        assert isinstance(iv, Interval)
        assert iv.lo <= iv.hi


class TestProfile:
    def test_quadrature_fallback_without_roots(self):
        prof = compute_profile(power_minus_one(6))
        assert abs(prof.mahler - 1.0) < 1e-8

    def test_flags_for_small_polynomial(self):
        prof = compute_profile(Polynomial((0.25, 0.25)), roots=find_roots(Polynomial((0.25, 0.25))))
        assert not prof.pnorm_at_least_one(2.0)
        assert not prof.c0cn_at_least_one


def _mahler_plus_oracle(p: Polynomial, scale: float = 1.0) -> float:
    """``integral_0^1 log+ |scale P(e(t))| dt`` by ``mpmath.quad``.

    Breakpoints: the crossings of ``|scale P| = 1`` (bracketed on a fine grid
    and bisected in float64), where the integrand has kinks, plus 2(n+1)
    uniform panels so that no panel holds more than a few oscillations.
    """
    c = scale * p.coefficient_array()
    g = lambda t: np.abs(np.polyval(c[::-1], np.exp(2j * np.pi * t))) - 1.0
    t = np.linspace(0.0, 1.0, 64 * (p.degree + 1) + 1)
    gt = g(t)
    cuts = []
    for k in np.nonzero(np.sign(gt[:-1]) != np.sign(gt[1:]))[0]:
        lo, hi = t[k], t[k + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.sign(g(mid)) == np.sign(gt[k]) else (lo, mid)
        cuts.append(0.5 * (lo + hi))
    points = sorted(set(np.linspace(0.0, 1.0, 2 * (p.degree + 1) + 1)) | set(cuts))
    with mpmath.workdps(20):
        cm = [mpmath.mpc(complex(x)) for x in c[::-1]]
        f = lambda s: max(mpmath.log(abs(mpmath.polyval(cm, mpmath.expjpi(2 * s)))), 0)
        value, error = mpmath.quad(f, points, error=True)
    assert error < 1e-12
    return float(value)


class TestMahlerPlusReuse:
    """``log_mahler_plus_scaled`` reuses ``m+(P)`` only when ``|c0 cn|`` is 1 within tolerance."""

    @pytest.fixture(scope="class")
    def littlewood(self):
        return make_family(FamilySpec("littlewood", 32, seed=4))

    def test_normalized_reuses_first_pass(self, littlewood):
        prof = compute_profile(littlewood, roots=find_roots(littlewood))
        assert prof.log_mahler_plus_scaled == prof.log_mahler_plus
        assert abs(prof.log_mahler_plus - _mahler_plus_oracle(littlewood)) <= 1e-8

    def test_non_normalized_runs_second_pass(self, littlewood):
        c = list(littlewood.coeffs)
        c[0], c[-1] = 2 * c[0], 2 * c[-1]
        p = Polynomial(tuple(c))
        prof = compute_profile(p, roots=find_roots(p))
        assert prof.c0cn_abs == 4.0
        assert abs(prof.log_mahler_plus - _mahler_plus_oracle(p)) <= 1e-8
        assert abs(prof.log_mahler_plus_scaled - _mahler_plus_oracle(p, 0.5)) <= 1e-8
        assert prof.log_mahler_plus_scaled < prof.log_mahler_plus

    def test_certify_calls_mahler_plus_once(self, littlewood, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return mahler_plus(*args, **kwargs)

        monkeypatch.setattr(norms, "mahler_plus", counted)
        cfg = SweepConfig(disk_centers=32)
        certify(littlewood, cfg)
        assert len(calls) == 1
        certify(littlewood.scaled(2.0), cfg)
        assert len(calls) == 3
