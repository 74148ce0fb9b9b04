import cmath
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest

from polyzero import norms
from polyzero.harness import SweepConfig, certify
from polyzero.poly import (
    FamilySpec,
    Polynomial,
    circle_samples,
    cyclotomic,
    evaluate,
    lehmer_polynomial,
    make_family,
    power_minus_one,
    rudin_shapiro_pair,
)
from polyzero.roots import find_roots
from polyzero.norms import (
    Interval,
    b_norm,
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
        iv = p_norm(ONE_PLUS_Z, 2.0)
        with mpmath.workdps(30):  # the exact root, not its rounded double
            assert mpmath.sqrt(2) in iv
        assert iv.width < 1e-12

    def test_rudin_shapiro_two_norm(self):
        for k in (2, 5, 8):
            pk, _ = rudin_shapiro_pair(k)
            iv = p_norm(pk, 2.0)
            with mpmath.workdps(30):
                assert mpmath.mpf(2) ** (mpmath.mpf(k) / 2) in iv
            assert iv.width < 1e-10 * 2 ** (k / 2)

    def test_four_norm_closed_form(self):
        # mean of (2 + 2 cos(2 pi t))^2 is 6, so ||1+z||_4 = 6^(1/4);
        # cross-checked against a million-point Riemann sum.
        iv = p_norm(ONE_PLUS_Z, 4.0, tol=1e-11)
        with mpmath.workdps(30):
            assert mpmath.root(6, 4) in iv
        assert iv.width < 1e-10
        oracle = riemann_mean(ONE_PLUS_Z, lambda m: m**4) ** 0.25
        assert abs(iv.mid - oracle) < 1e-5

    def test_parseval_identity_families(self):
        for kind, n in (("littlewood", 64), ("unimodular", 256), ("g_class", 128)):
            p = make_family(FamilySpec(kind, n, seed=2))
            iv = p_norm(p, 2.0)
            with mpmath.workdps(40):  # squares of doubles, exact at 40 digits
                exact = mpmath.fsum(mpmath.mpf(c.real) ** 2 + mpmath.mpf(c.imag) ** 2 for c in map(complex, p.coeffs))
                assert mpmath.mpf(iv.lo) ** 2 <= exact <= mpmath.mpf(iv.hi) ** 2
            assert iv.hi**2 - iv.lo**2 <= 1e-9 * float(exact)

    @pytest.mark.parametrize("kind", ["littlewood", "unimodular", "g_class", "z^n-1"])
    @pytest.mark.parametrize("n", [16, 256, 512])
    def test_two_norm_by_parseval_matches_the_ladder(self, kind, n):
        p = power_minus_one(n) if kind == "z^n-1" else make_family(FamilySpec(kind, n, seed=1))
        # The trapezoid sum of |P|^2 is exact on any grid of more than n points.
        n_points = norms._initial_grid(n, floor=256)
        ladder = math.sqrt(norms._power_sum(p, n_points, 0.0, 2.0)[0] / n_points)
        iv = p_norm(p, 2.0)
        assert iv.lo - 1e-13 * ladder <= ladder <= iv.hi + 1e-13 * ladder
        assert iv.width <= 1e-13 * ladder

    def test_norm_monotonicity(self):
        # The p-norms of this polynomial differ by far more than the
        # enclosures' widths, so the enclosures come out strictly ordered.
        p = make_family(FamilySpec("littlewood", 24, seed=5))
        exps = (0.5, 1.0, 2.0, 4.0)
        vals = [p_norm(p, e, tol=1e-10) for e in exps]
        for lo, hi in zip(vals, vals[1:]):
            assert lo.hi < hi.lo

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            p_norm(ONE_PLUS_Z, 0.0)
        with pytest.raises(ValueError):
            p_norm(ONE_PLUS_Z, math.inf)


def _times_one_plus_z(p: Polynomial) -> Polynomial:
    c = (0,) + p.coeffs
    return Polynomial(tuple(a + b for a, b in zip(p.coeffs + (0,), c)))


# Inputs of the p-norm oracle: the random families, a zero on the circle
# (at -1) and n equally spaced ones.
ORACLE_INPUTS = {
    **{f"{kind}-8": make_family(FamilySpec(kind, 8, seed=1)) for kind in ("littlewood", "unimodular", "g_class")},
    "(1+z)littlewood-16": _times_one_plus_z(make_family(FamilySpec("littlewood", 16, seed=1))),
    "z^8-1": power_minus_one(8),
}


def _p_norm_oracle(p: Polynomial, exponent: float) -> tuple:
    """Ends of ``||P||_p`` by ``mpmath.quad`` at 30 digits, widened by its
    error estimate, over ``2n`` panels split further at the zeros on the
    circle, where ``|P|**exponent`` has kinks."""
    zeros = np.roots(p.coeffs[::-1])
    kinks = np.angle(zeros[np.abs(np.abs(zeros) - 1.0) < 1e-6]) / (2 * np.pi) % 1.0
    with mpmath.workdps(30):
        c = [mpmath.mpc(x) for x in reversed(p.coeffs)]
        f = lambda t: abs(mpmath.polyval(c, mpmath.expjpi(2 * t))) ** exponent
        edges = sorted(set(np.linspace(0.0, 1.0, 2 * p.degree + 1)) | set(kinks))
        mean, err = mpmath.quad(f, edges, error=True)
        return tuple(x ** (1 / mpmath.mpf(exponent)) for x in (mean - err, mean + err))


@functools.cache
def _littlewood_512_log_abs() -> np.ndarray:
    """``log |P|`` of littlewood(512, seed 1) on 2**20 points of the circle."""
    return np.log(np.abs(np.fft.fft(make_family(FamilySpec("littlewood", 512, seed=1)).coefficient_array(), 2**20)))


class TestPNormEnclosure:
    """``p_norm`` is an enclosure: it holds an independent oracle at any width."""

    @pytest.mark.parametrize("scale", [1.0, 0.7, 2.0**-1000, 2.0**1000])
    @pytest.mark.parametrize("exponent", [300.0, 3000.0, 1e5])
    def test_high_exponent_scales_by_the_sup(self, exponent, scale):
        # |P|**300 overflowed when the scale followed max |c_j| rather than the
        # sup; at 1e5 every scaled sample underflows, and at 3000 the scale 0.7
        # puts the scaled sup where they would, so those take the sup bound.
        p = make_family(FamilySpec("littlewood", 512, seed=1)).scaled(scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            iv = p_norm(p, exponent)
        assert 0.0 < iv.lo <= iv.hi < math.inf
        assert iv.hi - iv.lo <= 1e-2 * iv.hi
        assert p_norm(p, exponent, sup=sup_norm_enclosure(p)) == iv
        # Oracle: the mean of |P|**exponent on 2**20 points, in log space, well inside the width.
        logs = exponent * _littlewood_512_log_abs()
        top = logs.max()
        want = scale * math.exp((top + math.log(np.mean(np.exp(logs - top)))) / exponent)
        assert iv.lo <= want * (1.0 + 1e-9) and want * (1.0 - 1e-9) <= iv.hi

    @pytest.mark.parametrize("exponent", [0.5, 1.0, 3.0, 4.0])
    @pytest.mark.parametrize("name", list(ORACLE_INPUTS))
    def test_holds_the_mpmath_oracle(self, name, exponent):
        p = ORACLE_INPUTS[name]
        lo, hi = _p_norm_oracle(p, exponent)
        for tol in (1e-2, 1e-6):
            iv = p_norm(p, exponent, tol=tol)
            assert iv.lo <= lo and hi <= iv.hi
            # The integral of |P|^p is enclosed to relative half-width tol,
            # unless the grid reached max_points first: with 0 < p < 1 the
            # Hoelder remainder falls only as N^-p, and at 1e-6 only the even
            # exponent, exact on any grid of more than pn/2 points, gets there.
            if exponent == 4.0 or (tol == 1e-2 and exponent != 0.5):
                assert iv.hi**exponent - iv.lo**exponent <= tol * (iv.hi**exponent + iv.lo**exponent)

    def test_grid_cap_returns_the_wider_enclosure(self):
        p = make_family(FamilySpec("littlewood", 24, seed=1))
        tight = p_norm(p, 1.0, tol=1e-4)  # a grid of 2^13 points
        capped = p_norm(p, 1.0, tol=1e-8, max_points=1024)
        assert capped.lo < tight.lo and tight.hi < capped.hi

    @pytest.mark.parametrize("exponent", [0.5, 1.0, 2.0, 4.0])
    def test_tol_below_the_rounding_floor_raises(self, exponent):
        # No grid meets a width below the rounding of the sum itself.
        p = make_family(FamilySpec("littlewood", 24, seed=1))
        with pytest.raises(norms.QuadratureError, match="rounding floor"):
            p_norm(p, exponent, tol=1e-300, max_points=1024)
        assert p_norm(p, exponent, tol=1e-11, max_points=1024).lo > 0

    # The inputs that perfbench/run.py --workload certify --seed 1 --trace 1
    # screened out when p_norm stopped at its grid cap by raising.
    @pytest.mark.parametrize(
        "family, n, seed",
        [
            ("unimodular", 512, 6458563966016472101),
            ("g_class", 512, 5419960199252836875),
            ("unimodular", 256, 5042286102247878611),
            ("unimodular", 512, 288972297443631358),
            ("g_class", 512, 8756996140288490638),
            ("littlewood", 512, 4098100859735482951),
            ("littlewood", 512, 2965078568720608159),
            ("unimodular", 512, 7529555325022376280),
            ("littlewood", 512, 7435136800771136714),
            ("littlewood", 256, 6868625655263699318),
            ("unimodular", 512, 2209730374710691631),
            ("g_class", 512, 604615462439619009),
            ("littlewood", 512, 5169092218741387130),
            ("unimodular", 512, 226941365434660745),
            ("unimodular", 512, 4413744024731470602),
            ("littlewood", 512, 8789383732530759591),
            ("littlewood", 512, 8506128159777040893),
            ("g_class", 512, 3658395830721554074),
            ("littlewood", 512, 7656361441515884799),
        ],
    )
    def test_benchmark_screened_inputs_return(self, family, n, seed):
        cfg = SweepConfig()
        tols = cfg.tolerances.profile_tolerances()
        p = make_family(FamilySpec(family, n, seed=seed))
        for exponent in cfg.p_list:
            iv = p_norm(p, float(exponent), tol=tols.quad_tol, max_points=tols.max_points)
            assert 1.0 <= iv.lo <= iv.hi < math.inf

    @pytest.mark.parametrize("exponent", [1.0, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    @pytest.mark.parametrize("coeffs", [(1.0, 0.0, 1.0), (1.0, 1.0, 1.0)])
    def test_extreme_scales_hold_the_oracle(self, coeffs, scale, exponent):
        # |P|**p under- or overflows unless p_norm scales P by a power of two.
        q = Polynomial(coeffs)
        lo, hi = _p_norm_oracle(q, exponent)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            iv = p_norm(q.scaled(scale), exponent)
        assert iv.lo <= lo * scale and hi * scale <= iv.hi
        top, bottom = (iv.hi / scale) ** exponent, (iv.lo / scale) ** exponent
        assert top - bottom <= 1e-2 * (top + bottom)

    @pytest.mark.parametrize("e", [-1000, -900, 900, 1000])
    @pytest.mark.parametrize(
        "q",
        [
            Polynomial((1.0, 0.0, 1.0)),
            Polynomial((1.0, 1.0, 1.0)),
            make_family(FamilySpec("littlewood", 16, seed=1)),
            make_family(FamilySpec("unimodular", 16, seed=2)),
        ],
        ids=["1+z^2", "1+z+z^2", "littlewood16", "unimodular16"],
    )
    def test_sup_scales_exactly(self, q, e):
        # |P|^2 over- or underflows unless sup_norm_enclosure scales P by a power of two.
        base = sup_norm_enclosure(q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            iv = sup_norm_enclosure(q.scaled(2.0**e))
        assert (iv.lo, iv.hi) == (base.lo * 2.0**e, base.hi * 2.0**e)

    @pytest.mark.parametrize("exponent", [1.0, 2.0, 3.0])
    def test_subnormal_norms_hold_the_oracle(self, exponent):
        # The ends land below the normal range, where scaling them back rounds.
        q, scale = Polynomial((1.0, 0.0, 1.0)), 5e-324
        lo, hi = _p_norm_oracle(q, exponent)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            iv = p_norm(q.scaled(scale), exponent)
        assert iv.lo <= lo * scale and hi * scale <= iv.hi


class TestTrapezoidRemainder:
    """The second-order remainder bounds the rule's error on kinked integrands,
    and is within a small factor of it."""

    # |P(e(t))| = 2 |cos(pi t)| and 2 |sin(8 pi t)|, both of mean 4 / pi, with
    # m = 1 and 8 kinks, all on every power-of-two grid of N >= 8 points.
    # There the rule is off by about (pi / 3) (m / N)^2, and the remainder is
    # 12 times that once N > 4n.  Odd N miss the kinks, and the error there is
    # half as large and of the other sign.
    @pytest.mark.parametrize("p", [ONE_PLUS_Z, power_minus_one(8)], ids=["1+z", "z^8-1"])
    def test_bounds_the_error_at_kinks(self, p):
        for n_points in (2**k for k in range(3, 13)):
            mean = float(np.abs(evaluate(p, np.exp(2j * np.pi * np.arange(n_points) / n_points))).mean())
            err = 4.0 / math.pi - mean
            bound = norms._trapezoid_error(1.0, p.degree, n_points, 2.0, 0.0, mean)
            assert err <= bound <= 16.0 * err, n_points


def test_eval_err_covers_the_row_sampler():
    # A degree-8 polynomial on 2^20 points is sampled as 2^16 rows of 16, so
    # its twiddles take the most phase products; check the rows with the
    # most bits set against 30-digit values.
    p = make_family(FamilySpec("littlewood", 8, seed=1))
    n_points = 2**20
    allowance = norms._eval_err(float(np.sum(np.abs(p.coefficient_array()))), p.degree, n_points)
    stride = norms._stride(p.degree, n_points)
    c = [mpmath.mpc(x) for x in reversed(p.coeffs)]
    worst, checked = 0.0, 0
    with mpmath.workdps(30):
        for _, r0, block in norms._sample_rows(p, n_points, (0.0,)):
            for i, row in enumerate(block):
                if bin(r0 + i).count("1") < 15:
                    continue
                for j, value in enumerate(row):
                    exact = mpmath.polyval(c, mpmath.expjpi(mpmath.mpf(2 * (j * stride + r0 + i)) / n_points))
                    worst = max(worst, float(abs(mpmath.mpc(value) - exact)))
                    checked += 1
    assert checked == 17 * 16
    assert worst <= allowance


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

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_quadrature_deflates_samples_near_paired_zeros(self, n):
        # The grids hold the zeros of z^n - 1, where a sample within rounding
        # of a paired zero cancels to a wrong finite log.
        val, log_val = mahler(power_minus_one(n), method="quadrature")
        assert abs(val - 1.0) < 1e-12 and abs(log_val) < 1e-12

    def test_quadrature_memory_stays_bounded(self, monkeypatch):
        import tracemalloc

        # 79 paired circle zeros: one (N, 79) complex array on the last
        # 2^16-point grid alone is 79 MiB.
        monkeypatch.setattr(norms, "_MAHLER_MAX_POINTS", 2**16)
        p = make_family(FamilySpec("cyclotomic_product", 100, seed=3))
        tracemalloc.start()
        try:
            with pytest.raises(norms.QuadratureError):
                mahler(p, method="quadrature")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestMahlerPlus:
    def test_constant_above_one(self):
        mp, _ = mahler_plus(Polynomial((0, 2)))
        assert math.log(2.0) in mp and mp.width <= 1e-5

    def test_constant_below_one(self):
        # Every cell is certified below the level: exactly 0.  P(0) = 0, so m+(f P) is +inf.
        mp, mp_scaled = mahler_plus(Polynomial((0, 0.5)))
        assert mp == Interval(0.0, 0.0)
        assert mp_scaled == Interval(math.inf, math.inf)

    def test_against_riemann_oracle(self):
        mp, mp_scaled = mahler_plus(ONE_PLUS_Z, tol=1e-6)
        oracle = riemann_mean(ONE_PLUS_Z, lambda m: np.maximum(np.log(m), 0.0))
        assert mp.lo - 1e-9 <= oracle <= mp.hi + 1e-9 and mp.width <= 2e-6 * mp.hi
        assert mp_scaled == mp  # |c0 cn| = 1: the same level

    def test_ordering_chain(self):
        for kind, n, seed in (("g_class", 12, 4), ("littlewood", 40, 9), ("unimodular", 24, 2)):
            p = make_family(FamilySpec(kind, n, seed=seed))
            rs = find_roots(p, tol=1e-10)
            prof = compute_profile(p, roots=rs)
            assert prof.mahler <= prof.mahler_plus.hi + 1e-8
            assert prof.mahler_plus.lo <= prof.sup_norm.hi + 1e-8


class TestBNorm:
    def test_b_infinity_example(self):
        from polyzero.norms import ProfileTolerances

        rs = find_roots(ONE_PLUS_Z)
        prof = compute_profile(ONE_PLUS_Z, roots=rs, tols=ProfileTolerances(sup_tol=1e-10))
        b = b_norm(prof, math.inf)
        assert abs(b.lo - math.log(2)) < 1e-8 and abs(b.hi - math.log(2)) < 1e-8

    def test_b_two_closed_form(self):
        rs = find_roots(ONE_PLUS_Z)
        prof = compute_profile(ONE_PLUS_Z, roots=rs)
        target = math.log(2) / 3.0 + 1.0 / (2.0 * math.e)
        b = b_norm(prof, 2.0)
        assert abs(b.lo - target) < 1e-6 and abs(b.hi - target) < 1e-6

    def test_direction_ordering(self):
        # B_p and B_inf at the midpoints of their enclosures lie between the ends.
        p = make_family(FamilySpec("littlewood", 20, seed=3))
        prof = compute_profile(p, roots=find_roots(p))
        half_log = 0.5 * math.log(prof.c0cn_abs)
        for exponent in (1.0, 2.0, math.inf):
            b = b_norm(prof, exponent)
            if math.isinf(exponent):
                mid = math.log(prof.sup_norm.mid) - half_log
            else:
                log_term = math.log(prof.p_norms[exponent].mid) - half_log
                mid = (1.0 - prof.e_measure.mid) * log_term + 1.0 / (math.e * exponent)
            assert b.lo <= mid <= b.hi

    def test_g_class_trivial_bound(self):
        # For unimodular-end polynomials, B_2 <= (1/2) log(n+1) + 1/(2e).
        for seed in (1, 5, 9):
            p = make_family(FamilySpec("g_class", 12, seed=seed))
            prof = compute_profile(p, roots=find_roots(p))
            bound = 0.5 * math.log(13.0) + 0.5 / math.e
            assert b_norm(prof, 2.0).hi <= bound + 1e-9

    def test_jensen_step(self):
        # m+(P) <= (1 - |E|_lo) log ||P||_p + 1/(e p) when ||P||_p >= 1.
        for kind, n, seed in (("littlewood", 18, 2), ("unimodular", 30, 7)):
            p = make_family(FamilySpec(kind, n, seed=seed))
            prof = compute_profile(p, roots=find_roots(p), p_list=(0.5, 1.0, 2.0, 4.0))
            for exponent in (0.5, 1.0, 2.0, 4.0):
                if not prof.pnorm_at_least_one(exponent):
                    continue
                # The smallest p-norm the enclosure allows.
                rhs = (1.0 - prof.e_measure.lo) * math.log(prof.p_norms[exponent].lo)
                rhs += 1.0 / (math.e * exponent)
                assert prof.log_mahler_plus.hi <= rhs + 1e-8

    def test_scaled_mahler_below_b(self):
        # m(P / sqrt|c0 cn|) <= B_p whenever |c0 cn| >= 1.
        for kind, n, seed in (("littlewood", 25, 3), ("unimodular", 40, 1)):
            p = make_family(FamilySpec(kind, n, seed=seed))
            prof = compute_profile(p, roots=find_roots(p))
            assert prof.c0cn_at_least_one
            for exponent in (1.0, 2.0):
                assert prof.log_mahler_scaled <= b_norm(prof, exponent).hi + 1e-8

    def test_zero_constant_term_takes_the_limit(self):
        # P(0) = 0 sends log(1/sqrt|c0 cn|) to +inf; a zero weight 1 - |E| keeps B_p finite.
        z_plus_z2 = Polynomial((0, 1, 1))
        prof = compute_profile(z_plus_z2, roots=find_roots(z_plus_z2))
        assert prof.log_mahler_plus_scaled == Interval(math.inf, math.inf)
        assert b_norm(prof, math.inf) == Interval(math.inf, math.inf)
        assert b_norm(prof, 2.0) == Interval(math.inf, math.inf)
        half_z = Polynomial((0, 0.5))
        prof = compute_profile(half_z, roots=find_roots(half_z))
        assert prof.e_measure == Interval(1.0, 1.0)
        assert b_norm(prof, 2.0) == Interval(0.5 / math.e, 0.5 / math.e)

    def test_interval_helper(self):
        prof = compute_profile(ONE_PLUS_Z, roots=find_roots(ONE_PLUS_Z))
        iv = b_norm(prof, 2.0)
        assert isinstance(iv, Interval)
        assert iv.lo <= iv.hi


class TestProfile:
    def test_quadrature_fallback_without_roots(self):
        prof = compute_profile(power_minus_one(6))
        assert abs(prof.mahler - 1.0) < 1e-8

    def test_quadrature_error_leaves_the_rest(self, monkeypatch):
        # The Mahler quadrature cannot converge on these 79 paired zeros under
        # a 2^16 cap; the profile keeps every other functional.
        monkeypatch.setattr(norms, "_MAHLER_MAX_POINTS", 2**16)
        p = make_family(FamilySpec("cyclotomic_product", 100, seed=3))
        prof = compute_profile(p)
        assert math.isnan(prof.mahler) and math.isnan(prof.log_mahler)
        assert set(prof.p_norms) == {1.0, 2.0}
        for iv in (*prof.p_norms.values(), prof.sup_norm, prof.e_measure):
            assert math.isfinite(iv.lo) and math.isfinite(iv.hi)
        assert prof.sup_norm.lo > 1.0 and 0.0 < prof.e_measure.lo
        assert math.isfinite(prof.log_mahler_plus.hi) and prof.mahler_plus.lo >= 1.0

    def test_flags_for_small_polynomial(self):
        prof = compute_profile(Polynomial((0.25, 0.25)), roots=find_roots(Polynomial((0.25, 0.25))))
        assert not prof.pnorm_at_least_one(2.0)
        assert not prof.c0cn_at_least_one


def _mahler_plus_oracle(p: Polynomial, scale: float = 1.0) -> float:
    """``integral_0^1 log+ |scale P(e(t))| dt`` by ``mpmath.quad``.

    Breakpoints: the crossings of ``|scale P| = 1`` (bracketed on a fine grid
    and bisected in float64), where the integrand has kinks, plus 2(n+1)
    uniform panels so that no panel holds more than a few oscillations.  The
    integrand is a Horner loop in Python complex arithmetic, independent of
    the FFT samples, good to about ``1e-15 sum |c|``.
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
    coeffs = [complex(x) for x in c[::-1]]

    def f(s):
        z, v = cmath.exp(2j * math.pi * float(s)), 0j
        for a in coeffs:
            v = v * z + a
        return max(math.log(abs(v)), 0.0) if v else 0.0

    with mpmath.workdps(15):
        value, error = mpmath.quad(f, points, error=True)
    assert error < 1e-12
    return float(value)


def _tangent_littlewood(n: int) -> Polynomial:
    """A Littlewood polynomial with coefficients flipped from the top until
    ``P(1) = 1``: ``|P|`` meets the level 1 at ``t = 0``."""
    c = np.array(make_family(FamilySpec("littlewood", n, seed=11)).coeffs).real
    while c.sum() != 1:
        sign = 1.0 if c.sum() < 1 else -1.0
        c[np.nonzero(c == -sign)[0][-1]] = sign
    return Polynomial(tuple(c))


class TestMahlerPlusInterval:
    """``mahler_plus`` encloses ``m+(P)`` and ``m+(f P)`` from one grid pass."""

    @staticmethod
    def _assert_holds_oracles(p: Polynomial, tol: float = 1e-2):
        mp, mp_scaled = mahler_plus(p, sup=sup_norm_enclosure(p))
        assert _mahler_plus_oracle(p) in mp
        assert _mahler_plus_oracle(p, 1.0 / math.sqrt(abs(p.coeffs[0] * p.coeffs[-1]))) in mp_scaled
        for iv in (mp, mp_scaled):
            assert iv.width <= 2.0 * tol * iv.mid
        return mp, mp_scaled

    @pytest.mark.parametrize("kind", ["littlewood", "unimodular", "g_class"])
    def test_mpmath_oracle_n16(self, kind):
        self._assert_holds_oracles(make_family(FamilySpec(kind, 16, seed=3)))

    def test_mpmath_oracle_n64(self):
        self._assert_holds_oracles(make_family(FamilySpec("g_class", 64, seed=3)))

    def test_mpmath_oracle_non_normalized(self):
        # |c0 cn| = 4: the two levels differ, and both come from one pass.
        c = list(make_family(FamilySpec("littlewood", 32, seed=4)).coeffs)
        c[0], c[-1] = 2 * c[0], 2 * c[-1]
        mp, mp_scaled = self._assert_holds_oracles(Polynomial(tuple(c)))
        assert mp_scaled.hi < mp.lo

    def test_mpmath_oracle_tangency(self):
        # |P(1)| = 1: the cells at t = 0 may cross the level.
        p = _tangent_littlewood(24)
        assert abs(p.coeffs[0] * p.coeffs[-1]) == 1.0 and sum(p.coeffs) == 1
        self._assert_holds_oracles(p)

    def test_mpmath_oracle_cyclotomic_product(self):
        # Zeros on the circle, where the panels of earlier versions failed to stabilize.
        self._assert_holds_oracles(make_family(FamilySpec("cyclotomic_product", 20, seed=0)))

    @pytest.mark.parametrize("coeffs", [(1e150, 1.0, 1e150), (1e160, 1e160, 3e160), (1e-150, 1e200, 1e-150)])
    def test_extreme_coefficients(self, coeffs):
        # |c0 cn| overflows, or the coefficients are sampled scaled by 2**-k;
        # the level of f P is taken in log space.
        p = Polynomial(coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mp, mp_scaled = mahler_plus(p, sup=sup_norm_enclosure(p))
        if coeffs[1] == 1.0:
            # |P| >= 1 but within 1e-150 of t = 1/4 and 3/4, where |P(+-i)| = 1,
            # too narrow for the oracle's breakpoints; both roots have modulus
            # 1 +- 1e-150, so Jensen gives m+ = m = log 1e150.
            assert math.log(1e150) in mp
        else:
            assert _mahler_plus_oracle(p) in mp
        log_f = -0.5 * (math.log(coeffs[0]) + math.log(coeffs[-1]))
        if log_f < 300:
            assert _mahler_plus_oracle(p, math.exp(log_f)) in mp_scaled
        else:
            # |P| > 1 on the whole circle, so log+ (f |P|) = log f + log |P|.
            assert _mahler_plus_oracle(p) + log_f in mp_scaled

    def test_cap_returns_the_interval_reached(self):
        p = make_family(FamilySpec("littlewood", 64, seed=1))
        cap = 2 * norms._initial_grid(64)
        mp, _ = mahler_plus(p, tol=1e-9, max_points=cap, sup=sup_norm_enclosure(p))
        assert _mahler_plus_oracle(p) in mp and mp.width > 2e-9 * mp.mid

    # |4 + z - z^3 + z^8 / 2| >= 3/2 on the circle.
    SMOOTH = Polynomial((4, 1, 0, -1, 0, 0, 0, 0, 0.5))

    def test_whole_circle_is_jensen(self):
        # All zeros of 4 + z - z^3 + z^8 / 2 lie outside the circle, so m+ = m = log 4.
        mp, mp_scaled = mahler_plus(self.SMOOTH, tol=1e-6)
        assert math.log(4.0) in mp and mp.width <= 2e-6 * mp.mid
        assert math.log(4.0) - 0.5 * math.log(2.0) in mp_scaled

    @pytest.mark.parametrize(
        "p",
        [Polynomial((1, -8, 28, -56, 70, -56, 28, -8, 1)), power_minus_one(64), ONE_PLUS_Z],
    )
    def test_circle_zero_raises_no_warning(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mp, _ = mahler_plus(p)
        assert math.isfinite(mp.hi)

    def test_certify_calls_mahler_plus_once(self, monkeypatch):
        littlewood = make_family(FamilySpec("littlewood", 32, seed=4))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return mahler_plus(*args, **kwargs)

        monkeypatch.setattr(norms, "mahler_plus", counted)
        cfg = SweepConfig(disk_centers=32)
        certify(littlewood, cfg)
        assert len(calls) == 1
        certify(littlewood.scaled(2.0), cfg)
        assert len(calls) == 2


def _sup_ladder(p: Polynomial, tol: float = 1e-6, max_points: int = 2**22) -> Interval:
    """The uniform FFT ladder: the whole grid doubled until the stop test holds."""
    c = p.coefficient_array()
    n = p.degree
    lip = 2 * math.pi * float(np.sum(np.arange(len(c)) * np.abs(c)))
    eval_err = 4e-16 * (n + 2) * float(np.sum(np.abs(c)))
    n_points = norms._initial_grid(n, floor=512)
    while n_points <= max_points:
        ms = float((np.abs(np.fft.ifft(np.pad(c, (0, n_points - n - 1))) * n_points) ** 2).max())
        h = 1.0 / n_points
        kappa = 0.5 * (math.pi * n * h) ** 2
        hi = min(math.sqrt(ms / (1.0 - kappa)), math.sqrt(ms) + lip * h / 2.0) + eval_err
        lo = math.sqrt(ms) - eval_err
        if hi - lo <= tol * hi:
            return Interval(lo, hi)
        n_points *= 2
    raise AssertionError("ladder cap reached")


def _count_evaluations(monkeypatch) -> dict[str, int]:
    """Count the points ``sup_norm_enclosure`` evaluates, by route."""
    counts = {"fft": 0, "shifted_fft": 0, "horner": 0}
    rows, horner = norms._sample_rows, norms._abs_on_circle

    def counted_rows(p, n_points, shifts):
        for shift in shifts:
            counts["shifted_fft" if shift else "fft"] += n_points
        return rows(p, n_points, shifts)

    def counted_horner(blocks, t):
        counts["horner"] += len(t)
        return horner(blocks, t)

    monkeypatch.setattr(norms, "_sample_rows", counted_rows)
    monkeypatch.setattr(norms, "_abs_on_circle", counted_horner)
    return counts


class TestSupRefinement:
    """The sup enclosure refines only the cells that can hold the maximum."""

    @pytest.mark.parametrize("kind", ["littlewood", "unimodular", "g_class"])
    @pytest.mark.parametrize("n", [16, 64, 256, 512])
    def test_matches_uniform_ladder(self, kind, n):
        p = make_family(FamilySpec(kind, n, seed=n + 1))
        enc = sup_norm_enclosure(p)
        ref = _sup_ladder(p)
        assert abs(enc.lo - ref.lo) <= 1e-12 * ref.hi
        assert abs(enc.hi - ref.hi) <= 1e-12 * ref.hi

    @pytest.mark.parametrize("kind,n,seed", [("littlewood", 40, 3), ("unimodular", 64, 8), ("g_class", 100, 5)])
    def test_contains_dense_grid_max(self, kind, n, seed):
        p = make_family(FamilySpec(kind, n, seed=seed))
        dense_max = riemann_mean(p, np.max, points=2**19)
        enc = sup_norm_enclosure(p, tol=1e-9)
        assert dense_max <= enc.hi
        assert dense_max >= enc.lo - 1e-6 * enc.hi

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_many_equal_peaks_take_the_fft(self, sign, monkeypatch):
        # z^n - 1 and 1 + z^n: n peaks of height 2, two cells survive per peak.
        n = 10**4
        p = Polynomial((sign,) + (0.0,) * (n - 1) + (1.0,))
        counts = _count_evaluations(monkeypatch)
        enc = sup_norm_enclosure(p, tol=1e-3, max_points=2**22)
        assert 2.0 in enc and enc.width <= 1e-3 * enc.hi
        assert counts["shifted_fft"] > 0 and counts["horner"] == 0
        assert sum(counts.values()) <= 2**22

    def test_cap_counts_points_evaluated(self):
        p = make_family(FamilySpec("littlewood", 256, seed=2))
        with pytest.raises(norms.QuadratureError):
            sup_norm_enclosure(p, max_points=norms._initial_grid(256, floor=512))

    def test_many_equal_peaks_count_the_kept_cells(self):
        # z^4096 - 1 takes the FFT route; charging it the whole grid per level
        # used up the cap with two cells kept per peak.
        tols = norms.ProfileTolerances()
        enc = sup_norm_enclosure(power_minus_one(4096), tol=tols.sup_tol, max_points=tols.grid_cap(4096))
        assert 2.0 in enc and enc.width <= tols.sup_tol * enc.hi

    def test_large_monomial_constant_modulus(self, monkeypatch):
        counts = _count_evaluations(monkeypatch)
        enc = sup_norm_enclosure(Polynomial((0.0,) * 200 + (1.0,)))
        assert abs(enc.lo - 1.0) < 1e-12
        assert 1.0 in enc
        assert counts["shifted_fft"] > 0

    def test_profile_cap_follows_the_degree(self):
        # At n = 32768 the sup's first grid of 32n points is already 2^20,
        # so only a cap that grows with n leaves room to refine.
        tols = norms.ProfileTolerances()
        assert tols.grid_cap(512) == 2**20
        n = 32768
        cap = tols.grid_cap(n)
        p = make_family(FamilySpec("littlewood", n, seed=1))
        sup = sup_norm_enclosure(p, tol=tols.sup_tol, max_points=cap)
        assert sup.width <= tols.sup_tol * sup.hi
        one = p_norm(p, 1.0, tol=tols.quad_tol, max_points=cap)
        assert one.width <= 2.0 * tols.quad_tol * one.mid  # mean +- tol mean

    @pytest.mark.parametrize("kind", ["littlewood", "unimodular", "g_class"])
    @pytest.mark.parametrize("n", [768, 1024, 2048, 4096])
    def test_large_degree_reaches_tolerance(self, kind, n):
        p = make_family(FamilySpec(kind, n, seed=1))
        enc = sup_norm_enclosure(p)
        assert enc.width <= 1e-6 * enc.hi
        assert float(np.abs(circle_samples(p, 4 * norms._initial_grid(n))).max()) <= enc.hi


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _horner_panels(p: Polynomial, intervals, panels_per_unit: int) -> float:
    """``sum integral log |P|`` on equal 16-point Gauss-Legendre panels per interval, by Horner."""
    total = 0.0
    for a, b in intervals:
        k = max(int(math.ceil((b - a) * panels_per_unit)), 1)
        lo = a + (b - a) * np.arange(k) / k
        nodes = lo[:, None] + 0.5 * (_GL_NODES + 1.0)[None, :] * ((b - a) / k)
        vals = np.log(np.abs(evaluate(p, np.exp(2j * np.pi * nodes))))
        total += float((vals @ _GL_WEIGHTS).sum()) * 0.5 * (b - a) / k
    return total


def _positive_pieces_loop(p: Polynomial, info) -> list[tuple[float, float]]:
    """Above-level pieces by Horner at every sub-cell midpoint and a flag loop."""
    cuts = [0.5 * (a + b) for a, b in info.crossings]
    n0 = norms._initial_grid(p.degree)
    points = np.unique(np.concatenate([np.arange(n0 + 1) / n0, np.asarray(cuts)]))
    mids = 0.5 * (points[:-1] + points[1:])
    above = np.abs(evaluate(p, np.exp(2j * np.pi * mids))) > 1.0
    pieces, start = [], None
    for k, flag in enumerate(above):
        if flag and start is None:
            start = points[k]
        if not flag and start is not None:
            pieces.append((start, points[k]))
            start = None
    if start is not None:
        pieces.append((start, points[-1]))
    return pieces


def _level_case(kind: str, n: int) -> Polynomial:
    """A family member, or one of two inputs built around ``t = 0``.

    ``tangent``: :func:`_tangent_littlewood`; ``|P|`` has a minimum 1 at
    ``t = 0``, so the classifier leaves unresolved cells there.  ``wrap``: a
    unimodular polynomial rotated so that its largest grid sample sits at
    ``t = 0``.
    """
    if kind == "tangent":
        return _tangent_littlewood(n)
    if kind == "wrap":
        p = make_family(FamilySpec("unimodular", n, seed=11))
        n_points = norms._initial_grid(n)
        return p.rotated(int(np.argmax(np.abs(circle_samples(p, n_points)))) / n_points)
    return make_family(FamilySpec(kind, n, seed=11))


@pytest.mark.parametrize("kind", ["littlewood", "unimodular", "g_class", "tangent", "wrap"])
@pytest.mark.parametrize("n", [16, 64, 256, 512])
def test_positive_pieces_match_flag_loop(kind, n):
    # The above-level pieces of a flag loop over the classifier's crossings,
    # integrated by Gauss-Legendre panels, lie in the m+ enclosure.
    p = _level_case(kind, n)
    info = classify_unit_level(p, min_width=1e-8)
    pieces = _positive_pieces_loop(p, info)
    mp, _ = mahler_plus(p, sup=sup_norm_enclosure(p))
    assert _horner_panels(p, pieces, 8 * n) in mp
    if kind == "tangent":
        assert info.tangent_measure > 0
    if kind in ("tangent", "wrap"):
        assert pieces[0][0] == 0.0 and pieces[-1][1] == 1.0


def _gather_abs_at(p: Polynomial, n_points: int, index: np.ndarray, shifts) -> np.ndarray:
    """``norms._abs_at`` gathered into one ``(len(shifts), len(index))`` array."""
    out = np.full((len(shifts), len(index)), np.nan)
    for q, sel, vals in norms._abs_at(p, n_points, index, shifts):
        assert np.isnan(out[q, sel]).all()
        out[q, sel] = vals
    return out


class TestBlockedSampling:
    """Fine grids are sampled as interleaved rows, in FFT batches of bounded size."""

    P = make_family(FamilySpec("littlewood", 100, seed=4))

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("n_points", [2**16, 8 * 100 * 2**6])
    @pytest.mark.parametrize("shift", [0.0, 0.5, 0.3])
    def test_power_sum_matches_one_fft(self, n_points, shift):
        assert norms._stride(100, n_points) > 1
        mags = np.abs(circle_samples(self.P, n_points, shift=shift))
        for exponent in (1.0, 2.0, 0.5):
            ref = float(np.sum(mags**exponent))
            total, peak = norms._power_sum(self.P, n_points, shift, exponent)
            assert abs(total - ref) <= 1e-12 * ref
            assert abs(peak - mags.max()) <= 1e-12 * mags.max()

    @pytest.mark.parametrize("n_points", [2**16, 8 * 100 * 2**6])
    @pytest.mark.parametrize("shift", [0.5, 0.3])
    def test_abs_at_matches_one_fft(self, n_points, shift):
        index = np.sort(np.random.default_rng(0).choice(n_points, 5000, replace=False))
        ref = np.abs(circle_samples(self.P, n_points, shift=shift))[index]
        got = _gather_abs_at(self.P, n_points, index, (shift,))[0]
        assert np.max(np.abs(got - ref)) <= 1e-12 * ref.max()

    @pytest.mark.parametrize(
        "n,n_points",
        [(n, 2**20) for n in (100, 256, 512, 10**4)]
        + [(100, 8 * 100 * 2**6), (256, 8 * 256 * 2**4), (512, 8 * 512 * 2**3), (10**4, 8 * 10**4 * 2**2)],
    )
    @pytest.mark.parametrize("shift", [0.0, 0.5, 0.3])
    def test_rows_match_one_fft(self, n, n_points, shift):
        # n + 1 lies just above a power of two at 256 and 512; at 10^4 one
        # row (2^14 points) is larger than a batch.
        p = make_family(FamilySpec("g_class", n, seed=1))
        stride = norms._stride(n, n_points)
        assert stride > 1 and n_points // stride > n
        ref = circle_samples(p, n_points, shift=shift)
        seen = np.zeros(n_points, dtype=int)
        err = 0.0
        for q, r0, block in norms._sample_rows(p, n_points, (shift,)):
            assert q == 0 and block.size <= max(norms._BLOCK_POINTS, n_points // stride)
            k = (np.arange(block.shape[1])[None, :] * stride + r0 + np.arange(len(block))[:, None]).ravel()
            seen[k] += 1
            err = max(err, float(np.abs(block.ravel() - ref[k]).max()))
        assert (seen == 1).all()
        assert err <= 1e-13 * float(np.abs(ref).max())
        mags = np.abs(ref)
        total, peak = norms._power_sum(p, n_points, shift, 1.0)
        assert abs(total - mags.sum()) <= 1e-13 * mags.sum()
        assert abs(peak - mags.max()) <= 1e-13 * mags.max()
        # With slope, each batch also holds z P'(z) in the same rows.
        slope_ref = circle_samples(Polynomial(tuple(np.arange(n + 1) * p.coefficient_array())), n_points, shift=shift)
        for _, r0, (vals, ders) in norms._sample_rows(p, n_points, (shift,), slope=True):
            assert 2 * vals.size <= max(norms._BLOCK_POINTS, 2 * n_points // stride)
            k = (np.arange(vals.shape[1])[None, :] * stride + r0 + np.arange(len(vals))[:, None]).ravel()
            assert np.abs(vals.ravel() - ref[k]).max() <= 1e-13 * float(np.abs(ref).max())
            assert np.abs(ders.ravel() - slope_ref[k]).max() <= 1e-13 * float(np.abs(slope_ref).max())

    @pytest.mark.parametrize("n", [16, 256, 512, 5000])
    def test_grid_cells_pair_each_point_with_the_next(self, n):
        # One FFT (n = 16), several batches of rows (256, 512), and batches
        # of a single row, where the first batch pairs nothing (5000).
        p = make_family(FamilySpec("g_class", n, seed=2))
        n_points = norms._initial_grid(n)
        g = np.abs(circle_samples(p, n_points))
        d = 2 * np.pi * np.abs(circle_samples(Polynomial(tuple(np.arange(n + 1) * p.coefficient_array())), n_points))
        seen = np.zeros(n_points, dtype=int)
        for r0, mags, ders in norms._grid_cells(p, n_points):
            ga, gb, da, db = mags[:-1], mags[1:], ders[:-1], ders[1:]
            k = (np.arange(ga.shape[1])[None, :] * (n_points // ga.shape[1]) + r0 + np.arange(len(ga))[:, None]).ravel()
            seen[k] += 1
            for got, ref in ((ga, g[k]), (gb, np.roll(g, -1)[k]), (da, d[k]), (db, np.roll(d, -1)[k])):
                assert np.abs(got.ravel() - ref).max() <= 1e-13 * (1.0 + np.abs(ref).max())
        assert (seen == 1).all()

    @pytest.mark.parametrize("n_points", [2**11, 2**12, 2**14, 2**16, 8 * 100 * 2**6])
    def test_batched_nodes_match_single_calls(self, n_points):
        nodes = 0.5 * (_GL_NODES + 1.0)
        index = np.sort(np.random.default_rng(1).choice(n_points, n_points // 3, replace=False))
        batched = _gather_abs_at(self.P, n_points, index, nodes)
        for q, x in enumerate(nodes):
            single = _gather_abs_at(self.P, n_points, index, (x,))[0]
            ref = np.abs(circle_samples(self.P, n_points, shift=x))[index]
            assert np.array_equal(batched[q], single)
            assert np.max(np.abs(single - ref)) <= 1e-13 * ref.max()

    def test_small_grid_is_one_fft(self):
        # Grids up to _GRID_POINTS keep the single FFT, bit for bit.
        n_points = norms._GRID_POINTS
        for shift in (0.0, 0.5, 0.3):
            blocks = [b.copy() for _, _, b in norms._sample_rows(self.P, n_points, (shift,))]
            assert len(blocks) == 1
            assert np.array_equal(blocks[0][0], circle_samples(self.P, n_points, shift=shift))

    def test_grid_must_exceed_the_degree(self):
        # Rows of n_points <= n samples would drop coefficients: z^8 - 1 has mean |P| 0 on 8 points.
        with pytest.raises(ValueError, match="more sample points than the degree"):
            norms._power_sum(power_minus_one(8), 8, 0.0, 1.0)

    def test_stride_keeps_blocks_above_the_degree(self):
        assert norms._stride(100, 2**12) == 1
        assert norms._stride(100, 2**13) == 2**13 // 128
        assert norms._stride(10**4, 2**14) == 1
        assert norms._stride(127, 2**20) == 2**20 // 128
        assert norms._stride(128, 2**20) == 2**20 // 256
        assert norms._stride(5000, 2**20) == 2**20 // 2**13
        assert norms._stride(10**4, 2**20) == 2**20 // 2**14
        assert norms._stride(100, 3 * 2**16) == 2**10
        assert norms._stride(100, 8 * 100 * 2**6) == 2**8

    def test_p_norm_memory_does_not_grow_with_the_grid(self, monkeypatch):
        import tracemalloc

        p = make_family(FamilySpec("g_class", 512, seed=3))
        grids = []
        power_sum = norms._power_sum

        def recorded(q, n_points, shift, exponent):
            grids.append(n_points * (2 if shift else 1))
            return power_sum(q, n_points, shift, exponent)

        monkeypatch.setattr(norms, "_power_sum", recorded)
        tracemalloc.start()
        try:
            # Tighter than the default width, so the grid doubles to its cap.
            p_norm(p, 1.0, tol=1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One 2^19-point complex grid alone is 8 MiB.
        assert max(grids) >= 2**19
        assert peak < 2 * 2**20

    def test_classifier_memory_stays_below_its_grid(self):
        import tracemalloc

        # The first grid has 2^14 points: |P| and |P'| on it as complex
        # arrays alone would take 0.5 MiB.
        p = make_family(FamilySpec("g_class", 512, seed=3))
        assert norms._initial_grid(512) == 2**14
        tracemalloc.start()
        try:
            classify_unit_level(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_mahler_plus_memory_stays_bounded(self):
        import tracemalloc

        p = make_family(FamilySpec("g_class", 512, seed=3))
        tracemalloc.start()
        try:
            mahler_plus(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * 2**20
