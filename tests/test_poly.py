import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyzero.poly import (
    FamilySpec,
    Polynomial,
    PolynomialFormatError,
    circle_samples,
    cyclotomic,
    evaluate,
    evaluate_with_derivative,
    is_g_class,
    is_unimodular,
    lehmer_polynomial,
    make_family,
    power_minus_one,
    read_polynomial,
    rudin_shapiro_pair,
    write_polynomial,
)


class TestPolynomial:
    def test_rejects_zero_leading_coefficient(self):
        with pytest.raises(ValueError):
            Polynomial((1, 2, 0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Polynomial((1, float("nan")))
        with pytest.raises(ValueError):
            Polynomial((float("inf"), 1))

    def test_degree_zero_representable(self):
        p = Polynomial((3 + 4j,))
        assert p.degree == 0
        assert evaluate(p, 1j) == 3 + 4j


class TestEvaluate:
    def test_one_plus_z_at_one(self):
        assert evaluate(Polynomial((1, 1)), 1.0) == 2

    def test_z_squared_at_i(self):
        assert evaluate(Polynomial((0, 0, 1)), 1j) == -1

    def test_matches_naive_power_sum(self, rng):
        # Independent oracle: direct sum of c_j z^j from explicit powers.
        coeffs = rng.normal(size=11) + 1j * rng.normal(size=11)
        p = Polynomial(tuple(coeffs))
        for z in np.exp(2j * np.pi * rng.random(32)) * rng.uniform(0.3, 1.7, 32):
            naive = sum(c * z**j for j, c in enumerate(coeffs))
            assert abs(evaluate(p, z) - naive) <= 1e-12 * max(1.0, abs(naive))

    def test_derivative_pair(self, rng):
        coeffs = rng.normal(size=8)
        p = Polynomial(tuple(coeffs))
        z = 0.7 + 0.2j
        val, deriv = evaluate_with_derivative(p, z)
        naive_d = sum(j * c * z ** (j - 1) for j, c in enumerate(coeffs) if j >= 1)
        assert abs(val - evaluate(p, z)) < 1e-14
        assert abs(deriv - naive_d) < 1e-12

    def test_circle_samples_match_dft(self, rng):
        # Values at 2(n+1) roots of unity are the zero-padded inverse DFT.
        for n in (4, 9, 16):
            coeffs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            coeffs[-1] += 3.0  # keep the degree honest
            p = Polynomial(tuple(coeffs))
            m = 2 * (n + 1)
            direct = evaluate(p, np.exp(2j * np.pi * np.arange(m) / m))
            fast = circle_samples(p, m)
            assert np.max(np.abs(direct - fast)) <= 1e-10 * np.max(np.abs(direct))

    def test_shifted_circle_samples(self, rng):
        # shift=x samples P at (k + x) / m, between the grid points.
        coeffs = rng.normal(size=33) + 1j * rng.normal(size=33)
        p = Polynomial(tuple(coeffs))
        m = 128
        for shift in (0.5, 0.0198550717512319, 0.25, 0.9801449282487681):
            direct = evaluate(p, np.exp(2j * np.pi * (np.arange(m) + shift) / m))
            fast = circle_samples(p, m, shift=shift)
            assert np.max(np.abs(direct - fast)) <= 1e-12 * np.max(np.abs(direct))
        assert np.array_equal(circle_samples(p, m, shift=0.0), circle_samples(p, m))


class TestFamilies:
    def test_lehmer_coefficients(self):
        assert lehmer_polynomial().coeffs == tuple(
            complex(v) for v in (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
        )

    def test_littlewood_membership_and_determinism(self):
        spec = FamilySpec("littlewood", 4, seed=123)
        p = make_family(spec)
        assert p.degree == 4
        assert set(p.coeffs) <= {1, -1}
        assert p.coeffs == make_family(spec).coeffs

    def test_unimodular_membership(self):
        p = make_family(FamilySpec("unimodular", 12, seed=5))
        assert is_unimodular(p)

    def test_g_class_membership(self):
        p = make_family(FamilySpec("g_class", 12, seed=5))
        assert is_g_class(p)
        assert abs(abs(p.coeffs[0]) - 1) < 1e-12
        assert abs(abs(p.coeffs[-1]) - 1) < 1e-12

    def test_different_seeds_differ(self):
        a = make_family(FamilySpec("littlewood", 32, seed=1))
        b = make_family(FamilySpec("littlewood", 32, seed=2))
        assert a.coeffs != b.coeffs

    def test_power_minus_one(self):
        p = power_minus_one(5)
        assert p.coeffs == (-1, 0, 0, 0, 0, 1)

    def test_degree_zero_rejected_for_random_kinds(self):
        for kind in ("littlewood", "g_class", "unimodular"):
            with pytest.raises(ValueError):
                make_family(FamilySpec(kind, 0, seed=1))

    def test_cyclotomic_table(self):
        assert cyclotomic(1) == (-1, 1)
        assert cyclotomic(2) == (1, 1)
        assert cyclotomic(3) == (1, 1, 1)
        assert cyclotomic(4) == (1, 0, 1)
        assert cyclotomic(12) == (1, 0, -1, 0, 1)

    def test_cyclotomic_product_degree_and_roots(self):
        p = make_family(FamilySpec("cyclotomic_product", 12, seed=9))
        assert 1 <= p.degree <= 12
        # All roots on the unit circle: |P| has geometric mean 1.
        roots = np.roots(list(p.coeffs)[::-1])
        assert np.max(np.abs(np.abs(roots) - 1)) < 1e-8


class TestRudinShapiro:
    def test_base_case(self):
        p0, q0 = rudin_shapiro_pair(0)
        assert p0.coeffs == (1,)
        assert q0.coeffs == (1,)

    def test_k2_by_hand(self):
        # P1 = 1 + z, Q1 = 1 - z; P2 = P1 + z^2 Q1 = 1 + z + z^2 - z^3.
        p2, q2 = rudin_shapiro_pair(2)
        assert p2.coeffs == (1, 1, 1, -1)
        assert q2.coeffs == (1, 1, -1, 1)

    def test_norm_from_coefficients(self):
        p8, _ = rudin_shapiro_pair(8)
        assert sum(abs(c) ** 2 for c in p8.coeffs) == 256.0

    @pytest.mark.parametrize("k", range(0, 12))
    def test_prefix_sharing(self, k):
        pk, _ = rudin_shapiro_pair(k)
        pk1, qk1 = rudin_shapiro_pair(k + 1)
        assert pk1.coeffs[: 2**k] == pk.coeffs
        assert qk1.coeffs[: 2**k] == pk.coeffs

    def test_all_signs(self):
        pk, qk = rudin_shapiro_pair(6)
        assert set(pk.coeffs) | set(qk.coeffs) <= {1, -1}
        assert pk.degree == 2**6 - 1

    def test_order_range(self):
        with pytest.raises(ValueError):
            rudin_shapiro_pair(-1)
        with pytest.raises(ValueError):
            rudin_shapiro_pair(25)


class TestSerialization:
    def test_json_example(self):
        p = read_polynomial('{"coeffs":[[1,0],[1,0]]}')
        assert p.coeffs == (1, 1)

    def test_text_example(self):
        p = read_polynomial("1 0 -1", format="text")
        assert p.coeffs == (1, 0, -1)

    def test_round_trip_lehmer(self):
        p = lehmer_polynomial()
        again = read_polynomial(write_polynomial(p))
        assert again.coeffs == p.coeffs

    def test_round_trip_bit_exact_random(self, rng):
        coeffs = tuple(complex(a, b) for a, b in rng.normal(size=(9, 2)))
        p = Polynomial(coeffs)
        again = read_polynomial(write_polynomial(p))
        assert again.coeffs == p.coeffs  # bit-exact, not approximate

    def test_reads_byte_stream(self):
        p = read_polynomial(io.BytesIO(b'{"coeffs": [[2,0],[0,1]]}'))
        assert p.coeffs == (2, 1j)

    def test_malformed_inputs(self):
        with pytest.raises(PolynomialFormatError):
            read_polynomial("{not json")
        with pytest.raises(PolynomialFormatError):
            read_polynomial('{"coeffs": []}')
        with pytest.raises(PolynomialFormatError):
            read_polynomial('{"coeffs": [[1,0],[0,0]]}')  # zero leading
        with pytest.raises(PolynomialFormatError):
            read_polynomial("1 2 spam", format="text")
        with pytest.raises(PolynomialFormatError):
            read_polynomial('{"coeffs": [[1,0],[null,0]]}')

    def test_label_round_trip(self):
        p = Polynomial((1, 1), label="demo")
        assert json.loads(write_polynomial(p))["label"] == "demo"


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**63 - 1))
def test_family_determinism_property(degree, seed):
    spec = FamilySpec("unimodular", degree, seed=seed)
    assert make_family(spec).coeffs == make_family(spec).coeffs
