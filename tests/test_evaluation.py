"""The shared Horner kernel against an mpmath oracle (mpmath is test-only).

Each check allows Horner's a-priori error, ``gamma_2n * sum_j |c_j| |z|^j``
(Higham, Accuracy and Stability of Numerical Algorithms, section 5.1), with
a safety factor, so a wrong coefficient order, a dropped term or an overflow
shows while last-bit rounding does not.
"""
import math

import mpmath
import numpy as np
import pytest

from polyzero.poly import (
    _HORNER_BLOCK,
    FamilySpec,
    Polynomial,
    _horner,
    evaluate,
    evaluate_with_derivative,
    make_family,
)
from polyzero.roots import _newton_steps, log_abs_eval

EPS = np.finfo(float).eps


def _oracle(p: Polynomial, z: complex):
    """``(P(z), P'(z), sum |c_j| |z|^j, sum j |c_j| |z|^(j-1))`` in high precision."""
    with mpmath.workdps(60):
        zm = mpmath.mpc(z)
        val = der = mpmath.mpc(0)
        for c in reversed(p.coeffs):
            der = der * zm + val
            val = val * zm + mpmath.mpc(c)
        r = mpmath.mpf(abs(z))
        mag = sum(abs(c) * r**j for j, c in enumerate(p.coeffs))
        dmag = sum(j * abs(c) * r ** (j - 1) for j, c in enumerate(p.coeffs) if j)
    return val, der, mag, dmag


def _points(radius: float, count: int, seed: int) -> np.ndarray:
    t = np.random.default_rng(seed).random(count)
    return radius * np.exp(2j * np.pi * t)


def _polys():
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(21) + 1j * rng.standard_normal(21)
    return [
        Polynomial(tuple(coeffs)),
        make_family(FamilySpec("littlewood", 64, seed=3)),
        make_family(FamilySpec("g_class", 40, seed=5)),
    ]


@pytest.mark.parametrize("radius", [0.6, 1.0, 1.3])
@pytest.mark.parametrize("poly", _polys(), ids=lambda p: f"n{p.degree}")
class TestAgainstOracle:
    def test_evaluate(self, poly, radius):
        z = _points(radius, 12, seed=1)
        got = evaluate(poly, z)
        for zi, gi in zip(z, got):
            exact, _, mag, _ = _oracle(poly, complex(zi))
            assert abs(mpmath.mpc(complex(gi)) - exact) <= 8 * poly.degree * EPS * mag

    def test_evaluate_scalar_matches_array(self, poly, radius):
        z = _points(radius, 4, seed=2)
        got = evaluate(poly, z)
        for zi, gi in zip(z, got):
            scalar = evaluate(poly, complex(zi))
            assert isinstance(scalar, complex)
            assert scalar == complex(gi)

    def test_evaluate_with_derivative(self, poly, radius):
        z = _points(radius, 12, seed=3)
        vals, derivs = evaluate_with_derivative(poly, z)
        for zi, v, d in zip(z, vals, derivs):
            exact, exact_d, mag, dmag = _oracle(poly, complex(zi))
            assert abs(mpmath.mpc(complex(v)) - exact) <= 8 * poly.degree * EPS * mag
            assert abs(mpmath.mpc(complex(d)) - exact_d) <= 16 * poly.degree * EPS * dmag
        scalar_v, scalar_d = evaluate_with_derivative(poly, complex(z[0]))
        assert (scalar_v, scalar_d) == (complex(vals[0]), complex(derivs[0]))

    def test_log_abs_eval(self, poly, radius):
        z = _points(radius, 12, seed=4)
        got = log_abs_eval(poly, z)
        for zi, g in zip(z, got):
            exact, _, mag, _ = _oracle(poly, complex(zi))
            # A relative value error of r moves log|P| by at most about r.
            rel = 8 * poly.degree * EPS * mag / float(abs(exact))
            assert abs(g - float(mpmath.log(abs(exact)))) <= 2 * rel + 1e-15


class TestLargeModulus:
    """n = 2048 at |z| = 1.5, where ``z**n`` overflows float64."""

    N = 2048

    @pytest.fixture(scope="class")
    def poly(self):
        return make_family(FamilySpec("littlewood", self.N, seed=7))

    def test_power_overflows(self):
        with np.errstate(over="ignore"):
            assert not math.isfinite(abs(np.complex128(1.5) ** self.N))

    def test_log_abs_eval(self, poly):
        z = _points(1.5, 6, seed=5)
        got = log_abs_eval(poly, z)
        assert np.all(np.isfinite(got))
        for zi, g in zip(z, got):
            exact, _, _, _ = _oracle(poly, complex(zi))
            assert g == pytest.approx(float(mpmath.log(abs(exact))), abs=1e-9)

    def test_newton_steps(self, poly):
        z = _points(1.5, 6, seed=6)
        got = _newton_steps(poly.coefficient_array(), z)
        for zi, g in zip(z, got):
            exact, exact_d, _, _ = _oracle(poly, complex(zi))
            ratio = complex(exact / exact_d)
            assert abs(g - ratio) <= 1e-9 * abs(ratio)

    def test_mixed_moduli_in_one_call(self, poly):
        z = np.concatenate([_points(0.5, 3, seed=8), _points(1.0, 3, seed=9), _points(1.5, 3, seed=10)])
        got = log_abs_eval(poly, z)
        for zi, g in zip(z, got):
            exact, _, _, _ = _oracle(poly, complex(zi))
            assert g == pytest.approx(float(mpmath.log(abs(exact))), abs=1e-6)


def _plain_horner(coeffs, z, derivative=False):
    """The out-of-place recurrence, one pass over all of ``z``: the reference."""
    acc = np.full_like(z, coeffs[-1])
    dacc = np.zeros_like(z) if derivative else None
    for cj in coeffs[-2::-1]:
        if derivative:
            dacc = dacc * z + acc
        acc = acc * z + cj
    return (acc, dacc) if derivative else acc


def _bits(result):
    """Shape and raw bytes of each array in a Horner result."""
    parts = result if isinstance(result, tuple) else (result,)
    return [(np.shape(a), np.asarray(a).tobytes()) for a in parts]


class TestBlockBoundaries:
    """``_horner`` runs over blocks of points and must match the plain recurrence bit for bit."""

    B = _HORNER_BLOCK
    COEFFS = tuple(np.random.default_rng(12).standard_normal((41, 2)) @ (1.0, 1j))

    @pytest.mark.parametrize("derivative", [False, True])
    @pytest.mark.parametrize("size", [0, 1, 2, B - 1, B, B + 1, 2 * B + 3])
    def test_array(self, size, derivative):
        rng = np.random.default_rng(size)
        z = (0.8 + 0.4 * rng.random(size)) * np.exp(2j * np.pi * rng.random(size))
        assert _bits(_horner(self.COEFFS, z, derivative)) == _bits(_plain_horner(self.COEFFS, z, derivative))

    @pytest.mark.parametrize("derivative", [False, True])
    def test_zero_dimensional(self, derivative):
        z = np.asarray(0.3 + 0.9j)
        got = _horner(self.COEFFS, z, derivative)
        assert np.ndim(got[0] if derivative else got) == 0
        assert _bits(got) == _bits(_plain_horner(self.COEFFS, z, derivative))
