"""The shared blocked evaluation kernel against an mpmath oracle (mpmath is test-only).

Each check allows an a-priori error bound, ``gamma_2n * sum_j |c_j| |z|^j``
(Higham, Accuracy and Stability of Numerical Algorithms, section 5.1) with a
safety factor, or the kernel's own first-order bound (``_kernel_bound``), so
a wrong coefficient order, a dropped term or an overflow shows while
last-bit rounding does not.
"""
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from polyzero.poly import (
    _TABLE_ENTRIES,
    FamilySpec,
    Polynomial,
    _evaluate,
    evaluate,
    make_family,
    power_minus_one,
    rudin_shapiro_pair,
)
from polyzero.roots import _log_abs_split, _newton_steps, log_abs_eval

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
        for i in range(len(z)):
            assert evaluate(poly, z[i : i + 1])[0] == got[i]

    def test_evaluate_with_derivative(self, poly, radius):
        z = _points(radius, 12, seed=3)
        vals, derivs = _evaluate(poly.coeffs, z, order=1)
        for zi, v, d in zip(z, vals, derivs):
            exact, exact_d, mag, dmag = _oracle(poly, complex(zi))
            assert abs(mpmath.mpc(complex(v)) - exact) <= 8 * poly.degree * EPS * mag
            assert abs(mpmath.mpc(complex(d)) - exact_d) <= 16 * poly.degree * EPS * dmag
        scalar_v, scalar_d = _evaluate(poly.coeffs, np.asarray(z[0]), order=1)
        assert (scalar_v, scalar_d) == (vals[0], derivs[0])

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
        got = _newton_steps(poly.coefficient_array(), z)[0]
        for zi, g in zip(z, got):
            exact, exact_d, _, _ = _oracle(poly, complex(zi))
            ratio = complex(exact / exact_d)
            assert abs(g - ratio) <= 1e-9 * abs(ratio)

    def test_newton_steps_point_matches_batch(self, poly):
        # Mixed moduli, so a one-point call can meet either side of the split.
        z = np.concatenate([_points(0.5, 2, seed=11), _points(1.0, 2, seed=12), _points(1.5, 2, seed=13)])
        batch = _newton_steps(poly.coefficient_array(), z)[0]
        for i in range(len(z)):
            assert _newton_steps(poly.coefficient_array(), z[i : i + 1])[0][0] == batch[i]

    def test_newton_steps_log_abs_is_log_abs_eval(self, poly):
        # find_roots takes its certificate's log |P| from the Newton evaluation.
        z = np.concatenate([_points(0.5, 3, seed=15), _points(1.0, 3, seed=16), _points(1.5, 3, seed=17)])
        split = _newton_steps(poly.coefficient_array(), z)[1]
        assert np.array_equal(_log_abs_split(poly.degree, z, *split), log_abs_eval(poly, z))

    @pytest.mark.parametrize("radius", [0.6, 1.0, 1.3])
    def test_scalar_matches_array(self, poly, radius):
        z = _points(radius, 6, seed=14)
        vals, derivs = _evaluate(poly.coeffs, z, order=1)
        assert np.array_equal(evaluate(poly, z), vals)
        for i, zi in enumerate(z):
            assert evaluate(poly, complex(zi)) == vals[i]
            assert evaluate(poly, z[i : i + 1])[0] == vals[i]
            assert tuple(_evaluate(poly.coeffs, np.asarray(zi), order=1)) == (vals[i], derivs[i])

    def test_mixed_moduli_in_one_call(self, poly):
        z = np.concatenate([_points(0.5, 3, seed=8), _points(1.0, 3, seed=9), _points(1.5, 3, seed=10)])
        got = log_abs_eval(poly, z)
        for zi, g in zip(z, got):
            exact, _, _, _ = _oracle(poly, complex(zi))
            assert g == pytest.approx(float(mpmath.log(abs(exact))), abs=1e-6)


def _kernel_bound(n: int) -> float:
    """The kernel's first-order error factor ``(sqrt(5) n + sqrt(2) nb + 2 sqrt(2) L) u`` (see ``poly._evaluate``)."""
    size = n + 1
    block = math.isqrt(size - 1) + 1
    return (math.sqrt(5) * n + math.sqrt(2) * -(-size // block) + 2 * math.sqrt(2) * block) * 2.0**-53


def _points_per_block(n: int) -> int:
    """Points per block of the kernel's power table at degree ``n``."""
    return max(2, _TABLE_ENTRIES // (math.isqrt(n) + 2))


def _check_against_oracle(p: Polynomial, z: np.ndarray, derivative: bool):
    """Each value (and derivative) within twice the kernel's a-priori bound of mpmath."""
    if derivative:
        vals, derivs = _evaluate(p.coeffs, np.asarray(z, dtype=complex), order=1)
    else:
        vals, derivs = evaluate(p, z), None
    assert np.shape(vals) == np.shape(z)
    flat_z, flat_v = np.reshape(z, -1), np.reshape(vals, -1)
    flat_d = np.reshape(derivs, -1) if derivative else None
    # Every point against numpy's own Horner, loosely: a dropped or shifted point shows.
    c = p.coefficient_array()
    mags = np.polyval(np.abs(c)[::-1], np.abs(flat_z))
    assert np.all(np.abs(flat_v - np.polyval(c[::-1], flat_z)) <= 1e-12 * mags)
    # mpmath at the ends of the array and of every point block, and on a sample of the rest.
    m = flat_z.size
    chunks = max(-(-m // _points_per_block(p.degree)), 1)
    edges = np.arange(chunks + 1) * m // chunks
    idx = np.r_[0:64, m - 8 : m, 0:m:97, (edges[:, None] + np.arange(-3, 4)).ravel()]
    for i in np.unique(idx[(idx >= 0) & (idx < m)]):
        exact, exact_d, mag, dmag = _oracle(p, complex(flat_z[i]))
        assert abs(mpmath.mpc(complex(flat_v[i])) - exact) <= 2 * _kernel_bound(p.degree) * mag
        if derivative:
            # j c_j is rounded once before the kernel sees it.
            bound = 2 * (_kernel_bound(p.degree) + 2.0**-53) * dmag
            assert abs(mpmath.mpc(complex(flat_d[i])) - exact_d) <= bound


_COEFFS = tuple(np.random.default_rng(12).standard_normal((41, 2)) @ (1.0, 1j))
_b = _points_per_block(len(_COEFFS) - 1)
_B = 8 * _b  # eight whole point blocks


class TestBlockBoundaries:
    """The kernel splits the points into blocks, and the coefficients into blocks of ``L``.

    Neither split may show in the result: point counts around one and around
    eight point blocks, and degrees where ``L`` does not divide ``n + 1``,
    all stay within the a-priori bound of the mpmath value.
    """

    @pytest.mark.parametrize("derivative", [False, True])
    @pytest.mark.parametrize("size", [0, 1, 2, _B - 1, _B, _B + 1, 2 * _B + 3])
    def test_array(self, size, derivative):
        self._check_size(size, derivative)

    @pytest.mark.parametrize("derivative", [False, True])
    @pytest.mark.parametrize("size", [_b - 1, _b, _b + 1, 2 * _b + 3])
    def test_one_block(self, size, derivative):
        self._check_size(size, derivative)

    @staticmethod
    def _check_size(size, derivative):
        rng = np.random.default_rng(size)
        z = (0.8 + 0.4 * rng.random(size)) * np.exp(2j * np.pi * rng.random(size))
        _check_against_oracle(Polynomial(_COEFFS), z, derivative)

    @pytest.mark.parametrize("derivative", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 8, 9, 40, 2047])
    def test_degrees(self, n, derivative):
        rng = np.random.default_rng(n + 100)
        p = Polynomial(tuple(rng.standard_normal((n + 1, 2)) @ (1.0, 1j)))
        z = (0.9 + 0.2 * rng.random(7)) * np.exp(2j * np.pi * rng.random(7))
        _check_against_oracle(p, z, derivative)

    @pytest.mark.parametrize("derivative", [False, True])
    def test_zero_dimensional(self, derivative):
        p = Polynomial(_COEFFS)
        z = np.asarray(0.3 + 0.9j)
        _check_against_oracle(p, z, derivative)
        pair = np.array([z, 0.5])
        if derivative:
            assert _evaluate(p.coeffs, z, order=1)[1] == _evaluate(p.coeffs, pair, order=1)[1][0]
        else:
            assert evaluate(p, z) == evaluate(p, pair)[0]


@pytest.mark.parametrize("n", [64, 512, 2048])
def test_memory_per_point(n):
    """At order 1 the kernel holds at most ``(L + 1 + 4 nb) * 16`` bytes per point
    of a point block above its result, however many blocks the call has."""
    L = math.isqrt(n) + 1
    nb = -(-(n + 1) // L)
    per_block = _points_per_block(n)
    c = np.random.default_rng(n).standard_normal((n + 1, 2)) @ (1.0, 1j)
    z = _points(1.0, 3 * per_block + 5, seed=n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = _evaluate(c, z, order=1)
        held = tracemalloc.get_traced_memory()[1] - base - out.nbytes
    finally:
        tracemalloc.stop()
    assert held <= (L + 1 + 4 * nb) * 16 * per_block


def _sup_allowance(p: Polynomial) -> float:
    """``eval_err`` of ``norms.sup_norm_enclosure``: ``4e-16 (n + 2) sum |c_j|``."""
    return 4e-16 * (p.degree + 2) * float(np.sum(np.abs(p.coefficient_array())))


class TestSupAllowance:
    """The sup enclosure's rounding allowance covers the kernel on the unit circle."""

    def test_apriori_bound_below_allowance(self):
        for n in range(0, 100_001):
            assert _kernel_bound(n) <= 4e-16 * (n + 2)

    @pytest.mark.parametrize(
        "poly",
        [
            power_minus_one(1024),
            power_minus_one(2048),
            rudin_shapiro_pair(10)[0],
            rudin_shapiro_pair(11)[1],
            make_family(FamilySpec("unimodular", 1024, seed=4)),
            make_family(FamilySpec("unimodular", 2048, seed=5)),
        ],
        ids=lambda p: f"{p.label}-n{p.degree}",
    )
    def test_error_below_allowance(self, poly):
        # Flat or near-flat |P| on the circle, with many near-equal peaks: the cases the allowance is for.
        z = np.exp(2j * np.pi * (np.arange(8) / 8 + np.random.default_rng(poly.degree).random(8) / 8))
        got = evaluate(poly, z)
        for zi, g in zip(z, got):
            exact, _, mag, _ = _oracle(poly, complex(zi))
            err = abs(mpmath.mpc(complex(g)) - exact)
            assert err <= _kernel_bound(poly.degree) * mag
            assert err <= _sup_allowance(poly)
