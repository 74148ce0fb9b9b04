import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

import polyzero.roots as roots_mod
from conftest import match_multisets
from polyzero.poly import FamilySpec, Polynomial, lehmer_polynomial, make_family, power_minus_one
from polyzero.roots import (
    RootFindingError,
    _log_scales,
    _newton_steps,
    find_roots,
    initial_points,
    log_abs_eval,
    rootset_from_known,
    unit_roots_rootset,
)


def _residuals(p, rs):
    """The residuals of ``rs`` against ``p``, recomputed by the row-loop oracle."""
    return roots_mod._residuals_from_scales(p, rs.roots, _row_loop_log_scales(rs.roots, abs(p.coeffs[-1])))


class TestBasicRoots:
    def test_quadratic(self):
        rs = find_roots(Polynomial((-1, 0, 1)), tol=1e-12)
        match_multisets(rs.roots, [1, -1], 1e-12)

    def test_eighth_roots_of_unity(self):
        rs = find_roots(power_minus_one(8), tol=1e-12)
        assert np.max(np.abs(rs.moduli - 1.0)) < 1e-12
        match_multisets(rs.roots, np.exp(2j * np.pi * np.arange(8) / 8), 1e-12)

    def test_lehmer_mahler_product(self):
        rs = find_roots(lehmer_polynomial(), tol=1e-12)
        m = np.prod(np.maximum(1.0, rs.moduli))
        assert abs(m - 1.1762808) < 1e-6

    def test_degree_zero_rejected(self):
        with pytest.raises(RootFindingError):
            find_roots(Polynomial((2.0,)))

    def test_multiple_root(self):
        p = Polynomial((1, -3, 3, -1))  # (z-1)^3
        rs = find_roots(p, tol=1e-8)
        assert np.max(np.abs(rs.roots - 1.0)) < 1e-4
        assert _residuals(p, rs).max() <= 1e-8

    def test_octuple_root(self):
        p = Polynomial((1, -8, 28, -56, 70, -56, 28, -8, 1))  # (z-1)^8
        rs = find_roots(p, tol=1e-8)
        assert np.max(np.abs(rs.roots - 1.0)) < 0.1
        assert _residuals(p, rs).max() <= 1e-8

    def test_nonconvergence_reports_worst_residual(self):
        # An octuple root cannot reach an impossible tolerance in one sweep.
        p = Polynomial((1, -8, 28, -56, 70, -56, 28, -8, 1))  # (z-1)^8
        with pytest.raises(RootFindingError) as err:
            find_roots(p, tol=1e-300, max_iter=1)
        assert err.value.worst_residual is not None
        assert err.value.worst_residual > 1e-300
        # The message says how the loop ended: the sweep budget ran out
        # while every root was still moving.
        assert "after 1 Aberth sweeps" in str(err.value)
        assert "max_iter reached with 8 of 8 roots still active" in str(err.value)

    def test_no_sweeps_certifies_the_start_points(self):
        with pytest.raises(RootFindingError, match=r"after 0 Aberth sweeps \(max_iter reached with 24 of 24"):
            find_roots(make_family(FamilySpec("littlewood", 24, seed=8)), max_iter=0)

    def test_stalled_iteration_named_in_failure(self):
        p = make_family(FamilySpec("littlewood", 24, seed=8))
        with pytest.raises(RootFindingError, match=r"\(steps stalled\)"):
            find_roots(p, tol=1e-300)

    def test_args_in_unit_interval(self):
        rs = find_roots(make_family(FamilySpec("littlewood", 24, seed=8)))
        assert np.all(rs.args_turns >= 0.0)
        assert np.all(rs.args_turns < 1.0)
        assert np.all(rs.moduli >= 0.0)
        assert len(rs) == 24


class TestAgainstCompanionMatrix:
    # np.roots (companion-matrix eigenvalues) as an independent cross-check.
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_degree_20(self, seed):
        p = make_family(FamilySpec("unimodular", 20, seed=seed))
        mine = find_roots(p, tol=1e-10).roots
        reference = np.roots(list(p.coeffs)[::-1])
        match_multisets(mine, reference, 1e-8)

    def test_real_coefficients(self, rng):
        coeffs = tuple(rng.normal(size=13))
        if coeffs[-1] == 0:
            coeffs = coeffs[:-1] + (1.0,)
        p = Polynomial(coeffs)
        mine = find_roots(p, tol=1e-9).roots
        match_multisets(mine, np.roots(list(p.coeffs)[::-1]), 1e-7)


class TestAlgebraicInvariants:
    @pytest.mark.parametrize("n,seed", [(8, 1), (23, 2), (64, 3)])
    def test_vieta(self, n, seed):
        p = make_family(FamilySpec("g_class", n, seed=seed))
        rs = find_roots(p, tol=1e-10)
        c = p.coefficient_array()
        prod = np.prod(rs.roots)
        total = np.sum(rs.roots)
        want_prod = (-1) ** n * c[0] / c[-1]
        want_sum = -c[-2] / c[-1]
        assert abs(prod - want_prod) <= 1e-8 * max(1.0, abs(want_prod))
        assert abs(total - want_sum) <= 1e-8 * max(1.0, abs(want_sum))

    def test_conjugate_symmetry(self):
        p = make_family(FamilySpec("littlewood", 17, seed=11))
        rs = find_roots(p, tol=1e-10)
        match_multisets(rs.roots, np.conj(rs.roots), 1e-9)

    @pytest.mark.parametrize("phi", [0.1, 0.37, 0.81])
    def test_rotation_equivariance(self, phi):
        p = make_family(FamilySpec("littlewood", 14, seed=4))
        rotated = p.rotated(phi)
        base = find_roots(p, tol=1e-11).roots
        rot = find_roots(rotated, tol=1e-11).roots
        match_multisets(rot, base * np.exp(-2j * np.pi * phi), 1e-9)


# The residual certificate cannot tell these roots apart; inclusion radii
# (ROADMAP item 2) must turn these cases into passes.
_VACUOUS = pytest.mark.xfail(strict=True, reason="residual certificate is vacuous here (ROADMAP item 2)")


class TestKnownRootConstruction:
    def test_unit_roots_rootset(self):
        rs = unit_roots_rootset(16)
        assert np.array_equal(np.sort(rs.args_turns), np.arange(16) / 16)
        assert _residuals(power_minus_one(16), rs).max() <= 1e-8

    def test_from_known_rejects_wrong_roots(self):
        p = power_minus_one(4)
        with pytest.raises(RootFindingError):
            rootset_from_known(p, [1.0, -1.0, 2j, -2j], tol=1e-10)

    def test_from_known_counts_must_match(self):
        with pytest.raises(ValueError):
            rootset_from_known(power_minus_one(4), [1.0, -1.0])

    def test_explicit_product_roots(self):
        # (z - 0.1)(z^4 - 1): factored roots certify directly.
        coeffs = np.convolve([-0.1, 1], [-1, 0, 0, 0, 1])
        p = Polynomial(tuple(coeffs))
        rs = rootset_from_known(p, [0.1, 1, -1, 1j, -1j], tol=1e-10)
        assert len(rs) == 5

    def test_from_known_above_degree_4096_scales_by_the_leading_coefficient(self, monkeypatch):
        # Beyond degree 4096 each residual is |P(z_j)| / |c_n|, with no pair pass.
        # The switch is also what rejects the half-shifted roots below: under
        # the pairwise scale their worst residual is 5e-324, so they would
        # pass.  It can go only with the inclusion radii (ROADMAP item 2).
        def fail(*args):
            raise AssertionError("pair pass above degree 4096")

        monkeypatch.setattr(roots_mod, "_log_scales", fail)
        n = 4097
        p = power_minus_one(n)
        rs = rootset_from_known(p, np.exp(2j * np.pi * np.arange(n) / n), tol=1e-8)
        assert len(rs) == n
        with pytest.raises(RootFindingError):
            rootset_from_known(p, np.exp(2j * np.pi * (np.arange(n) + 0.5) / n), tol=1e-8)

    @pytest.mark.parametrize("n", [256, pytest.param(1024, marks=_VACUOUS), pytest.param(2048, marks=_VACUOUS)])
    def test_from_known_rejects_another_polynomials_roots(self, n):
        # Seed 2's roots for seed 1's polynomial.  The pairwise scale grows
        # like the product of the root distances, so from n = 1024 it hides
        # residuals of order 1 (worst 2.7e-58 at 1024, 9.4e-167 at 2048).
        other = find_roots(make_family(FamilySpec("littlewood", n, seed=2)), tol=1e-9).roots
        with pytest.raises(RootFindingError):
            rootset_from_known(make_family(FamilySpec("littlewood", n, seed=1)), other, tol=1e-9)


def test_scale_invariance_of_iteration():
    # Binary scaling is exact in floats, so every Newton/repulsion step and
    # hence the whole root multiset is identical bit for bit.
    p = make_family(FamilySpec("littlewood", 20, seed=6))
    a = find_roots(p, tol=1e-10)
    b = find_roots(p.scaled(4.0), tol=1e-10)
    assert np.array_equal(a.roots, b.roots)
    # Generic scalings agree to rounding.
    c = find_roots(p.scaled(3.7), tol=1e-10)
    match_multisets(c.roots, a.roots, 1e-12)


def _coupling_sums(z, rows):
    return roots_mod._pair_sums(z, rows)[0]


def _dense_pairwise(z):
    # The pairwise kernel before it took row indices: every row, with the
    # diagonal masked one row at a time.
    n = len(z)
    out = np.zeros(n, dtype=complex)
    for start in range(0, n, 256):
        block = z[start : start + 256]
        diff = block[:, None] - z[None, :]
        for i in range(len(block)):
            diff[i, start + i] = np.inf
        diff[diff == 0] = 1e-14
        out[start : start + 256] = (1.0 / diff).sum(axis=1)
    return out


def _dense_aberth(p, max_iter=200):
    """Aberth with every root updated in every sweep, stopped after two
    consecutive sweeps whose largest relative step is below 1e-14."""
    n = p.degree
    c = p.coefficient_array()
    z = initial_points(p)
    stall = 0
    for _ in range(max_iter):
        newton = _newton_steps(c, z)[0]
        bad = ~np.isfinite(newton)
        newton[bad] = z[bad] / n
        denom = 1.0 - newton * _dense_pairwise(z)
        denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
        w = newton / denom
        w = np.where(np.isfinite(w), w, newton)
        step = np.abs(w)
        limit = 0.5 * (1.0 + np.abs(z))
        factor = np.where(step > limit, limit / np.where(step > 0, step, 1.0), 1.0)
        z = z - w * factor
        if np.max(step / (1.0 + np.abs(z))) < 1e-14:
            stall += 1
            if stall >= 2:
                break
        else:
            stall = 0
    return z


class TestFrozenRoots:
    """Sweeps update only the roots that still move."""

    @pytest.mark.parametrize("family", ["g_class", "littlewood", "unimodular"])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_matches_dense_iteration(self, family, n):
        p = make_family(FamilySpec(family, n, seed=5))
        frozen = find_roots(p, tol=1e-9).roots
        dense = _dense_aberth(p)
        # Float32 steering may return the same roots in another order.
        match_multisets(frozen, dense, 1e-12 * max(1.0, np.max(np.abs(dense))))

    def test_newton_points_per_call(self, monkeypatch):
        # Every sweep used to update all n roots (about 17 n points at this
        # size); frozen roots left 7.45 n, and freezing at 1e-9 until the
        # first confirming sweep leaves 6.70 n.
        n = 1024
        points = []

        def counting(c, z, *blocks):
            points.append(len(z))
            return _newton_steps(c, z, *blocks)

        monkeypatch.setattr(roots_mod, "_newton_steps", counting)
        find_roots(make_family(FamilySpec("g_class", n, seed=1)), tol=1e-9)
        assert sum(points) <= 7 * n
        # The loop ends on a full confirming sweep.
        assert points[0] == points[-1] == n

    def test_pairwise_rows_match_dense(self, rng):
        n = 300  # more rows than one block, and a partial last block
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        z[7] = z[3]  # coincident iterates take the finite guard
        dense = _dense_pairwise(z)
        rows = np.array([0, 3, 7, 150, 257, 299])
        np.testing.assert_allclose(_coupling_sums(z, rows), dense[rows], rtol=1e-13)
        np.testing.assert_allclose(_coupling_sums(z, np.arange(n)), dense, rtol=1e-13)
        assert _coupling_sums(z, np.arange(0)).shape == (0,)


def _times(factor, spec):
    return Polynomial(tuple(np.convolve(factor, make_family(spec).coefficient_array())))


def _multiple_root_cases():
    # Each with the confirming sweeps it took when roots froze at 1e-14 throughout.
    return [
        pytest.param(Polynomial((-1, 3, -3, 1)), 1, id="(z-1)^3"),
        pytest.param(Polynomial((1, -8, 28, -56, 70, -56, 28, -8, 1)), 1, id="(z-1)^8"),
        pytest.param(_times([1, -2, 1], FamilySpec("littlewood", 64, seed=3)), 6, id="(z-1)^2 littlewood 64"),
        pytest.param(_times([1, 0, -2, 0, 1], FamilySpec("g_class", 512, seed=3)), 0, id="(z^2-1)^2 g_class 512"),
    ]


@pytest.fixture
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.usefixtures("warnings_are_errors")
class TestFreezeRule:
    """Roots freeze at a 1e-9 step until the first confirming sweep, at 1e-14
    after it."""

    @staticmethod
    def _confirming_sweeps(monkeypatch, p, tol):
        flags = []
        sweep = roots_mod._aberth_sweep

        def counted(c, z, active, confirming, *args):
            flags.append(confirming)
            return sweep(c, z, active, confirming, *args)

        monkeypatch.setattr(roots_mod, "_aberth_sweep", counted)
        rs = find_roots(p, tol=tol)
        return sum(flags), rs

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [16, 64, 256, 1024, 2048])
    @pytest.mark.parametrize("family", ["littlewood", "g_class", "unimodular"])
    def test_simple_roots_take_one_confirming_sweep(self, family, n, seed, monkeypatch):
        p = make_family(FamilySpec(family, n, seed=seed))
        assert self._confirming_sweeps(monkeypatch, p, 1e-9)[0] == 1

    @pytest.mark.parametrize("p,before", _multiple_root_cases())
    def test_multiple_roots_still_certify(self, p, before, monkeypatch):
        confirming, rs = self._confirming_sweeps(monkeypatch, p, 1e-8)
        assert _residuals(p, rs).max() <= 1e-8
        assert confirming <= before + 1


@pytest.mark.usefixtures("warnings_are_errors")  # the non-finite retry must not leak a warning
class TestPairOnceKernel:
    """Each pair of requested rows is computed once; these cases put row
    blocks, frozen columns and the coincidence guard against each other."""

    @staticmethod
    def _points(rng, n):
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    @staticmethod
    def _assert_dense(z, rows):
        got = _coupling_sums(z, rows)
        np.testing.assert_allclose(got, _dense_pairwise(z)[rows], rtol=1e-13)

    @pytest.mark.parametrize("n", [300, 1024, 2048])
    def test_rows_span_blocks_with_frozen_between(self, n, rng, monkeypatch):
        z = self._points(rng, n)
        rows = np.arange(1, n, 2)  # every other root frozen
        blocks = []
        block = roots_mod._coupling_block

        def counted(*args, **kwargs):
            blocks.append(kwargs.get("guard", False))
            return block(*args, **kwargs)

        monkeypatch.setattr(roots_mod, "_coupling_block", counted)
        self._assert_dense(z, rows)
        assert len(blocks) >= 3 and not any(blocks)

    @pytest.mark.parametrize("n", [300, 1024, 2048])
    def test_coincident_pair_split_across_blocks(self, n, rng):
        z = self._points(rng, n)
        rows = np.arange(1, n, 2)
        z[rows[-1]] = z[rows[0]]  # first and last block
        self._assert_dense(z, rows)
        self._assert_dense(z, np.arange(n))

    @pytest.mark.parametrize("n", [300, 1024, 2048])
    def test_coincident_requested_and_frozen(self, n, rng):
        z = self._points(rng, n)
        rows = np.arange(1, n, 2)
        z[rows[3]] = z[n - 2]  # n - 2 is even, so frozen
        self._assert_dense(z, rows)

    @pytest.mark.parametrize("n", [300, 1024, 2048])
    def test_zero_and_one_rows(self, n, rng):
        z = self._points(rng, n)
        assert _coupling_sums(z, np.arange(0)).shape == (0,)
        self._assert_dense(z, np.array([n // 2]))

    def test_degree_one(self):
        assert np.array_equal(_coupling_sums(np.array([0.3 + 0.1j]), np.array([0])), [0.0])

    def test_row_fill_bit_identical_to_broadcast(self, rng, monkeypatch):
        n = 2048  # blocks from 2048 columns wide (row fill) down to 16 (broadcast)
        z = self._points(rng, n)
        z[n - 1] = z[5]  # a guarded block refills its differences
        zr = z[:16]
        blocks, sums = [], []
        for width in (roots_mod._ROW_FILL, n + 1):  # the second never fills by rows
            monkeypatch.setattr(roots_mod, "_ROW_FILL", width)
            d = np.empty((16, n), dtype=complex)
            roots_mod._coupling_block(d, zr, z, np.arange(16), reciprocals=False)
            blocks.append(d)
            sums.append((*roots_mod._pair_sums(z, np.arange(n), logs=True), _coupling_sums(z, np.arange(1, n, 3))))
        assert np.array_equal(blocks[0], blocks[1])
        assert np.array_equal(blocks[0], zr[:, None] - z[None, :])
        for got, want in zip(*sums):
            assert np.array_equal(got, want)


def _match_nearest(a, b):
    """Largest relative distance from each of ``a`` to its nearest in ``b``;
    the nearest points must pair the two multisets one to one."""
    nearest = np.array([np.argmin(np.abs(b - x)) for x in a])
    assert len(set(nearest.tolist())) == len(a)
    return float(np.max(np.abs(a - b[nearest]) / np.maximum(1.0, np.abs(a))))


@pytest.mark.usefixtures("warnings_are_errors")
class TestSinglePrecisionSteering:
    """The sweeps before the first confirming one take their coupling sums in
    float32 where the rows span several blocks."""

    @staticmethod
    def _count_complex_blocks(monkeypatch):
        blocks = []
        block = roots_mod._coupling_block

        def counted(*args, **kwargs):
            blocks.append(1)
            return block(*args, **kwargs)

        monkeypatch.setattr(roots_mod, "_coupling_block", counted)
        return blocks

    @pytest.mark.parametrize("n", [300, 1024, 2048])
    def test_sums_match_dense_within_float32(self, n, rng, monkeypatch):
        z = _near_circle_points(rng, n)
        rows = np.arange(1, n, 2)  # every other root frozen
        blocks = self._count_complex_blocks(monkeypatch)
        got = roots_mod._pair_sums(z, rows, single=True)[0]
        assert not blocks  # the float32 kernel gave the sums
        np.testing.assert_allclose(got, _dense_pairwise(z)[rows], rtol=1e-3)

    @pytest.mark.parametrize("case", ["1e-12 apart", "coincident", "q would overflow", "beyond float32"])
    @pytest.mark.parametrize("n", [300, 2048])
    def test_non_finite_sums_fall_back_to_complex(self, case, n, rng, monkeypatch):
        z = _near_circle_points(rng, n)
        rows = np.arange(1, n, 2)
        if case in ("1e-12 apart", "coincident"):
            z[rows[-1]] = z[rows[0]] + (1e-12 if case == "1e-12 apart" else 0.0)
        else:
            z[rows[2]] = 1e30 if case == "q would overflow" else 1e40
        blocks = self._count_complex_blocks(monkeypatch)
        got = roots_mod._pair_sums(z, rows, single=True)[0]
        assert blocks
        np.testing.assert_allclose(got, _dense_pairwise(z)[rows], rtol=1e-13)

    @pytest.mark.parametrize(
        "p,known,atol",
        [
            pytest.param(
                _times([0, 0, 0, 0, 1], FamilySpec("littlewood", 256, seed=1)), [0, 0, 0, 0], 1e-12, id="z^4 littlewood 256"
            ),
            pytest.param(
                _times([-1e6, 1], FamilySpec("littlewood", 300, seed=1)), [1e6], 1e-6, id="(z-1e6) littlewood 300"
            ),
            pytest.param(
                _times([-1e-12, 0, 1], FamilySpec("littlewood", 300, seed=1)),
                [1e-6, -1e-6],
                1e-14,
                id="(z-1e-6)(z+1e-6) littlewood 300",
            ),
        ],
    )
    def test_edge_cases_certify(self, p, known, atol):
        rs = find_roots(p, tol=1e-8)
        assert _residuals(p, rs).max() <= 1e-8
        for a in set(known):
            assert np.sum(np.abs(rs.roots - a) <= atol) == known.count(a)

    @pytest.mark.parametrize("family", ["g_class", "littlewood", "unimodular"])
    def test_same_roots_as_double_steering(self, family, monkeypatch):
        # The dense iteration takes about 1.5 s a call at this size, so the
        # reference is this solver with the float32 kernel off.  Iterates may
        # settle on other roots, so the multisets are paired by nearest points.
        p = make_family(FamilySpec(family, 2048, seed=5))
        calls = []
        kernel = roots_mod._single_pair_sums

        def counted(*args):
            calls.append(kernel(*args))
            return calls[-1]

        monkeypatch.setattr(roots_mod, "_single_pair_sums", counted)
        single = find_roots(p, tol=1e-9).roots
        assert calls and all(c is not None for c in calls)
        monkeypatch.setattr(roots_mod, "_single_pair_sums", lambda *args: None)
        double = find_roots(p, tol=1e-9).roots
        assert _match_nearest(single, double) <= 1e-14


def test_find_roots_memory_does_not_grow_with_the_degree():
    p = make_family(FamilySpec("g_class", 2048, seed=1))
    tracemalloc.start()
    try:
        find_roots(p, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 256 rows of the n x n coupling matrix alone are 8 MiB.
    assert peak < 4 * 2**20


def _row_loop_log_scales(z, abs_cn):
    # The residual scales before the pair kernel: rows of 256, each summed whole.
    n = len(z)
    want = np.full(n, math.log(abs_cn))
    for start in range(0, n, 256):
        block = z[start : start + 256]
        dist = np.abs(block[:, None] - z[None, :])
        for i in range(len(block)):
            dist[i, start + i] = 1.0
        np.clip(dist, 1.0, None, out=dist)
        want[start : start + 256] += np.log(dist).sum(axis=1)
    return want


def _near_circle_points(rng, n):
    return np.exp(rng.normal(scale=0.05, size=n)) * np.exp(2j * np.pi * rng.random(n))


@pytest.mark.parametrize("n", [7, 256, 300, 1024, 2048])
def test_log_scales_match_row_loop(n, rng):
    # Pair-once sums add in another order than whole rows.
    z = _near_circle_points(rng, n)
    np.testing.assert_allclose(_log_scales(z, 1.7), _row_loop_log_scales(z, 1.7), rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", [7, 300])
def test_log_scales_match_mpmath(n, rng):
    z = _near_circle_points(rng, n)
    z[1] = z[0]  # a coincident pair contributes log 1 = 0
    with mpmath.workdps(40):
        pts = [mpmath.mpc(complex(v)) for v in z]
        want = [mpmath.log(mpmath.mpf(1.7)) for _ in range(n)]
        for j in range(n):
            for k in range(j + 1, n):
                term = mpmath.log(max(mpmath.mpf(1), abs(pts[j] - pts[k])))
                want[j] += term
                want[k] += term
        want = np.array([float(w) for w in want])
    np.testing.assert_allclose(_log_scales(z, 1.7), want, rtol=1e-13, atol=0)


class TestCertificatePass:
    """The confirming sweep computes the residual certificate."""

    @pytest.mark.parametrize("family", ["g_class", "littlewood", "unimodular"])
    @pytest.mark.parametrize("n", [16, 256, 2048])
    def test_residuals_match_separate_pass(self, family, n, monkeypatch):
        # The confirming sweep's own sums: complex128 at n = 16, where they
        # give the residuals; float32 from n = 256, where less their bound A_j
        # they give upper bounds on them.
        p = make_family(FamilySpec(family, n, seed=3))
        sweeps = []
        sweep = roots_mod._aberth_sweep

        def kept(*args):
            sweeps.append(sweep(*args))
            return sweeps[-1]

        monkeypatch.setattr(roots_mod, "_aberth_sweep", kept)
        rs = find_roots(p, tol=1e-8)
        _, _, log_abs, log_pairs, log_err = sweeps[-1]
        log_scale = math.log(abs(p.coeffs[-1])) + log_pairs
        want = _residuals(p, rs)
        if n == 16:
            assert log_err is None
            got = roots_mod._residuals_from_scales(p, rs.roots, log_scale, log_abs)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        else:
            bound = roots_mod._residuals_from_scales(p, rs.roots, log_scale - log_err, log_abs)
            assert np.all(want <= bound) and bound.max() <= 1e-8
            got = roots_mod._residuals_from_scales(p, rs.roots, _log_scales(rs.roots, abs(p.coeffs[-1])))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_converged_path_takes_no_separate_pass(self, monkeypatch):
        def fail(*args):
            raise AssertionError("separate certificate pass")

        monkeypatch.setattr(roots_mod, "_log_scales", fail)
        monkeypatch.setattr(roots_mod, "log_abs_eval", fail)
        find_roots(make_family(FamilySpec("littlewood", 300, seed=2)), tol=1e-8)

    def test_max_iter_fallback_still_certifies(self, monkeypatch):
        p = make_family(FamilySpec("g_class", 64, seed=4))
        sweeps = []

        def counting(c, z, *blocks):
            sweeps.append(len(z))
            return _newton_steps(c, z, *blocks)

        monkeypatch.setattr(roots_mod, "_newton_steps", counting)
        find_roots(p, tol=1e-8)
        assert sweeps[-1] == 64
        passes = []

        def counted(z, abs_cn):
            passes.append(_log_scales(z, abs_cn))
            return passes[-1]

        monkeypatch.setattr(roots_mod, "_log_scales", counted)
        # The last sweep, the confirming one, is cut; the iterates already
        # certify at a loose tolerance.
        rs = find_roots(p, tol=1e-6, max_iter=len(sweeps) - 1)
        assert [len(s) for s in passes] == [64]
        got = roots_mod._residuals_from_scales(p, rs.roots, passes[0])
        want = _residuals(p, rs)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert want.max() <= 1e-6


def _mpmath_pair_sums(z):
    """Coupling and log sums over ``k != j`` at 40 digits."""
    n = len(z)
    with mpmath.workdps(40):
        pts = [mpmath.mpc(complex(v)) for v in z]
        coupling = [mpmath.mpc(0) for _ in range(n)]
        logs = [mpmath.mpf(0) for _ in range(n)]
        for j in range(n):
            for k in range(j + 1, n):
                d = pts[j] - pts[k]
                coupling[j] += 1 / d
                coupling[k] -= 1 / d
                term = mpmath.log(max(mpmath.mpf(1), abs(d)))
                logs[j] += term
                logs[k] += term
        return np.array([complex(v) for v in coupling]), np.array([float(v) for v in logs])


def _oracle_points(case, rng):
    z = _near_circle_points(rng, 64)
    if case.endswith("apart"):
        z[40] = z[3] + float(case.split()[0])
    elif case == "double root":
        z = find_roots(_times([1, -2, 1], FamilySpec("littlewood", 64, seed=3)), tol=1e-8).roots
    elif case == "coordinates just below 2**62":
        z = z * (0.999 * 2.0**62 / np.abs(np.concatenate((z.real, z.imag))).max())
    elif case.startswith("moduli"):
        z = z * 2.0 ** float(case.split()[1])
    return z


@pytest.mark.usefixtures("warnings_are_errors")
class TestConfirmingSweepBounds:
    """The float32 confirming kernel's coupling sums lie within ``E_j`` and its
    log sums within ``A_j`` of the exact sums (mpmath at 40 digits) and of
    the complex128 kernel's; a row the bounds do not cover has both ``inf``."""

    @staticmethod
    def _assert_within(z, step, want_coupling, want_logs):
        out = roots_mod._single_pair_sums(z, len(z), step, True)
        if out is None:  # a pair float32 does not resolve: the sweep runs in complex128
            return None
        coupling, logs, err, log_err = out
        assert np.array_equal(np.isinf(err), np.isinf(log_err))
        assert np.all(np.abs(coupling - want_coupling) <= err)
        assert np.all(np.abs(logs - want_logs) <= log_err)
        return np.isfinite(err)

    @pytest.mark.parametrize(
        "case",
        ["1e-6 apart", "1e-9 apart", "moduli -20", "moduli 20", "coordinates just below 2**62", "double root"],
    )
    def test_against_mpmath(self, case, rng):
        z = _oracle_points(case, rng)  # 64 points, 66 for the double root
        covered = self._assert_within(z, 16, *_mpmath_pair_sums(z))
        if case == "1e-9 apart":
            assert covered is None or not covered[[3, 40]].any()
        elif case != "double root":
            assert covered.all()

    @pytest.mark.parametrize(
        "family,n", [(f, n) for f in ("g_class", "littlewood", "unimodular") for n in (256, 2048)] + [("unit_roots", 2048)]
    )
    def test_against_complex128(self, family, n):
        # At these sizes mpmath is too slow; E_j and A_j also bound the distance
        # to the complex128 kernel's sums.
        if family == "unit_roots":
            z = unit_roots_rootset(n).roots
        else:
            z = find_roots(make_family(FamilySpec(family, n, seed=3)), tol=1e-8).roots
        coupling, logs = roots_mod._pair_sums(z, np.arange(n), logs=True)
        assert self._assert_within(z, roots_mod._block_rows(n, logs=True), coupling, logs).all()

    def test_float32_log_within_its_allowance(self, rng):
        # _LOG32 assumes numpy's float32 log within 2**-20 |log v|: every float32
        # in [1, 2), and a sample of the rest up to 2**127.
        bits = np.concatenate(
            (np.arange(0x3F800000, 0x40000000, dtype=np.uint32), rng.integers(0x40000000, 0x7F000000, 2**20, dtype=np.uint32))
        )
        v = bits.view(np.float32)
        exact = np.log(v.astype(float))
        assert np.all(np.abs(np.log(v).astype(float) - exact) <= roots_mod._LOG32 * exact)


@pytest.mark.usefixtures("warnings_are_errors")
class TestFloat32Confirmation:
    """The converged path decides its confirming sweep and its certificate in
    float32."""

    @pytest.mark.parametrize("family", ["g_class", "littlewood", "unimodular"])
    @pytest.mark.parametrize("n", [256, 2048])
    def test_no_complex128_row_and_no_double_log_pass(self, family, n, monkeypatch):
        p = make_family(FamilySpec(family, n, seed=3))
        sweep, block = roots_mod._aberth_sweep, roots_mod._coupling_block
        confirming, complex_rows = [], []

        def counted_sweep(c, z, active, confirm, *args):
            confirming.append(confirm)
            try:
                return sweep(c, z, active, confirm, *args)
            finally:
                confirming[-1] = False

        def counted_block(d, zr, *args, **kwargs):
            if confirming[-1]:
                complex_rows.append(len(zr))
            return block(d, zr, *args, **kwargs)

        def fail(*args):
            raise AssertionError("double log pass")

        monkeypatch.setattr(roots_mod, "_aberth_sweep", counted_sweep)
        monkeypatch.setattr(roots_mod, "_coupling_block", counted_block)
        monkeypatch.setattr(roots_mod, "_log_scales", fail)
        monkeypatch.setattr(roots_mod, "log_abs_eval", fail)
        rs = find_roots(p, tol=1e-8)
        assert not complex_rows
        monkeypatch.undo()
        # The float32 bounds passed no root set the double sums would reject.
        assert roots_mod._residuals_from_scales(p, rs.roots, _log_scales(rs.roots, abs(p.coeffs[-1]))).max() <= 1e-8

    def test_certificate_at_the_worst_residual(self, monkeypatch):
        # A tol at the worst residual lies below the float32 bound, so it is
        # decided on the double pass, as when the sweep ran in complex128.
        p = make_family(FamilySpec("g_class", 512, seed=2))
        roots = find_roots(p, tol=1e-8).roots
        worst = roots_mod._residuals_from_scales(p, roots, _log_scales(roots, abs(p.coeffs[-1]))).max()
        passes = []

        def counted(z, abs_cn):
            passes.append(len(z))
            return _log_scales(z, abs_cn)

        monkeypatch.setattr(roots_mod, "_log_scales", counted)
        assert np.array_equal(find_roots(p, tol=worst).roots, roots)
        assert passes == [512]
        with pytest.raises(RootFindingError, match=r"\(steps stalled\)") as err:
            find_roots(p, tol=math.nextafter(worst, 0.0))
        assert err.value.worst_residual == worst


def _numpy_scalar_initial_points(p):
    # initial_points with the hull scan on numpy scalars, as it was written first.
    n = p.degree
    c = p.coefficient_array()
    cauchy = 1.0 + float(np.max(np.abs(c[:-1] / c[-1])))
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(c))
    hull = []
    for j in range(n + 1):
        if not np.isfinite(logs[j]):
            continue
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (logs[b] - logs[a]) * (j - b) <= (logs[j] - logs[b]) * (b - a):
                hull.pop()
            else:
                break
        hull.append(j)
    points = np.empty(n, dtype=complex)
    pos = 0
    if hull[0] > 0:
        k = hull[0]
        points[:k] = 1e-3 * np.exp(2j * np.pi * (np.arange(k) / max(k, 1)))
        pos = k
    for a, b in zip(hull[:-1], hull[1:]):
        g = b - a
        radius = min(float(np.exp((logs[a] - logs[b]) / g)), cauchy)
        j = np.arange(pos, pos + g)
        angles = (j / n) * (1.0 + 1e-3) + 0.25 / n
        points[pos : pos + g] = radius * np.exp(2j * np.pi * angles)
        pos += g
    return points


@pytest.mark.parametrize(
    "family,n",
    [(f, n) for f in ("g_class", "littlewood", "unimodular") for n in (16, 256, 2048)] + [("zero_ends", 9), ("zero_ends", 23)],
)
def test_initial_points_bit_identical_to_numpy_scalar_scan(family, n):
    if family == "zero_ends":  # zero low- and high-order coefficients
        p = Polynomial((0, 0, 0, 3, -1e-6, 2e5, 0, 0, 0, 1) if n == 9 else (0, 1e-9, 5) + (0,) * 20 + (1,))
    else:
        p = make_family(FamilySpec(family, n, seed=9))
    got = initial_points(p)
    assert np.array_equal(got, _numpy_scalar_initial_points(p))
    assert np.all(np.isfinite(got))


@pytest.mark.usefixtures("warnings_are_errors")
@pytest.mark.parametrize(
    "coeffs, radius",
    [((1e300, 1e-300), 1.7976931348623157e308), ((1e200, 0, 0, 1e-200), 10 ** (400 / 3)), ((1e-300, 1e300), 2.2250738585072014e-308)],
    ids=["cauchy ratio overflows", "3 roots at 1e133", "radius underflows"],
)
def test_initial_points_clamp_to_the_float_range(coeffs, radius):
    # The Cauchy ratio c_j / c_n and the polygon radius overflowed here.
    got = initial_points(Polynomial(coeffs))
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(np.abs(got), radius, rtol=1e-12)


@pytest.mark.usefixtures("warnings_are_errors")
@pytest.mark.parametrize("coeffs", [(1e-150, 1e200, 1e-150), (1e300, 1e-300)], ids=["root near -1e350", "root at -1e600"])
def test_root_outside_the_float_range_raises(coeffs):
    # The start point of such a root lies at the largest float, where the
    # coupling sums' differences and reciprocals overflowed.
    with pytest.raises(RootFindingError, match="left the float range"):
        find_roots(Polynomial(coeffs))
