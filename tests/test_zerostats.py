import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import polyzero.zerostats as zerostats_mod
from polyzero import geometry
from polyzero.harness import stratified_center_angles
from polyzero.poly import FamilySpec, Polynomial, make_family
from polyzero.roots import RootSet, find_roots, rootset_from_known, unit_roots_rootset
from polyzero.zerostats import (
    AnnularStat,
    SectorSpec,
    angular_discrepancy,
    angular_discrepancy_report,
    annular_discrepancy,
    disk_counts,
    region_count,
    tau_outside_annulus,
)


def grid_oracle(args_turns, n, grid=10_000):
    """Brute-force discrepancy over arcs with endpoints on a uniform grid."""
    t = np.arange(grid) / grid
    counts = np.searchsorted(np.sort(args_turns), t, side="left")
    g = counts / n - t
    return float(g.max() - g.min())


def explicit_product_rootset():
    coeffs = np.convolve([-0.1, 1], [-1, 0, 0, 0, 1])
    p = Polynomial(tuple(coeffs))
    return rootset_from_known(p, [0.1, 1, -1, 1j, -1j], tol=1e-10)


class TestSectorCount:
    def test_eighth_roots_half_turn_arc(self):
        rs = unit_roots_rootset(8)
        stat = region_count(rs, geometry.Sector(math.pi / 8, 9 * math.pi / 8))
        assert stat.count == 4
        assert stat.tau == 0.5

    def test_full_circle(self):
        rs = unit_roots_rootset(8)
        stat = region_count(rs, geometry.Sector(0.7, 0.7 + 2 * math.pi))
        assert stat.count == 8
        assert stat.reference == 1.0

    def test_half_open_boundary(self):
        rs = unit_roots_rootset(4)  # angles 0, 1/4, 1/2, 3/4 turns
        stat = region_count(rs, geometry.Sector(0.0, math.pi / 2))
        assert stat.count == 1  # angle 0 in, angle pi/2 out

    def test_random_arcs_against_membership_scan(self, rng):
        p = make_family(FamilySpec("littlewood", 9, seed=17))
        rs = find_roots(p, tol=1e-11)
        for _ in range(100):
            alpha = float(rng.uniform(0, 2 * math.pi))
            beta = alpha + float(rng.uniform(1e-6, 2 * math.pi))
            stat = region_count(rs, geometry.Sector(alpha, beta))
            width = (beta - alpha) % (2 * math.pi) or 2 * math.pi
            brute = sum(
                ((theta * 2 * math.pi - alpha) % (2 * math.pi)) < width
                for theta in rs.args_turns
            )
            assert stat.count == brute

    def test_partition_sums_to_n(self, rng):
        p = make_family(FamilySpec("unimodular", 14, seed=23))
        rs = find_roots(p)
        cuts = np.sort(rng.uniform(0, 2 * math.pi, size=6))
        arcs = list(zip(cuts, np.roll(cuts, -1)))
        total = sum(region_count(rs, geometry.Sector(a, b)).count for a, b in arcs)
        assert total == 14


class TestRegionCount:
    def test_annulus_all_on_circle(self):
        rs = unit_roots_rootset(8)
        assert region_count(rs, geometry.Annulus(0.5)).count == 8

    def test_annulus_excludes_inner_root(self):
        rs = explicit_product_rootset()
        stat = region_count(rs, geometry.Annulus(0.5))
        assert stat.count == 4
        assert tau_outside_annulus(rs, 0.5) == pytest.approx(0.2)

    def test_closed_disk_near_one(self):
        rs = unit_roots_rootset(8)
        stat = region_count(rs, geometry.DiskOnCircle(0.0, 0.3))
        assert stat.count == 1

    def test_gear_region_count(self):
        rs = find_roots(make_family(FamilySpec("littlewood", 64, seed=4)))
        gear = geometry.build_gear(0.3, 0.0)
        assert region_count(rs, gear).count == int(_dense_gear(rs.roots, gear).sum())
        # Exact data: the stored moduli 1, not computed |z| that round above
        # 1, decide the unit disk (24 roots against 20).
        exact, gear = unit_roots_rootset(128), geometry.build_gear(0.3, 0.25)
        assert region_count(exact, gear).count == int(_dense_gear(exact.roots, gear, exact.moduli).sum()) == 24

    def test_annular_sector_count_at_arc_ends(self, rng):
        # Roots a few ulps from the arc ends: the annular sector's count and
        # the annular discrepancy's decide them by the same rule.
        ulps = np.arange(-4, 5)
        for _ in range(200):
            a = float(rng.uniform(-7.0, 7.0))
            b = a + float(rng.uniform(0.1, 6.0))
            ends = np.concatenate([e + ulps * np.spacing(e) for e in (a, b)])
            rs = _rootset(0.8 * np.exp(1j * ends))
            stat = annular_discrepancy(rs, 0.5, SectorSpec(a, b))
            assert region_count(rs, geometry.AnnularSector(0.5, a, b)).tau == stat.tau_annular_sector

    def test_sector_contains_agrees_with_count(self):
        # Arcs that start or end at a root's own angle.
        rs = find_roots(make_family(FamilySpec("littlewood", 64, seed=5)))
        for t in rs.args_turns:
            alpha = 2 * math.pi * float(t)
            for s in (geometry.Sector(alpha, alpha + 1.0), geometry.Sector(alpha - 1.0, alpha)):
                assert int(geometry.contains(s, rs.roots).sum()) == region_count(rs, s).count


def _dense_gear(z, gear, moduli=None):
    # Every point against every tooth centre.
    z = np.asarray(z, dtype=complex)
    moduli = np.abs(z) if moduli is None else moduli
    return (moduli <= 1.0) & (np.abs(z[:, None] - gear.centers[None, :]) > gear.gamma).all(axis=1)


class TestGearCounts:
    """The two-nearest-teeth rule equals the dense test at every point."""

    @pytest.mark.parametrize(
        "gamma, delta, phase",
        [
            (0.04, 0.0, 0.0),
            (math.pi / 60, 0.2577, 0.0),
            (0.3, 0.25, 0.7),
            (0.5, 0.0, -2.0),  # 6 tangent teeth
            (0.8, 0.0, 10.0),
            (1.0, 0.0, 0.3),  # 2 tangent teeth
            (1.5, 0.0, 1.0),  # 1 tooth
        ],
    )
    def test_against_dense_reference(self, gamma, delta, phase, rng):
        gear = geometry.build_gear(gamma, delta, allow_wide=True, phase=phase)
        c, psi = gear.centers, np.asarray(gear.center_angles)
        pts = np.concatenate(
            (
                np.sqrt(rng.random(2000)) * np.exp(2j * math.pi * rng.random(2000)),
                (c[:, None] + gamma * np.exp(2j * math.pi * rng.random(50))[None, :]).ravel(),
                0.5 * (c + np.roll(c, -1)),  # the tangent points when teeth touch
                np.exp(1j * (psi + gear.tooth_arc / 2.0)),  # where a tooth circle meets the unit circle
                (1.0 - 2.0 * gamma) * np.exp(1j * (psi + math.pi / gear.teeth)),
                [0.0, 1.0, -1.0, 1j, math.nan, complex(math.inf, 0.0)],
            )
        )
        want = _dense_gear(pts, gear)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(geometry.contains(gear, pts), want)
            assert region_count(_rootset(pts), gear).count == int(want.sum())


class TestAngularDiscrepancy:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 64])
    def test_roots_of_unity(self, n):
        rs = unit_roots_rootset(n)
        assert abs(angular_discrepancy(rs) - 1.0 / n) <= 1e-14

    def test_single_root(self):
        rs = rootset_from_known(Polynomial((-1, 1)), [1.0])
        rep = angular_discrepancy_report(rs)
        assert rep["value"] == 1.0
        assert not rep["attained"]

    def test_matches_grid_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 13))
            p = make_family(FamilySpec("littlewood", n, seed=int(rng.integers(2**31))))
            rs = find_roots(p, tol=1e-11)
            exact = angular_discrepancy(rs)
            oracle = grid_oracle(rs.args_turns, n)
            assert exact >= oracle - 1e-12
            assert exact <= oracle + 2 * math.pi * n / 10_000

    def test_scale_invariance(self):
        p = make_family(FamilySpec("littlewood", 12, seed=31))
        a = angular_discrepancy(find_roots(p, tol=1e-11))
        b = angular_discrepancy(find_roots(p.scaled(2.0), tol=1e-11))
        assert a == b

    def test_rotation_invariance(self):
        p = make_family(FamilySpec("littlewood", 12, seed=31))
        a = angular_discrepancy(find_roots(p, tol=1e-11))
        b = angular_discrepancy(find_roots(p.rotated(0.3), tol=1e-11))
        assert abs(a - b) <= 1e-9

    def test_multiplicity_grouping(self):
        # Triple root at angle 0 next to a simple root: sup is 3/4 via the
        # point mass, reached in the shrinking-arc limit.
        coeffs = np.convolve(np.convolve([-1, 1], [-1, 1]), np.convolve([-1, 1], [1j, 1]))
        p = Polynomial(tuple(coeffs))
        rs = rootset_from_known(p, [1.0, 1.0, 1.0, -1j], tol=1e-10)
        rep = angular_discrepancy_report(rs)
        assert rep["value"] == 0.75
        assert not rep["attained"]


class TestAnnularDiscrepancy:
    def test_all_in_annulus_symmetric_arc(self):
        rs = unit_roots_rootset(8)
        stat = annular_discrepancy(rs, 0.5, SectorSpec(math.pi / 8, 9 * math.pi / 8))
        assert stat.discrepancy == 0.0

    def test_explicit_product_full_circle(self):
        rs = explicit_product_rootset()
        stat = annular_discrepancy(rs, 0.5, SectorSpec(0.0, 2 * math.pi))
        assert stat.discrepancy == pytest.approx(0.2)
        assert stat.tau_outside == pytest.approx(0.2)

    def test_small_rho_reduces_to_sector(self):
        p = make_family(FamilySpec("littlewood", 10, seed=3))
        rs = find_roots(p)
        s = SectorSpec(0.4, 2.9)
        tiny = annular_discrepancy(rs, 1e-9, s)
        sector_tau = region_count(rs, s).tau
        assert tiny.discrepancy == pytest.approx(abs(sector_tau - s.reference), abs=1e-15)

    def test_domination_triangle_inequality(self, rng):
        p = make_family(FamilySpec("unimodular", 20, seed=77))
        rs = find_roots(p)
        d = angular_discrepancy(rs)
        for rho in (0.3, 0.5, 0.9):
            t_out = tau_outside_annulus(rs, rho)
            for _ in range(20):
                a = float(rng.uniform(0, 2 * math.pi))
                b = a + float(rng.uniform(0.1, 2 * math.pi))
                stat = annular_discrepancy(rs, rho, SectorSpec(a, b))
                assert stat.discrepancy <= d + t_out + 1e-12

    def test_rho_validation(self):
        rs = unit_roots_rootset(4)
        with pytest.raises(ValueError):
            annular_discrepancy(rs, 1.5, SectorSpec(0, 1))
        with pytest.raises(ValueError):
            tau_outside_annulus(rs, 0.0)

    def test_returns_annular_stat(self):
        rs = unit_roots_rootset(4)
        stat = annular_discrepancy(rs, 0.5, SectorSpec(0, math.pi))
        assert isinstance(stat, AnnularStat)
        assert stat.reference == 0.5


def _rootset(z):
    z = np.asarray(z, dtype=complex)
    return RootSet(
        roots=z,
        residuals=np.zeros(len(z)),
        moduli=np.abs(z),
        args_turns=np.mod(np.angle(z) / (2 * math.pi), 1.0),
    )


def _distance_test(z, angles, radius):
    # The counts before the arc index: every root against every centre.
    d = np.abs(np.asarray(z)[None, :] - np.exp(1j * np.asarray(angles, dtype=float))[:, None])
    return (d < radius).sum(axis=1), (d <= radius).sum(axis=1)


RADII = [0.0, -1.0, 1e-9, 0.5, 0.99, 1.0, 1.5, 2.0, 2.5, math.nan, math.inf]
EDGE_ANGLES = [0.0, 5e-7, 1e-6, math.pi, 2 * math.pi - 1e-6, np.nextafter(2 * math.pi, 0.0)]


class TestDiskCounts:
    """Arc-index counts equal the distance test centre by centre."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @staticmethod
    def _assert_counts(rs, angles, radius):
        opened, closed = disk_counts(rs, angles, radius)
        want = _distance_test(rs.roots, angles, radius)
        assert np.array_equal(opened, want[0]) and np.array_equal(closed, want[1])
        for k, a in enumerate(angles):
            for shut, counts in ((False, opened), (True, closed)):
                disk = geometry.DiskOnCircle(float(a), radius, closed=shut)
                assert region_count(rs, disk).count == counts[k]
                assert region_count(rs, disk).count == int(geometry.contains(disk, rs.roots).sum())

    @given(
        moduli=st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 1.0 - 1e-12, 1.0 + 1e-12, 0.5, 2.0]),
                st.floats(0.0, 3.0),
            ),
            min_size=1,
            max_size=60,
        ),
        angles=st.lists(st.floats(-math.pi, math.pi), min_size=60, max_size=60),
        centres=st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True), max_size=20),
        radius=st.one_of(st.sampled_from(RADII), st.floats(0.0, 2.5)),
    )
    def test_random_root_sets(self, moduli, angles, centres, radius):
        z = np.array(moduli) * np.exp(1j * np.array(angles[: len(moduli)]))
        # Centres at the roots' own angles, and at the ends of their arcs,
        # where a root is on the circle |w - c| = r up to rounding.
        rho, phi = np.abs(z), np.angle(z)
        with np.errstate(all="ignore"):
            half = np.arccos(np.clip((rho * rho + 1 - radius * radius) / (2 * rho), -1, 1))
        ends = np.concatenate((phi, phi - half, phi + half))
        ends = np.mod(ends[np.isfinite(ends)], 2 * math.pi)
        self._assert_counts(_rootset(z), np.concatenate((centres, ends)), radius)

    @pytest.mark.parametrize("radius", RADII + ["chord"])
    def test_roots_on_the_boundary(self, radius):
        n = 720
        rs = unit_roots_rootset(n)
        if radius == "chord":
            radius = float(np.abs(rs.roots[1] - rs.roots[0]))  # neighbours exactly on the circle
        self._assert_counts(rs, np.concatenate((2 * math.pi * rs.args_turns[::7], EDGE_ANGLES)), radius)

    @pytest.mark.parametrize("radius", RADII + [1e-12, 2e-12, 1.0 + 1e-12])
    def test_roots_at_zero_and_near_the_circle(self, radius, rng):
        t = rng.random(40) * 2 * math.pi
        z = np.concatenate(([0.0, 0.0], (1.0 + 1e-12) * np.exp(1j * t[:19]), (1.0 - 1e-12) * np.exp(1j * t[19:])))
        angles = np.concatenate((t, t + 1e-7, EDGE_ANGLES, [-0.5, 7.0, math.nan]))
        self._assert_counts(_rootset(z), angles, radius)

    def test_only_the_last_radius_stays_on_the_rootset(self):
        rs = find_roots(make_family(FamilySpec("g_class", 64, seed=2)))
        assert rs._arc_index is None
        disk_counts(rs, [0.5, 1.0], 0.3)
        first = rs._arc_index
        region_count(rs, geometry.DiskOnCircle(0.5, 0.3))
        assert rs._arc_index is first  # same radius: reused
        region_count(rs, geometry.DiskOnCircle(0.5, 0.4))
        assert rs._arc_index.radius == 0.4
        held = [v for v in vars(rs).values() if isinstance(v, zerostats_mod._ArcIndex)]
        assert held == [rs._arc_index]

    def test_matches_harness_counts_at_large_degree(self):
        rs = unit_roots_rootset(10**4)
        angles = stratified_center_angles(720, 3)
        for radius in (1e-3, 0.05, 0.5):
            opened, closed = disk_counts(rs, angles, radius)
            want = _distance_test(rs.roots, angles, radius)
            assert np.array_equal(opened, want[0]) and np.array_equal(closed, want[1])
