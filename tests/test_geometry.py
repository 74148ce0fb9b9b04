import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest

from polyzero.geometry import (
    AnnularSector,
    Annulus,
    DiskOnCircle,
    Sector,
    build_gear,
    contains,
    covering_disk,
    region_svg_paths,
    tooth_arc,
)


class TestToothArc:
    def test_small_radius_limit(self):
        g = 1e-6
        assert abs(tooth_arc(g) / (2 * g) - 1.0) < 1e-9

    def test_unit_radius_closed_form(self):
        assert abs(tooth_arc(1.0) - 2 * math.pi / 3) < 1e-14

    def test_small_gamma_reference_values(self):
        arc = tooth_arc(0.04)
        assert abs(arc - 0.0800) < 1e-4
        assert abs(2 * math.pi / arc - 78.5) < 0.1

    def test_equals_chord_form(self):
        # 4 asin(g/2) on all of (0, 2), past the crossover at sqrt 2 too.
        for g in (0.05, 0.3, 0.7, 1.0, 1.5, 1.9):
            assert abs(tooth_arc(g) - 4 * math.asin(g / 2)) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            tooth_arc(0.0)
        with pytest.raises(ValueError):
            tooth_arc(2.0)


class TestBuildGear:
    def test_reference_gear_78_teeth(self):
        gear = build_gear(0.04, 0.0)
        assert gear.teeth == 78

    def test_reference_gear_48_teeth(self):
        gear = build_gear(math.pi / 60, 0.2577)
        assert gear.teeth == 48
        assert abs(gear.tooth_width_actual - math.pi / 120) < 1e-4

    def test_half_radius(self):
        gear = build_gear(0.5, 0.0)
        assert gear.teeth == 6  # 2 pi / Gamma(0.5) = 6.2166, disjointness cap 6

    def test_centers_evenly_spaced(self):
        gear = build_gear(0.1, 0.3)
        gaps = np.diff(list(gear.center_angles) + [gear.center_angles[0] + 2 * math.pi])
        assert np.allclose(gaps, 2 * math.pi / gear.teeth)
        assert gear.center_angles[0] == 0.0

    def test_removed_disks_disjoint(self):
        for gamma, delta in ((0.04, 0.0), (0.3, 0.1), (0.5, 0.0), (0.5, 0.9)):
            gear = build_gear(gamma, delta)
            centers = gear.centers
            dist = np.abs(centers[:, None] - centers[None, :])
            np.fill_diagonal(dist, np.inf)
            assert dist.min() >= 2 * gamma - 1e-12

    def test_wide_gamma_needs_flag(self):
        with pytest.raises(ValueError):
            build_gear(0.8, 0.0)
        gear = build_gear(0.8, 0.0, allow_wide=True)
        assert gear.wide

    def test_disjoint_cap_beyond_unit_radius(self):
        assert build_gear(1.0, 0.0, allow_wide=True).teeth == 2  # tangent at -1
        for gamma in (1.0 + 1e-9, 1.5, 1.99):
            assert build_gear(gamma, 0.0, allow_wide=True).teeth == 1

    def test_delta_range(self):
        with pytest.raises(ValueError):
            build_gear(0.1, 1.0)


class TestContains:
    def test_gear_center_survives(self):
        gear = build_gear(0.3, 0.1)
        assert contains(gear, 0j)

    def test_gear_removed_at_tooth_center(self):
        gear = build_gear(0.3, 0.1)
        assert not contains(gear, 1 + 0j)  # first removed disk is centered here

    def test_gear_against_independent_predicate(self, rng):
        gear = build_gear(0.04, 0.0)
        pts = np.sqrt(rng.random(10_000)) * np.exp(2j * np.pi * rng.random(10_000))
        mine = contains(gear, pts)
        # Independent membership: nearest removed-disk center via angle
        # rounding, then one distance test.
        spacing = 2 * math.pi / gear.teeth
        for z, got in zip(pts, mine):
            k = round(math.atan2(z.imag, z.real) / spacing) % gear.teeth
            c = cmath.exp(1j * spacing * k)
            want = abs(z) <= 1.0 and abs(z - c) > gear.gamma
            assert got == want

    def test_gear_allocates_per_point_only(self, rng):
        gear = build_gear(0.04, 0.0)
        pts = np.sqrt(rng.random(4096)) * np.exp(2j * np.pi * rng.random(4096))
        contains(gear, pts)
        tracemalloc.start()
        try:
            contains(gear, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(pts) * gear.teeth  # below one float per point and tooth

    def test_tooth_gap_point(self):
        gamma = 0.04
        gear = build_gear(gamma, 0.0)
        spacing = 2 * math.pi / gear.teeth
        gap_mid = spacing / 2.0
        z = (1 - 2 * gamma) * cmath.exp(1j * gap_mid)
        assert contains(gear, z)

    def test_disk_closed_vs_open(self):
        closed = DiskOnCircle(0.0, 0.5, closed=True)
        opened = DiskOnCircle(0.0, 0.5, closed=False)
        boundary = 1.0 + 0.5j * 0  # point at distance exactly 0.5 along the real axis
        z = 0.5 + 0j
        assert contains(closed, z)
        assert not contains(opened, z)

    def test_annulus_open(self):
        ann = Annulus(0.5)
        assert not contains(ann, 0.5 + 0j)
        assert contains(ann, 0.7 + 0j)
        assert not contains(ann, 2.0 + 0j)

    def test_annular_sector(self):
        reg = AnnularSector(0.5, 0.1, 1.2)
        assert contains(reg, cmath.exp(0.5j))
        assert not contains(reg, cmath.exp(1.5j))
        assert not contains(reg, 0.3 * cmath.exp(0.5j))

    def test_sector_wraparound(self):
        reg = Sector(5.5, 1.2)
        assert contains(reg, cmath.exp(0.3j))
        assert contains(reg, cmath.exp(5.9j))
        assert not contains(reg, cmath.exp(3.0j))


class TestGearStatistics:
    def test_arc_fraction_monte_carlo(self, rng):
        # Fraction of uniform circle points inside one removed disk matches
        # Gamma / (2 pi) within 3 standard errors.
        samples = 1_000_000
        t = rng.random(samples)
        z = np.exp(2j * np.pi * t)
        for gamma in (0.01, 0.1, 0.25, 0.5, 1.5):
            frac = float(np.mean(np.abs(z - 1.0) <= gamma))
            expect = tooth_arc(gamma) / (2 * math.pi)
            sigma = math.sqrt(expect * (1 - expect) / samples)
            assert abs(frac - expect) <= 3 * sigma + 1e-9

    def test_gear_area_monte_carlo(self, rng):
        gear = build_gear(0.2, 0.1)
        samples = 200_000
        pts = np.sqrt(rng.random(samples)) * np.exp(2j * np.pi * rng.random(samples))
        frac = float(np.mean(contains(gear, pts)))
        area = frac * math.pi
        assert area <= math.pi + 1e-9
        assert area >= math.pi - gear.teeth * math.pi * gear.gamma**2


class TestShaferFinkAndGearConstant:
    def test_shafer_fink_upper_bound(self):
        x = np.linspace(0.0, 1.0, 10_001)
        lhs = np.arcsin(x)
        rhs = math.pi * x / (2.0 + (math.pi - 2.0) * np.sqrt(1.0 - x * x))
        assert np.all(lhs <= rhs + 1e-12)

    def test_gear_constant_above_097(self):
        g = np.linspace(1e-9, 0.5, 200_001)
        vals = (1.0 - ((math.pi - 2.0) / (2.0 * math.pi)) * g**2) * (1.0 - g**2 / 4.0) ** (-0.25)
        assert vals.min() > 0.97


class TestCoveringDisk:
    def test_chord_limit(self):
        cd = covering_disk(1e-9, 0.5)
        assert abs(cd.radius - 2 * math.sin(0.25)) < 1e-6

    def test_radial_limit(self):
        alpha = 0.2
        cd = covering_disk(alpha, 1e-9)
        assert abs(cd.radius - alpha / (1 - alpha)) < 1e-6

    def test_matches_sampled_maximum(self, rng):
        alpha, delta = 0.1, 0.5
        cd = covering_disk(alpha, delta)
        r_in, r_out = 1 - alpha, 1.0 / (1 - alpha)
        rad = rng.uniform(r_in, r_out, 1_000_000)
        ang = rng.uniform(-delta, delta, 1_000_000)
        w = rad * np.exp(1j * ang)
        sampled = float(np.abs(w - 1.0).max())
        corner = abs(r_out * cmath.exp(1j * delta) - 1.0)
        assert sampled <= cd.radius + 1e-12
        assert cd.radius - max(sampled, corner) <= 1e-4

    def test_containment_over_parameter_grid(self, rng):
        # Boundary-biased samples plus exact corners; zero violations.
        for alpha in (0.05, 0.2, 0.5, 0.8):
            for delta in (0.05, 0.3, 0.7, 1.0):
                cd = covering_disk(alpha, delta)
                r_in, r_out = 1 - alpha, 1.0 / (1 - alpha)
                u = rng.random(20_000)
                edge = rng.integers(0, 3, 20_000)
                rad = np.where(edge == 0, r_out, np.where(edge == 1, r_in, r_in + (r_out - r_in) * u))
                ang = np.where(rng.random(20_000) < 0.5, delta, -delta) * np.where(
                    edge == 2, 1.0, rng.random(20_000)
                )
                w = rad * np.exp(1j * ang)
                corners = np.array(
                    [r * cmath.exp(1j * s * delta) for r in (r_in, r_out) for s in (-1, 1)]
                )
                w = np.concatenate([w, corners])
                assert np.all(np.abs(w - 1.0) <= cd.radius + 1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            covering_disk(0.0, 0.5)
        with pytest.raises(ValueError):
            covering_disk(0.5, 1.5)


_PATH_GRAMMAR = re.compile(
    r"^M -?\d+(\.\d+)? -?\d+(\.\d+)?( L -?\d+(\.\d+)? -?\d+(\.\d+)?)+ Z$"
)


class TestSvgPaths:
    def test_gear_outline_is_closed_path(self):
        gear = build_gear(0.3, 0.2)
        (path,) = region_svg_paths(gear)
        assert _PATH_GRAMMAR.match(path)

    def test_disk_annulus_sector_paths(self):
        for region in (DiskOnCircle(0.3, 0.2), Annulus(0.5), Sector(0.2, 2.0), AnnularSector(0.5, 0.2, 2.0)):
            for path in region_svg_paths(region):
                assert _PATH_GRAMMAR.match(path)

    def test_deterministic(self):
        a = region_svg_paths(build_gear(0.17, 0.05))
        b = region_svg_paths(build_gear(0.17, 0.05))
        assert a == b
