"""Regions of the plane used by the zero-count statements, with the one
membership rule of each region shape and SVG outlines.

Conventions: disks named on the circle are centered at ``exp(i*angle)`` with
``|z| = 1`` exact; the annulus ``rho < |z| < 1/rho`` is open; a sector is the
half-open arc ``[alpha, beta)`` of directions; the gear wheel is the closed
unit disk minus ``G`` closed disks of radius ``gamma`` whose centers are
equally spaced on the unit circle.

:func:`members` holds the rules.  Sectors are tested on arguments in turns
(:func:`args_turns`) and annuli on moduli, so a caller holding exact polar
data (a :class:`~polyzero.roots.RootSet`) passes it and the rule decides
boundary points from it; :func:`contains` derives both from ``z``.  A gear
point is tested against the two tooth centres next to it in angle only, as
the nearer of those is its nearest centre: O(n) per gear.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Sector:
    """Half-open arc ``[alpha, beta)`` in radians on the circle.

    ``beta == alpha`` (mod 2 pi) means the full circle; the width is always
    in (0, 2 pi].
    """

    alpha: float
    beta: float

    @property
    def width(self) -> float:
        w = (self.beta - self.alpha) % _TWO_PI
        return _TWO_PI if w == 0.0 else w

    @property
    def reference(self) -> float:
        """Normalized arc length ``(beta - alpha) / (2 pi)``."""
        return self.width / _TWO_PI


@dataclass(frozen=True)
class DiskOnCircle:
    center_angle: float
    radius: float
    closed: bool = True

    @property
    def center(self) -> complex:
        return cmath.exp(1j * self.center_angle)


@dataclass(frozen=True)
class Annulus:
    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")


@dataclass(frozen=True)
class AnnularSector:
    rho: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")


@dataclass(frozen=True)
class GearWheel:
    """Closed unit disk minus ``teeth`` closed disks riding the unit circle.

    ``tooth_arc`` is the angular width of unit circle eaten by one removed
    disk; the surviving boundary arcs are the teeth.
    """

    gamma: float
    delta: float
    teeth: int
    tooth_arc: float
    center_angles: tuple[float, ...]
    wide: bool = False  # gamma beyond 1/2: construction only, no certification

    @property
    def centers(self) -> np.ndarray:
        return np.exp(1j * np.asarray(self.center_angles))

    @property
    def tooth_width_requested(self) -> float:
        """``delta * tooth_arc``, the gap the construction asked for."""
        return self.delta * self.tooth_arc

    @property
    def tooth_width_actual(self) -> float:
        """Gap realized after re-spacing the clamped tooth count evenly."""
        return _TWO_PI / self.teeth - self.tooth_arc


@dataclass(frozen=True)
class CoveringDisk:
    """Disk around a point of the unit circle covering an annular sector.

    For the annulus of inner radius ``1 - alpha`` and the symmetric sector of
    half-angle ``delta_n``, the covering radius (taken at the farther outer
    corner) is ``sqrt(4 sin^2(delta_n / 2) / (1 - alpha) + alpha^2 / (1 -
    alpha)^2)``.
    """

    alpha: float
    delta_n: float
    radius: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not 0.0 < self.delta_n <= 1.0:
            raise ValueError("delta_n must be in (0, 1]")
        s2 = math.sin(self.delta_n / 2.0) ** 2
        r = math.sqrt(4.0 * s2 / (1.0 - self.alpha) + (self.alpha / (1.0 - self.alpha)) ** 2)
        object.__setattr__(self, "radius", r)


def covering_disk(alpha: float, delta_n: float) -> CoveringDisk:
    return CoveringDisk(alpha=alpha, delta_n=delta_n)


def tooth_arc(gamma: float) -> float:
    """Angular measure of the unit-circle arc inside a radius-``gamma`` disk
    centered on the circle: ``4 arcsin(gamma / 2)`` (chord geometry).

    Up to ``gamma = sqrt 2`` it is computed as ``2 arcsin((gamma/2) sqrt(4 -
    gamma^2))``, which beyond gives the supplement of the arc.
    """
    if not 0.0 < gamma < 2.0:
        raise ValueError("gamma must be in (0, 2)")
    if gamma > math.sqrt(2.0):
        return 4.0 * math.asin(gamma / 2.0)
    return 2.0 * math.asin((gamma / 2.0) * math.sqrt(4.0 - gamma * gamma))


def build_gear(gamma: float, delta: float, allow_wide: bool = False, phase: float = 0.0) -> GearWheel:
    """Gear wheel with removed disks of radius ``gamma`` and requested gap
    ``delta * Gamma`` between consecutive removed arcs.

    The tooth count targets ``2 pi / (Gamma (1 + delta))``, rounded to the
    nearest integer and clamped so the removed disks stay pairwise disjoint
    (``G <= pi / arcsin(gamma)``, tangency allowed; one tooth beyond
    ``gamma = 1``, where two disks on the circle always meet); centers are then
    re-spaced exactly evenly, so the realized gap can differ slightly from
    the requested one.  The first center sits at angle ``phase`` (default 0;
    rendering convenience only).  ``gamma`` beyond 1/2 is a
    construction-only region and must be requested explicitly.
    """
    if not 0.0 < gamma < 2.0:
        raise ValueError("gamma must be in (0, 2)")
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must be in [0, 1)")
    wide = gamma > 0.5
    if wide and not allow_wide:
        raise ValueError("gamma > 1/2 needs allow_wide=True (construction only)")
    arc = tooth_arc(gamma)
    target = _TWO_PI / (arc * (1.0 + delta))
    disjoint_cap = 1 if gamma > 1.0 else math.floor(math.pi / math.asin(gamma) + 1e-9)
    teeth = max(1, min(round(target), disjoint_cap))
    angles = tuple(phase + _TWO_PI * k / teeth for k in range(teeth))
    return GearWheel(
        gamma=gamma,
        delta=delta,
        teeth=teeth,
        tooth_arc=arc,
        center_angles=angles,
        wide=wide,
    )


def args_turns(z: np.ndarray) -> np.ndarray:
    """Arguments of the points ``z`` (a 1-d array) in turns, in [0, 1)."""
    t = np.mod(np.angle(z) / _TWO_PI, 1.0)
    t[t >= 1.0] = 0.0  # guard against -eps wrapping to 1.0 exactly
    return t


def _in_gear(z: np.ndarray, turns: np.ndarray, moduli: np.ndarray, gear: GearWheel) -> np.ndarray:
    """``|z| <= 1`` and outside the tooth disks ``k`` and ``k + 1`` next to
    ``z`` in angle, ``k = floor((arg z - phase) G / 2 pi) mod G``.

    At a fixed modulus the distance to a centre grows with the angle between
    them, so the nearer of the two is the nearest centre; an angle off by a
    rounding error past a centre still has that centre among the two.
    Non-finite points fail ``|z| <= 1`` and are outside.
    """
    out = moduli <= 1.0
    at = np.flatnonzero(out)
    teeth = gear.teeth
    k = np.floor((turns[at] - gear.center_angles[0] / _TWO_PI) * teeth).astype(int) % teeth
    centers, w = gear.centers, z[at]
    out[at] = (np.abs(w - centers[k]) > gear.gamma) & (np.abs(w - centers[(k + 1) % teeth]) > gear.gamma)
    return out


def members(region, z: np.ndarray, turns: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """Membership of the points ``z`` (a 1-d array) in ``region``, given also
    their arguments in turns and their moduli: the one rule of each shape.

    Sectors are decided on ``turns``, annuli and the gear's unit disk on
    ``moduli``, and disks on the circle and gear teeth by the distance test
    on ``z``.
    """
    if isinstance(region, Sector):
        width = region.reference
        if width >= 1.0:
            return np.ones(len(turns), dtype=bool)
        return (turns - (region.alpha / _TWO_PI) % 1.0) % 1.0 < width
    if isinstance(region, Annulus):
        return (moduli > region.rho) & (moduli < 1.0 / region.rho)
    if isinstance(region, AnnularSector):
        annulus, sector = Annulus(region.rho), Sector(region.alpha, region.beta)
        return members(annulus, z, turns, moduli) & members(sector, z, turns, moduli)
    if isinstance(region, GearWheel):
        return _in_gear(z, turns, moduli, region)
    if isinstance(region, DiskOnCircle):
        dist = np.abs(z - region.center)
        return dist <= region.radius if region.closed else dist < region.radius
    raise TypeError(f"unknown region {type(region).__name__}")


def contains(region, z):
    """Membership predicate; ``z`` may be a scalar or an array."""
    zz = np.asarray(z, dtype=complex)
    scalar = zz.ndim == 0
    zz = np.atleast_1d(zz)
    out = members(region, zz, args_turns(zz), np.abs(zz))
    return bool(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# SVG outlines.  Frame: 1000 x 1000 viewBox, unit circle radius 450 centered
# at (500, 500), y axis flipped so the complex plane reads normally.
# ---------------------------------------------------------------------------

SVG_SIZE = 1000
SVG_RADIUS = 450.0
SVG_CENTER = 500.0


def _svg_xy(z: complex) -> tuple[float, float]:
    return (SVG_CENTER + SVG_RADIUS * z.real, SVG_CENTER - SVG_RADIUS * z.imag)


def _fmt(x: float) -> str:
    return repr(round(x, 6)) if x == x else "0"


def _path_from_points(points: list[complex], close: bool = True) -> str:
    x0, y0 = _svg_xy(points[0])
    parts = [f"M {_fmt(x0)} {_fmt(y0)}"]
    for z in points[1:]:
        x, y = _svg_xy(z)
        parts.append(f"L {_fmt(x)} {_fmt(y)}")
    if close:
        parts.append("Z")
    return " ".join(parts)


def _circle_path(center: complex, radius: float) -> str:
    pts = [center + radius * cmath.exp(2j * math.pi * k / 256) for k in range(256)]
    return _path_from_points(pts)


def region_svg_paths(region) -> list[str]:
    """Closed path outline(s) of a region in the documented frame.

    Curves are emitted as dense polylines (fixed sample counts), which keeps
    the output byte-stable and parser-friendly.
    """
    if isinstance(region, DiskOnCircle):
        return [_circle_path(region.center, region.radius)]
    if isinstance(region, Annulus):
        return [
            _circle_path(0.0, region.rho),
            _circle_path(0.0, 1.0 / region.rho),
        ]
    if isinstance(region, Sector):
        width = region.width
        steps = max(8, int(96 * width / _TWO_PI))
        arc = [
            2.0 * cmath.exp(1j * (region.alpha + width * k / steps)) for k in range(steps + 1)
        ]
        return [_path_from_points([0j] + arc)]
    if isinstance(region, AnnularSector):
        width = Sector(region.alpha, region.beta).width
        steps = max(8, int(96 * width / _TWO_PI))
        inner = [
            region.rho * cmath.exp(1j * (region.alpha + width * k / steps))
            for k in range(steps + 1)
        ]
        outer = [
            (1.0 / region.rho) * cmath.exp(1j * (region.alpha + width * k / steps))
            for k in reversed(range(steps + 1))
        ]
        return [_path_from_points(inner + outer)]
    if isinstance(region, GearWheel):
        return [_gear_outline(region)]
    raise TypeError(f"unknown region {type(region).__name__}")


def _gear_outline(gear: GearWheel) -> str:
    """Boundary of the gear: unit-circle teeth joined by inward bite arcs,
    24 segments per bite and 12 per tooth."""
    half = gear.tooth_arc / 2.0
    pts: list[complex] = []
    for k, psi in enumerate(gear.center_angles):
        next_psi = gear.center_angles[(k + 1) % gear.teeth] + (_TWO_PI if k + 1 == gear.teeth else 0.0)
        # Bite: the removed disk's boundary between its two unit-circle
        # intersection points, traversed inside the disk.
        enter = psi + half
        start = cmath.exp(1j * (psi - half))
        end = cmath.exp(1j * enter)
        center = cmath.exp(1j * psi)
        a0 = cmath.phase(start - center)
        a1 = cmath.phase(end - center)
        if a1 <= a0:
            a1 += _TWO_PI
        # Of the two arcs between the intersection points choose the one
        # whose midpoint lies inside the unit disk.
        mid = center + gear.gamma * cmath.exp(1j * (0.5 * (a0 + a1)))
        if abs(mid) > 1.0:
            a0, a1 = a1, a0 + _TWO_PI
        for s in range(25):
            pts.append(center + gear.gamma * cmath.exp(1j * (a0 + (a1 - a0) * s / 24)))
        # Tooth: unit-circle arc to the next bite.
        tooth_start = enter
        tooth_end = next_psi - half
        for s in range(1, 13):
            pts.append(cmath.exp(1j * (tooth_start + (tooth_end - tooth_start) * s / 12)))
    return _path_from_points(pts)
