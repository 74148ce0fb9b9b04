"""Counting measures over regions and exact angular/annular discrepancy.

The normalized zero-counting measure puts mass ``1/n`` at each root.  A
sector is a half-open arc ``[alpha, beta)`` of directions on the circle
(wrap-around allowed, a root at angle 0 is countable); the angular
discrepancy is the supremum over all arcs of

    | tau_n(sector) - arc_length / (2 pi) |.

The supremum is computed exactly from the sorted root angles; it may be a
limit value that no single arc attains (a point mass seen through shrinking
arcs), which is reported through the ``attained`` flag.

:func:`region_count` is the one counting layer.  Sectors, annuli, annular
sectors and gear wheels are counted with the membership rule of their shape
in :func:`geometry.members`, on the roots' stored ``args_turns`` and
``moduli``, and the annular discrepancy and the mass outside the annulus
take the same rules.  Gears cost O(n) each.

Disks of radius ``r`` centred at ``e^{ia}`` on the unit circle are counted as
a stabbing count.  A root ``rho e^{i phi}`` lies inside iff ``a`` is in the
arc ``(phi - t, phi + t)`` with ``cos t = (rho^2 + 1 - r^2) / (2 rho)``, so
an index of the sorted arc starts and ends, built once per radius
(O(n log n)) and kept on the :class:`RootSet` for the last radius only,
answers a centre with a few bisections.  Every root whose computed arc end
lies within ``_ARC_WINDOW`` (delta = 1e-6 rad) of ``a``, or whose arc is
degenerate or ill-conditioned, is decided by the distance test
``|z - c| < r`` (``<=`` when closed) with the caller's own centre ``c``, so
the counts are bit for bit those of that test over all roots: outside the
window, ``|z - c|`` is provably farther from ``r`` than its rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .roots import RootSet

_TWO_PI = 2.0 * math.pi

_TIE_WIDTH = 1e-12

_ARC_WINDOW = 1e-6  # delta: arc ends this close to a centre go to the distance test
_UNIT = 2.0**-53  # unit roundoff
# Bisection keys around a centre a: the starts' window [a - delta, a + delta),
# then the ends' windows at a and at a + 2 pi (ends are stored plus 4 pi).
_QUERY = np.repeat([0.0, 2.0 * _TWO_PI, 3.0 * _TWO_PI], 2) + np.tile([-_ARC_WINDOW, _ARC_WINDOW], 3)
_DENSE_ELEMS = 1 << 16  # centre-root distances per block of the distance test


SectorSpec = geometry.Sector  # the arc type of the annular discrepancy, by its older name


@dataclass(frozen=True)
class CountStat:
    count: int
    n: int
    reference: float | None = None

    @property
    def tau(self) -> float:
        return self.count / self.n


@dataclass(frozen=True)
class AnnularStat:
    """Annular-sector discrepancy plus its companion outside mass."""

    discrepancy: float
    tau_annular_sector: float
    tau_outside: float
    reference: float


def region_count(roots: RootSet, region) -> CountStat:
    """Exact membership count of the root multiset in a region.

    A :class:`geometry.DiskOnCircle` is counted on the arc index of its
    radius (see the module docstring), with the same result as
    ``geometry.contains``.  Every other shape takes its rule in
    :func:`geometry.members` on the roots' stored ``args_turns`` and
    ``moduli``, so exact polar data decides boundary roots.
    """
    if isinstance(region, geometry.DiskOnCircle):
        return CountStat(count=_disk_count(roots, region), n=len(roots))
    mask = geometry.members(region, roots.roots, roots.args_turns, roots.moduli)
    ref = None
    if isinstance(region, (geometry.Sector, geometry.AnnularSector)):
        ref = geometry.Sector(region.alpha, region.beta).reference
    return CountStat(count=int(mask.sum()), n=len(roots), reference=ref)


@dataclass(frozen=True)
class _ArcIndex:
    """Arcs of the roots for disks of one radius centred on the unit circle.

    ``keys`` holds the arc starts in [0, 2 pi], sorted, then the arc ends
    plus 4 pi, sorted; ``ids`` the root of each key.  ``base`` is the count
    of roots inside every such disk plus three times the number of arcs, and
    ``exact`` the roots that the distance test decides at every centre.
    """

    radius: float
    keys: np.ndarray
    ids: np.ndarray
    base: int
    exact: np.ndarray


def _arc_index(roots: RootSet, radius: float) -> _ArcIndex:
    """The arc index of ``radius``, built unless it is the one cached on ``roots``.

    A computed ``|z - c|`` is within about ``3 u (rho + 2)`` of the true
    distance to ``e^{ia}`` (``u`` the unit roundoff); ``tol`` is at least
    twice that.  A root gets an arc only when its computed arc ends are
    within ``delta / 4`` of the true ones (the error of ``cos t``, over
    ``sin t``) and ``|z - c|`` stays more than ``tol`` from ``r`` once ``a``
    is ``delta / 2`` from an end, as ``|z - c|^2 - r^2 = 2 rho (cos t -
    cos(phi - a))`` and ``|cos(t +- delta/2) - cos t| >= (delta / 2) (sin t -
    delta / 2)``.  A root whose circle ``|w| = rho`` misses every disk, or
    lies inside every disk, by more than ``tol`` gets no arc and no test.
    The rest, near tangency, with an arc under ``2 delta`` or over
    ``2 pi - 4 delta``, at ``rho`` too small for the bound, or not finite,
    get the distance test at every centre.  ``rho`` and ``phi`` come from
    ``z`` itself, which the distance test uses, not from ``moduli``.
    """
    idx = roots._arc_index
    if idx is not None and idx.radius == radius:
        return idx
    z = roots.roots
    r = float(radius)
    with np.errstate(all="ignore"):
        rho = np.abs(z)
        tol = 16.0 * _UNIT * (rho + 1.0 + abs(r))
        outside = np.abs(rho - 1.0) - r > tol
        inside = rho + 1.0 < r - tol
        half = np.arccos(np.clip((rho * rho + 1.0 - r * r) / (2.0 * rho), -1.0, 1.0))
        sin = np.sin(half)
        arc = (
            (half >= 2.0 * _ARC_WINDOW)
            & (half <= math.pi - 2.0 * _ARC_WINDOW)
            & (16.0 * _UNIT * (rho * rho + 1.0 + r * r) <= 0.5 * _ARC_WINDOW * rho * sin)
            & (rho * _ARC_WINDOW * (sin - _ARC_WINDOW) > tol * (rho + 1.0 + abs(r)))
            & ~outside
            & ~inside
        )
    j = np.flatnonzero(arc)
    starts = np.mod(np.angle(z[j]) - half[j], _TWO_PI)
    ends = starts + 2.0 * half[j] + 2.0 * _TWO_PI
    by_start, by_end = np.argsort(starts), np.argsort(ends)
    idx = _ArcIndex(
        radius=radius,
        keys=np.concatenate((starts[by_start], ends[by_end])),
        ids=np.concatenate((j[by_start], j[by_end])),
        base=int(inside.sum()) + 3 * len(j),
        exact=np.flatnonzero(~(arc | outside | inside)),
    )
    object.__setattr__(roots, "_arc_index", idx)
    return idx


def _disk_count(roots: RootSet, disk: geometry.DiskOnCircle) -> int:
    """One disk's count: bisections only, when no root is near its arc ends."""
    a = float(disk.center_angle)  # a numpy scalar would slow each step below
    idx = _arc_index(roots, disk.radius)
    if _ARC_WINDOW <= a <= _TWO_PI - _ARC_WINDOW and not idx.exact.size:
        p = idx.keys.searchsorted(a + _QUERY).tolist()
        if p[0] == p[1] and p[2] == p[3] and p[4] == p[5]:
            return idx.base + p[0] - p[3] - p[5]
    opened, closed = _disk_counts(roots, np.array([a], dtype=float), np.array([disk.center]), disk.radius)
    return int((closed if disk.closed else opened)[0])


def disk_counts(roots: RootSet, center_angles, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Open and closed counts of roots in the disks of ``radius`` centred at
    ``exp(1j * a)`` for each angle ``a`` in ``center_angles``.

    Equal to the distance test ``|z - c| < r`` and ``<= r`` over all roots,
    centre by centre, from the arc index of ``radius`` (see the module
    docstring): a vectorised bisection per centre, and the distance test
    for the few roots with an arc end within delta of it.
    """
    a = np.asarray(center_angles, dtype=float)
    return _disk_counts(roots, a, np.exp(1j * a), radius)


def _disk_counts(roots, a, centers, radius):
    """:func:`disk_counts` at angles ``a`` whose centres ``centers`` the caller computed."""
    idx = _arc_index(roots, radius)
    z = roots.roots
    opened = np.empty(len(a), dtype=int)
    closed = np.empty(len(a), dtype=int)
    # Centres within delta of angle 0, and angles outside [0, 2 pi), take the
    # distance test over all roots; the windows below assume neither.
    on = (a >= _ARC_WINDOW) & (a <= _TWO_PI - _ARC_WINDOW)
    off = np.flatnonzero(~on)
    opened[off], closed[off] = _distance_counts(z, centers[off], radius)
    on = np.flatnonzero(on)
    pos = idx.keys.searchsorted(a[on, None] + _QUERY)
    # Starts below a - delta, less ends below a + delta and ends from
    # a + 2 pi + delta on: an arc with a key in a window counts zero here
    # (an end at a has its start below a - delta, and the two cancel), and
    # the roots of the windows' keys are counted by distance instead.
    count = idx.base + pos[:, 0] - pos[:, 3] - pos[:, 5]
    lo, width = pos[:, 0::2].ravel(), (pos[:, 1::2] - pos[:, 0::2]).ravel()
    window = np.repeat(np.arange(lo.size), width)
    at = lo[window] + np.arange(window.size) - (np.cumsum(width) - width)[window]
    centre = window // 3
    dist = np.abs(z[idx.ids[at]] - centers[on][centre])
    opened[on] = count + np.bincount(centre[dist < radius], minlength=len(on))
    closed[on] = count + np.bincount(centre[dist <= radius], minlength=len(on))
    if idx.exact.size:
        extra = _distance_counts(z[idx.exact], centers[on], radius)
        opened[on] += extra[0]
        closed[on] += extra[1]
    return opened, closed


def _distance_counts(z, centers, radius):
    """Open and closed counts of ``z`` in each disk by the distance test, in
    blocks of at most ``_DENSE_ELEMS`` distances."""
    opened = np.empty(len(centers), dtype=int)
    closed = np.empty(len(centers), dtype=int)
    step = max(1, _DENSE_ELEMS // max(len(z), 1))
    for k in range(0, len(centers), step):
        dist = np.abs(z[None, :] - centers[k : k + step, None])
        opened[k : k + step] = (dist < radius).sum(axis=1)
        closed[k : k + step] = (dist <= radius).sum(axis=1)
    return opened, closed


def _grouped_angles(args_turns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct angles with multiplicities, ties within 1e-12 merged."""
    t = np.sort(np.mod(args_turns, 1.0))
    if len(t) == 0:
        return t, np.empty(0, dtype=int)
    gaps = np.diff(t)
    new_group = np.concatenate([[True], gaps > _TIE_WIDTH])
    # Wrap-around tie: last group within 1e-12 of the first (mod 1).
    idx = np.cumsum(new_group) - 1
    angles = t[new_group]
    weights = np.bincount(idx)
    if len(angles) > 1 and (angles[0] + 1.0 - angles[-1]) <= _TIE_WIDTH:
        weights[0] += weights[-1]
        angles = angles[:-1]
        weights = weights[:-1]
    return angles, weights


def _discrepancy_parts(roots: RootSet) -> tuple[float, float]:
    """(supremum over all arcs, supremum over arcs with root endpoints).

    With sorted distinct angles ``phi_j`` (multiplicities ``w_j``, prefix
    sums ``W_j``) every closed candidate arc value reduces to ``A_j - B_i``
    where ``A_j = W_j/n - phi_j`` and ``B_i = W_{i-1}/n - phi_i``; the
    wrap-around arcs give the same expression because ``W_m = n``.  Arcs of
    the attainable half-open form ``[phi_i, phi_j)`` reduce to ``B_j - B_i``.
    """
    angles, weights = _grouped_angles(roots.args_turns)
    n = len(roots)
    prefix = np.cumsum(weights)
    a_vals = prefix / n - angles
    b_vals = (prefix - weights) / n - angles
    full = float(a_vals.max() - b_vals.min())
    attained = float(b_vals.max() - b_vals.min())
    return full, attained


def angular_discrepancy(roots: RootSet) -> float:
    """Exact supremum over all arcs of ``|tau_n(arc) - length(arc)|``."""
    if len(roots) < 1:
        raise ValueError("empty root set")
    full, _ = _discrepancy_parts(roots)
    return full


def angular_discrepancy_report(roots: RootSet) -> dict:
    """Discrepancy value plus whether any genuine arc attains it."""
    full, attained = _discrepancy_parts(roots)
    return {"value": full, "attained": attained >= full - 1e-15}


def tau_outside_annulus(roots: RootSet, rho: float) -> float:
    """``tau_n`` of the complement of the open annulus ``rho < |z| < 1/rho``."""
    return (len(roots) - region_count(roots, geometry.Annulus(rho)).count) / len(roots)


def annular_discrepancy(roots: RootSet, rho: float, s: geometry.Sector) -> AnnularStat:
    """``|tau_n(annular sector) - normalized arc length|`` for one arc.

    The annulus is open; the sector is the usual half-open arc.  The
    companion value ``tau_n`` outside the annulus is included since annular
    bounds are stated through it.
    """
    polar = (roots.roots, roots.args_turns, roots.moduli)
    in_annulus = geometry.members(geometry.Annulus(rho), *polar)
    n = len(roots)
    tau = int((in_annulus & geometry.members(s, *polar)).sum()) / n
    ref = s.reference
    return AnnularStat(
        discrepancy=abs(tau - ref),
        tau_annular_sector=tau,
        tau_outside=(n - int(in_annulus.sum())) / n,
        reference=ref,
    )
