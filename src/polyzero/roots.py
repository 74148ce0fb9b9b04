"""Simultaneous root finding with per-root residual certificates.

All ``n`` roots of a polynomial are computed by Aberth-Ehrlich iteration
(simultaneous Newton corrections coupled through pairwise repulsion terms).
Each returned root carries a scale-normalized residual

    residual_j = |P(a_j)| / scale_j,
    scale_j   = |c_n| * prod_{k != j} max(1, |a_j - a_k|),

computed in log space so the product cannot overflow.  ``scale_j`` dominates
``|P'(a_j)|``, so a small residual certifies a small backward error without
assuming simple roots.

A sweep updates only the active roots.  A root freezes after a sweep in
which its relative step ``|w_j| / (1 + |z_j|)`` falls below ``_STALL``;
frozen roots still enter the coupling sums of the active ones.  Once every
root is frozen, one confirming sweep updates all of them: the iteration ends
if every step in it is below ``_STALL``, and any root above reactivates.  So
each root's last two updates are below ``_STALL``.  This stop rule is still
step-based; isolated inclusion disks could replace it.

The coupling sums ``S_i = sum_{k != i} 1 / (z_i - z_k)`` use each pair of
active roots once, since the pair's two terms differ only in sign.  They run
in row blocks of ``_PAIR_ELEMS // n`` rows (at least ``_PAIR_MIN_ROWS``), so
the buffer stays in cache and memory does not grow like ``n**2``.
Coincident iterates would make a term infinite; a block is redone with a
finite guard only when one of its row sums is not finite, so the common case
pays no scan for them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import Polynomial, _evaluate_split

_PAIR_ELEMS = 1 << 14  # complex entries per coupling block: 256 KiB, in L2
_PAIR_MIN_ROWS = 16
_STALL = 1e-14  # relative step below which a root is frozen


class RootFindingError(RuntimeError):
    """Iteration failed to certify all residuals within the budget."""

    def __init__(self, message: str, worst_residual: float | None = None):
        super().__init__(message)
        self.worst_residual = worst_residual


@dataclass(frozen=True)
class RootSet:
    """Roots ``a_j = rho_j * e(theta_j)`` with residual certificates.

    ``args_turns`` holds the normalized arguments ``theta_j`` in [0, 1).
    Length equals the polynomial degree, multiplicity counted.
    """

    roots: np.ndarray
    residuals: np.ndarray
    moduli: np.ndarray
    args_turns: np.ndarray
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "roots", np.asarray(self.roots, dtype=complex))
        for name in ("residuals", "moduli", "args_turns"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    def __len__(self):
        return len(self.roots)

    @property
    def degree(self) -> int:
        return len(self.roots)


def _pairwise_inverse_sums(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``S_i = sum_{k != i} 1 / (z_i - z_k)`` for ``i`` in ``rows``.

    Each pair of requested rows is computed once.  The requested rows are
    placed first, and each block of them runs against the columns from its
    own start onwards: the row sums go to the block's rows, and the negated
    column sums, ``1 / (z_k - z_i) = -1 / (z_i - z_k)``, go to the later
    requested rows.  Roots not in ``rows`` are columns only.  A full sweep
    thus takes about ``n**2 / 2`` reciprocals instead of ``n**2``.  A block
    has ``_PAIR_ELEMS // n`` rows, but at least ``_PAIR_MIN_ROWS``, so the
    buffer stays in cache whatever ``n``.  When every row fits in one block,
    the rows run against all of ``z`` without the reordering.
    """
    n, m = len(z), len(rows)
    step = max(_PAIR_MIN_ROWS, _PAIR_ELEMS // max(n, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        if m <= step:
            return _coupling_block(np.empty((m, n), dtype=complex), z[rows], z, rows)[0]
        rest = np.ones(n, dtype=bool)
        rest[rows] = False
        z = np.concatenate((z[rows], z[rest]))
        out = np.zeros(m, dtype=complex)
        buf = np.empty(step * n, dtype=complex)
        for start in range(0, m, step):
            stop = min(start + step, m)
            d = buf[: (stop - start) * (n - start)].reshape(stop - start, n - start)
            row, hit = _coupling_block(d, z[start:stop], z[start:], np.arange(stop - start))
            if hit is not None:
                d[hit] = -d[hit]  # a coincident pair adds +1e14 to both of its rows
            out[start:stop] += row
            out[stop:] -= d[:, stop - start : m - start].sum(axis=0)
    return out


def _coupling_block(d, zr, zc, diag, guard=False):
    """Reciprocals ``1 / (zr_i - zc_k)`` in ``d`` and their row sums, with the
    self-terms ``(i, diag_i)`` set to zero.  Runs under the caller's
    ``np.errstate``, since coincident points divide by zero.

    When a row sum is not finite, the block is redone with the coincidence
    guard: an exact zero difference becomes ``1e-14``, a huge but finite
    repulsion that can separate the pair.  Returns the row sums and the mask
    of guarded entries (``None`` when the guard did not run).
    """
    np.subtract(zr[:, None], zc[None, :], out=d)
    d[np.arange(len(zr)), diag] = np.inf  # self-term contributes zero
    hit = None
    if guard:
        hit = d == 0
        d[hit] = 1e-14
    np.reciprocal(d, out=d)
    row = d.sum(axis=1)
    # A non-finite row sum makes the total non-finite; a finite total can
    # overflow only past 1e308, which merely repeats the block.
    if guard or math.isfinite(abs(row.sum())):
        return row, hit
    return _coupling_block(d, zr, zc, diag, guard=True)


def _newton_steps(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``P(z) / P'(z)`` without overflow for any |z|.

    For |z| <= 1 this is ``P / P'`` from the blocked kernel.  For |z| > 1 the
    reversed polynomial ``R(u) = u**n P(1/u)`` is evaluated at ``u = 1/z``, using
    ``P'/P = (n - u R'(u)/R(u)) / z`` so the ``z**n`` growth cancels.
    """
    n = len(coeffs) - 1
    out = np.empty_like(z)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        inside, (p, dp), (r, dr) = _evaluate_split(coeffs, z, order=1)
        out[inside] = p / np.where(dp == 0, 1e-300, dp)
        zo = z[~inside]
        r = np.where(r == 0, 1e-300, r)
        ratio = n - (1.0 / zo) * dr / r
        out[~inside] = zo / np.where(ratio == 0, 1e-300, ratio)
    return out


def log_abs_eval(p: Polynomial, z: np.ndarray) -> np.ndarray:
    """``log |P(z)|`` without overflow: reversed-polynomial form for |z| > 1."""
    zz = np.asarray(z, dtype=complex)
    out = np.empty(zz.shape, dtype=float)
    inside, (inner,), (outer,) = _evaluate_split(p.coeffs, zz)
    with np.errstate(divide="ignore"):
        out[inside] = np.log(np.abs(inner))
        out[~inside] = p.degree * np.log(np.abs(zz[~inside])) + np.log(np.abs(outer))
    return out


def _log_scales(z: np.ndarray, abs_cn: float) -> np.ndarray:
    """``log scale_j`` for the residual scale, in row blocks of
    ``_PAIR_ELEMS // n`` rows (at least one); each row is summed whole."""
    n = len(z)
    step = max(1, _PAIR_ELEMS // max(n, 1))
    log_scale = np.full(n, math.log(abs_cn))
    for start in range(0, n, step):
        block = z[start : start + step]
        dist = np.abs(block[:, None] - z[None, :])
        rows = np.arange(len(block))
        dist[rows, start + rows] = 1.0  # self-term must not enter the product
        np.clip(dist, 1.0, None, out=dist)
        log_scale[start : start + step] += np.log(dist).sum(axis=1)
    return log_scale


def _residuals_from_scales(p: Polynomial, z: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    log_abs = log_abs_eval(p, z)
    log_res = log_abs - log_scale
    finite = np.isfinite(log_res)
    out = np.zeros(len(z))
    out[finite] = np.exp(np.clip(log_res[finite], -745.0, 709.0))
    out[~np.isfinite(z)] = np.inf
    return out


def initial_points(p: Polynomial) -> np.ndarray:
    """Starting points on perturbed circles at Newton-polygon radii.

    Each upper-hull edge of ``(j, log|c_j|)`` contributes a group of points
    on the circle of radius ``(|c_a| / |c_b|)**(1/(b-a))``, the classical
    estimate for that group's root moduli, clamped to the Cauchy radius
    ``1 + max_j |c_j / c_n|``.  Placing everything on the Cauchy circle
    itself stalls badly for large degrees (the whole cloud contracts by only
    O(1/n) per sweep), so the circle is used as a cap rather than the start.
    A deterministic angular jitter of ``1e-3 * (j/n)`` turns breaks the
    symmetry that would otherwise stall the iteration on ``z**n - c``.
    """
    n = p.degree
    c = p.coefficient_array()
    cauchy = 1.0 + float(np.max(np.abs(c[:-1] / c[-1])))
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(c))
    # Upper convex hull of (j, log|c_j|), skipping zero coefficients.
    hull: list[int] = []
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
        # Exact zero roots from vanishing low-order coefficients.
        k = hull[0]
        points[:k] = 1e-3 * np.exp(2j * np.pi * (np.arange(k) / max(k, 1)))
        pos = k
    for a, b in zip(hull[:-1], hull[1:]):
        g = b - a
        radius = min(float(np.exp((logs[a] - logs[b]) / g)), cauchy)
        # Global angle slots keep the whole cloud spread around the circle
        # even when the polygon splits into many one-root groups.
        j = np.arange(pos, pos + g)
        angles = (j / n) * (1.0 + 1e-3) + 0.25 / n
        points[pos : pos + g] = radius * np.exp(2j * np.pi * angles)
        pos += g
    return points


def find_roots(p: Polynomial, tol: float = 1e-10, max_iter: int = 200) -> RootSet:
    """All roots of ``p`` with residuals certified below ``tol``.

    Raises :class:`RootFindingError` if the certificate cannot be met within
    ``max_iter`` sweeps, reporting the worst residual reached.
    """
    n = p.degree
    if n < 1:
        raise RootFindingError("degree-0 polynomial has no roots")
    c = p.coefficient_array()
    z = initial_points(p)
    active = np.arange(n)
    confirming = converged = False
    sweeps = 0
    while sweeps < max_iter and not converged:
        if active.size == 0:
            active, confirming = np.arange(n), True
        sweeps += 1
        za = z[active]
        newton = _newton_steps(c, za)
        bad = ~np.isfinite(newton)
        if np.any(bad):
            newton[bad] = za[bad] / n  # crude far-field Newton step
        coupling = _pairwise_inverse_sums(z, active)
        denom = 1.0 - newton * coupling
        denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
        w = newton / denom
        w = np.where(np.isfinite(w), w, newton)
        # Damp wild steps far from convergence.
        step = np.abs(w)
        limit = 0.5 * (1.0 + np.abs(za))
        factor = np.where(step > limit, limit / np.where(step > 0, step, 1.0), 1.0)
        za = za - w * factor
        z[active] = za
        moving = ~(step / (1.0 + np.abs(za)) < _STALL)  # a nan step stays active
        converged = confirming and not moving.any()
        active, confirming = active[moving], False
    log_scale = _log_scales(z, abs(c[-1]))
    residuals = _residuals_from_scales(p, z, log_scale)
    worst = float(residuals.max())
    if not worst <= tol:
        ended = "steps stalled" if converged else f"max_iter reached with {active.size} of {n} roots still active"
        raise RootFindingError(
            f"root residuals not certified after {sweeps} Aberth sweeps ({ended}): "
            f"worst {worst:.3e} > tol {tol:.3e}",
            worst_residual=worst,
        )
    return _build(z, residuals, tol)


def _build(z: np.ndarray, residuals: np.ndarray, tol: float) -> RootSet:
    args = np.angle(z) / (2.0 * np.pi)
    args = np.mod(args, 1.0)
    args[args >= 1.0] = 0.0  # guard against -eps wrapping to 1.0 exactly
    return RootSet(
        roots=z,
        residuals=residuals,
        moduli=np.abs(z),
        args_turns=args,
        tolerance=tol,
    )


def rootset_from_known(
    p: Polynomial,
    roots,
    tol: float = 1e-8,
    full_scale: bool | None = None,
) -> RootSet:
    """Certify an externally supplied root list against ``p``.

    Useful when the roots are known analytically.  For large degrees the
    pairwise residual scale is replaced by its lower cap ``|c_n|`` (which only
    makes the certificate stricter) to avoid an O(n^2) pass.
    """
    z = np.asarray(roots, dtype=complex)
    if len(z) != p.degree:
        raise ValueError("root count must match the degree")
    abs_cn = abs(p.coeffs[-1])
    if full_scale is None:
        full_scale = len(z) <= 4096
    if full_scale:
        log_scale = _log_scales(z, abs_cn)
    else:
        log_scale = np.full(len(z), math.log(abs_cn))
    residuals = _residuals_from_scales(p, z, log_scale)
    worst = float(residuals.max())
    if not worst <= tol:
        raise RootFindingError(
            f"supplied roots failed certification: worst {worst:.3e} > tol {tol:.3e}",
            worst_residual=worst,
        )
    return _build(z, residuals, tol)


def rootset_from_angles(p: Polynomial, angles_turns, moduli=None, tol: float = 1e-8) -> RootSet:
    """RootSet from exact polar data (angles in turns, default modulus 1)."""
    t = np.asarray(angles_turns, dtype=float)
    rho = np.ones_like(t) if moduli is None else np.asarray(moduli, dtype=float)
    z = rho * np.exp(2j * np.pi * t)
    rs = rootset_from_known(p, z, tol=tol)
    # Keep the caller's exact angles instead of round-tripped ones.
    return RootSet(
        roots=rs.roots,
        residuals=rs.residuals,
        moduli=rho,
        args_turns=np.mod(t, 1.0),
        tolerance=tol,
    )


def unit_roots_rootset(n: int, tol: float = 1e-8) -> RootSet:
    """Roots of ``z**n - 1`` from exact angles ``j/n`` (no iterative solver).

    Residuals come from the closed form ``|z**n - 1|`` over the leading
    coefficient (the generic dense evaluation would cost O(n^2) here).
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    t = np.arange(n) / n
    z = np.exp(2j * np.pi * t)
    residuals = np.abs(z**n - 1.0)
    worst = float(residuals.max())
    if not worst <= tol:
        raise RootFindingError(f"unit roots failed certification: {worst:.3e}")
    return RootSet(
        roots=z,
        residuals=residuals,
        moduli=np.ones(n),
        args_turns=t,
        tolerance=tol,
    )
