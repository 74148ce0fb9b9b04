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
which its relative step ``|w_j| / (1 + |z_j|)`` falls below ``_FREEZE``
(1e-9) before the first confirming sweep and below ``_STALL`` (1e-14) from
then on; frozen roots still enter the coupling sums of the active ones.
Aberth's iteration converges cubically at simple roots, so a step below
1e-9 is in practice followed by one far below ``_STALL``, and the earlier
freeze saves the sweeps that would only re-confirm it.  Once every root is frozen, one
confirming sweep runs over all of them, always tested against ``_STALL``:
the iteration ends if every step in it is below ``_STALL``, and any root
above reactivates (the sweep's steps are then taken).  A root that
``_FREEZE`` froze too early (a multiple root converges only linearly) is
caught by that first confirming sweep, and every later sweep uses
``_STALL``.  This stop rule is still step-based; isolated inclusion disks
could replace it.

The confirming sweep is also the certificate pass, and the only sweep that
takes logs.  Its evaluation yields ``log |P(z_j)|`` next to the Newton
steps, and its pair kernel yields ``sum_{k != j} log max(1, |z_j - z_k|)``
from the same differences as the coupling sums.  When it confirms, its
steps are not taken: the roots returned are the points the certificate was
computed at, each within one untaken step (below ``_STALL``) of the last
iterate.  Only supplied roots and the ``max_iter`` fallback take a separate
pass, the same kernel with the reciprocals off.

The pair kernel uses each pair of rows once, since the pair's two coupling
terms differ only in sign and its two log terms are equal.  It runs in row
blocks of ``_PAIR_ELEMS // n`` rows (at least ``_PAIR_MIN_ROWS``), so the
buffers stay in cache and memory does not grow like ``n**2``.  Blocks at
least ``_ROW_FILL`` columns wide take their differences row by row.
Coincident iterates would make a term infinite; a block is redone with a
finite guard only when one of its row sums is not finite, so the common case
pays no scan for them.

The sweeps before the first confirming one only steer the iterates, and
those whose active rows span several blocks take their coupling sums in
float32, from two planes of real and imaginary parts: about half the
complex128 kernel's time, with a largest relative error near 5e-4 at
``n = 2048``.  Aberth's correction ``N / (1 - N S)`` moves by about
``N**2 dS`` when ``S`` is off by ``dS``, so the error fades as the Newton
step ``N`` shrinks; far from the roots it only bends an iterate's path, and
an iterate may then settle on another root than in double precision (the
same roots, in another order).  If a float32 sum is not finite (a pair
closer than float32 resolves, or coordinates too large for it), the call is
redone in complex128.  The confirming sweep and every sweep after it, the
Newton steps and the ``max_iter`` fallback pass stay in double precision, so
the certificate and the stop rule are computed as with double precision
throughout.  Degrees up to 128 fit every sweep in one block and never take
the float32 path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import args_turns
from .poly import Polynomial, _evaluate_split, _split_blocks

_PAIR_ELEMS = 1 << 14  # complex entries per pair block: 256 KiB, in L2; 2/3 as many with logs
_PAIR_MIN_ROWS = 16
_ROW_FILL = 1 << 10  # blocks at least this wide are filled row by row
_LOG_FOLD = 8  # blocks of log sums gathered apart before adding to the totals
_STALL = 1e-14  # relative step below which a root is frozen
_FREEZE = 1e-9  # the same, in the sweeps before the first confirming one
ROOT_TOL = 1e-9  # default bound on the certified residuals


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
    ``_arc_index`` caches :mod:`zerostats`' disk-count index for the last
    radius counted, and nothing else.
    """

    roots: np.ndarray
    residuals: np.ndarray
    moduli: np.ndarray
    args_turns: np.ndarray
    _arc_index: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "roots", np.asarray(self.roots, dtype=complex))
        for name in ("residuals", "moduli", "args_turns"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    def __len__(self):
        return len(self.roots)

    @property
    def degree(self) -> int:
        return len(self.roots)


def _pair_sums(z: np.ndarray, rows: np.ndarray, reciprocals: bool = True, logs: bool = False, single: bool = False):
    """Pair sums over ``k != i`` for ``i`` in ``rows``: ``(S, L)`` with the
    coupling sums ``S_i = sum 1 / (z_i - z_k)`` (``None`` without
    ``reciprocals``) and ``L_i = sum log max(1, |z_i - z_k|)`` (``None``
    without ``logs``; ``logs`` needs ``rows`` to be every index in order).

    Each pair of requested rows is computed once.  The requested rows are
    placed first, and each block of them runs against the columns from its
    own start onwards: the row sums go to the block's rows, and the column
    sums, negated for ``S`` since ``1 / (z_k - z_i) = -1 / (z_i - z_k)``, go
    to the later requested rows.  Roots not in ``rows`` are columns only.  A
    full sweep thus takes about ``n**2 / 2`` differences instead of ``n**2``.
    A block has ``_PAIR_ELEMS // n`` rows (two thirds as many with
    ``logs``), but at least ``_PAIR_MIN_ROWS``, so the buffers stay in cache
    whatever ``n``.  When every row fits in one
    block, the rows run against all of ``z`` without the reordering.  The log
    sums of ``_LOG_FOLD`` blocks gather in a separate array before they are
    added to the totals, so a total takes ``n / (_LOG_FOLD step)`` roundings
    at its full size rather than ``n / step``, and stays as close to the
    exact sum as a whole-row sum.

    With ``single`` (for steering sweeps: reciprocals and no logs), reordered
    rows take the same blocks in float32 (:func:`_single_pair_sums`), and
    the complex128 kernel runs only when those sums are not all finite.
    """
    n, m = len(z), len(rows)
    # A log block holds a float beside each complex entry: 24 bytes, not 16.
    step = max(_PAIR_MIN_ROWS, (_PAIR_ELEMS * 2 // 3 if logs else _PAIR_ELEMS) // max(n, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        if m <= step:
            lg = np.empty((m, n)) if logs else None
            row, _ = _coupling_block(np.empty((m, n), dtype=complex), z[rows], z, rows, lg, reciprocals)
            return row, lg.sum(axis=1) if logs else None
        rest = np.ones(n, dtype=bool)
        rest[rows] = False
        z = np.concatenate((z[rows], z[rest]))
        if single:
            out = _single_pair_sums(z, m, step)
            if out is not None:
                return out, None
        out = np.zeros(m, dtype=complex) if reciprocals else None
        log_out, part = (np.zeros(m), np.zeros(m)) if logs else (None, None)
        buf = np.empty(step * n, dtype=complex)
        log_buf = np.empty(step * n) if logs else None
        for block, start in enumerate(range(0, m, step)):
            stop = min(start + step, m)
            shape = (stop - start, n - start)
            d = buf[: shape[0] * shape[1]].reshape(shape)
            lg = log_buf[: d.size].reshape(shape) if logs else None
            row, hit = _coupling_block(d, z[start:stop], z[start:], np.arange(stop - start), lg, reciprocals)
            if logs:
                part[start:stop] += lg.sum(axis=1)
                part[stop:] += lg[:, stop - start :].sum(axis=0)
                if block % _LOG_FOLD == _LOG_FOLD - 1 or stop == m:
                    log_out += part
                    part[:] = 0.0
            if reciprocals:
                if hit is not None:
                    d[hit] = -d[hit]  # a coincident pair adds +1e14 to both of its rows
                out[start:stop] += row
                out[stop:] -= d[:, stop - start : m - start].sum(axis=0)
    return out, log_out


def _single_pair_sums(z: np.ndarray, m: int, step: int):
    """Coupling sums of the first ``m`` points of ``z`` against all of
    ``z``, in float32 and in ``_pair_sums``' blocks and order, as complex128;
    ``None`` when a coordinate is too large or a sum is not finite.

    The points are two contiguous planes ``x``, ``y``.  Each term is
    ``1 / (z_i - z_k) = (dx - i dy) / q`` with ``q = dx**2 + dy**2``, so the
    sums are row and column sums of ``dx / q`` and ``dy / q``, taken as
    products with a vector of ones (faster than ``sum`` here).  Coordinates
    below ``2**62`` keep ``q`` below the float32 maximum, ``2**128``; a
    coincident pair, or one close enough for ``q`` to underflow, makes a sum
    infinite or nan.
    """
    n = len(z)
    planes = np.empty((2, n), dtype=np.float32)
    buf = np.empty((2, 2 * step * n), dtype=np.float32)
    ones = np.ones(n, dtype=np.float32)
    sums = np.zeros((2, m), dtype=np.float32)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        planes[0], planes[1] = z.real, z.imag
        if not np.abs(planes).max() < 2.0**62:
            return None
        for start in range(0, m, step):
            stop = min(start + step, m)
            k, w = stop - start, n - start
            d = buf[0, : 2 * k * w].reshape(2, k, w)  # dx and dy
            sq = buf[1, : 2 * k * w].reshape(2, k, w)
            np.subtract(planes[:, start:stop, None], planes[:, None, start:], out=d)
            np.multiply(d, d, out=sq)
            q = np.add(sq[0], sq[1], out=sq[0])
            np.fill_diagonal(q, np.inf)  # self-term contributes zero
            np.reciprocal(q, out=q)
            np.multiply(d, q, out=d)
            sums[:, start:stop] += np.matmul(d, ones[:w])
            sums[:, stop:] -= np.matmul(ones[:k], d[:, :, k : m - start])
    if not np.isfinite(sums).all():
        return None
    out = np.empty(m, dtype=complex)
    out.real, out.imag = sums[0], -sums[1]
    return out


def _coupling_block(d, zr, zc, diag, lg=None, reciprocals=True, guard=False):
    """Differences ``zr_i - zc_k`` in ``d``, with the self-terms ``(i,
    diag_i)`` left out of every sum.  Runs under the caller's ``np.errstate``,
    since coincident points divide by zero.

    A block at least ``_ROW_FILL`` columns wide, which has at most
    ``_PAIR_MIN_ROWS`` rows, is filled one row at a time, a scalar minus
    ``zc``, with the same bits: numpy's 2-D broadcast subtraction takes about
    twice as long on such short, wide blocks (70 against 33 us at 16 x 2048).
    Narrower blocks keep the broadcast, which is faster there (5 against
    21 us at 16 x 64).

    With ``lg``, ``log max(1, |zr_i - zc_k|)`` goes to ``lg``.  With
    ``reciprocals``, ``1 / (zr_i - zc_k)`` replaces ``d`` and the row sums
    are returned.  When a row sum is not finite, the block is redone with the
    coincidence guard: an exact zero difference becomes ``1e-14``, a huge
    but finite repulsion that can separate the pair.  Returns the row sums and
    the mask of guarded entries (``None`` when the guard did not run).
    """
    if len(zc) >= _ROW_FILL:
        for i in range(len(zr)):
            np.subtract(zr[i], zc, out=d[i])
    else:
        np.subtract(zr[:, None], zc[None, :], out=d)
    rows = np.arange(len(zr))
    if lg is not None:
        np.abs(d, out=lg)  # the self-term's 0 becomes log max(1, 0) = 0
        np.maximum(lg, 1.0, out=lg)
        np.log(lg, out=lg)
    if not reciprocals:
        return None, None
    d[rows, diag] = np.inf  # self-term contributes zero
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


def _newton_steps(coeffs: np.ndarray, z: np.ndarray, blocks=None) -> tuple[np.ndarray, tuple]:
    """``(P(z) / P'(z), (inside, P, R))`` without overflow for any |z|; ``blocks``
    as in :func:`poly._evaluate_split` at ``order = 1``.

    For |z| <= 1 this is ``P / P'`` from the blocked kernel.  For |z| > 1 the
    reversed polynomial ``R(u) = u**n P(1/u)`` is evaluated at ``u = 1/z``, using
    ``P'/P = (n - u R'(u)/R(u)) / z`` so the ``z**n`` growth cancels.  The
    split values ``(inside, P, R)`` are those :func:`log_abs_eval` computes,
    bit for bit; :func:`_log_abs_split` turns them into ``log |P(z)|`` when
    the caller needs it.
    """
    n = len(coeffs) - 1
    out = np.empty_like(z)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        inside, (p, dp), (r, dr) = _evaluate_split(coeffs, z, order=1, blocks=blocks)
        out[inside] = p / np.where(dp == 0, 1e-300, dp)
        zo = z[~inside]
        ratio = n - (1.0 / zo) * dr / np.where(r == 0, 1e-300, r)
        out[~inside] = zo / np.where(ratio == 0, 1e-300, ratio)
    return out, (inside, p, r)


def _log_abs_split(n: int, z: np.ndarray, inside: np.ndarray, inner, outer) -> np.ndarray:
    """``log |P(z)|`` from the two halves of :func:`poly._evaluate_split`."""
    out = np.empty(z.shape, dtype=float)
    with np.errstate(divide="ignore"):
        out[inside] = np.log(np.abs(inner))
        out[~inside] = n * np.log(np.abs(z[~inside])) + np.log(np.abs(outer))
    return out


def log_abs_eval(p: Polynomial, z: np.ndarray) -> np.ndarray:
    """``log |P(z)|`` without overflow: reversed-polynomial form for |z| > 1."""
    zz = np.asarray(z, dtype=complex)
    inside, (inner,), (outer,) = _evaluate_split(p.coeffs, zz)
    return _log_abs_split(p.degree, zz, inside, inner, outer)


def _log_scales(z: np.ndarray, abs_cn: float) -> np.ndarray:
    """``log scale_j`` for the residual scale: the pair kernel with the
    reciprocals off."""
    return math.log(abs_cn) + _pair_sums(z, np.arange(len(z)), reciprocals=False, logs=True)[1]


def _residuals_from_scales(
    p: Polynomial, z: np.ndarray, log_scale: np.ndarray, log_abs: np.ndarray | None = None
) -> np.ndarray:
    """Residuals ``|P(z_j)| / scale_j``; ``log_abs`` is ``log |P(z)|`` when
    the caller has it already."""
    if log_abs is None:
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
        logs = np.log(np.abs(c)).tolist()  # the scan is faster on Python floats
    # Upper convex hull of (j, log|c_j|), skipping zero coefficients.
    hull: list[int] = []
    for j in range(n + 1):
        if not math.isfinite(logs[j]):
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


def _aberth_sweep(c: np.ndarray, z: np.ndarray, active: np.ndarray, confirming: bool, stall: float, blocks):
    """One sweep over the roots ``active``: their updated points, which of them
    still move (relative step not below ``stall``), and, in a confirming
    sweep, ``log |P|`` and the log pair sums at the current points (``None``
    otherwise; no other sweep takes the logs).  Its temporaries end with it,
    so none is held through the next sweep's evaluation.  The sweeps that
    freeze at ``_FREEZE``, all before the first confirming one, take their
    coupling sums in float32 where ``_pair_sums`` splits them into blocks.
    ``blocks`` are the evaluation blocks of ``c`` (:func:`poly._split_blocks`).
    """
    n = len(z)
    za = z[active]
    newton, split = _newton_steps(c, za, blocks)
    log_abs = _log_abs_split(n, za, *split) if confirming else None
    bad = ~np.isfinite(newton)
    if np.any(bad):
        newton[bad] = za[bad] / n  # crude far-field Newton step
    coupling, log_pairs = _pair_sums(z, active, logs=confirming, single=stall == _FREEZE)
    denom = 1.0 - newton * coupling
    denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
    w = newton / denom
    w = np.where(np.isfinite(w), w, newton)
    # Damp wild steps far from convergence.
    step = np.abs(w)
    limit = 0.5 * (1.0 + np.abs(za))
    factor = np.divide(limit, step, out=np.ones_like(step), where=step > limit)  # only where used
    za = za - w * factor
    moving = ~(step / (1.0 + np.abs(za)) < stall)  # a nan step stays active
    return za, moving, log_abs, log_pairs


def find_roots(p: Polynomial, tol: float = ROOT_TOL, max_iter: int = 400) -> RootSet:
    """All roots of ``p`` with residuals certified below ``tol``.

    Roots freeze at a relative step below ``_FREEZE`` until the first
    confirming sweep and below ``_STALL`` from then on: simple roots end in
    one confirming sweep, and a slow root frozen too early is caught by the
    first.  The roots returned are the points of the confirming sweep, where
    its evaluation and pair kernel computed the certificate; the sweep's
    steps, all below ``_STALL``, are not taken.  When ``max_iter`` runs out
    first, the certificate is computed at the last iterates by a separate
    pass.  Raises :class:`RootFindingError` if the certificate cannot be met
    within ``max_iter`` sweeps, reporting the worst residual reached.
    """
    n = p.degree
    if n < 1:
        raise RootFindingError("degree-0 polynomial has no roots")
    c = p.coefficient_array()
    z = initial_points(p)
    blocks = _split_blocks(c, order=1)
    active = np.arange(n)
    confirming = converged = False
    sweeps, stall = 0, _FREEZE
    while sweeps < max_iter and not converged:
        if active.size == 0:
            active, confirming, stall = np.arange(n), True, _STALL
        sweeps += 1
        za, moving, log_abs, log_pairs = _aberth_sweep(c, z, active, confirming, stall, blocks)
        converged = confirming and not moving.any()
        if not converged:  # a confirmed sweep's steps are left untaken
            z[active] = za
        active, confirming = active[moving], False
    if converged:
        log_scale = math.log(abs(c[-1])) + log_pairs
    else:
        log_scale, log_abs = _log_scales(z, abs(c[-1])), None
    residuals = _residuals_from_scales(p, z, log_scale, log_abs)
    worst = float(residuals.max())
    if not worst <= tol:
        ended = "steps stalled" if converged else f"max_iter reached with {active.size} of {n} roots still active"
        raise RootFindingError(
            f"root residuals not certified after {sweeps} Aberth sweeps ({ended}): "
            f"worst {worst:.3e} > tol {tol:.3e}",
            worst_residual=worst,
        )
    return _build(z, residuals)


def _build(z: np.ndarray, residuals: np.ndarray) -> RootSet:
    return RootSet(
        roots=z,
        residuals=residuals,
        moduli=np.abs(z),
        args_turns=args_turns(z),
    )


def rootset_from_known(p: Polynomial, roots, tol: float = 1e-8) -> RootSet:
    """Certify an externally supplied root list against ``p``.

    Useful when the roots are known analytically.  Beyond degree 4096 the
    pairwise residual scale is replaced by its lower cap ``|c_n|`` (which only
    makes the certificate stricter) to avoid an O(n^2) pass.
    """
    z = np.asarray(roots, dtype=complex)
    if len(z) != p.degree:
        raise ValueError("root count must match the degree")
    abs_cn = abs(p.coeffs[-1])
    if len(z) <= 4096:
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
    return _build(z, residuals)


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
    )
