"""Simultaneous root finding, certified by per-root residuals.

All ``n`` roots of a polynomial are computed by Aberth-Ehrlich iteration
(simultaneous Newton corrections coupled through pairwise repulsion terms).
A root set is returned only when every root's scale-normalized residual

    residual_j = |P(a_j)| / scale_j,
    scale_j   = |c_n| * prod_{k != j} max(1, |a_j - a_k|),

computed in log space so the product cannot overflow, is at most the
caller's ``tol``; otherwise :class:`RootFindingError` reports the worst one.
The residuals are not kept: a :class:`RootSet` holds the roots only.
``scale_j`` dominates ``|P'(a_j)|``, so a small residual certifies a small
backward error without assuming simple roots.

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

A confirming sweep whose rows span several blocks runs in float32 first
(:func:`_single_pair_sums` with ``bounds``), and each row's sums come with
proven bounds: ``E_j`` on the coupling sum's distance from the exact sum
(and from the complex128 kernel's), ``A_j`` on the log sum's
(:func:`_single_bounds`).  A root is decided still when every coupling sum
within ``E_j`` gives a step below ``_STALL`` (:func:`_single_confirms`).
When every root is decided so, the sweep confirms exactly where the
complex128 sweep would; otherwise, or when a sum is not finite or a
coordinate is at or above ``2**62``, the sweep is redone in complex128
before any step is taken.  The certificate is then decided on the upper
bounds ``|P(a_j)| / (|c_n| exp(L_j - A_j))`` of the residuals, and only when
one exceeds ``tol`` on the double log sums of :func:`_log_scales`, so it
passes no root set that the double sums would reject.  The iterates and the
roots returned are therefore exactly those of a sweep in complex128.

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
redone in complex128.  The sweeps after the first confirming one that do
not confirm, the Newton steps and the ``max_iter`` fallback pass stay in
double precision, and the confirming sweeps decide in float32 only what the
bounds above prove the double sums would decide.  Degrees up to 104 fit
every sweep in one block and never take the float32 path; from 105 to 128
only the confirming sweep spans blocks (its blocks hold logs too, so they
are two thirds as long).
"""
from __future__ import annotations

import math
import sys
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
_LOG_HUGE = math.log(sys.float_info.max)  # exp of it is still finite
_LOG_TINY = math.log(sys.float_info.min)  # the least normal float
_Z_MAX = 2.0**1020  # iterates stay below this in each coordinate, so their differences and reciprocals do not overflow


class RootFindingError(RuntimeError):
    """Roots failed their residual certificate; ``worst_residual`` is the
    largest residual, when one was computed."""

    def __init__(self, message: str, worst_residual: float | None = None):
        super().__init__(message)
        self.worst_residual = worst_residual


@dataclass(frozen=True)
class RootSet:
    """Roots ``a_j = rho_j * e(theta_j)``, certified when the set was built.

    Every constructor (:func:`find_roots`, :func:`rootset_from_known`,
    :func:`unit_roots_rootset`) checks each root's residual against its
    ``tol`` and raises :class:`RootFindingError` otherwise; the residuals are
    not kept.  ``args_turns`` holds the normalized arguments ``theta_j`` in
    [0, 1).  Length equals the polynomial degree, multiplicity counted.
    ``_arc_index`` caches :mod:`zerostats`' disk-count index for the last
    radius counted, and nothing else.
    """

    roots: np.ndarray
    moduli: np.ndarray
    args_turns: np.ndarray
    _arc_index: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "roots", np.asarray(self.roots, dtype=complex))
        for name in ("moduli", "args_turns"):
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
    step = _block_rows(n, logs)
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


def _block_rows(n: int, logs: bool) -> int:
    """Rows per pair block at ``n`` columns: ``_PAIR_ELEMS // n``, two thirds
    as many with logs (a log block holds a float beside each complex entry,
    24 bytes, not 16), and at least ``_PAIR_MIN_ROWS``."""
    return max(_PAIR_MIN_ROWS, (_PAIR_ELEMS * 2 // 3 if logs else _PAIR_ELEMS) // max(n, 1))


def _single_pair_sums(z: np.ndarray, m: int, step: int, bounds: bool = False):
    """Coupling sums of the first ``m`` points of ``z`` against all of
    ``z``, in float32 and in ``_pair_sums``' blocks and order, as complex128;
    ``None`` when a coordinate is too large or a sum is not finite.  With
    ``bounds`` (``m`` must then be ``len(z)``) the result is ``(S, L, E,
    A)``: the coupling sums ``S``, the log sums ``L_j = sum_{k != j} log max(1,
    |z_j - z_k|)`` and their error bounds from :func:`_single_bounds`.

    The points are two contiguous planes ``x``, ``y``.  Each term is
    ``1 / (z_i - z_k) = (dx - i dy) / q`` with ``q = dx**2 + dy**2``, so the
    sums are row and column sums of ``dx / q`` and ``dy / q``, taken as
    products with a vector of ones (faster than ``sum`` here).  With
    ``bounds``, ``1 / q`` and ``log max(1, q)`` (twice the log term) are
    summed the same way, from the ``q`` already formed.  Coordinates below
    ``2**62`` keep ``q`` below the float32 maximum, ``2**128``; a coincident
    pair, or one close enough for ``q`` to underflow, makes a sum infinite or
    nan.
    """
    n = len(z)
    planes = np.empty((2, n), dtype=np.float32)
    buf = np.empty((2, 2 * step * n), dtype=np.float32)
    ones = np.ones(n, dtype=np.float32)
    sums = np.zeros((2, m), dtype=np.float32)
    extra = np.zeros((2, m), dtype=np.float32) if bounds else None  # sums of 1 / q and log max(1, q)
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
            if bounds:  # the self-term's q = 0 gives log 1 = 0
                np.log(np.maximum(q, 1.0, out=sq[1]), out=sq[1])
            np.fill_diagonal(q, np.inf)  # self-term contributes zero
            np.reciprocal(q, out=q)
            np.multiply(d, q, out=d)
            sums[:, start:stop] += np.matmul(d, ones[:w])
            sums[:, stop:] -= np.matmul(ones[:k], d[:, :, k : m - start])
            if bounds:
                extra[:, start:stop] += np.matmul(sq, ones[:w])
                extra[:, stop:] += np.matmul(ones[:k], sq[:, :, k:])
    if not (np.isfinite(sums).all() and (extra is None or np.isfinite(extra).all())):
        return None
    out = np.empty(m, dtype=complex)
    out.real, out.imag = sums[0], -sums[1]
    if not bounds:
        return out
    logs = 0.5 * extra[1].astype(float)
    return (out, logs, *_single_bounds(np.abs(z), extra[0].astype(float), logs, -(-m // step)))


_U32 = 2.0**-24  # float32 unit roundoff
_LOG32 = 2.0**-20  # numpy's float32 log is within this times |log v| (it documents 4 ulps, 2**-21)
_SLACK = 1.0 + 2.0**-20  # covers the complex128 kernel's error and the rounding of the bounds


def _gamma32(k: float) -> float:
    return k * _U32 / (1.0 - k * _U32)


def _single_bounds(moduli: np.ndarray, inv_q: np.ndarray, logs: np.ndarray, blocks: int):
    """Bounds ``(E, A)`` for the float32 sums of :func:`_single_pair_sums`:
    ``|S~_j - S_j| <= E_j`` and ``|L~_j - L_j| <= A_j``, where ``S_j`` and
    ``L_j`` are the exact sums at the double points ``z`` (``moduli`` is
    ``|z|``), ``inv_q`` the float32 sums ``Q~_j`` of ``1 / q`` and ``logs``
    the log sums ``L~_j``.  A row whose bounds the derivation does not cover
    gets ``inf`` for both.  ``E_j`` and ``A_j`` also bound the distance to
    the complex128 kernel's sums (:func:`_pair_sums`).

    Notation: ``u = 2**-24``; ``gamma_k = k u / (1 - k u)``; ``D = z_j -
    z_k``; ``D^`` the difference of the coordinates rounded to float32 (each
    within ``u |x| + 2**-150``, so ``|D^ - D| <= u (|z_j| + |z_k|) + 3 *
    2**-150``); ``q^ = |D^|**2``; ``N = n + blocks``, the most additions a
    term takes on its way into a row total (within its block's product with
    ones, at most ``n - 1`` in any order, then one per block).  Float32
    summation in any order of terms ``t`` errs by at most ``gamma_N sum |t|``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    2002, §4.2).

    * ``1 / q``: ``q~`` is ``q^`` within ``gamma_4`` relative (two squares,
      a sum; the subtraction ``dx`` is one more rounding on each coordinate
      difference, squared), ``1 / q~`` one more rounding.  A row is covered
      only if ``Q~_j <= 2**100``: float32 sums of positive terms are at least
      their largest term, so then every ``q~ >= 2**-100`` and every ``q^ >=
      2**-101``, far above the subnormals, where a subnormal square (absolute
      error ``2**-150``) moves ``q`` by less than ``u``.  So ``Q^_j = sum
      1 / q^ <= Q_j = (Q~_j + n 2**-149) (1 + gamma_7) / (1 - gamma_N)``,
      the ``n 2**-149`` for reciprocals of ``q > 2**126``, which are
      subnormal.
    * Rounding of the coordinates: ``|z_k| <= |z_j| + |D|`` gives ``|D^ -
      D| <= a_j + b |D^|`` with ``a_j = (2 u |z_j| + 3 * 2**-150) / (1 - u)``
      and ``b = u / (1 - u)``.  A row is covered only if ``16 a_j**2 Q_j <=
      1``, so ``a_j <= |D^| / 4`` for every ``k``; then ``|D| >= |D^| / 2``
      and ``|1/D^ - 1/D| = |D^ - D| / (|D| |D^|) <= 2 a_j / q^ + 2 b / |D^|``.
    * Each float32 term ``dx / q~``, ``dy / q~`` is within ``gamma_10`` of
      ``1 / D^``'s parts, relatively, plus ``2**-86`` absolute (a subnormal
      product, or a subnormal ``1 / q~`` times ``|dx| < 2**63``), so the
      complex term is within ``gamma_10 / |D^| + 2**-85``.  The sums of the
      two parts err by ``gamma_N`` times the sums of the parts' moduli, so the
      complex sum by ``gamma_N (1 + gamma_10) sum 1 / |D^|``.
    * ``sum_k 1 / |D^| <= sqrt((n - 1) Q^_j)`` (Cauchy–Schwarz).

    Together::

        E_j = (1 + 2**-20) (2 a_j Q_j + (2 b + gamma_10 + gamma_N (1 + gamma_10))
              sqrt((n - 1) Q_j) + n 2**-84)

    For the log sums, a pair contributes only where ``|D|``, ``|D^|`` or
    ``q~`` reaches 1, and ``log max(1, .)`` is 1-Lipschitz in ``log``:

    * ``q~`` against ``q^``: ``|log(1 + gamma_4)| / 2 <= gamma_4``;
    * ``|D^|`` against ``|D|``: at most ``|D^ - D| / min(|D|, |D^|)``, and
      under the row's condition the smaller is at least ``|D^| / 2``, with
      ``|D^| >= 0.79`` wherever one of them reaches 1, so at most ``2 a_j /
      0.79 + 2 b <= 4 a_j + 2 b``;
    * numpy's float32 ``log``: within ``2**-20 |log v|`` (``_LOG32``; numpy
      documents 4 ulps for its vector ``log``, ``2**-21``), so the halved
      terms' sum errs by ``2**-20 L^_j``;
    * the summation: ``gamma_N`` times the sum of the (nonnegative) terms.

    The halving of ``log max(1, q~)`` is exact.  Together::

        A_j = (1 + 2**-20) ((n - 1) (gamma_4 + 4 a_j + 2 b)
              + (2**-20 + gamma_N) L~_j / ((1 - 2**-20) (1 - gamma_N)))
              + 2**-40 (1 + n + L~_j)

    The complex128 kernel's own errors are those above with ``2**-53`` in
    place of ``2**-24`` and no coordinate rounding, so the factor ``1 +
    2**-20`` covers them and the rounding in forming these bounds in double;
    the ``2**-40 (1 + n + L~_j)`` covers the double roundings of the
    certificate's ``log |P| - log |c_n| - (L~_j - A_j)`` (its terms are at
    most ``745 + 44 n + L_j`` in modulus below ``2**62``).
    """
    n = len(moduli)
    big = n + blocks
    if big * _U32 >= 0.25:  # gamma_N out of its range
        inf = np.full(n, np.inf)
        return inf, inf
    g_n = _gamma32(big)
    a = (2.0 * _U32 * moduli + 3.0 * 2.0**-150) / (1.0 - _U32)
    b = _U32 / (1.0 - _U32)
    q = (inv_q + n * 2.0**-149) * (1.0 + _gamma32(7)) / (1.0 - g_n)
    root = np.sqrt((n - 1) * q)
    err = _SLACK * (2.0 * a * q + (2.0 * b + _gamma32(10) + g_n * (1.0 + _gamma32(10))) * root + n * 2.0**-84)
    log_err = _SLACK * (
        (n - 1) * (_gamma32(4) + 4.0 * a + 2.0 * b) + (_LOG32 + g_n) * logs / ((1.0 - _LOG32) * (1.0 - g_n))
    ) + 2.0**-40 * (1.0 + n + logs)
    covered = (inv_q <= 2.0**100) & (16.0 * a * a * q <= 1.0)
    err[~covered] = np.inf
    log_err[~covered] = np.inf
    return err, log_err


def _single_confirms(z: np.ndarray, newton: np.ndarray):
    """``(L~, A)`` from :func:`_single_pair_sums` when its float32 sums prove
    a confirming sweep over every root, else ``None``.  Needs ``len(z)``
    rows to span several blocks (a single block stays complex128) and
    finite Newton steps ``newton``.

    With ``|S - S~| <= E`` the Aberth step ``N / (1 - N S)`` is at most
    ``|N| / (|1 - N S~| - |N| E)`` in modulus, and the relative step
    ``|w| / (1 + |z - w|)`` at most ``|w| / (1 + |z| - |w|)``.  A root is
    decided still when that bound, times ``1 + 2**-40`` for the double
    roundings of the complex128 sweep's own step, is below ``_STALL``, with
    ``|1 - N S~| - |N| E >= 1/2`` so that no guard of that sweep applies.
    Since ``E`` also bounds the complex128 sums' distance, every root decided
    still is one the complex128 sweep would have frozen.  A row the bounds
    do not cover has ``E = inf`` and is never decided still.
    """
    n = len(z)
    step = _block_rows(n, logs=True)
    if n <= step:
        return None
    out = _single_pair_sums(z, n, step, True)  # with bounds
    if out is None:
        return None
    coupling, logs, err, log_err = out
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(newton)
        denom = np.abs(1.0 - newton * coupling) - size * err
        w = size / denom
        still = (denom >= 0.5) & (w * (1.0 + 2.0**-40) < _STALL * (1.0 + np.abs(z) - w))
    return (logs, log_err) if still.all() else None


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

    Both radii are decided in log space and clamped to the float range, so
    no coefficients overflow them: the Cauchy radius is the largest float
    when ``max_j log |c_j / c_n|`` reaches ``log`` of it, and a polygon
    radius's log is clamped to the logs of the least normal and the largest
    float.  Within those limits the radii are computed as plain ratios and
    powers, bit for bit.
    """
    n = p.degree
    c = p.coefficient_array()
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(c)).tolist()  # the scan is faster on Python floats
    if max(logs[:-1]) - logs[-1] < _LOG_HUGE:
        cauchy = 1.0 + float(np.max(np.abs(c[:-1] / c[-1])))
    else:
        cauchy = sys.float_info.max
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
        radius = min(float(np.exp(min(max((logs[a] - logs[b]) / g, _LOG_TINY), _LOG_HUGE))), cauchy)
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
    otherwise; no other sweep takes the logs), and the bound ``A`` on the
    log sums' error when they are float32 sums (``None`` when they are the
    complex128 kernel's).  Its temporaries end with it, so none is held
    through the next sweep's evaluation.  The sweeps that freeze at
    ``_FREEZE``, all before the first confirming one, take their coupling
    sums in float32 where ``_pair_sums`` splits them into blocks; a
    confirming sweep is decided in float32 when :func:`_single_confirms`
    proves it, and its steps are then not computed.  ``blocks`` are the
    evaluation blocks of ``c`` (:func:`poly._split_blocks`).
    """
    n = len(z)
    za = z[active]
    newton, split = _newton_steps(c, za, blocks)
    log_abs = _log_abs_split(n, za, *split) if confirming else None
    bad = ~np.isfinite(newton)
    if confirming and not bad.any():
        confirmed = _single_confirms(z, newton)
        if confirmed is not None:
            return za, np.zeros(n, dtype=bool), log_abs, *confirmed
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
    return za, moving, log_abs, log_pairs, None


def find_roots(p: Polynomial, tol: float = ROOT_TOL, max_iter: int = 400) -> RootSet:
    """All roots of ``p``, each with its residual certified below ``tol``.

    Roots freeze at a relative step below ``_FREEZE`` until the first
    confirming sweep and below ``_STALL`` from then on: simple roots end in
    one confirming sweep, and a slow root frozen too early is caught by the
    first.  The roots returned are the points of the confirming sweep, where
    its evaluation and pair kernel computed the certificate; the sweep's
    steps, all below ``_STALL``, are not taken.  When ``max_iter`` runs out
    first, the certificate is computed at the last iterates by a separate
    pass.  Raises :class:`RootFindingError` if the certificate cannot be met
    within ``max_iter`` sweeps, reporting the worst residual reached, and
    before any sweep from points with a coordinate at or above ``2**1020``
    (or nan), such as the starting point of a root outside the float range:
    their differences and reciprocals would overflow.

    When the confirming sweep was decided in float32, the certificate is
    decided on upper bounds of the residuals, from the float32 log sums less
    their error bound ``A_j``; only when a bound exceeds ``tol`` is it
    decided on the double log sums of :func:`_log_scales`.
    """
    n = p.degree
    if n < 1:
        raise RootFindingError("degree-0 polynomial has no roots")
    c = p.coefficient_array()
    z = initial_points(p)
    blocks = _split_blocks(c, order=1)
    active = np.arange(n)
    confirming = converged = False
    sweeps, stall, log_err = 0, _FREEZE, None
    while sweeps < max_iter and not converged:
        if not ((np.abs(z.real) < _Z_MAX) & (np.abs(z.imag) < _Z_MAX)).all():
            raise RootFindingError(f"an Aberth iterate left the float range (a coordinate reached 2**1020) after {sweeps} sweeps")
        if active.size == 0:
            active, confirming, stall = np.arange(n), True, _STALL
        sweeps += 1
        za, moving, log_abs, log_pairs, log_err = _aberth_sweep(c, z, active, confirming, stall, blocks)
        converged = confirming and not moving.any()
        if not converged:  # a confirmed sweep's steps are left untaken
            z[active] = za
        active, confirming = active[moving], False
    abs_cn = abs(c[-1])
    if converged:
        log_scale = math.log(abs_cn) + log_pairs
        if log_err is not None:  # float32 log sums: their upper bounds decide first
            if _residuals_from_scales(p, z, log_scale - log_err, log_abs).max() <= tol:
                return _build(z)
            log_scale = _log_scales(z, abs_cn)
    else:
        log_scale, log_abs = _log_scales(z, abs_cn), None
    ended = "steps stalled" if converged else f"max_iter reached with {active.size} of {n} roots still active"
    failure = f"root residuals not certified after {sweeps} Aberth sweeps ({ended})"
    _certify(_residuals_from_scales(p, z, log_scale, log_abs), tol, failure)
    return _build(z)


def _certify(residuals: np.ndarray, tol: float, failure: str) -> None:
    """Raise :class:`RootFindingError`, its message ``failure`` and the
    worst residual, unless every residual is at most ``tol``."""
    worst = float(residuals.max())
    if not worst <= tol:
        raise RootFindingError(f"{failure}: worst {worst:.3e} > tol {tol:.3e}", worst_residual=worst)


def _build(z: np.ndarray) -> RootSet:
    return RootSet(roots=z, moduli=np.abs(z), args_turns=args_turns(z))


def rootset_from_known(p: Polynomial, roots, tol: float = 1e-8) -> RootSet:
    """Certify an externally supplied root list against ``p``: each residual
    must be at most ``tol``, or :class:`RootFindingError` is raised.

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
    _certify(_residuals_from_scales(p, z, log_scale), tol, "supplied roots failed certification")
    return _build(z)


def unit_roots_rootset(n: int, tol: float = 1e-8) -> RootSet:
    """Roots of ``z**n - 1`` from exact angles ``j/n`` (no iterative solver),
    certified like :func:`rootset_from_known`.

    The residuals come from the closed form ``|z**n - 1|`` over the leading
    coefficient (the generic dense evaluation would cost O(n^2) here).
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    t = np.arange(n) / n
    z = np.exp(2j * np.pi * t)
    _certify(np.abs(z**n - 1.0), tol, "unit roots failed certification")
    return RootSet(roots=z, moduli=np.ones(n), args_turns=t)
