"""Scalar functionals of a polynomial on the unit circle.

Everything here integrates over the circle with normalized (probability)
arc measure, written in turns: ``e(t) = exp(2*pi*i*t)``, ``t in [0, 1)``.

Provided functionals:

* ``p_norm``            -- enclosure of ``(integral |P(e(t))|^p dt)**(1/p)``
* ``sup_norm_enclosure``-- certified interval around ``max |P|``
* ``mahler``            -- geometric mean ``M(P)`` and ``m(P) = log M(P)``
* ``mahler_plus``       -- ``exp(integral log+ |P|)`` and its logarithm
* ``e_measure_enclosure``-- certified interval around ``|E|``, the measure of
  ``{t : |P(e(t))| < 1}``
* ``b_norm``            -- interval around the logarithmic p-norm ``B_p`` (or
  ``B_inf``), built from the enclosures above

Enclosures are Lipschitz/Bernstein-certified from grid samples.  The
p-norms take a trapezoid sum with a proven remainder, plus an a-priori
allowance for the rounding of the samples and of the sum (an estimate for
numpy's FFT, see :func:`_eval_err`).  The other enclosures are
conservative but not formally validated interval arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .poly import Polynomial, _blocks, _evaluate, evaluate
from .roots import RootSet, log_abs_eval

_TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # smallest normal float
_HUGE = float(np.finfo(float).max)

# Fixed accuracies of the profile: the width to which the level set
# localizes each crossing of ``|P| = 1`` (so ``|E|``), and the relative
# stabilization of the m+ panels and of the Mahler quadrature.
_E_TOL = 1e-8
_MPLUS_TOL = 1e-8
_MAHLER_TOL = 1e-8


class QuadratureError(RuntimeError):
    """Grid refinement cannot reach the requested tolerance: it hit its cap,
    or the tolerance is below the rounding of the quadrature itself."""


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def _next_pow2(x: int) -> int:
    n = 1
    while n < x:
        n *= 2
    return n


def _initial_grid(degree: int, floor: int = 1024) -> int:
    return _next_pow2(max(floor, 16 * (degree + 1)))


# A grid of more than ``_GRID_POINTS`` points is sampled as interleaved rows
# of about the degree's length, one FFT per batch of at most ``_BLOCK_POINTS``
# samples, so memory stays bounded however far a grid is refined.  Up to 2^12
# points one FFT of the whole grid is as fast; from 2^13 the batched rows are
# faster (pocketfft, numpy 2.4).
_GRID_POINTS = 2**12
_BLOCK_POINTS = 2**13


def _stride(degree: int, n_points: int) -> int:
    """Number ``L`` of interleaved rows a grid is sampled as: 1 up to
    ``_GRID_POINTS`` points, else the largest power of two dividing
    ``n_points`` whose rows ``n_points / L`` keep at least ``degree + 1``
    points."""
    if n_points <= _GRID_POINTS:
        return 1
    stride = 1
    while n_points % (2 * stride) == 0 and n_points // (2 * stride) > degree:
        stride *= 2
    return stride


def _sample_rows(p: Polynomial, n_points: int, shifts, slope: bool = False):
    """Yield ``(q, r0, block)`` with
    ``block[i, j] = P(e((j L + r0 + i + shifts[q]) / n_points))``, ``L`` from
    :func:`_stride`, until every row of every shift has been yielded once.
    With ``slope``, ``block`` has two planes: ``block[0]`` as above and
    ``block[1]`` the same rows of ``z P'(z)`` (coefficients ``l c_l``), and a
    batch holds half as many rows.

    Row ``r`` is the unscaled inverse DFT of ``c_l e((r + shift) l / n_points)``
    zero-padded to ``n_points / L``.  Rows go through one FFT per batch of at
    most ``_BLOCK_POINTS`` samples (or one row): a power of two of the rows
    of one shift, or, with ``L = 1``, whole grids of several shifts.  The
    twiddles of a batch are a per-call table ``e(i l / n_points)`` times one
    phase row ``c_l e((r0 + shift) l / n_points)``, built from
    ``c_l e(shift l / n_points)`` and the steps ``e(2^k l / n_points)`` of the
    bits of ``r0``: a call takes ``n + 1`` complex exponentials per shift and
    per bit of ``L``, and a twiddle at most ``log2 L`` roundings more than
    the direct one.  A single grid of one shift is :func:`polyzero.poly.circle_samples`
    bit for bit.  ``block`` is overwritten by the next batch.  A grid of at
    most ``degree`` points raises ``ValueError``, as ``circle_samples`` does:
    its rows would drop coefficients.
    """
    n = p.degree
    if n_points <= n:
        raise ValueError("need more sample points than the degree")
    stride = _stride(n, n_points)
    size = n_points // stride
    planes = 2 if slope else 1
    batch = 1 << (max(1, _BLOCK_POINTS // (planes * size)).bit_length() - 1)
    rows = min(batch, stride)
    grids = batch // rows  # shifts per FFT, > 1 only when L = 1
    c = p.coefficient_array()
    l = np.arange(n + 1)
    steps = [np.exp((2j * np.pi * (1 << k) / n_points) * l) for k in range(stride.bit_length() - 1)]
    table = np.ones((rows, n + 1), dtype=complex)
    for k, step in enumerate(steps[: rows.bit_length() - 1]):
        np.multiply(table[: 1 << k], step, out=table[1 << k : 2 << k])
    twisted = np.empty((min(grids, len(shifts)), planes, rows, n + 1), dtype=complex)
    buf = np.empty((len(twisted), planes, rows, size), dtype=complex)
    for q0 in range(0, len(shifts), grids):
        offsets = np.asarray(shifts[q0 : q0 + grids], dtype=float)
        first = c * np.exp((2j * np.pi * offsets / n_points)[:, None] * l)
        x = twisted[: len(offsets)]
        for r0 in range(0, stride, rows):
            phase = first.copy()
            for k in range(rows.bit_length() - 1, len(steps)):
                if r0 >> k & 1:
                    phase *= steps[k]
            np.multiply(table, phase[:, None, :], out=x[:, 0])
            if slope:
                np.multiply(x[:, 0], l, out=x[:, 1])
            out = np.fft.ifft(x, n=size, axis=-1, norm="forward", out=buf[: len(x)])
            for i, block in enumerate(out):
                yield q0 + i, r0, block if slope else block[0]


def _power_sum(p: Polynomial, n_points: int, shift: float, exponent: float) -> tuple[float, float]:
    """``(sum_k |P(t_k)|**exponent, max_k |P(t_k)|)`` over the grid
    ``t_k = e((k + shift) / n_points)``, one batch of rows at a time."""
    total, peak, mags = 0.0, 0.0, None
    for _, _, block in _sample_rows(p, n_points, (shift,)):
        mags = np.abs(block, out=mags)
        peak = max(peak, float(mags.max()))
        if exponent != 1.0:
            np.power(mags, exponent, out=mags)
        total += float(mags.sum())
    return total, peak


def _abs_at(p: Polynomial, n_points: int, index: np.ndarray, shifts):
    """Yield ``(q, sel, |P(e((index[sel] + shifts[q]) / n_points))|)`` batch by
    batch; for each ``q`` the ``sel`` cover every position of ``index`` once."""
    stride = _stride(p.degree, n_points)
    size = n_points // stride
    res = index % stride
    order = np.argsort(res, kind="stable")
    res = res[order]
    flat = res * size + index[order] // stride  # position in the rows from r0 = 0
    edges = np.searchsorted(res, np.arange(stride + 1))
    for q, r0, block in _sample_rows(p, n_points, shifts):
        lo, hi = edges[r0], edges[r0 + len(block)]
        if hi > lo:
            yield q, order[lo:hi], np.abs(block.ravel().take(flat[lo:hi] - r0 * size))


# ---------------------------------------------------------------------------
# p-norms and sup-norm
# ---------------------------------------------------------------------------

def _eval_err(abs_sum: float, n: int, n_points: int) -> float:
    """Bound on the rounding error of one sample of ``P`` on the circle, from
    the evaluation kernel or from the row sampler on a grid of ``n_points``,
    for a degree-``n`` polynomial with ``abs_sum = sum |c|``.

    The kernel's a-priori error there is below ``4e-16 (n + 2) sum |c|``
    (:func:`polyzero.poly._evaluate`).  A sample of :func:`_sample_rows` is
    an FFT of size ``M`` of twiddled coefficients.  Each radix-2 level of
    the FFT rounds by at most ``8u`` componentwise (``u = eps / 2``; Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 24.1,
    with its own twiddles within ``2u``).  Each of the at most
    ``log2 L + 1`` phase factors of a twiddle is off by ``2u theta + u``
    from its rounded angle ``theta < pi``, and its product by ``2 sqrt(2) u``,
    under ``11u`` together.  All twiddles have modulus 1, so every path from
    a coefficient to a sample has weight 1, and the sample is off by at most
    ``11u (log2 N + 2) sum |c|`` to first order (``N = L M``).  That bound is
    for a radix-2 FFT; numpy's mixed-radix pocketfft is taken to meet it, so
    the allowance is an a-priori estimate, not a proof.  Both terms are
    added, so either route is covered.
    """
    return (4e-16 * (n + 2) + 1.3e-15 * (n_points.bit_length() + 1)) * abs_sum


def _sum_rounding(n: int, n_points: int, exponent: float) -> float:
    """Relative rounding allowance of the mean of ``|P|**exponent`` over
    ``n_points`` computed samples, beyond that of the samples themselves.

    Every sum is bounded as if it ran in order, one ulp per term: a batch
    of at most ``max(_BLOCK_POINTS, 2n + 2)`` samples, the batch totals, and
    one total per doubling; the modulus and the power add ``exponent + 2``
    ulps.  It grows with ``n_points``, so no grid reaches a relative width
    below its value on the first grid.
    """
    terms = max(_BLOCK_POINTS, 2 * n + 2) + n_points // _BLOCK_POINTS + 64
    return (terms + exponent + 2) * _EPS


def _trapezoid_error(exponent: float, n: int, n_points: int, sup: float, eval_err: float, mean: float) -> float:
    """Bound on ``|mean - integral_0^1 |P(e(t))|**exponent dt|`` for the mean
    ``mean`` of the computed samples on ``n_points`` uniform nodes, where
    ``sup >= max |P|`` on the circle and each sample is off by at most
    ``eval_err``; the rounding of the mean is :func:`_sum_rounding`.

    For ``exponent = p >= 1`` the rule's error on ``f(t) = |P(e(t))|**p`` and
    ``N = n_points`` nodes, with ``S = sup``, is at most the second-order
    remainder ``2 pi p n**2 S**p / N**2``.  ``|P(e(t))|`` is
    ``2 pi n S``-Lipschitz in ``t`` (Bernstein), so ``f`` is
    ``L = 2 pi p n S**p``-Lipschitz.  The rule's error is
    ``sum_{j != 0} fhat(jN)`` (aliasing), and two integrations by parts give
    ``|fhat(k)| <= V / (2 pi k)**2`` with ``V`` the total variation of
    ``f'`` over a period, so the error is at most
    ``2 zeta(2) V / (2 pi N)**2 = V / (12 N**2)``.  ``|f'| <= L``.  Where
    ``P != 0``, ``g = |P|**2`` is a real trig polynomial of degree ``n`` and
    ``f'' = (p/2) g**(p/2 - 2) h`` with ``h = (p/2 - 1) g'**2 + g g''`` of
    degree at most ``2n``: unless ``h = 0``, it has at most ``4n`` zeros per
    period, and ``P`` has at most ``n`` zeros on the circle.  Between
    consecutive points of these at most ``5n``, ``f'`` is monotone, so each
    arc adds at most ``2L`` to ``V``; ``f'`` jumps only at a zero of ``P`` on
    the circle, and only when ``p = 1``, each jump at most ``2L``.  So
    ``V <= 12 n L = 24 pi p n**2 S**p``.  The first-order remainder
    ``L / (4N)`` is not needed: :func:`p_norm` starts at ``N >= 16 (n + 1)``,
    where the second-order one is ``4n / N < 1/4`` of it.

    For ``0 < exponent < 1`` the integrand is Hoelder, ``|f(s) - f(t)| <=
    (2 pi n S |s - t|)**exponent``, which bounds the rule by ``(2 pi n S /
    N)**exponent / (exponent + 1)``.  For an even integer exponent
    ``|P|**exponent`` is a trig polynomial of degree ``exponent n / 2``,
    which the rule integrates exactly on more nodes than that.  The samples
    add ``exponent S**(exponent - 1) eval_err`` (``eval_err**exponent`` below
    1).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sup = np.float64(sup)
        if exponent >= 1.0:
            slope = exponent * sup ** (exponent - 1.0)  # of x -> x**exponent on [0, sup]
            exact = exponent % 2.0 == 0.0 and n_points > exponent * n / 2.0
            second = _TWO_PI * n * n / (n_points * float(n_points))
            rule = 0.0 if exact else slope * sup * second
            samples = slope * eval_err
        else:
            rule = (_TWO_PI * n * sup / n_points) ** exponent / (exponent + 1.0)
            samples = np.float64(eval_err) ** exponent
        return float(rule + samples + _sum_rounding(n, n_points, exponent) * mean)


def p_norm(
    p: Polynomial,
    exponent: float,
    tol: float = 1e-2,
    max_points: int = 2**20,
    sup: Interval | None = None,
) -> Interval:
    """Enclosure of ``||P||_p = (integral_0^1 |P(e(t))|**exponent dt)**(1/exponent)``.

    ``exponent == 2`` is Parseval's identity, ``sqrt(sum |c_k|^2)``, with no
    grid and a rounding bound of ``(n + 5) / 4`` ulps.  Other exponents take the
    uniform periodic trapezoid sum (the mean of FFT samples) of
    ``|P|**exponent`` with the proven remainder of :func:`_trapezoid_error`.
    Its ``sup`` is the Bernstein bound of the grid's own samples that
    :func:`sup_norm_enclosure` uses, ``max |P(grid)| / sqrt(1 - (pi n /
    N)^2 / 2)``.  The grid doubles from ``_initial_grid(n, floor=256)``
    until the remainder is at most ``tol`` times the sum, each doubling
    sampling only the midpoints of the previous grid, as interleaved rows of
    about the degree's length in FFT batches of bounded size (see
    :func:`_sample_rows`), so memory does not grow with the grid.  A grid of
    more than ``max_points`` points is not sampled: the enclosure of the last
    grid is returned, wider than ``tol`` asks.  The first grid is always
    sampled.  ``exponent = 1`` on the random families stops at ``N = 64 n``
    at the default ``tol``, the second grid.

    Coefficients outside the range of :func:`_scale_exponent` take an
    enclosure ``[S_lo, S_hi]`` of the sup ``S = max |P|``: ``sup`` when it is
    given and finite, else :func:`sup_norm_enclosure` at its default
    ``tol``.  They are scaled by the exact power of two ``2**-k`` that brings
    ``S_hi`` into ``[1/2, 1)``, and the ends scaled back by ``2**k``
    (widened by an ulp where that rounds).  A scaled-down coefficient that
    leaves the normal range rounds by at most ``2**-1075``, so every sample
    moves by at most ``(n + 1) 2**-1075``, far inside the sample allowance;
    trailing coefficients that round to 0 are dropped.  ``|P(e(t))|`` is
    ``2 pi n S``-Lipschitz in ``t`` (Bernstein), so it stays above
    ``S (1 - 2 pi n |t - t*|)`` within ``1 / (2 pi n)`` of a maximizer
    ``t*``, and the mean of ``|P|**exponent`` is at least ``S**exponent /
    (pi n (exponent + 1))``.  The grid runs on the scaled polynomial while
    ``exponent <= 2**15`` and ``(S_lo 2**-k)**exponent >= 2**-800``: the
    mean then stays above ``2**-900``, so the samples that underflow move it
    by a relative ``2**-170`` at most, and (for degrees below ``2**20``,
    where the grid's sup is below 1.02) every sum and remainder stays below
    ``2**1000``.  Otherwise ``|P|**exponent`` would underflow on the grid,
    and the same bound gives, with no grid, the enclosure ``[S_lo (pi n
    (exponent + 1))**(-1/exponent), S_hi]``: its relative width is about
    ``log(pi n exponent) / exponent`` plus the sup's, ``2e-4`` at degree 512
    and exponent ``1e5``.

    Raises :class:`QuadratureError` when ``tol`` is below the relative
    rounding allowance of the sum itself (:func:`_sum_rounding`, about
    ``2e-12`` up to degree 4095; for Parseval, ``(n + 5) / 4`` ulps), which
    no grid can meet, and, on coefficients that need the sup and without
    ``sup``, where :func:`sup_norm_enclosure` raises.
    """
    if exponent <= 0 or not math.isfinite(exponent):
        raise ValueError("exponent must be a positive finite real")
    c = p.coefficient_array()
    k = _scale_exponent(c, exponent)
    if k is None:
        return _p_norm_at_scale(p, exponent, tol, max_points)
    if sup is not None and sup.hi < math.inf:
        sup = Interval(math.ldexp(sup.lo, -k), math.ldexp(sup.hi, -k))  # S 2**-k is in [1/2, n + 1)
    else:
        sup = sup_norm_enclosure(_scaled_down(c, k), max_points=max_points)
    k_sup = math.frexp(sup.hi)[1]
    if exponent <= 2.0**15 and exponent * math.log2(max(math.ldexp(sup.lo, -k_sup), _TINY)) >= -800.0:
        return _ldexp_interval(_p_norm_at_scale(_scaled_down(c, k + k_sup), exponent, tol, max_points), k + k_sup)
    # ``shrink`` rounds in its few operations by far less than the 1e-12 taken off.
    shrink = math.exp(-(math.log(math.pi * max(p.degree, 1)) + math.log1p(exponent)) / exponent)
    return _ldexp_interval(Interval(sup.lo * shrink * (1.0 - 1e-12), sup.hi), k)


def _p_norm_at_scale(p: Polynomial, exponent: float, tol: float, max_points: int) -> Interval:
    """:func:`p_norm` of ``p`` as it stands, unscaled."""
    c = p.coefficient_array()
    n = p.degree
    if exponent == 2.0:
        # Two dot products of n + 1 squares and their sum round by at most
        # (n + 2) u relative, the root halves that and adds u (u = eps / 2).
        rel = (n + 5) * _EPS / 4.0
        _check_attainable(tol, rel)
        norm = float(np.linalg.norm(c))
        return Interval(norm * (1.0 - rel), norm * (1.0 + rel))
    n_points = _initial_grid(n, floor=256)
    _check_attainable(tol, _sum_rounding(n, n_points, exponent))
    abs_sum = float(np.sum(np.abs(c)))
    total, peak = _power_sum(p, n_points, 0.0, exponent)
    while True:
        mean = total / n_points
        eval_err = _eval_err(abs_sum, n, n_points)
        sup = (peak + eval_err) / math.sqrt(1.0 - 0.5 * (math.pi * n / n_points) ** 2)
        err = _trapezoid_error(exponent, n, n_points, sup, eval_err, mean)
        if err <= tol * mean or 2 * n_points > max_points:
            break
        more, top = _power_sum(p, n_points, 0.5, exponent)
        total, peak, n_points = total + more, max(peak, top), 2 * n_points
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.float64(mean - err) ** (1.0 / exponent) if mean > err else 0.0
        hi = np.float64(mean + err) ** (1.0 / exponent) if mean + err < math.inf else math.inf
    return Interval(float(lo), float(hi))


def _scale_exponent(c: np.ndarray, exponent: float) -> int | None:
    """Binary exponent ``k`` of the scaling ``2**-k`` that brings ``max |c_j|``
    into ``[1/2, 1)``, or ``None`` while the coefficients ``c`` are safe as
    they are.  ``k`` may be 0 on unsafe coefficients (a high ``exponent``).

    Safe means, with ``q = max(exponent, 1)`` and ``S < 2 (n + 1) max |c_j|``
    the sup that ``p_norm`` bounds: the mean of ``|P|**exponent``, at least
    ``max |c_j|**q`` for ``exponent >= 1``, stays above ``2**-900``, and
    ``2**40 n**2 S**q``, above every sum and remainder formed on grids of up
    to ``2**32`` points, below ``2**1000``.
    """
    k = math.frexp(float(np.max(np.abs(c))))[1]
    q = max(exponent, 1.0)
    bits = len(c).bit_length()
    return None if q * (k - 1) >= -900 and q * (k + bits + 1) + 2 * bits + 40 <= 1000 else k


def _scaled_down(c: np.ndarray, k: int) -> Polynomial:
    """The polynomial of the coefficients ``c`` times ``2**-k``, trailing zeros dropped."""
    return Polynomial(tuple(np.trim_zeros(np.ldexp(c.real, -k) + 1j * np.ldexp(c.imag, -k), "b")))


def _ldexp_interval(iv: Interval, k: int) -> Interval:
    """``iv`` times ``2**k``, widened by an ulp at an end that lands below the
    normal range (where the product rounds); an upper end that overflows is
    ``inf``, a lower one the largest float."""
    with np.errstate(over="ignore"):
        lo, hi = float(np.ldexp(iv.lo, k)), float(np.ldexp(iv.hi, k))
    if lo < _TINY:
        lo = max(math.nextafter(lo, 0.0), 0.0)
    if hi < _TINY:
        hi = math.nextafter(hi, math.inf)
    return Interval(min(lo, _HUGE), hi)


def _check_attainable(tol: float, floor: float) -> None:
    if not tol >= floor:
        raise QuadratureError(
            f"p_norm tol {tol:.3e} is below the {floor:.3e} rounding floor of the sum; no grid can meet it"
        )


def sup_norm_enclosure(
    p: Polynomial,
    tol: float = 1e-6,
    max_points: int = 2**20,
) -> Interval:
    """Certified interval containing ``max_t |P(e(t))|``.

    The lower end is the best sample.  The upper end combines two valid
    certificates at the current cell width ``h`` and keeps the smaller: a
    Lipschitz bound with constant ``2*pi*sum j|c_j|`` per turn, and a
    Bernstein second-derivative bound on the trig polynomial ``g = |P|**2``,
    which gives ``max g <= max_samples / (1 - (pi n h)^2 / 2)``.

    Sampling starts on a uniform grid from the row sampler
    (:func:`_sample_rows`).  Each refinement drops every cell
    that cannot hold the maximizer (its better endpoint fails the Bernstein
    or the Lipschitz bound read backwards) and bisects the rest; both
    endpoints of every kept cell are evaluated, so the bounds stay valid at
    the new ``h``.  New midpoints come from the blocked kernel, on blocks
    built once (:func:`_abs_on_circle`), or from a half-shifted FFT of the
    whole grid (:func:`_abs_at`, in batches of rows) when that is cheaper
    (many near-equal peaks).  ``eval_err`` is :func:`_eval_err` at the current
    grid, which covers both routes.
    ``max_points`` caps the points counted: the first grid, plus at each
    refinement one midpoint per kept cell, on either route (the FFT route is
    taken only where it costs less than the kernel on those cells).

    Coefficients outside the range of :func:`_scale_exponent` (at exponent
    2, for ``|P|**2``) are scaled by the exact power of
    two ``2**-k`` that brings ``max |c_j|`` into ``[1/2, 1)``, and the ends
    scaled back by ``2**k``, so ``|P|**2`` neither overflows nor underflows.
    """
    if p.degree == 0:
        v = abs(p.coeffs[0])
        return Interval(v, v)
    c = p.coefficient_array()
    k = _scale_exponent(c, 2.0)
    if k:
        return _ldexp_interval(sup_norm_enclosure(_scaled_down(c, k), tol, max_points), k)
    blocks = _blocks(c)  # for the refinement's midpoints
    lip = _TWO_PI * float(np.sum(np.arange(len(c)) * np.abs(c)))
    abs_sum = float(np.sum(np.abs(c)))
    n = p.degree
    n_cells = _initial_grid(n, floor=512)
    f_left = np.empty(n_cells)
    grid = f_left.reshape(-1, _stride(n, n_cells))  # grid[j, r] is point j L + r
    for _, r0, block in _sample_rows(p, n_cells, (0.0,)):
        np.abs(block.T, out=grid[:, r0 : r0 + len(block)])
    del block  # the sampler's buffer, else held through the refinement
    evaluated = n_cells
    ms = float((f_left**2).max())
    cells = f_right = None  # on the first grid, cell k runs from point k to point k + 1
    best: Interval | None = None
    while True:
        # Evaluation rounding allowance so the true sup cannot slip below
        # ``lo`` on constant-modulus edge cases.
        eval_err = _eval_err(abs_sum, n, n_cells)
        lo = max(math.sqrt(ms) - eval_err, 0.0)
        h = 1.0 / n_cells
        kappa = 0.5 * (math.pi * n * h) ** 2
        hi_bern = math.sqrt(ms / (1.0 - kappa)) if kappa < 1.0 else math.inf
        hi_lip = math.sqrt(ms) + lip * h / 2.0
        hi = min(hi_bern, hi_lip) + eval_err
        enc = Interval(lo, hi)
        if best is None or enc.width < best.width:
            best = enc
        if hi - lo <= tol * hi:
            return enc
        # The maximizer's cell has an endpoint within h/2 of it, where
        # g >= max g (1 - kappa) and |P| >= sup - lip h/2.
        cutoff = max(math.sqrt(ms * max(1.0 - kappa, 0.0)), math.sqrt(ms) - lip * h / 2.0)
        floor = cutoff - 2.0 * eval_err
        if cells is None:
            # Masks, not full-grid copies: only the kept cells are gathered.
            hit = f_left >= floor
            cells = np.flatnonzero(hit | np.roll(hit, -1))
            f_left, f_right = f_left[cells], f_left[(cells + 1) % n_cells]
        else:
            keep = np.maximum(f_left, f_right) >= floor
            cells, f_left, f_right = cells[keep], f_left[keep], f_right[keep]
        use_fft = len(cells) * (n + 1) > n_cells * math.log2(n_cells)
        evaluated += len(cells)
        if evaluated > max_points:
            break
        if use_fft:
            f_mid = np.empty(len(cells))
            for _, sel, vals in _abs_at(p, n_cells, cells, (0.5,)):
                f_mid[sel] = vals
        else:
            f_mid = _abs_on_circle(blocks, (cells + 0.5) / n_cells)
        ms = max(ms, float((f_mid**2).max()))
        cells = np.concatenate([2 * cells, 2 * cells + 1])
        f_left, f_right = np.concatenate([f_left, f_mid]), np.concatenate([f_mid, f_right])
        n_cells *= 2
    raise QuadratureError(
        f"sup_norm evaluation cap {max_points} reached; best width {best.width:.3e}"
    )


# ---------------------------------------------------------------------------
# Level-set machinery for E = {t : |P(e(t))| < 1}
# ---------------------------------------------------------------------------

@dataclass
class LevelSetInfo:
    """Certified classification of the circle against the level |P| = 1.

    ``pieces`` (shape ``(m, 2)``, in order, split at ``t = 0``) are the
    maximal intervals above the level, closed at the midpoints of the
    crossing cells that bound them.  On the classifier's first grid, a cell
    certified whole, or in certified sub-cells only, is above or below by
    its certificate.  A cell holding crossings is split at their midpoints,
    and one holding unresolved sub-cells is kept whole; these few (sub-)cells
    are above when ``|P| > 1`` at their midpoint.
    """

    below: float            # measure certified |P| < 1
    above: float            # measure certified |P| > 1
    crossings: list[tuple[float, float]]  # narrow cells bracketing a sign change
    tangent_measure: float  # unresolved cells without a sign change
    tangency: bool
    evaluations: int
    pieces: np.ndarray      # above-level intervals, closed at crossing midpoints

    @property
    def enclosure(self) -> Interval:
        return Interval(self.below, 1.0 - self.above)


def _abs_on_circle(blocks: np.ndarray, t: np.ndarray) -> np.ndarray:  # blocks of P at order 0
    return np.abs(_evaluate(blocks, np.exp(2j * np.pi * t))[0])


def _grid_cells(p: Polynomial, n_points: int):
    """Yield the cells ``[k, k + 1] / n_points`` of the uniform grid in batches
    ``(r0, (ga, gb, da, db))``: ``g = |P| - 1`` and ``d = 2 pi |P'|`` at the
    left and right ends, where entry ``[i, j]`` is cell ``k = j L + r0 + i``.

    Values come from :func:`_sample_rows`, ``|P'|`` as ``|z P'(z)|`` in the
    rows of ``P``.  Each row meets the next; the last row of a batch is
    carried to the next batch, and the last row of the grid meets the first,
    one column on.  No array of the grid's size outlives a batch.
    """
    carry = first = None
    for _, r0, (vals, ders) in _sample_rows(p, n_points, (0.0,), slope=True):
        g, d = np.abs(vals) - 1.0, _TWO_PI * np.abs(ders)
        if carry is None:
            first = g[0].copy(), d[0].copy()
        else:
            g, d, r0 = np.concatenate([carry[0], g]), np.concatenate([carry[1], d]), r0 - 1
        carry = g[-1:].copy(), d[-1:].copy()
        if len(g) > 1:
            yield r0, (g[:-1], g[1:], d[:-1], d[1:])
    stride = n_points // len(first[0])
    yield stride - 1, (carry[0], np.roll(first[0], -1)[None], carry[1], np.roll(first[1], -1)[None])


def _cover(ga, gb, da, db, w: float, m2: float):
    """Masks ``(certified, below)`` of the cells of width ``w``: certified on one
    side of the level, and certified below it.

    Both ends on one side make ``|ga| + |gb| = |ga + gb|`` exactly and
    ``ga gb > 0`` (a product that underflows would need a margin far below
    any ``L_cell w`` the cover asks for).
    """
    with np.errstate(over="ignore"):  # an overflow is inf of its sign: the tests read the same
        certified = (np.abs(ga + gb) >= (np.maximum(da, db) + m2 * w) * w) & (ga * gb > 0)
    return certified, certified & (ga < 0)


def _level_pieces(blocks: np.ndarray, n0: int, grid: np.ndarray, cuts: np.ndarray, unsure: np.ndarray) -> np.ndarray:
    """The above-level pieces of :class:`LevelSetInfo` from the unresolved
    first-grid cells ``grid = (k, g(k / n0), g((k + 1) / n0))``, sorted by
    ``k``, the crossing midpoints ``cuts`` and the first-grid cells
    ``unsure`` that hold unresolved sub-cells.  Between two unresolved cells
    every cell is certified on the side of ``g`` at the first one's right end.
    """
    k, ga, gb = grid
    points = np.unique(np.concatenate([[0.0, 1.0], k / n0, (k + 1) / n0, cuts]))
    mids = 0.5 * (points[:-1] + points[1:])
    cell = np.floor(mids * n0)
    nxt = np.searchsorted(k, cell)
    at = np.minimum(nxt, len(k) - 1)
    inside = k[at] == cell
    above = np.where(inside, ga[at] > 0, gb[nxt - 1] > 0)
    split = np.zeros(len(k), dtype=bool)
    split[np.searchsorted(k, np.floor(cuts * n0))] = True
    split[np.searchsorted(k, unsure)] = True
    check = inside & split[at]
    above[check] = _abs_on_circle(blocks, mids[check]) > 1.0
    edges = np.diff(np.concatenate([[0], above.astype(np.int8), [0]]))
    return np.column_stack([points[edges == 1], points[edges == -1]])


# The level-set classifier stops after this many evaluations, and calls its
# unresolved mass a tangency above this measure.
_LEVEL_BUDGET = 2_000_000
_TANGENCY_THRESHOLD = 1e-3


def classify_unit_level(
    p: Polynomial,
    min_width: float = 1e-9,
    sup_hint: float | None = None,
) -> LevelSetInfo:
    """Split the circle into cells certified above / below ``|P| = 1``.

    A cell [a, b] with both endpoint values of ``g = |P| - 1`` on one side
    is certified once the endpoint margins cover it under a per-cell slope
    bound: ``|g(a)| + |g(b)| >= L_cell (b - a)`` with
    ``L_cell = max(2 pi |P'(a)|, 2 pi |P'(b)|) + M2 (b - a)`` and ``M2``
    the Bernstein bound ``(2 pi n)^2 sup|P|`` on the second derivative.
    Everything else is bisected down to ``min_width``, within a budget of
    ``_LEVEL_BUDGET`` evaluations.

    The first grid of ``n0`` cells is cover-tested batch by batch as it comes
    from the row sampler (:func:`_grid_cells`), and only its unresolved cells
    are kept.  Every cell of a bisection level has the same width, so the
    level is one packed array ``(ga, gb, da, db, a, k)``, ``k`` the first-grid
    cell it came from.  The certified measures are ``math.fsum`` totals.
    The above-level pieces that ``m+`` integrates are assembled from the
    unresolved cells at the end (see :class:`LevelSetInfo`).

    Unresolved mass always widens the enclosure.  Point tangencies of
    ``|P|`` to the level (every real-coefficient polynomial with
    ``|P(1)| = 1`` has one at angle 0) leave a small sqrt(min_width)-scale
    residue and are absorbed by the widening; the ``tangency`` flag fires
    only when the unresolved mass is material (above
    ``_TANGENCY_THRESHOLD``), signalling level-set degeneracy that the
    downstream certification should treat as indeterminate.
    """
    n = p.degree
    if sup_hint is None:
        n0 = _initial_grid(n, floor=512)
        ms = max(float(np.abs(block).max()) for _, _, block in _sample_rows(p, n0, (0.0,)))
        kappa = 0.5 * (math.pi * max(n, 1) / n0) ** 2
        sup_hint = ms / math.sqrt(1.0 - kappa)
    m2 = (_TWO_PI * max(n, 1)) ** 2 * sup_hint

    n0 = _initial_grid(n)
    w = 1.0 / n0
    below: list[float] = []
    above: list[float] = []
    tangent: list[float] = []
    kept = []
    for r0, ends in _grid_cells(p, n0):
        certified, neg = _cover(*ends, w, m2)
        below.append(np.count_nonzero(neg) * w)
        above.append((np.count_nonzero(certified) - np.count_nonzero(neg)) * w)
        i, j = np.nonzero(~certified)
        k = j * (n0 // ends[0].shape[1]) + r0 + i
        kept.append(np.stack([x[i, j] for x in ends] + [k / n0, k]))
    cells = np.concatenate(kept, axis=1)
    cells = cells[:, np.argsort(cells[5], kind="stable")]
    grid = cells[[5, 0, 1]]
    blocks = _blocks(p.coeffs, order=1)
    evals = n0
    lo = hi = unsure = np.empty(0)
    budget_hit = False

    while cells.shape[1]:
        if w <= min_width:
            flips = (cells[0] < 0) != (cells[1] < 0)
            lo = cells[4, flips]
            hi = lo + w
            tangent.append(np.count_nonzero(~flips) * w)
            unsure = cells[5, ~flips]
            break
        unresolved = cells.shape[1] * w
        if evals > _LEVEL_BUDGET or (evals > 100_000 and unresolved > 0.5):
            # Exhausted, or clearly degenerate (|P| pinned to the level on
            # large mass, e.g. a monomial): stop refining.
            tangent.append(unresolved)
            unsure = cells[5]
            budget_hit = True
            break
        m = cells.shape[1]
        mid = cells[4] + 0.5 * w
        vals, derivs = _evaluate(blocks, np.exp(2j * np.pi * mid), order=1)
        evals += m
        # Left halves, then right halves; both share the midpoint values.
        cells = np.concatenate([cells, cells], axis=1)
        cells[1, :m] = cells[0, m:] = np.abs(vals) - 1.0
        cells[3, :m] = cells[2, m:] = _TWO_PI * np.abs(derivs)
        cells[4, m:] = mid
        w *= 0.5
        certified, neg = _cover(*cells[:4], w, m2)
        below.append(np.count_nonzero(neg) * w)
        above.append((np.count_nonzero(certified) - np.count_nonzero(neg)) * w)
        cells = cells[:, ~certified]

    tangent_measure = math.fsum(tangent)
    tangency = budget_hit or tangent_measure > max(
        _TANGENCY_THRESHOLD, 100.0 * max(1, len(lo)) * min_width
    )
    above_measure = math.fsum(above)
    if grid.shape[1]:
        pieces = _level_pieces(blocks[::2], n0, grid, 0.5 * (lo + hi), unsure)  # rows of P
    else:
        pieces = np.array([[0.0, 1.0]]) if above_measure else np.empty((0, 2))
    return LevelSetInfo(
        below=math.fsum(below),
        above=above_measure,
        crossings=list(zip(lo.tolist(), hi.tolist())),
        tangent_measure=tangent_measure,
        tangency=tangency,
        evaluations=evals,
        pieces=pieces,
    )


def e_measure_enclosure(p: Polynomial, tol: float = _E_TOL) -> tuple[Interval, bool]:
    """Enclosure of ``|E|`` plus a tangency flag.

    ``tol`` is the width to which each level crossing is localized; the
    enclosure width is at most (number of crossings + 2) * tol plus any
    unresolved tangent measure.
    """
    info = classify_unit_level(p, min_width=tol)
    return info.enclosure, info.tangency


# ---------------------------------------------------------------------------
# Mahler measure
# ---------------------------------------------------------------------------

_MAHLER_MAX_POINTS = 2**20
_PAIRED_ELEMS = 2**16  # sample-zero pairs per chunk of the paired-factor correction
_NEAR_PAIRED = 1e-9  # a sample this close to a paired zero is deflated


def mahler(
    p: Polynomial,
    roots: RootSet | None = None,
    method: str = "from_roots",
    tol: float = _MAHLER_TOL,
) -> tuple[float, float]:
    """``(M(P), m(P))``: geometric mean of ``|P|`` on the circle and its log.

    ``from_roots`` uses ``M = |c_n| * prod max(1, |a_j|)`` and is the
    reference method.  ``quadrature`` integrates ``log |P|`` directly,
    pairing detected near-circle zeros with the exact factor integral
    ``integral log|e(t) - w| dt = log max(1, |w|)`` so the remaining
    integrand is smooth, on grids of up to ``_MAHLER_MAX_POINTS`` points.
    """
    if method == "from_roots":
        if roots is None:
            raise ValueError("from_roots needs a RootSet")
        m = math.log(abs(p.coeffs[-1])) + float(
            np.sum(np.maximum(0.0, np.log(np.maximum(roots.moduli, 1e-300))))
        )
        return math.exp(m), m
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    return _mahler_quadrature(p, tol=tol)


def _refine_local_zeros(p: Polynomial, seeds: np.ndarray) -> np.ndarray:
    """Newton-polish each seed toward the nearest zero of ``p``.

    Iterates Newton on ``P/P'`` rather than ``P`` itself: that quotient has
    a simple zero at every root, so convergence stays quadratic at multiple
    zeros too.  Runs a fixed 40 steps.
    """
    z = seeds.astype(complex)
    for _ in range(40):
        v, dv, ddv = _evaluate(p.coeffs, z, order=2)
        denom = dv * dv - v * ddv
        denom = np.where(denom == 0, 1e-300, denom)
        step = v * dv / denom
        # Keep the polish local: never move more than a tenth of the circle.
        mag = np.abs(step)
        step = np.where(mag > 0.1, step * (0.1 / np.where(mag > 0, mag, 1.0)), step)
        z = z - step
    return z


def _detect_near_circle_zeros(p: Polynomial) -> tuple[np.ndarray, np.ndarray]:
    """Zeros within 0.05 of the unit circle with their multiplicities,
    found from |P| dips.

    Grid-scan for local minima below 0.3 times the median sample,
    Newton-polish each, then deduplicate.  Detection only inspects
    ``|P|`` samples (taken by :func:`_sample_rows`); no external root list is
    consulted.
    """
    n = p.degree
    n0 = _initial_grid(n, floor=2048)
    mags = np.empty(n0)
    for _, r0, block in _sample_rows(p, n0, (0.0,)):
        # Row r0 + i holds the samples r0 + i, r0 + i + L, ...: column r0 + i of an (n0 / L, L) view.
        mags.reshape(block.shape[1], -1)[:, r0 : r0 + len(block)] = np.abs(block).T
    med = float(np.median(mags))
    if med == 0.0:
        med = float(mags.max())
    left = np.roll(mags, 1)
    right = np.roll(mags, -1)
    is_min = (mags <= left) & (mags <= right) & (mags < 0.3 * med)
    idx = np.nonzero(is_min)[0]
    if len(idx) == 0:
        return np.empty(0, dtype=complex), np.empty(0, dtype=int)
    seeds = np.exp(2j * np.pi * idx / n0)
    zeros = _refine_local_zeros(p, seeds)
    vals = np.abs(evaluate(p, zeros))
    keep = (np.abs(np.abs(zeros) - 1.0) < 0.05) & (vals < 1e-6 * med)
    zeros = zeros[keep]
    if len(zeros) == 0:
        return zeros, np.empty(0, dtype=int)
    # Merge clusters: a double zero resolved from expanded coefficients
    # scatters over ~sqrt(eps), well below the merge radius.
    order = np.lexsort((zeros.imag, zeros.real))
    zeros = zeros[order]
    unique = [zeros[0]]
    for z in zeros[1:]:
        if abs(z - unique[-1]) > 3e-5:
            unique.append(z)
    unique = np.array(unique)
    return unique, _zero_multiplicities(p, unique)


def _zero_multiplicities(p: Polynomial, zeros: np.ndarray) -> np.ndarray:
    """Local order of vanishing from the decay of |P| at two tiny radii.

    ``|P(z + d)| ~ C d^m`` near an m-fold zero, so the slope of ``log |P|``
    between the radii estimates ``m``.  The radii sit above the cluster
    merge scale but below the spacing of distinct zeros.  Orders beyond 2
    are generally beyond float64 resolution; if the estimate is wrong the
    surrounding quadrature loop fails to stabilize and reports that.
    """
    d1, d2 = 1e-5, 1e-6
    v1 = np.abs(evaluate(p, zeros + d1))
    v2 = np.abs(evaluate(p, zeros + d2))
    with np.errstate(divide="ignore", invalid="ignore"):
        est = np.log(v1 / v2) / math.log(d1 / d2)
    est = np.where(np.isfinite(est), est, 1.0)
    return np.clip(np.round(est), 1, max(p.degree, 1)).astype(int)


def _mahler_quadrature(p: Polynomial, tol: float) -> tuple[float, float]:
    paired, mult = _detect_near_circle_zeros(p)
    correction = float(
        np.sum(mult * np.maximum(0.0, np.log(np.maximum(np.abs(paired), 1e-300))))
    )
    n_points = _initial_grid(p.degree, floor=2048)
    rows = max(1, _PAIRED_ELEMS // max(len(paired), 1))
    prev_raw = None
    prev_rich = None
    while n_points <= _MAHLER_MAX_POINTS:
        t = np.arange(n_points) / n_points
        z = np.exp(2j * np.pi * t)
        near = np.zeros(n_points, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_abs = log_abs_eval(p, z)
            if len(paired):
                # A chunk of samples at a time, so memory stays bounded; each
                # sample sums over the paired zeros in one order.
                for i in range(0, n_points, rows):
                    dist = np.abs(z[i : i + rows, None] - paired)
                    near[i : i + rows] = (dist < _NEAR_PAIRED).any(axis=1)
                    log_abs[i : i + rows] -= (mult * np.log(dist)).sum(axis=1)
        bad = near | ~np.isfinite(log_abs)
        if np.any(bad):
            # A sample landed on a zero, or within rounding of a paired one,
            # where the difference of logs cancels; rebuild those values
            # from the deflated polynomial.
            log_abs[bad] = _deflated_log_abs(p, z[bad], paired, mult)
        raw = float(np.mean(log_abs))
        rich = raw if prev_raw is None else raw + (raw - prev_raw) / 3.0
        if (
            prev_rich is not None
            and abs(rich - prev_rich) <= tol * (1.0 + abs(rich))
            and abs(raw - prev_raw) <= 100.0 * tol * (1.0 + abs(raw))
        ):
            est = rich + correction
            return math.exp(est), est
        prev_raw, prev_rich = raw, rich
        n_points *= 2
    raise QuadratureError(f"mahler quadrature cap {_MAHLER_MAX_POINTS} reached")


def _deflated_log_abs(p: Polynomial, z: np.ndarray, paired: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """``log(|P(z)| / prod |z - w|^m)`` by synthetic division, pointwise."""
    out = np.empty(len(z))
    for i, zi in enumerate(z):
        coeffs = list(p.coeffs)
        skipped = 0.0
        for w, m in zip(paired, mult):
            if abs(zi - w) < _NEAR_PAIRED:
                for _ in range(int(m)):
                    # Divide by (z - w): Horner synthetic division.
                    new = [0j] * (len(coeffs) - 1)
                    acc = 0j
                    for k in range(len(coeffs) - 1, 0, -1):
                        acc = coeffs[k] + acc * w
                        new[k - 1] = acc
                    coeffs = new
            else:
                skipped += m * math.log(abs(zi - w))
        val = _evaluate(coeffs, np.asarray(zi))[0]
        out[i] = math.log(max(abs(val), 1e-300)) - skipped
    return out


# ---------------------------------------------------------------------------
# Positive-part Mahler measure
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _integrate_log_abs(p: Polynomial, intervals: np.ndarray, tol: float) -> float:
    """``sum_i integral_{a_i}^{b_i} log |P(e(t))| dt`` over smooth intervals.

    16-point Gauss-Legendre panels on a global grid of ``m`` cells, ``m``
    starting at eight per unit of degree (the oscillation scale) and doubled
    until the total stabilizes or reaches 512 per unit.  On the cells lying
    wholly inside a piece, node ``x`` of every cell is ``P`` on the grid of
    ``m`` points shifted by ``x``; all 16 shifted grids of a level go through
    one :func:`_abs_at` call, whose FFT batches hold rows of several nodes
    (grids up to ``_GRID_POINTS``) or several rows of one node.  Only the
    partial cells at the ends of each piece, or a piece inside a single
    cell, go through the blocked kernel.  Intervals must avoid zeros
    of ``P`` on the circle (guaranteed when they sit strictly above the
    level |P| = 1); ``log`` is taken on the kept cells only.
    """
    if len(intervals) == 0:
        return 0.0
    a = intervals[:, 0]
    b = intervals[:, 1]
    x = 0.5 * (_GL_NODES + 1.0)
    half_w = 0.5 * _GL_WEIGHTS
    m = max(8 * p.degree, 16)
    prev = None
    for _ in range(7):
        first = np.ceil(a * m).astype(int)  # first grid node inside each piece
        last = np.floor(b * m).astype(int)
        whole = np.maximum(last - first, 0)
        cells = np.repeat(first - np.cumsum(whole) + whole, whole) + np.arange(whole.sum())
        # Partial panels: [a, first/m] and [last/m, b], or [a, b] within one cell.
        inside = first > last
        lo = np.concatenate([a[inside], a[~inside], last[~inside] / m])
        hi = np.concatenate([b[inside], first[~inside] / m, b[~inside]])
        part = hi > lo
        lo, hi = lo[part], hi[part]
        nodes = lo[:, None] + x[None, :] * (hi - lo)[:, None]
        vals = log_abs_eval(p, np.exp(2j * np.pi * nodes))
        total = float((vals @ half_w) @ (hi - lo))
        del nodes, vals  # not held through the whole-cell sums
        if len(cells):
            sums = np.zeros(len(x))
            for q, _, mags in _abs_at(p, m, cells, x):
                sums[q] += float(np.log(mags).sum())
            total += float(half_w @ sums) / m
        if prev is not None and abs(total - prev) <= tol * (1.0 + abs(total)):
            return total
        prev = total
        m *= 2
    raise QuadratureError("log-integral panels failed to stabilize")


def mahler_plus(
    p: Polynomial,
    tol: float = _MPLUS_TOL,
    level_info: LevelSetInfo | None = None,
) -> tuple[float, float]:
    """``(M+(P), m+(P))`` with ``m+ = integral log+ |P(e(t))| dt``.

    The integrand's kinks sit exactly on the level crossings ``|P| = 1``, so
    integration runs over the classifier's above-level pieces
    (``LevelSetInfo.pieces``): full ``log |P|`` on them and zero elsewhere.
    A piece ends at the midpoint of a crossing cell, a narrow bracketed
    sliver whose contribution is bounded by its width.
    """
    if level_info is None:
        level_info = classify_unit_level(p, min_width=min(tol * 1e-2, 1e-9))
    m_plus = max(_integrate_log_abs(p, level_info.pieces, tol=tol), 0.0)
    return math.exp(m_plus), m_plus


# ---------------------------------------------------------------------------
# Logarithmic p-norm and the assembled profile
# ---------------------------------------------------------------------------

@dataclass
class ProfileTolerances:
    """Tolerances of :func:`compute_profile`.

    ``quad_tol`` is the relative half-width to which ``p_norm`` encloses
    ``integral |P|^p``.
    ``max_points`` is the least cap on the FFT grid of ``p_norm`` and on the
    number of points ``sup_norm_enclosure`` evaluates (first grid plus
    refinement points); :meth:`grid_cap` raises it with the degree.
    """

    quad_tol: float = 1e-2
    sup_tol: float = 1e-6
    max_points: int = 2**20

    def grid_cap(self, degree: int) -> int:
        """``max_points``, or ``128 (degree + 1)`` where that is more: room
        for the sup's first grid of ``32 n`` points and ``p_norm``'s ``64 n``
        grid at every degree."""
        return max(self.max_points, 128 * (degree + 1))


@dataclass
class NormProfile:
    """Every scalar functional of one polynomial needed by the bound tables.

    ``log_mahler_plus_scaled`` is ``m+(f P)`` with ``f = 1/sqrt|c0 cn|``.
    ``log+`` is monotone and 1-Lipschitz, so ``m+(f P)`` lies between
    ``m+(P)`` and ``m+(P) + log f``; when ``|log f|`` is within the m+
    quadrature tolerance, ``log_mahler_plus`` is reused instead of a second
    pass.  It is nan when ``P(0) = 0``, where ``f`` does not exist.
    """

    degree: int
    c0_abs: float
    c0cn_abs: float
    p_norms: dict[float, Interval]
    sup_norm: Interval
    mahler: float
    log_mahler: float
    mahler_plus: float
    log_mahler_plus: float
    log_mahler_plus_scaled: float
    e_measure: Interval
    e_tangency: bool
    quad_points: dict[str, int] = field(default_factory=dict)

    @property
    def log_mahler_scaled(self) -> float:
        """``m(P / sqrt|c_0 c_n|) = m(P) - log sqrt|c_0 c_n|``."""
        return self.log_mahler - 0.5 * math.log(self.c0cn_abs)

    def pnorm_at_least_one(self, exponent: float) -> bool:
        """``||P||_p >= 1`` on the whole enclosure, whose ends already carry
        the rounding allowance."""
        norm = self.p_norms.get(exponent)
        return norm is not None and norm.lo >= 1.0

    # Hypothesis screening leaves rounding-level slack so that polynomials
    # satisfying a condition by construction (unit-modulus coefficients
    # stored as floats) are not knocked out by the last bit.

    @property
    def c0cn_at_least_one(self) -> bool:
        return self.c0cn_abs >= 1.0 - 1e-12


def b_norm(profile: NormProfile, exponent: float) -> Interval:
    """Interval around the logarithmic p-norm ``B_p``.

    ``B_inf = log(sup / sqrt|c0 cn|)``; for finite p,
    ``B_p = (1 - |E|) log(pnorm / sqrt|c0 cn|) + 1/(e p)``.  When
    ``P(0) = 0`` both take their limit ``+inf``, except that ``B_p`` stays
    at ``1/(e p)`` where ``|E| = 1`` (the log term then carries no mass).
    ``B_p`` grows with the p-norm, so each end takes the same end of the
    p-norm (or sup) enclosure, and the ``|E|`` end that follows the sign of
    the log term.
    """
    half_log = 0.5 * math.log(profile.c0cn_abs) if profile.c0cn_abs > 0 else -math.inf
    if math.isinf(exponent):
        sup = profile.sup_norm
        return Interval(math.log(max(sup.lo, 1e-300)) - half_log, math.log(max(sup.hi, 1e-300)) - half_log)
    if exponent not in profile.p_norms:
        raise KeyError(f"profile lacks p-norm for p={exponent}")
    norm, e_int = profile.p_norms[exponent], profile.e_measure

    def end(norm_end: float, e_if_positive: float, e_if_negative: float) -> float:
        log_term = math.log(max(norm_end, 1e-300)) - half_log
        weight = 1.0 - (e_if_positive if log_term >= 0 else e_if_negative)
        return (weight * log_term if weight else 0.0) + 1.0 / (math.e * exponent)

    return Interval(end(norm.lo, e_int.hi, e_int.lo), end(norm.hi, e_int.lo, e_int.hi))


def compute_profile(
    p: Polynomial,
    roots: RootSet | None = None,
    p_list: tuple[float, ...] = (1.0, 2.0),
    tols: ProfileTolerances | None = None,
) -> NormProfile:
    """Assemble the full scalar profile of ``p``.

    The Mahler measure comes from the root product when a RootSet is given
    (the reference route), otherwise from singularity-paired quadrature.
    The p-norms and the sup enclosure share the cap ``tols.grid_cap(n)``.
    """
    tols = tols or ProfileTolerances()
    max_points = tols.grid_cap(p.degree)
    quad_points: dict[str, int] = {}
    p_norms = {}
    sup = sup_norm_enclosure(p, tol=tols.sup_tol, max_points=max_points)
    for exponent in p_list:
        p_norms[float(exponent)] = p_norm(p, float(exponent), tol=tols.quad_tol, max_points=max_points, sup=sup)
    info = classify_unit_level(p, min_width=_E_TOL, sup_hint=sup.hi)
    quad_points["level_set"] = info.evaluations
    if roots is not None:
        m_val, m_log = mahler(p, roots=roots, method="from_roots")
    else:
        try:
            m_val, m_log = mahler(p, method="quadrature")
        except QuadratureError:
            # Degenerate circle zeros can exhaust float64; the rest of the
            # profile stays usable.
            m_val = m_log = math.nan
    c0cn = abs(p.coeffs[0] * p.coeffs[-1])
    mp_val, mp_log = mahler_plus(p, level_info=info)
    mp_log_scaled = math.nan  # with P(0) = 0 there is no normalized polynomial
    if c0cn > 0.0:
        factor = 1.0 / math.sqrt(c0cn)
        if abs(math.log(factor)) <= _MPLUS_TOL:
            mp_log_scaled = mp_log
        else:
            _, mp_log_scaled = mahler_plus(p.scaled(factor))
    return NormProfile(
        degree=p.degree,
        c0_abs=abs(p.coeffs[0]),
        c0cn_abs=c0cn,
        p_norms=p_norms,
        sup_norm=sup,
        mahler=m_val,
        log_mahler=m_log,
        mahler_plus=mp_val,
        log_mahler_plus=mp_log,
        log_mahler_plus_scaled=mp_log_scaled,
        e_measure=info.enclosure,
        e_tangency=info.tangency,
        quad_points=quad_points,
    )
