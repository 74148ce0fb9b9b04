"""Complex polynomials: representation, evaluation, families, serialization.

A polynomial is stored as a dense coefficient vector in ascending degree,
so ``coeffs[j]`` multiplies ``z**j``.  Coefficients are complex, the leading
coefficient is nonzero, and every entry is finite.  Angles follow the
convention ``e(t) = exp(2*pi*i*t)`` with ``t`` measured in turns.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

FAMILY_KINDS = (
    "littlewood",
    "unimodular",
    "g_class",
    "cyclotomic_product",
    "lehmer",
    "power_minus_one",
    "rudin_shapiro_P",
    "rudin_shapiro_Q",
    "explicit",
)

_KIND_IDS = {kind: i + 1 for i, kind in enumerate(FAMILY_KINDS)}

MAX_RUDIN_SHAPIRO_ORDER = 24


class PolynomialFormatError(ValueError):
    """Raised for malformed polynomial input (syntax, non-finite, zero lead)."""


@dataclass(frozen=True)
class Polynomial:
    """Dense complex polynomial ``sum_j coeffs[j] * z**j`` with honest degree."""

    coeffs: tuple[complex, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        coeffs = tuple(complex(c) for c in self.coeffs)
        for c in coeffs:
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError("coefficients must be finite")
        if coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)

    def scaled(self, factor: complex) -> "Polynomial":
        """Polynomial with every coefficient multiplied by ``factor``."""
        return Polynomial(tuple(factor * c for c in self.coeffs), label=self.label)

    def rotated(self, phi_turns: float) -> "Polynomial":
        """The polynomial ``z -> P(e(phi) * z)``."""
        w = [cmath.exp(2j * math.pi * phi_turns * j) for j in range(len(self.coeffs))]
        return Polynomial(tuple(c * wj for c, wj in zip(self.coeffs, w)))

    def __repr__(self):
        return f"Polynomial(degree={self.degree}, label={self.label!r})"


_TABLE_ENTRIES = 2**14  # power-table entries per block of points


def _blocks(coeffs, order: int = 0) -> np.ndarray:
    """The coefficient rows ``c_j``, ``j c_j``, ... of ``P, P', ..., P^(order)`` cut
    into ``nb`` blocks of ``L = isqrt(n) + 1``, shape ``(nb (order + 1), L)``: row
    ``b (order + 1) + k`` is block ``b`` of row ``k``.  :func:`_evaluate` takes
    them in place of the coefficients, so a caller that evaluates many times
    builds them once."""
    c = np.asarray(coeffs, dtype=complex)
    L = math.isqrt(len(c) - 1) + 1
    nb = -(-len(c) // L)
    rows = np.zeros((order + 1, nb * L), dtype=complex)
    rows[0, : len(c)] = c
    for k in range(1, order + 1):
        rows[k, :-1] = rows[k - 1, 1:] * np.arange(1, nb * L)
    return rows.reshape(order + 1, nb, L).transpose(1, 0, 2).reshape(-1, L)


def _powers(table: np.ndarray) -> None:
    """Fill rows ``2 ..`` of ``table`` with the powers of row 1 (row 0 is 1) by
    doubling: rows ``h + 1 .. 2h`` are rows ``1 .. h`` times row ``h``."""
    h = 1
    while h + 1 < len(table):
        k = min(h, len(table) - 1 - h)
        np.multiply(table[1 : k + 1], table[h], out=table[h + 1 : h + k + 1])
        h += k


def _evaluate(coeffs, z: np.ndarray, order: int = 0) -> np.ndarray:
    """``P, P', ..., P^(order)`` at ``z``, stacked: shape ``(order + 1,) + z.shape``.
    ``coeffs`` is the coefficient vector or its :func:`_blocks` at this ``order``.

    The one evaluation kernel, blocked after Paterson and Stockmeyer (SIAM
    J. Comput. 2, 1973): each row of coefficients splits into ``nb`` blocks
    of ``L = isqrt(n) + 1`` (:func:`_blocks`).  Per block of points, a power
    table ``z^0 .. z^L`` by doubling, one matrix product for every block value
    ``v_b = sum_i c_{bL+i} z^i`` of every row, then ``sum_b v_b w^b`` with
    ``w = z^L``: the powers ``w^b`` by doubling in the rows of the spent table,
    one product, and the blocks folded in halves.  O(log n) numpy calls.

    Error, to first order in ``u = 2**-53``: at most
    ``(sqrt(5) n + sqrt(2) nb + 2 sqrt(2) L) u sum_j |c_j| |z|^j`` per row.
    Term ``j = bL + i`` still passes through at most ``j`` complex products:
    a power by doubling is a product tree, so ``z^i`` takes ``i - 1``,
    ``w^b`` takes ``b (L - 1) + b - 1`` and ``v_b w^b`` one more, each within
    ``sqrt(5) u`` (Brent, Percival, Zimmermann, Math. Comp. 76, 2007).  Each
    component of ``v_b`` is a real dot product of length ``2L`` in any
    summation order (``gamma_2L``, so ``2 sqrt(2) L u`` in modulus).  The
    outer sum adds each term through at most ``ceil(log2 nb) < nb`` sums per
    component, ``sqrt(2) nb u`` in modulus, where Horner took ``nb``.  The
    constant is about ``2.3 n u`` at large ``n`` and at most ``3.38 (n + 2) u``
    (at ``n = 4``), below the ``3.6 (n + 2) u`` allowance of
    ``norms.sup_norm_enclosure``, for every ``n``.

    A point's value does not depend on the other points of the call: points
    are columns of the product, padded with zeros to a multiple of 8 per
    block, since BLAS rounds a partial tile of columns (and a matrix-vector
    product) apart, and every other step is elementwise.  Memory:
    ``(L + 1 + nb (order + 1)) * 16`` bytes per point of a block of
    ``_TABLE_ENTRIES // (L + 1)`` points.
    """
    blocks = np.asarray(coeffs, dtype=complex)
    if blocks.ndim == 1:
        blocks = _blocks(blocks, order)
    L = blocks.shape[1]
    nb = len(blocks) // (order + 1)
    flat = z.reshape(-1)
    out = np.empty((order + 1, flat.size), dtype=complex)
    chunks = -(-flat.size // max(2, _TABLE_ENTRIES // (L + 1)))
    edges = [k * flat.size // max(chunks, 1) for k in range(chunks + 1)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = hi - lo
        table = np.empty((L + 1, -(-m // 8) * 8), dtype=complex)
        table[0], table[1, :m], table[1, m:] = 1.0, flat[lo:hi], 0.0
        _powers(table)
        vals = (blocks @ table[:L]).reshape(nb, order + 1, -1)
        table[1] = table[L]
        _powers(table[:nb])
        vals[1:] *= table[1:nb, None]
        k = nb
        while k > 1:
            vals[: k // 2] += vals[k - k // 2 : k]
            k -= k // 2
        out[:, lo:hi] = vals[0, :, :m]
        del table, vals  # before the next block allocates its own
    return out.reshape((order + 1,) + z.shape)


def _evaluate_split(coeffs, z: np.ndarray, order: int = 0, blocks=None):
    """:func:`_evaluate` that cannot overflow: ``(inside, inner, outer)``, the mask
    ``|z| <= 1``, the kernel on ``P`` at ``z[inside]`` and on ``R(u) = u**n P(1/u)``
    at ``u = 1/z[~inside]``, where ``P(z) = z**n R(1/z)`` would grow like ``|z|**n``.
    ``blocks`` is :func:`_split_blocks` of ``coeffs`` at this ``order``, or
    ``None`` to build it here.
    """
    inner_blocks, outer_blocks = _split_blocks(coeffs, order) if blocks is None else blocks
    inside = np.abs(z) <= 1.0
    inner = _evaluate(inner_blocks, z[inside], order)
    outer = _evaluate(outer_blocks, 1.0 / z[~inside], order)
    return inside, inner, outer


def _split_blocks(coeffs, order: int = 0):
    """The :func:`_blocks` of ``P`` and of the reversed ``R`` that :func:`_evaluate_split` takes."""
    return _blocks(coeffs, order), _blocks(coeffs[::-1], order)


def evaluate(p: Polynomial, z):
    """Evaluate ``P(z)`` with the blocked kernel; ``z`` may be a scalar or array."""
    val = _evaluate(p.coeffs, np.asarray(z, dtype=complex))[0]
    return complex(val) if np.isscalar(z) else val


def evaluate_with_derivative(p: Polynomial, z):
    """``(P(z), P'(z))`` from one pass of the blocked kernel."""
    val, der = _evaluate(p.coeffs, np.asarray(z, dtype=complex), order=1)
    return (complex(val), complex(der)) if np.isscalar(z) else (val, der)


def circle_samples(p: Polynomial, n_points: int, shift: float = 0.0) -> np.ndarray:
    """Values ``P(e((k + shift) / n_points))`` for ``k = 0 .. n_points-1``.

    Uses a zero-padded inverse FFT, which is exact (up to rounding) because
    sampling a degree-n polynomial on an N-point uniform grid of the unit
    circle is a discrete Fourier transform of the coefficient vector.  A
    nonzero ``shift`` (in grid steps) twists coefficient ``j`` by
    ``e(j * shift / n_points)`` first, so ``shift=0.5`` gives the cell
    midpoints of the unshifted grid.
    """
    if n_points <= p.degree:
        raise ValueError("need more sample points than the degree")
    c = np.zeros(n_points, dtype=complex)
    c[: p.degree + 1] = p.coefficient_array()
    if shift:
        c[: p.degree + 1] *= np.exp((2j * np.pi * shift / n_points) * np.arange(p.degree + 1))
    return np.fft.ifft(c) * n_points


@dataclass(frozen=True)
class FamilySpec:
    """Deterministic recipe for one polynomial: ``(kind, parameter, seed)``.

    ``parameter`` is the degree for random families and the recursion depth
    for the Rudin-Shapiro pair.  Identical specs always produce identical
    polynomials.
    """

    kind: str
    parameter: int
    seed: int = 0
    coeffs: tuple[complex, ...] | None = field(default=None)

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")


def _rng_for(spec: FamilySpec) -> np.random.Generator:
    # Counter-based generator keyed by (seed, kind, parameter): reproducible
    # across runs and independent of any surrounding execution order.
    mix = (_KIND_IDS[spec.kind] * 0x9E3779B97F4A7C15 + spec.parameter) & 0xFFFFFFFFFFFFFFFF
    key = np.array([spec.seed & 0xFFFFFFFFFFFFFFFF, mix], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def is_unimodular(p: Polynomial, tol: float = 1e-12) -> bool:
    return all(abs(abs(c) - 1.0) <= tol for c in p.coeffs)


def is_g_class(p: Polynomial, tol: float = 1e-12) -> bool:
    """End coefficients unimodular, interior coefficients in the closed unit disk."""
    if p.degree < 1:
        return False
    ends = abs(abs(p.coeffs[0]) - 1.0) <= tol and abs(abs(p.coeffs[-1]) - 1.0) <= tol
    interior = all(abs(c) <= 1.0 + tol for c in p.coeffs[1:-1])
    return ends and interior


def lehmer_polynomial() -> Polynomial:
    """Degree-10 polynomial with the smallest known Mahler measure above 1."""
    return Polynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1), label="lehmer")


def power_minus_one(n: int) -> Polynomial:
    """``z**n - 1``."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    c = [0.0] * (n + 1)
    c[0] = -1.0
    c[-1] = 1.0
    return Polynomial(tuple(c), label=f"z^{n}-1")


def cyclotomic(d: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the d-th cyclotomic polynomial.

    Computed as ``(x**d - 1) / prod(Phi_e for e | d, e < d)`` with exact
    integer long division.
    """
    if d < 1:
        raise ValueError("index must be positive")
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly = _int_poly_divide(poly, list(cyclotomic(e)))
    return tuple(poly)


def _int_poly_divide(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, ascending coefficients.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(num[k + len(den) - 1], den[-1])
        assert r == 0, "non-exact cyclotomic division"
        out[k] = q
        for i, dc in enumerate(den):
            num[k + i] -= q * dc
    assert all(v == 0 for v in num), "non-exact cyclotomic division"
    return out


def rudin_shapiro_pair(k: int) -> tuple[Polynomial, Polynomial]:
    """The pair ``(P_k, Q_k)`` built by the doubling recursion.

    ``P_0 = Q_0 = 1``; ``P_{k+1} = P_k + z**(2**k) * Q_k`` and
    ``Q_{k+1} = P_k - z**(2**k) * Q_k``.  Both have 2**k coefficients,
    all of them +-1.
    """
    if not 0 <= k <= MAX_RUDIN_SHAPIRO_ORDER:
        raise ValueError(f"recursion depth must be in [0, {MAX_RUDIN_SHAPIRO_ORDER}]")
    pc = np.array([1], dtype=np.int64)
    qc = np.array([1], dtype=np.int64)
    for _ in range(k):
        new_p = np.concatenate([pc, qc])
        new_q = np.concatenate([pc, -qc])
        pc, qc = new_p, new_q
    return (
        Polynomial(tuple(float(v) for v in pc), label=f"rudin_shapiro_P_{k}"),
        Polynomial(tuple(float(v) for v in qc), label=f"rudin_shapiro_Q_{k}"),
    )


def make_family(spec: FamilySpec) -> Polynomial:
    """Construct the polynomial described by ``spec``.

    Random kinds draw from a counter-based generator, so the result is a pure
    function of ``(kind, parameter, seed)``.  The ``g_class`` model puts the
    end coefficients uniformly on the unit circle and interior coefficients
    uniformly on the closed unit disk (radius ``sqrt(u)`` for area
    uniformity).
    """
    kind, n = spec.kind, spec.parameter
    if kind == "lehmer":
        return lehmer_polynomial()
    if kind == "power_minus_one":
        return power_minus_one(n)
    if kind in ("rudin_shapiro_P", "rudin_shapiro_Q"):
        pair = rudin_shapiro_pair(n)
        return pair[0] if kind == "rudin_shapiro_P" else pair[1]
    if kind == "explicit":
        if spec.coeffs is None:
            raise ValueError("explicit family needs coefficients")
        return Polynomial(tuple(spec.coeffs))
    if kind == "cyclotomic_product":
        return _cyclotomic_product(spec)
    if n < 1:
        raise ValueError(f"{kind} family needs degree >= 1")
    rng = _rng_for(spec)
    if kind == "littlewood":
        signs = rng.integers(0, 2, size=n + 1) * 2 - 1
        return Polynomial(tuple(float(s) for s in signs), label=_label(spec))
    if kind == "unimodular":
        angles = rng.random(n + 1)
        coeffs = np.exp(2j * np.pi * angles)
        return Polynomial(tuple(coeffs), label=_label(spec))
    if kind == "g_class":
        angles = rng.random(n + 1)
        radii = np.sqrt(rng.random(n + 1))
        radii[0] = 1.0
        radii[-1] = 1.0
        coeffs = radii * np.exp(2j * np.pi * angles)
        return Polynomial(tuple(coeffs), label=_label(spec))
    raise ValueError(f"unhandled kind {kind!r}")


def _label(spec: FamilySpec) -> str:
    return f"{spec.kind}(n={spec.parameter}, seed={spec.seed})"


def _cyclotomic_product(spec: FamilySpec) -> Polynomial:
    """Seeded product of cyclotomic factors with total degree <= parameter."""
    if spec.parameter < 1:
        raise ValueError("cyclotomic_product needs degree >= 1")
    rng = _rng_for(spec)
    coeffs = np.array([1], dtype=np.int64)
    degree_left = spec.parameter
    # Draw candidate indices until no further factor fits.
    for d in rng.integers(1, 65, size=64):
        factor = cyclotomic(int(d))
        if len(factor) - 1 > degree_left:
            continue
        coeffs = np.convolve(coeffs, np.array(factor, dtype=np.int64))
        degree_left = spec.parameter - (len(coeffs) - 1)
        if degree_left == 0:
            break
    if len(coeffs) == 1:
        coeffs = np.convolve(coeffs, np.array(cyclotomic(1), dtype=np.int64))
    return Polynomial(tuple(float(v) for v in coeffs), label=_label(spec))


# ---------------------------------------------------------------------------
# Serialization.  JSON: {"coeffs": [[re, im], ...], "label": "..."} ascending.
# Text: whitespace-separated real coefficients, ascending.
# ---------------------------------------------------------------------------

def write_polynomial(p: Polynomial, format: str = "json") -> str:
    if format == "json":
        payload = {"coeffs": [[c.real, c.imag] for c in p.coeffs]}
        if p.label:
            payload["label"] = p.label
        return json.dumps(payload)
    if format == "text":
        return " ".join(repr(c.real) for c in p.coeffs)
    raise ValueError(f"unknown format {format!r}")


def read_polynomial(source, format: str = "json") -> Polynomial:
    """Parse a polynomial from JSON or text shorthand.

    Raises :class:`PolynomialFormatError` on malformed syntax, non-finite
    values, or a zero leading coefficient.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    elif hasattr(source, "read"):
        source = source.read()
        if isinstance(source, bytes):
            source = source.decode("utf-8")
    if format == "json":
        try:
            payload = json.loads(source)
            pairs = payload["coeffs"]
            coeffs = tuple(complex(float(re), float(im)) for re, im in pairs)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise PolynomialFormatError(f"bad JSON polynomial: {exc}") from exc
        label = payload.get("label", "") if isinstance(payload, dict) else ""
        try:
            return Polynomial(coeffs, label=str(label))
        except ValueError as exc:
            raise PolynomialFormatError(str(exc)) from exc
    if format == "text":
        try:
            coeffs = tuple(complex(float(tok)) for tok in source.split())
        except ValueError as exc:
            raise PolynomialFormatError(f"bad text polynomial: {exc}") from exc
        if not coeffs:
            raise PolynomialFormatError("empty polynomial text")
        try:
            return Polynomial(coeffs)
        except ValueError as exc:
            raise PolynomialFormatError(str(exc)) from exc
    raise ValueError(f"unknown format {format!r}")
