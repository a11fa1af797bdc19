"""Independent verification paths: Monte-Carlo quadrature, a classical
closed form for sign-flip groups, and the normalized Bessel series.

The Monte-Carlo estimator samples uniform sphere directions through
normalized Gaussians and forms the ratio of weighted sums, so the total
weighted surface mass never needs to be known.  Sampling is chunked with
per-chunk derived seeds and a serial reduction order, making every
estimate bit-reproducible for a fixed (seed, samples) pair.

Past the Gaussian draws, a chunk is built from +, -, *, / and ``sqrt``,
which IEEE 754 rounds correctly, and from exact steps (``abs``, ``frexp``,
``ldexp``, ``floor``), with every sum in a fixed order.  So the estimate
has the same bits whatever SIMD kernels numpy dispatches to and whatever
BLAS the machine has: no array ``pow``, no ``exp`` or ``log``, no matrix
product.  Each point's |g|^2 is summed over the columns of the draws, in
the order numpy's pairwise sum gives a row (:func:`_pairwise_sum`), so the
order is written here and not left to numpy's reduction code; the points
are then stored by columns, so each later column read is contiguous.
Every integer power follows one rule, x^n = (x^(n // 2))^2, times x when
n is odd (:func:`_power`).  Each chunk computes each power
x_j^e that some term uses once, then evaluates the terms one at a time, so
a chunk holds rows x (those powers plus a few) floats whatever the number
of terms.  The weight's fractional powers take a series start and a Newton
step (:func:`_root`).  numpy is imported by the functions that use it, so
importing the package and every exact computation leave it unloaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .polyring import Monomial, Poly, pochhammer
from .reflection import DunklContext
from .spherical import _finite

if TYPE_CHECKING:
    import numpy as np

CHUNK_SIZE = 4096

# correctly rounded constants, and the series of _root's start
_LN2 = 0.6931471805599453
_INV_LN2 = 1.4426950408889634
_SQRT_HALF = math.sqrt(0.5)
_SQRT2 = math.sqrt(2.0)
_ATANH_TERMS = tuple(1.0 / (2 * k + 1) for k in range(10))
_EXP_TERMS = tuple(1.0 / math.factorial(k) for k in range(14))
_NEWTON_MAX_B = 512


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int


def _as_float(value: Fraction, what: str) -> float:
    """An exact value entering the float lane; one past the float range is refused."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} {value} is too large for the floating oracle") from None


def _layout(p: Poly) -> list[tuple[Monomial, float]]:
    """p's (monomial, coefficient) pairs in sorted order, for :func:`_eval_poly`.

    A coefficient past the float range is refused here, before any sampling.
    """
    return [(mono, _as_float(p.terms[mono], "coefficient")) for mono in sorted(p.terms)]


def _power(x: np.ndarray, n: int) -> np.ndarray:
    """x^n for n >= 1 by the module's one rule: x^n = (x^(n // 2))^2, times x when n is odd.

    That is left-to-right binary powering, about 2 log2(n) products, each
    correctly rounded; n = 1 returns x itself.
    """
    result = x
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result *= x
    return result


def _eval_poly(terms: list[tuple[Monomial, float]], points: np.ndarray) -> np.ndarray:
    """The polynomial with :func:`_layout`'s ``terms`` at each row of ``points``.

    Each power x_j^e that some term uses is computed once, by :func:`_power`,
    and kept for the rest of the chunk.  A term's nonzero-exponent factors
    are multiplied left to right in coordinate order, then by its
    coefficient, and the terms are added one after another in sorted order.
    """
    import numpy as np

    columns = points.T
    powers = {}
    total = np.zeros(points.shape[0])
    for mono, coeff in terms:
        value = None
        for j, e in enumerate(mono):
            if e:
                if (j, e) not in powers:
                    powers[j, e] = _power(columns[j], e)
                value = powers[j, e] if value is None else value * powers[j, e]
        total += coeff if value is None else value * coeff
    return total


def _pairwise_sum(columns: Sequence[np.ndarray]) -> np.ndarray:
    """The row sums of the d ``columns``, in the order of numpy's pairwise sum over a row.

    Fewer than 8 columns are added left to right.  Up to 128 take eight
    interleaved partial sums r_k = c_k + c_(k+8) + ..., combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and then the last
    d mod 8 columns left to right.  More are split at d // 2 rounded down to
    a multiple of 8, and the two halves summed.  So the sums equal
    ``rows.sum(axis=1)`` bit for bit while adding whole columns.  (numpy
    starts a short row from 0.0, which changes no sum of squares.)
    """
    d = len(columns)
    if d > 128:
        half = d // 2 - d // 2 % 8
        return _pairwise_sum(columns[:half]) + _pairwise_sum(columns[half:])
    if d < 8:
        total, rest = columns[0], columns[1:]
    else:
        r = list(columns[:8])
        for i in range(8, d - d % 8, 8):
            r = [a + b for a, b in zip(r, columns[i:i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        rest = columns[d - d % 8:]
    for x in rest:
        total = total + x
    return total


def _series(coeffs: tuple[float, ...], v: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] v^k by Horner's rule."""
    total = v * coeffs[-1]
    for c in reversed(coeffs[1:-1]):
        total += c
        total *= v
    return total + coeffs[0]


def _root(x: np.ndarray, r: int, b: int) -> np.ndarray:
    """x^(r/b) for x >= 0 and 0 < r < b, from correctly rounded operations; 0 gives 0.

    b = 2 is ``np.sqrt``, correctly rounded.  Any other b takes a start and,
    when b <= 512, one Newton step on y^b = x^r, which leaves the result
    within about 4 * 2^-53 relative.

    Start: ``np.frexp`` splits x = w 2^e with w in [sqrt(1/2), sqrt(2)), and
    t = (e + log2 w) r / b, with ln w = 2 atanh(s), s = (w - 1) / (w + 1) and
    |s| <= 0.1716, summed to 10 terms.  Then x^(r/b) = 2^floor(t) 2^f with
    f = t - floor(t) in [0, 1), and 2^f = sqrt(2) exp((f - 1/2) ln 2) is
    summed by Taylor's series to degree 13.  The two truncation errors are
    below 8e-18 r / b and 5e-18 relative.  t is rounded three times (the
    sum, r / b and the product), which moves it by up to 3 |t| 2^-53, and
    with the rounding of the series and sqrt(2) the start is within
    (3.6 + 2.1 |t|) 2^-53 relative, |t| <= 1075 r / b.

    For b > 512 the start is the result, so t is kept small instead: e r =
    Q b + R is split in Python ints, once per distinct e, and t = R / b +
    log2(w) r / b, below 1.5 in magnitude, goes with 2^Q.  That start is
    within about 6.8 * 2^-53.

    Step count: when b <= 512, one Newton step on the start's mantissa z,
    z <- z + z (w^r 2^(e r - b floor(t)) / z^b - 1) / b, where z^b < 2^512
    and w^r < 2^256 cannot overflow.  It leaves (b - 1) / 2 times the square
    of the start's error (below 2e-23) plus its own rounding, about
    2 * 2^-53.  Against 40-digit decimal roots (r = 1) of 200 seeded x in
    [2^-1074, 1] for each of eleven b from 3 to 2^40, the largest error was
    1.27 * 2^-53 with the step and 2.46 * 2^-53 without it (3.49 before the
    split).  For six r/b with b > 512 and r up to b - 1, on 300 seeded x in
    [2^-200, 1] each, it was 3.13 * 2^-53 (192 before the split).
    """
    import numpy as np

    if b == 2:
        return np.sqrt(x)
    w, e = np.frexp(x)
    low = w < _SQRT_HALF
    w = np.where(low, w + w, w)
    e = e - low
    s = (w - 1.0) / (w + 1.0)
    log2_w = (s + s) * _series(_ATANH_TERMS, s * s) * _INV_LN2
    if b <= _NEWTON_MAX_B:
        quot = 0
        t = (e + log2_w) * (r / b)
    else:
        exponents, at = np.unique(e, return_inverse=True)
        splits = [divmod(int(v) * r, b) for v in exponents]
        quot = np.array([q for q, _ in splits], dtype=np.int64)[at]
        t = np.array([rem / b for _, rem in splits])[at] + log2_w * (r / b)
    whole = np.floor(t)
    z = _SQRT2 * _series(_EXP_TERMS, (t - whole - 0.5) * _LN2)
    whole = whole.astype(np.int64)
    if b <= _NEWTON_MAX_B:
        ratio = np.ldexp(_power(w, r) / _power(z, b), e * r - whole * b)
        z += z * (ratio - 1.0) / b
    y = np.ldexp(z, quot + whole)
    y[x == 0.0] = 0.0
    return y


def _weight_squared(roots: list[tuple[tuple[float, ...], int, int]], points: np.ndarray) -> np.ndarray:
    """The product of |<x, root>|^(a / b) over the (root, a, b) triples, 2 kappa = a / b.

    <x, root> is summed in coordinate order over the columns of ``points``,
    skipping zero root coordinates.  Its absolute value t goes to the power
    a / b as t^q (by :func:`_power`) times t^(r/b) (by :func:`_root`), with
    a = q b + r and 0 <= r < b; either factor is left out when its exponent
    is 0.  t^q is within (q - 1) 2^-53 relative.  Splitting off q keeps the
    error from growing with a: the a-th power of a b-th root would multiply
    the root's error by a, which is 10^16 for a kappa of 16 decimal digits.
    """
    import numpy as np

    values = np.ones(points.shape[0])
    for root, a, b in roots:
        dot = np.zeros(points.shape[0])
        for x, c in zip(points.T, root):
            if c:
                dot += x * c
        base = np.abs(dot)
        q, r = divmod(a, b)
        if q:
            values *= _power(base, q)
        if r:
            values *= _root(base, r, b)
    return values


def mc_sphere_integral(ctx: DunklContext, p: Poly, seed: int, samples: int) -> McEstimate:
    """Ratio estimate of the normalized weighted spherical integral of p.

    mean = sum(w p) / sum(w) over uniform sphere points with w the squared
    weight; the standard error is the delta-method error of that ratio.
    For constant p the ratio is exact and the error is zero; one sample
    gives an infinite error.  A mean that is not finite, or an error that is
    NaN, is refused with ``ValueError``.
    """
    import numpy as np

    ctx.check_dim(p)
    if samples < 1:
        raise ValueError("need at least one sample")
    terms = _layout(p)
    roots = []
    for root, kappa in ctx.active_roots:
        _as_float(kappa, "multiplicity")  # a kappa past the float range is refused
        two_kappa = 2 * kappa
        roots.append((tuple(_as_float(v, "root coordinate") for v in root),
                      two_kappa.numerator, two_kappa.denominator))
    s_w = s_wp = s_w2 = s_w2p = s_w2p2 = 0.0
    produced = 0
    chunk_index = 0
    with np.errstate(all="ignore"):  # a non-finite estimate is refused, not warned about
        while produced < samples:
            rows = min(CHUNK_SIZE, samples - produced)
            rng = np.random.default_rng([seed, chunk_index])
            gauss = rng.standard_normal((rows, ctx.dim))
            norms = np.sqrt(_pairwise_sum([x * x for x in gauss.T]))
            norms[norms == 0.0] = 1.0
            points = np.divide(gauss.T, norms, order="C").T  # contiguous columns
            w = _weight_squared(roots, points)
            pv = _eval_poly(terms, points)
            wp = w * pv
            s_w += w.sum()
            s_wp += wp.sum()
            s_w2 += (w * w).sum()
            s_w2p += (w * wp).sum()
            s_w2p2 += (wp * wp).sum()
            produced += rows
            chunk_index += 1
        mean = s_wp / s_w
        n = samples
        w_bar = s_w / n
        if n > 1:
            sq = (s_w2p2 - 2.0 * mean * s_w2p + mean * mean * s_w2) / (w_bar * w_bar)
            std_error = math.sqrt(max(sq, 0.0) / (n - 1)) / math.sqrt(n)
        else:
            std_error = float("inf")
    if not math.isfinite(mean) or math.isnan(std_error):
        raise ValueError(
            "the Monte-Carlo estimate is not finite in floating point"
            f" (mean {mean}, standard error {std_error})"
        )
    return McEstimate(mean=float(mean), std_error=std_error, samples=samples, seed=seed)


def dirichlet_monomial(ctx: DunklContext, halved_exponents: Sequence[int]) -> Fraction:
    """Closed form for sign-flip groups: the normalized weighted spherical
    integral of prod y_i^(2 a_i) equals
    prod (kappa_i + 1/2)_(a_i) / (lam + 1)_(|a|).

    A classical Dirichlet-type integral, independent of everything in the
    exact engine; defined only for the ``z2`` family.
    """
    if ctx.family != "z2":
        raise ValueError("the closed form applies to the z2 family only")
    a = list(halved_exponents)
    if len(a) != ctx.dim or any(v < 0 for v in a):
        raise ValueError("need one non-negative half-exponent per coordinate")
    numerator = Fraction(1)
    for i, ai in enumerate(a):
        numerator *= pochhammer(ctx.kappa_by_orbit[i] + Fraction(1, 2), ai)
    return numerator / pochhammer(ctx.lambda_kappa + 1, sum(a))


@_finite
def bessel_phi(alpha: float, z: float, max_terms: int | None = None) -> float:
    """Normalized Bessel series: Gamma(a+1) J_a(z) / (z/2)^a by its power series.

    Term recurrence t_(n+1) = -t_n (z/2)^2 / ((n+1)(a+n+1)); alternating, so
    the truncation error is bounded by the first omitted term.  Accurate to
    about 1e-12 relative for |z| <= 10.  A value that is not finite, or a
    negative ``max_terms``, is refused.
    """
    if alpha < -0.5:
        raise ValueError("the index must be >= -1/2")
    if max_terms is not None and max_terms < 0:
        raise ValueError("the term count must be >= 0")
    q = (z / 2.0) ** 2
    term = 1.0
    total = 1.0
    n = 0
    limit = max_terms if max_terms is not None else 200
    while n < limit:
        term *= -q / ((n + 1) * (alpha + n + 1))
        total += term
        n += 1
        if max_terms is None and abs(term) <= 1e-17 * max(abs(total), 1.0):
            break
    return total
