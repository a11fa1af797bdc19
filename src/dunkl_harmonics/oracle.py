"""Independent verification paths: Monte-Carlo quadrature, a classical
closed form for sign-flip groups, and the normalized Bessel series.

The Monte-Carlo estimator samples uniform sphere directions through
normalized Gaussians and forms the ratio of weighted sums, so the total
weighted surface mass never needs to be known.  Sampling is chunked with
per-chunk derived seeds and a serial reduction order, making every
estimate bit-reproducible for a fixed (seed, samples) pair.  Each chunk
raises each coordinate to each of the polynomial's distinct exponents in
that coordinate once, so the cost scales with those distinct exponents, not
with the terms: a polynomial of a thousand terms costs about what its few
dozen distinct powers do.  Exponents >= 2 keep numpy's array ``pow``, whose
last bit neither ``x * x`` nor ``math.pow`` reproduces, so the estimates
keep their bits.  numpy is imported by the functions that use it, so
importing the package and every exact computation leave it unloaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .polyring import Poly, pochhammer
from .reflection import DunklContext
from .spherical import _finite

if TYPE_CHECKING:
    import numpy as np

CHUNK_SIZE = 4096


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


class _Terms(NamedTuple):
    """A polynomial laid out for :func:`_eval_poly` on chunks of at most ``rows`` points.

    Each chunk builds the factor table ``[1.0 | points | raised]``, where
    raised column k is point column ``columns[k]`` to the power
    ``powers[:, k]``: one column per distinct (coordinate, exponent >= 2)
    pair, the exponent repeated on every row.  ``factors`` holds, for each
    coordinate in which some term has a nonzero exponent, the table column of
    every term's factor there.
    """

    coeffs: np.ndarray
    columns: np.ndarray
    powers: np.ndarray
    factors: list[np.ndarray]


def _layout(p: Poly, rows: int) -> _Terms:
    """p's terms in sorted order, laid out for chunks of at most ``rows`` points."""
    import numpy as np

    monomials = sorted(p.terms)
    coeffs = np.array([_as_float(p.terms[m], "coefficient") for m in monomials], dtype=np.float64)
    raised = sorted({(j, e) for row in monomials for j, e in enumerate(row) if e >= 2})
    slot = {pair: 1 + p.dim + k for k, pair in enumerate(raised)}
    factors = [
        np.array([0 if e == 0 else 1 + j if e == 1 else slot[j, e] for e in column], dtype=np.intp)
        for j, column in enumerate(zip(*monomials))
        if any(column)
    ]
    columns = np.array([j for j, _ in raised], dtype=np.intp)
    powers = np.tile(np.array([e for _, e in raised], dtype=np.int64), (rows, 1))
    return _Terms(coeffs, columns, powers, factors)


def _eval_poly(terms: _Terms, points: np.ndarray) -> np.ndarray:
    """The polynomial at each row of ``points``, a chunk no longer than ``terms.powers``.

    Each coordinate column is raised to each of its distinct exponents once,
    so the cost scales with the distinct exponents per coordinate, not with
    the terms.  Exponent 0 gives the factor 1.0, whose products are exact,
    and exponent 1 the column itself.  An exponent >= 2 goes through numpy's
    array ``pow`` with an int64 exponent array of the chunk's shape: its last
    bit differs from ``x * x`` and from ``math.pow``, and numpy takes ``x * x``
    for a scalar exponent 2, so the exponent is never a scalar or a
    broadcast.  A term's factors are multiplied left to right in coordinate
    order, as a product over its row of powers does, and the (rows, terms)
    values meet the coefficients in one matrix product.
    """
    import numpy as np

    rows = points.shape[0]
    if not terms.factors:  # a constant, or with no terms the zero polynomial
        return np.ones((rows, terms.coeffs.size)) @ terms.coeffs
    raised = np.power(points[:, terms.columns], terms.powers[:rows])
    table = np.hstack((np.ones((rows, 1)), points, raised))
    values = np.take(table, terms.factors[0], axis=1)
    for index in terms.factors[1:]:
        values *= np.take(table, index, axis=1)
    return values @ terms.coeffs


def _weight_squared(roots: list[tuple[np.ndarray, float]], points: np.ndarray) -> np.ndarray:
    """The product of |<x, root>| ** (2 kappa) over the (root, 2 kappa) pairs."""
    import numpy as np

    values = np.ones(points.shape[0])
    for root, two_kappa in roots:
        values *= np.abs(points @ root) ** two_kappa
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
    terms = _layout(p, min(samples, CHUNK_SIZE))
    roots = [
        (np.array([_as_float(v, "root coordinate") for v in root]), 2.0 * _as_float(kappa, "multiplicity"))
        for root, kappa in ctx.active_roots
    ]
    s_w = s_wp = s_w2 = s_w2p = s_w2p2 = 0.0
    produced = 0
    chunk_index = 0
    with np.errstate(all="ignore"):  # a non-finite estimate is refused, not warned about
        while produced < samples:
            rows = min(CHUNK_SIZE, samples - produced)
            rng = np.random.default_rng([seed, chunk_index])
            gauss = rng.standard_normal((rows, ctx.dim))
            norms = np.sqrt((gauss * gauss).sum(axis=1))
            norms[norms == 0.0] = 1.0
            points = gauss / norms[:, None]
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
    return McEstimate(mean=mean, std_error=std_error, samples=samples, seed=seed)


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
