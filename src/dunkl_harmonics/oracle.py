"""Independent verification paths: Monte-Carlo quadrature, a classical
closed form for sign-flip groups, and the normalized Bessel series.

The Monte-Carlo estimator samples uniform sphere directions through
normalized Gaussians and forms the ratio of weighted sums, so the total
weighted surface mass never needs to be known.  Sampling is chunked with
per-chunk derived seeds and a serial reduction order, making every
estimate bit-reproducible for a fixed (seed, samples) pair.  numpy is
imported by the functions that use it, so importing the package and every
exact computation leave it unloaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

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


def _poly_term_arrays(p: Poly) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    exponents = np.array(sorted(p.terms), dtype=np.int64)
    coeffs = np.array(
        [_as_float(p.terms[tuple(e)], "coefficient") for e in exponents], dtype=np.float64
    )
    return exponents, coeffs


def _eval_poly(exponents: np.ndarray, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    import numpy as np

    if exponents.size == 0:
        return np.zeros(points.shape[0])
    powers = points[:, None, :] ** exponents[None, :, :]
    return powers.prod(axis=2) @ coeffs


def _weight_squared(ctx: DunklContext, points: np.ndarray) -> np.ndarray:
    import numpy as np

    values = np.ones(points.shape[0])
    for root, kappa in ctx.active_roots:
        dots = points @ np.array([_as_float(v, "root coordinate") for v in root])
        values *= np.abs(dots) ** (2.0 * _as_float(kappa, "multiplicity"))
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
    exponents, coeffs = _poly_term_arrays(p)
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
            w = _weight_squared(ctx, points)
            pv = _eval_poly(exponents, coeffs, points)
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
