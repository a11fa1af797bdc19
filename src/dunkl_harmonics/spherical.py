"""Exact weighted spherical integration and the radius expansions around 0.

All integrals are normalized by the total weighted surface mass, so no
transcendental constant ever appears: for a homogeneous polynomial of even
degree 2n the normalized integral is an iterated-Laplacian value divided by
2^(2n) n! (lam + 1)_n, odd degrees integrate to zero, and everything else
is linearity.  :func:`sphere_integrate` therefore reads the moment of each
monomial from the context's ``tables.moments``, where each moment is
computed once from the Laplacian images of the ``dunkl`` module.  The table
holds one moment per even-degree monomial the context has integrated or
reached through those images, so it is bounded by the monomials of the
degrees the context has seen; it is dropped with the context, and the
values are those of the iterated-Laplacian formula.  The radius expansions
(plain and with an h-harmonic factor) and Hobson's expansion of p(D)
applied to radial polynomials are finite, exact objects here because inputs
are polynomials.  The n-th coefficient of the mean of q(y) f(ry), q
h-harmonic of degree m, is (q(D) Lap^n f)(0) / (2^(m+2n) n! (lam+1)_(m+n)),
and it comes from one homogeneous part of f, f_(m+2n) (``_numerator``):
its Laplacian powers stay ``polyring.Form``s but the one that q(D) takes as
a ``Poly``, and q(D) returns one ``Poly``, whose constant term is read.
Hobson's expansion, q(D)|x|^(2j) and ``RadialPowerSum.to_poly`` are sums of
c |x|^(2k) g, taken by ``polyring.radial_sum`` (Hobson's by its core, from
the powers' Forms).  ``_finite`` refuses a float value that is not finite
with ``ValueError``, here and in the oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Sequence

from .dunkl import _laplacian_powers, _monomial_laplacian, apply_operator_poly
# unused here; perfbench/test_smoke.py::test_tracer_patches_from_imports_and_restores_them reads it
from .dunkl import laplacian
from .harmonic import _require_homogeneous, require_h_harmonic
from .polyring import Monomial, Poly, RationalLike, _radial_ints, as_fraction, pochhammer, radial_sum
from .reflection import DunklContext


def _finite(evaluate: Callable[..., float]) -> Callable[..., float]:
    """evaluate, refusing with ValueError inf, nan and the OverflowError of a float power."""
    @functools.wraps(evaluate)
    def checked(*args, **kwargs) -> float:
        try:
            value = evaluate(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{evaluate.__name__} is not finite in floating point")
        return value
    return checked


@dataclass(frozen=True)
class PizzettiSeries:
    """Coefficients c_n of sum c_n r^(m+2n); finite and exact for polynomials."""

    m: int
    coefficients: tuple[Fraction, ...]

    def eval_rational(self, r: RationalLike) -> Fraction:
        r = as_fraction(r)
        return sum((c * r ** (self.m + 2 * n) for n, c in enumerate(self.coefficients)), Fraction(0))

    @_finite
    def eval_float(self, r: float) -> float:
        return sum(float(c) * r ** (self.m + 2 * n) for n, c in enumerate(self.coefficients))

    def radius_poly(self) -> dict[int, Fraction]:
        """Nonzero coefficients keyed by the power of the radius."""
        return {self.m + 2 * n: c for n, c in enumerate(self.coefficients) if c}


@dataclass(frozen=True)
class RadialPowerSum:
    """A finite sum of even radius powers, f0(rho) = sum c_j rho^(2j)."""

    terms: tuple[tuple[int, Fraction], ...]

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, RationalLike]]) -> RadialPowerSum:
        acc: dict[int, Fraction] = {}
        for j, c in pairs:
            if j < 0:
                raise ValueError("radial exponents must be >= 0")
            acc[j] = acc.get(j, Fraction(0)) + as_fraction(c)
        return cls(tuple(sorted((j, c) for j, c in acc.items() if c)))

    def to_poly(self, dim: int) -> Poly:
        return radial_sum(dim, [(j, c, Poly.const(dim, 1)) for j, c in self.terms])


def sphere_integrate(ctx: DunklContext, p: Poly) -> Fraction:
    """Normalized weighted spherical integral of an arbitrary polynomial.

    Integration is linear, so the value is sum of c_beta mu(beta) over the
    terms of p, with the monomial moments mu read from the context's table
    (see ``_moment``).  Odd-degree parts vanish by antipodal symmetry of the
    squared weight.
    """
    ctx.check_dim(p)
    total = Fraction(0)
    for mono, c in p.terms.items():
        if not sum(mono) % 2:
            total += c * _moment(ctx, mono)
    return total


def _moment(ctx: DunklContext, mono: Monomial) -> Fraction:
    """mu(mono), the normalized integral of x^mono, of even degree 2n.

    mu(0) = 1 and mu(beta) = sum over gamma of [Lap x^beta]_gamma mu(gamma) / (4n (lam + n)),
    the same value as Lap^n x^beta (0) / (4^n n! (lam + 1)_n).  The moments
    below a missing one are filled from an explicit stack, so the depth of
    the recurrence is not bounded by Python's recursion limit.
    """
    moments = ctx.tables.moments
    got = moments.get(mono)
    if got is not None:
        return got
    lam = ctx.lambda_kappa
    stack = [mono]
    while stack:
        beta = stack[-1]
        if beta in moments:
            stack.pop()
            continue
        den, pairs = _monomial_laplacian(ctx, beta)
        missing = [gamma for gamma, _ in pairs if gamma not in moments]
        if missing:
            stack.extend(missing)
            continue
        n = sum(beta) // 2
        if n:
            value = sum((v * moments[gamma] for gamma, v in pairs), Fraction(0))
            moments[beta] = value / (den * 4 * n * (lam + n))
        else:
            moments[beta] = Fraction(1)
        stack.pop()
    return moments[mono]


def _numerator(ctx: DunklContext, q: Poly, m: int, part: Poly) -> tuple[int, Fraction] | None:
    """n and (q(D) Lap^n part)(0) for a homogeneous part of degree m + 2n, else None.

    (q(D) g)(0) reads only the degree-m part of g, and that of Lap^n f is Lap^n f_(m+2n).
    """
    n, odd = divmod(part.degree() - m, 2)
    if n < 0 or odd:
        return None
    power = next(islice(_laplacian_powers(ctx, part), n, None), None)
    if power is None:
        return n, Fraction(0)
    return n, apply_operator_poly(ctx, q, Poly._over(ctx.dim, *power)).constant_term()


def _denominator(lam: Fraction, m: int, n: int) -> Fraction:
    """2^(m+2n) n! (lam+1)_(m+n), the denominator of the n-th coefficient."""
    return Fraction(2 ** (m + 2 * n)) * math.factorial(n) * pochhammer(lam + 1, m + n)


def pair_integral(ctx: DunklContext, q: Poly, p: Poly) -> Fraction:
    """Normalized integral of q p over the weighted sphere.

    q must be h-harmonic homogeneous of degree m and p homogeneous of
    degree l; the value is q(D) Lap^n p / (2^(m+2n) n! (lam+1)_(m+n)) when
    l - m = 2n >= 0, and zero when l - m is negative or odd or Lap^n p is 0.
    For h-harmonic p it is the orthogonality relation of the h-harmonics.
    """
    m = require_h_harmonic(ctx, q)
    ctx.check_dim(p, "p")
    _require_homogeneous(p, "p")
    term = _numerator(ctx, q, m, p)
    if term is None:
        return Fraction(0)
    n, value = term
    return value / _denominator(ctx.lambda_kappa, m, n)


def _require_series(ctx: DunklContext, q: Poly, f: Poly, n_terms: int) -> int:
    """Validate the arguments of an extended radius expansion and return the degree of q."""
    m = require_h_harmonic(ctx, q)
    ctx.check_dim(f, "f")
    if n_terms < 0:
        raise ValueError("the number of series terms must be >= 0")
    return m


def extended_pizzetti(ctx: DunklContext, q: Poly, f: Poly, n_terms: int) -> PizzettiSeries:
    """Radius expansion of the weighted spherical mean of q(y) f(ry).

    c_n = (q(D) Lap^n f)(0) / (n! (lam+1)_(m+n) 2^(m+2n)) for n = 0..n_terms.
    Each c_n comes from the part of f of degree m + 2n, so a part of degree
    below m, of the wrong parity or above m + 2 n_terms costs nothing.  The
    expansion is exact once m + 2 n_terms reaches the degree of f.
    """
    m = _require_series(ctx, q, f, n_terms)
    coeffs = [Fraction(0)] * (n_terms + 1)
    parts = (part for degree, part in f.homogeneous_parts() if degree <= m + 2 * n_terms)
    for n, value in filter(None, (_numerator(ctx, q, m, part) for part in parts)):
        coeffs[n] = value / _denominator(ctx.lambda_kappa, m, n)
    return PizzettiSeries(m, tuple(coeffs))


def pizzetti(ctx: DunklContext, f: Poly, n_terms: int) -> PizzettiSeries:
    """Radius expansion of the plain weighted spherical mean of f(ry)."""
    return extended_pizzetti(ctx, Poly.const(ctx.dim, 1), f, n_terms)


def _radial_derivative_power(j: int, k: int) -> tuple[Fraction, int]:
    """Apply (rho^-1 d/drho)^k to rho^(2j): coefficient and new half-exponent."""
    if j - k < 0:
        return Fraction(0), 0
    coeff = Fraction(2**k) * Fraction(math.factorial(j), math.factorial(j - k))
    return coeff, j - k


def hobson_apply(ctx: DunklContext, p: Poly, f0: RadialPowerSum) -> Poly:
    """Hobson's expansion of p(D) applied to the radial polynomial f0(|x|).

    p(D) f = sum over i of (1 / (2^i i!)) [(rho^-1 d/drho)^(m-i) f0] Lap^i p,
    where each radial term rho^(2j) differentiates to
    2^(m-i) j!/(j-m+i)! rho^(2j-2m+2i), dropping out when j - m + i < 0.
    Must agree with the direct operator substitution p(D) f0(|x|).
    """
    ctx.check_dim(p)
    m = _require_homogeneous(p, "p")
    terms = []
    for i, power in enumerate(_laplacian_powers(ctx, p)):
        for j, c in f0.terms:
            coeff, k = _radial_derivative_power(j, m - i)
            terms.append((k, c * coeff / (2**i * math.factorial(i)), power))
    return Poly._over(ctx.dim, *_radial_ints(terms))


def harmonic_radial_power(ctx: DunklContext, q: Poly, j: int) -> Poly:
    """q(D) applied to |x|^(2j) for h-harmonic homogeneous q, in closed form.

    Zero when j < m; otherwise 2^m j!/(j-m)! |x|^(2j-2m) q(x).
    """
    m = require_h_harmonic(ctx, q)
    if j < 0:
        raise ValueError("the radial exponent must be >= 0")
    coeff, k = _radial_derivative_power(j, m)
    return radial_sum(ctx.dim, [(k, coeff, q)])


def pizzetti_from_hobson(ctx: DunklContext, q: Poly, f: Poly, n_terms: int) -> PizzettiSeries:
    """Recompute the extended radius expansion through the plain one.

    The plain expansion of the product q f has coefficients built from
    iterated Laplacians of the product only; its first m coefficients must
    vanish (that is the radial-power identity at work), and the survivors,
    reindexed by m, must match :func:`extended_pizzetti` exactly.  This is
    the strongest internal cross-check between the two expansion routes.
    """
    m = _require_series(ctx, q, f, n_terms)
    base = pizzetti(ctx, q * f, m + n_terms)
    for j in range(m):
        if base.coefficients[j]:
            raise AssertionError(
                f"product-series coefficient {j} should vanish below degree {m}; this is a bug"
            )
    return PizzettiSeries(m, base.coefficients[m : m + n_terms + 1])


@_finite
def bessel_form_eval(
    ctx: DunklContext,
    q: Poly,
    f: Poly,
    r: float,
    *,
    variant: str = "lambda_plus_one",
) -> float:
    """Numeric value of the normalized-Bessel operator form of the expansion.

    The series of the entire Bessel-type function, with its squared argument
    replaced by minus the Laplacian, telescopes into
    prefactor * (r/2)^m * sum over n of (q(D) Lap^n f)(0) (r/2)^(2n) / (n! (a+1)_n)
    with a = lam + m.  Two candidate prefactors exist in the literature,
    1/(lam)_m and 1/(lam+1)_m; only ``lambda_plus_one`` reproduces the exact
    expansion (the default), and the tests pin that resolution down.
    """
    m = require_h_harmonic(ctx, q)
    ctx.check_dim(f, "f")
    lam = ctx.lambda_kappa
    if variant == "lambda_plus_one":
        prefactor = 1.0 / float(pochhammer(lam + 1, m))
    elif variant == "lambda":
        base = pochhammer(lam, m)
        if not base:
            raise ValueError("the lambda-based prefactor degenerates at lambda = 0")
        prefactor = 1.0 / float(base)
    else:
        raise ValueError(f"unknown prefactor variant {variant!r}")
    # n -> (q(D) Lap^n f)(0), from the parts of degree m + 2n
    values = dict(filter(None, (_numerator(ctx, q, m, part) for _, part in f.homogeneous_parts())))
    alpha = float(lam + m)
    half_r = r / 2.0
    total = 0.0
    term = 1.0
    for n in range(max(values, default=-1) + 1):
        if n:
            term *= half_r * half_r / (n * (alpha + n))
        total += float(values.get(n, 0)) * term
    return prefactor * half_r**m * total
