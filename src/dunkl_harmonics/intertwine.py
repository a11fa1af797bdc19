"""The intertwining operator, Gegenbauer polynomials, and Funk-Hecke.

The intertwining operator V is pinned down by three properties: it
preserves each homogeneous degree, fixes 1, and swaps the Dunkl operators
for plain partial derivatives.  It is built here from the Euler identity
instead: degree by degree, the monomial images are the unique solution of
one square exact linear system in ints that needs reflections only, no
Dunkl operator; the defining property is checked independently by the
test suite and by verify.  On top of V sit the zonal-kernel constructions:
the Funk-Hecke identity as an exact congruence modulo the sphere ideal, and
the degree-n reproducing kernel.  A profile phi(t) is a :class:`Poly` of
dimension 1, its variable t being x1.  The zonal functions sum over the
terms (l!/gamma!) x^gamma V y^gamma of phi(<x, y>) pushed through V in y,
with V y^gamma read from the V table; there is no two-block polynomial
type, and the reproducing kernel is a plain :class:`Poly` in 2d variables.
Integrating such a sum against q(y) applies one functional,
L_q(x^a) = int x^a q dmu, to every V y^gamma: L_q is read once per monomial
and put over one denominator, and each gamma is one int dot product with
V y^gamma's numerators, with no product polynomial (``_y_integral``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import _linalg
# unused here; perfbench/test_smoke.py::test_tracer_patches_from_imports_and_restores_them reads it
from .dunkl import dunkl_axis
from .harmonic import reduce_mod_sphere, require_h_harmonic
from .polyring import (
    Monomial, Poly, RationalLike, as_fraction, monomials_of_degree, over_one_denominator, pochhammer,
    radial_sum,
)
from .reflection import DunklContext
from .spherical import _denominator, sphere_integrate


# perfbench/workloads.py builds its profiles as UniPoly.t_power(l); a profile is
# a one-variable Poly, and this name goes once the benchmark builds t^l itself
class UniPoly:
    @staticmethod
    def t_power(n: int) -> Poly:
        """t^n as a one-variable profile."""
        return Poly.monomial(1, (n,))


def _require_profile(phi: Poly) -> None:
    if phi.dim != 1:
        raise ValueError("a profile phi(t) must be a polynomial in one variable")


def gegenbauer(m: int, lam: RationalLike) -> Poly:
    """Gegenbauer polynomial C_m(t) for index lam > 0, by the three-term recurrence."""
    lam = as_fraction(lam)
    if lam <= 0:
        raise ValueError("the Gegenbauer index must be positive")
    if m < 0:
        raise ValueError("the degree must be >= 0")
    prev = Poly.const(1, 1)
    if m == 0:
        return prev
    cur = Poly.variable(1, 1) * (2 * lam)
    for n in range(2, m + 1):
        t_cur = Poly._raw(1, {(e + 1,): c for (e,), c in cur.terms.items()})  # t C_(n-1), by a shift
        nxt = (t_cur * (2 * (n + lam - 1)) - prev * (n + 2 * lam - 2)) * Fraction(1, n)
        prev, cur = cur, nxt
    return cur


# ---------------------------------------------------------------------------
# the intertwining operator


def _intertwiner_table(ctx: DunklContext, degree: int) -> dict[Monomial, Poly]:
    """Images of the degree-``degree`` monomials under V, from the context's tables."""
    tables = ctx.tables.intertwiner
    for n in range(degree + 1):
        if n in tables:
            continue
        if n == 0:
            tables[0] = {(0,) * ctx.dim: Poly.const(ctx.dim, 1)}
            continue
        tables[n] = _build_degree(ctx, n, tables[n - 1])
    return tables[degree]


def _build_degree(ctx: DunklContext, n: int, lower: dict[Monomial, Poly]) -> dict[Monomial, Poly]:
    """V on the degree-n monomials, from the images one degree lower.

    For q homogeneous of degree n the Euler identity reads
    sum_j x_j D_j q = n q + sum_a kappa_a (q - q o r_a) (Dunkl 1989).  Put
    q = V x^b and D_j V = V d_j: then T V x^b = sum_j b_j x_j V x^(b - e_j)
    with T = n + sum_a kappa_a (1 - r_a).  Each 1 - r_a is positive
    semidefinite in the O(d)-invariant Fischer product, so T is positive
    definite for kappa >= 0 and the square system has V as its one solution.
    Each root's rule for one monomial (``Root._terms``) gives x^b(r_a x),
    one term for a signed permutation.  [T | R] is filled in ints over one
    denominator den, the lcm of the kappa and lower-image denominators (a
    dense root's image keeps its Fraction coefficients), and solved by
    fraction-free elimination in ``_linalg``, which the uniform scale by den
    does not change.
    """
    monos = monomials_of_degree(ctx.dim, n)
    index = {m: i for i, m in enumerate(monos)}
    split = {mono: over_one_denominator(image.terms.values()) for mono, image in lower.items()}
    kappa_den, roots = ctx._scaled_roots
    den = math.lcm(kappa_den, *[d for d, _ in split.values()])
    ks = [(root, k * (den // kappa_den)) for root, _, k in roots]
    shift = n * den + sum(k for _, k in ks)
    t = [[0] * len(monos) for _ in monos]
    r = [[0] * len(monos) for _ in monos]
    for col, mono in enumerate(monos):
        t[col][col] = shift
        for root, k in ks:
            for m, c in root._terms(False, mono):
                t[index[m]][col] -= k * c
        for j, e in enumerate(mono):
            if e:
                below = mono[:j] + (e - 1,) + mono[j + 1:]
                d, nums = split[below]
                scale = e * (den // d)
                for m, v in zip(lower[below].terms, nums):
                    r[index[m[:j] + (m[j] + 1,) + m[j + 1:]]][col] += scale * v

    x = _linalg.solve_unique(t, r)
    return {
        mono: Poly._raw(ctx.dim, {m: row[col] for m, row in zip(monos, x) if row[col]})
        for col, mono in enumerate(monos)
    }


def intertwiner_apply(ctx: DunklContext, p: Poly) -> Poly:
    """Apply the intertwining operator V, degree by degree.

    V is linear, fixes constants, preserves homogeneous degree, and turns
    plain partial derivatives into Dunkl operators.  Its monomial images are
    solved exactly from the Euler identity (see ``_build_degree``) and cached
    per context; that last property is checked independently of the build.
    """
    ctx.check_dim(p)
    tables = {n: _intertwiner_table(ctx, n) for n in {sum(mono) for mono in p.terms}}
    return radial_sum(ctx.dim, [(0, c, tables[sum(mono)][mono]) for mono, c in p.terms.items()])


# ---------------------------------------------------------------------------
# zonal kernels


def _zonal_terms(ctx: DunklContext, phi: Poly) -> Iterator[tuple[Monomial, Fraction, Poly]]:
    """The terms (gamma, weight, V y^gamma) of phi(<x, y>) pushed through V in y.

    <x, y>^l = sum over |gamma| = l of (l!/gamma!) x^gamma y^gamma, so V in y
    sends phi(<x, y>) = sum_l c_l <x, y>^l to the sum of
    c_l (l!/gamma!) x^gamma V y^gamma.  Each gamma occurs once.
    """
    _require_profile(phi)
    for (l,), c in phi.terms.items():
        for gamma, image in _intertwiner_table(ctx, l).items():
            multinomial = math.factorial(l) // math.prod(math.factorial(e) for e in gamma)
            yield gamma, c * multinomial, image


def _y_integral(ctx: DunklContext, phi: Poly, q: Poly) -> Poly:
    """The weighted spherical integral over y of (V_y phi(<x, y>)) q(y), a polynomial in x.

    q is fixed for the whole call, so every gamma integrates V y^gamma against
    one linear functional, L_q(x^a) = int x^a q dmu.  L_q is read once per
    monomial a that the images reach, by :func:`sphere_integrate` on x^a q
    (q's terms with their exponents shifted by a), and its values are put over
    one denominator.  The coefficient of x^gamma is then one int dot product
    of V y^gamma's numerators with those of L_q, times gamma's weight: one
    Fraction per gamma, and no product polynomial.
    """
    terms = list(_zonal_terms(ctx, phi))
    reached = list(dict.fromkeys(a for _, _, image in terms for a in image.terms))
    den, values = over_one_denominator([
        sphere_integrate(ctx, Poly._raw(ctx.dim, {
            tuple(i + j for i, j in zip(a, b)): c for b, c in q.terms.items()
        }))
        for a in reached
    ])
    functional = dict(zip(reached, values))
    out = {}
    for gamma, weight, image in terms:
        image_den, nums = over_one_denominator(image.terms.values())
        dot = sum(n * functional[a] for a, n in zip(image.terms, nums))
        out[gamma] = weight * Fraction(dot, image_den * den)
    return Poly(ctx.dim, out)


def funk_hecke_coeff(ctx: DunklContext, m: int, phi: Poly) -> Fraction:
    """The zonal eigenvalue of a polynomial profile against degree-m harmonics.

    A monomial t^l contributes l! / (2^l n! (lam+1)_(m+n)) when l - m = 2n
    is a non-negative even integer and nothing otherwise; the map extends
    linearly over phi.
    """
    if m < 0:
        raise ValueError("the harmonic degree must be >= 0")
    _require_profile(phi)
    lam = ctx.lambda_kappa
    total = Fraction(0)
    for (l,), c in phi.terms.items():
        gap = l - m
        if gap < 0 or gap % 2:
            continue
        total += c * math.factorial(l) / _denominator(lam, m, gap // 2)
    return total


def funk_hecke_coeff_moments(ctx: DunklContext, m: int, phi: Poly) -> Fraction:
    """The same eigenvalue through the exact one-dimensional weighted integral.

    The normalized even moments of the weight (1-t^2)^(lam-1/2) reduce to
    (1/2)_s / (lam+1)_s, so the defining integral of phi times the degree-m
    Gegenbauer polynomial collapses to a finite rational sum.  Entirely
    independent of the monomial rule above; requires lam > 0.
    """
    lam = ctx.lambda_kappa
    if lam <= 0:
        raise ValueError("the moment route needs a positive spectral index")
    _require_profile(phi)
    psi = phi * gegenbauer(m, lam)
    total = Fraction(0)
    for (l,), c in psi.terms.items():
        if l % 2:
            continue
        s = l // 2
        total += c * pochhammer(Fraction(1, 2), s) / pochhammer(lam + 1, s)
    return total * Fraction(math.factorial(m)) / pochhammer(2 * lam, m)


@dataclass(frozen=True)
class FunkHeckeResult:
    """Outcome of the zonal-integral congruence check, both sides reduced."""

    holds: bool
    lhs: Poly
    rhs: Poly
    coefficient: Fraction


def funk_hecke_check(ctx: DunklContext, phi: Poly, q: Poly) -> FunkHeckeResult:
    """Check the zonal-kernel identity for a polynomial profile, exactly.

    The left side pushes the intertwiner through phi(<x, y>) in y,
    multiplies by q(y), and integrates over y on the weighted sphere; the
    right side is the eigenvalue times q.  Both sides are compared modulo
    the sphere ideal.
    """
    m = require_h_harmonic(ctx, q)
    a = funk_hecke_coeff(ctx, m, phi)
    lhs = reduce_mod_sphere(ctx, _y_integral(ctx, phi, q))
    rhs = q * a  # homogeneous and h-harmonic, so already its own reduction
    return FunkHeckeResult(lhs == rhs, lhs, rhs, a)


def _reproducing_profile(ctx: DunklContext, n: int) -> Poly:
    """(n + lam)/lam times the degree-n Gegenbauer profile; defined for lam > 0."""
    lam = ctx.lambda_kappa
    if lam <= 0:
        raise ValueError("the reproducing kernel needs a positive spectral index")
    return gegenbauer(n, lam) * ((n + lam) / lam)


def reproducing_kernel(ctx: DunklContext, n: int) -> Poly:
    """The degree-n zonal reproducing kernel, the intertwined profile of <x, y>,
    as a polynomial in 2d variables: x is variables 1..d and y is d+1..2d."""
    out: dict[Monomial, Fraction] = {}
    for gamma, weight, image in _zonal_terms(ctx, _reproducing_profile(ctx, n)):
        for mono, c in image.terms.items():
            out[gamma + mono] = weight * c
    return Poly(2 * ctx.dim, out)


def reproducing_check(ctx: DunklContext, n: int, q: Poly) -> bool:
    """Integrating the degree-n kernel against q reproduces q exactly when
    the degrees match and annihilates q otherwise, modulo the sphere ideal."""
    m = require_h_harmonic(ctx, q)
    lhs = reduce_mod_sphere(ctx, _y_integral(ctx, _reproducing_profile(ctx, n), q))
    rhs = q if m == n else Poly.zero(ctx.dim)
    return lhs == rhs
