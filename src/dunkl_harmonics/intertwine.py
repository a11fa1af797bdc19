"""The intertwining operator, Gegenbauer polynomials, and Funk-Hecke.

The intertwining operator V is pinned down by three properties: it
preserves each homogeneous degree, fixes 1, and swaps the Dunkl operators
for plain partial derivatives.  It is built here from the Euler identity
instead: degree by degree, the monomial images are the unique solution of
one square exact linear system that needs reflections only, no Dunkl
operator, and the defining property is checked independently by the test
suite and by verify.  On top of V sit the zonal-kernel constructions: the
Funk-Hecke identity as an exact congruence modulo the sphere ideal, and
the degree-n reproducing kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import _linalg
# unused here; perfbench/test_smoke.py::test_tracer_patches_from_imports_and_restores_them reads it
from .dunkl import dunkl_axis
from .harmonic import reduce_mod_sphere, require_h_harmonic
from .polyring import Monomial, Poly, RationalLike, as_fraction, monomials_of_degree, pochhammer
from .reflection import DunklContext
from .spherical import sphere_integrate


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial in t with rational coefficients, dense form."""

    coefficients: tuple[Fraction, ...]

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[RationalLike]) -> UniPoly:
        vals = [as_fraction(c) for c in coeffs]
        while vals and not vals[-1]:
            vals.pop()
        return cls(tuple(vals))

    @classmethod
    def zero(cls) -> UniPoly:
        return cls(())

    @classmethod
    def one(cls) -> UniPoly:
        return cls((Fraction(1),))

    @classmethod
    def t_power(cls, n: int) -> UniPoly:
        return cls(tuple(Fraction(1 if i == n else 0) for i in range(n + 1)))

    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> Fraction:
        if 0 <= n < len(self.coefficients):
            return self.coefficients[n]
        return Fraction(0)

    def __add__(self, other: UniPoly) -> UniPoly:
        size = max(len(self.coefficients), len(other.coefficients))
        return UniPoly.from_coefficients(
            [self.coefficient(i) + other.coefficient(i) for i in range(size)]
        )

    def __sub__(self, other: UniPoly) -> UniPoly:
        size = max(len(self.coefficients), len(other.coefficients))
        return UniPoly.from_coefficients(
            [self.coefficient(i) - other.coefficient(i) for i in range(size)]
        )

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if not self.coefficients or not other.coefficients:
                return UniPoly.zero()
            out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
            for i, a in enumerate(self.coefficients):
                if not a:
                    continue
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
            return UniPoly.from_coefficients(out)
        c = as_fraction(other)
        return UniPoly.from_coefficients([v * c for v in self.coefficients])

    def __rmul__(self, other):
        return self.__mul__(other)

    def derivative(self) -> UniPoly:
        return UniPoly.from_coefficients(
            [i * c for i, c in enumerate(self.coefficients)][1:]
        )

    def eval_rational(self, t: RationalLike) -> Fraction:
        t = as_fraction(t)
        total = Fraction(0)
        for c in reversed(self.coefficients):
            total = total * t + c
        return total

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        pieces = []
        for n in range(len(self.coefficients) - 1, -1, -1):
            c = self.coefficients[n]
            if not c:
                continue
            body = "t" if n == 1 else f"t^{n}" if n else ""
            mag = abs(c)
            text = body if body and mag == 1 else f"{mag}*{body}" if body else str(mag)
            if not pieces:
                pieces.append(text if c > 0 else f"-{text}")
            else:
                pieces.append(f"+ {text}" if c > 0 else f"- {text}")
        return " ".join(pieces)


def gegenbauer(m: int, lam: RationalLike) -> UniPoly:
    """Gegenbauer polynomial C_m for index lam > 0, by the three-term recurrence."""
    lam = as_fraction(lam)
    if lam <= 0:
        raise ValueError("the Gegenbauer index must be positive")
    if m < 0:
        raise ValueError("the degree must be >= 0")
    prev = UniPoly.one()
    if m == 0:
        return prev
    cur = UniPoly.from_coefficients([0, 2 * lam])
    t = UniPoly.t_power(1)
    for n in range(2, m + 1):
        nxt = (t * cur * (2 * (n + lam - 1)) - prev * (n + 2 * lam - 2)) * Fraction(1, n)
        prev, cur = cur, nxt
    return cur


def gegenbauer_rodrigues(m: int, lam: RationalLike) -> UniPoly:
    """Gegenbauer polynomial via the Rodrigues-type derivative formula.

    The m-th derivative of (1-t^2)^(lam+m-1/2) equals (1-t^2)^(lam-1/2)
    times a polynomial computed by the exact product-rule recursion below;
    an independent route used to validate the recurrence in tests.
    """
    lam = as_fraction(lam)
    if lam <= 0:
        raise ValueError("the Gegenbauer index must be positive")
    one_minus_t2 = UniPoly.from_coefficients([1, 0, -1])
    g = UniPoly.one()
    s = lam + m - Fraction(1, 2)
    for _ in range(m):
        g = one_minus_t2 * g.derivative() - UniPoly.from_coefficients([0, 2 * s]) * g
        s -= 1
    front = (
        Fraction((-1) ** m)
        * pochhammer(2 * lam, m)
        / (Fraction(2**m) * math.factorial(m) * pochhammer(lam + Fraction(1, 2), m))
    )
    return g * front


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
    """
    monos = monomials_of_degree(ctx.dim, n)
    index = {m: i for i, m in enumerate(monos)}
    shift = n + ctx.root_system.kappa_sum()
    t = [[Fraction(0)] * len(monos) for _ in monos]
    r = [[Fraction(0)] * len(monos) for _ in monos]
    for col, mono in enumerate(monos):
        unit = Poly.monomial(ctx.dim, mono)
        image = unit * shift
        for root, kappa in ctx.active_roots:
            image = image - unit.reflect(root) * kappa
        for m, c in image.terms.items():
            t[index[m]][col] = c
        for j, e in enumerate(mono):
            if e:
                for m, c in lower[mono[:j] + (e - 1,) + mono[j + 1:]].terms.items():
                    r[index[m[:j] + (m[j] + 1,) + m[j + 1:]]][col] += c * e

    x = _linalg.solve_unique(t, r)
    return {
        mono: Poly(ctx.dim, {monos[row]: x[row][col] for row in range(len(monos))})
        for col, mono in enumerate(monos)
    }


def intertwiner_apply(ctx: DunklContext, p: Poly) -> Poly:
    """Apply the intertwining operator V, degree by degree.

    V is linear, fixes constants, preserves homogeneous degree, and turns
    plain partial derivatives into Dunkl operators.  Its monomial images are
    solved exactly from the Euler identity (see ``_build_degree``) and cached
    per context; that last property is checked independently of the build.
    """
    if p.dim != ctx.dim:
        raise ValueError("polynomial dimension does not match the context")
    out = Poly.zero(ctx.dim)
    for degree, part in p.homogeneous_parts():
        table = _intertwiner_table(ctx, degree)
        for mono, c in part.terms.items():
            out = out + table[mono] * c
    return out


# ---------------------------------------------------------------------------
# zonal kernels


@dataclass(frozen=True)
class BiPoly:
    """Polynomial in two blocks of d variables: x = 1..d, y = d+1..2d."""

    block_dim: int
    poly: Poly

    def __post_init__(self):
        if self.poly.dim != 2 * self.block_dim:
            raise ValueError("the underlying polynomial must live in twice the block dimension")

    @classmethod
    def inner_power(cls, block_dim: int, exponent: int) -> BiPoly:
        """<x, y>^exponent as a two-block polynomial."""
        d = block_dim
        inner = Poly(
            2 * d,
            {
                tuple((1 if k == i else 0) for k in range(d))
                + tuple((1 if k == i else 0) for k in range(d)): Fraction(1)
                for i in range(d)
            },
        )
        return cls(d, inner**exponent)

    @classmethod
    def from_unipoly_inner(cls, block_dim: int, phi: UniPoly) -> BiPoly:
        """phi(<x, y>) expanded as a two-block polynomial."""
        d = block_dim
        acc = Poly.zero(2 * d)
        power = Poly.const(2 * d, 1)
        inner = cls.inner_power(d, 1).poly
        for n, c in enumerate(phi.coefficients):
            if n:
                power = power * inner
            if c:
                acc = acc + power * c
        return cls(d, acc)

    def _grouped_by_x(self) -> dict[Monomial, dict[Monomial, Fraction]]:
        d = self.block_dim
        groups: dict[Monomial, dict[Monomial, Fraction]] = {}
        for mono, c in self.poly.terms.items():
            groups.setdefault(mono[:d], {})[mono[d:]] = c
        return groups

    def map_y(self, func: Callable[[Poly], Poly]) -> BiPoly:
        """Apply a linear map to the y-block, x-monomials passive."""
        d = self.block_dim
        out: dict[Monomial, Fraction] = {}
        for x_mono, y_terms in self._grouped_by_x().items():
            image = func(Poly(d, y_terms))
            for m, c in image.terms.items():
                key = x_mono + m
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
        return BiPoly(d, Poly(2 * d, out))

    def mul_y(self, q: Poly) -> BiPoly:
        """Multiply by q(y)."""
        if q.dim != self.block_dim:
            raise ValueError("q must live in the block dimension")
        embedded = Poly(
            2 * self.block_dim,
            {(0,) * self.block_dim + mono: c for mono, c in q.terms.items()},
        )
        return BiPoly(self.block_dim, self.poly * embedded)

    def integrate_y(self, ctx: DunklContext) -> Poly:
        """Normalized weighted spherical integral over the y-block."""
        if ctx.dim != self.block_dim:
            raise ValueError("context dimension must equal the block dimension")
        d = self.block_dim
        out: dict[Monomial, Fraction] = {}
        for x_mono, y_terms in self._grouped_by_x().items():
            value = sphere_integrate(ctx, Poly(d, y_terms))
            if value:
                prev = out.get(x_mono)
                out[x_mono] = value if prev is None else prev + value
        return Poly(d, out)

    def __str__(self) -> str:
        return str(self.poly)


def funk_hecke_coeff(ctx: DunklContext, m: int, phi: UniPoly) -> Fraction:
    """The zonal eigenvalue of a polynomial profile against degree-m harmonics.

    A monomial t^l contributes l! / (2^l n! (lam+1)_(m+n)) when l - m = 2n
    is a non-negative even integer and nothing otherwise; the map extends
    linearly over phi.
    """
    if m < 0:
        raise ValueError("the harmonic degree must be >= 0")
    lam = ctx.lambda_kappa
    total = Fraction(0)
    for l, c in enumerate(phi.coefficients):
        if not c:
            continue
        gap = l - m
        if gap < 0 or gap % 2:
            continue
        n = gap // 2
        total += c * Fraction(math.factorial(l)) / (
            Fraction(2**l) * math.factorial(n) * pochhammer(lam + 1, m + n)
        )
    return total


def funk_hecke_coeff_moments(ctx: DunklContext, m: int, phi: UniPoly) -> Fraction:
    """The same eigenvalue through the exact one-dimensional weighted integral.

    The normalized even moments of the weight (1-t^2)^(lam-1/2) reduce to
    (1/2)_s / (lam+1)_s, so the defining integral of phi times the degree-m
    Gegenbauer polynomial collapses to a finite rational sum.  Entirely
    independent of the monomial rule above; requires lam > 0.
    """
    lam = ctx.lambda_kappa
    if lam <= 0:
        raise ValueError("the moment route needs a positive spectral index")
    psi = phi * gegenbauer(m, lam)
    total = Fraction(0)
    for l, c in enumerate(psi.coefficients):
        if not c or l % 2:
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


def funk_hecke_check(ctx: DunklContext, phi: UniPoly, q: Poly) -> FunkHeckeResult:
    """Check the zonal-kernel identity for a polynomial profile, exactly.

    The left side expands phi(<x, y>) in two blocks, pushes the intertwiner
    through the y-block, multiplies by q(y), and integrates the y-block over
    the weighted sphere; the right side is the eigenvalue times q.  Both
    sides are compared modulo the sphere ideal.
    """
    m = require_h_harmonic(ctx, q)
    kernel = BiPoly.from_unipoly_inner(ctx.dim, phi)
    lhs_raw = (
        kernel.map_y(lambda part: intertwiner_apply(ctx, part)).mul_y(q).integrate_y(ctx)
    )
    a = funk_hecke_coeff(ctx, m, phi)
    lhs = reduce_mod_sphere(ctx, lhs_raw)
    rhs = reduce_mod_sphere(ctx, q * a)
    return FunkHeckeResult(lhs == rhs, lhs, rhs, a)


def reproducing_kernel(ctx: DunklContext, n: int) -> BiPoly:
    """The degree-n zonal reproducing kernel.

    (n + lam)/lam times the intertwined Gegenbauer profile of the inner
    product; defined for lam > 0.
    """
    lam = ctx.lambda_kappa
    if lam <= 0:
        raise ValueError("the reproducing kernel needs a positive spectral index")
    profile = gegenbauer(n, lam)
    kernel = BiPoly.from_unipoly_inner(ctx.dim, profile)
    kernel = kernel.map_y(lambda part: intertwiner_apply(ctx, part))
    return BiPoly(ctx.dim, kernel.poly * ((n + lam) / lam))


def reproducing_check(ctx: DunklContext, n: int, q: Poly) -> bool:
    """Integrating the degree-n kernel against q reproduces q exactly when
    the degrees match and annihilates q otherwise, modulo the sphere ideal."""
    m = require_h_harmonic(ctx, q)
    kernel = reproducing_kernel(ctx, n)
    integral = kernel.mul_y(q).integrate_y(ctx)
    lhs = reduce_mod_sphere(ctx, integral)
    rhs = reduce_mod_sphere(ctx, q) if m == n else Poly.zero(ctx.dim)
    return lhs == rhs
