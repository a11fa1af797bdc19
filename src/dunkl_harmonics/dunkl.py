"""The Dunkl operator, its Laplacian, operator substitution, and the pairing.

Everything here is exact.  :func:`dunkl_apply` is the one Dunkl-operator
core and :func:`dunkl_axis` its coordinate case.  Both operators are
linear, so each sums the images of the input's monomials, and each image is
computed once per context into the context's tables: ``tables.axis`` holds
the d coordinate images D_j x^beta of a monomial, a partial derivative plus
one divided difference per root, and ``tables.laplacian`` holds Lap x^beta
from the closed form of the sum of squares.  The tables hold one entry per
monomial the context has seen, so they are bounded by the monomials of the
degrees the context has been asked about; they are dropped with the
context, and the results are the same as those of the formulas applied to
the whole input.  :func:`apply_operator_poly` and :func:`pairing` reach the
axis table through :func:`dunkl_axis`.
:func:`_laplacian_powers` is the one place that iterates the Laplacian over
a sequence p, Lap p, Lap^2 p, ..., and the one place that decides where it
ends; the decomposition and the radius expansions read it.  For a
homogeneous input of degree n the operator output is homogeneous of degree
n - 1 (zero when n = 0) and the Laplacian output of degree n - 2; both
facts fall out of the difference-quotient form and are exercised by the
test suite rather than asserted per call.  Inputs of another dimension
are refused by :meth:`DunklContext.check_dim`, as in every other module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from .polyring import Monomial, Poly, RationalLike, as_fraction, radial_sum
from .reflection import DunklContext


def dunkl_apply(ctx: DunklContext, xi: Sequence[RationalLike], p: Poly) -> Poly:
    """Apply the Dunkl operator in direction ``xi``.

    D_xi p = d_xi p + sum over positive roots of
    kappa_alpha <alpha, xi> (p(x) - p(r_alpha x)) / <alpha, x>.
    The operator is linear in p and in xi, so D_xi p is the sum of
    c_beta xi_j D_j x^beta over the terms of p and the axes, and each
    D_j x^beta is read from the context's table (all d axes of a monomial
    are built together on a miss by ``_monomial_axes``).
    """
    ctx.check_dim(p)
    v = [as_fraction(c) for c in xi]
    if len(v) != ctx.dim or not any(v):
        raise ValueError("xi must be a nonzero vector of the ambient dimension")
    axes = [(j, c) for j, c in enumerate(v) if c]
    out: dict[Monomial, Fraction] = {}
    for mono, c in p.terms.items():
        images = _monomial_axis_images(ctx, mono)
        for j, x in axes:
            cx = c if x == 1 else c * x
            terms = iter(images[j])
            for m, w in zip(terms, terms):
                s = out.get(m)
                out[m] = cx * w if s is None else s + cx * w
    return Poly._raw(ctx.dim, {m: w for m, w in out.items() if w})


def _monomial_axis_images(ctx: DunklContext, mono: Monomial) -> tuple[tuple, ...]:
    """D_j x^mono for j = 1..d from the context's table, each flat as m1, c1, m2, c2, ..."""
    images = ctx.tables.axis
    image = images.get(mono)
    if image is None:
        image = images[mono] = _monomial_axes(ctx, mono)
    return image


def _monomial_axes(ctx: DunklContext, mono: Monomial) -> tuple[tuple, ...]:
    """D_j x^mono = mono_j x^(mono - e_j) + sum of kappa_alpha alpha_j delta_alpha x^mono.

    The sum is over the positive roots, and delta_alpha is the divided
    difference (p - p(r_alpha x)) / <alpha, x>.  One divided difference per
    active root serves every axis.  The monomial
    enters with the int coefficient 1, so for a catalog root delta_alpha
    keeps int coefficients until it is multiplied by kappa_alpha alpha_j;
    the table holds Fractions only, each monomial and coefficient as the
    context's shared instance (see :class:`ContextTables`).
    """
    x = Poly._raw(ctx.dim, {mono: 1})
    out: list[dict[Monomial, Fraction]] = [{} for _ in mono]
    for j, e in enumerate(mono):
        if e:
            out[j][_shifted(mono, j, e - 1)] = Fraction(e)
    for root, kappa in ctx.active_roots:
        quotient = x.divided_difference(root).terms
        for j, a in enumerate(root):
            if a:
                scale = kappa * a
                image = out[j]
                for m, v in quotient.items():
                    image[m] = image.get(m, 0) + scale * v
    shared = ctx.tables.shared
    return tuple(
        tuple(shared.setdefault(t, t) for m, v in image.items() if v for t in (m, v))
        for image in out
    )


def dunkl_axis(ctx: DunklContext, axis: int, p: Poly) -> Poly:
    """D_j = D_(e_j), the Dunkl operator along a coordinate, 1-based axis index."""
    if not 1 <= axis <= ctx.dim:
        raise ValueError(f"axis {axis} out of range 1..{ctx.dim}")
    return dunkl_apply(ctx, [1 if j == axis - 1 else 0 for j in range(ctx.dim)], p)


def laplacian(ctx: DunklContext, p: Poly) -> Poly:
    """The Dunkl Laplacian, the sum of the squared coordinate operators.

    The Laplacian is linear, so Lap p = sum of c_beta Lap x^beta over the
    terms of p, and each monomial image is read from the context's table
    (built on a miss by ``_monomial_image``).
    """
    ctx.check_dim(p)
    out: dict[Monomial, Fraction] = {}
    for mono, c in p.terms.items():
        for m, v in _monomial_laplacian(ctx, mono).items():
            s = out.get(m)
            out[m] = c * v if s is None else s + c * v
    return Poly._raw(ctx.dim, {m: v for m, v in out.items() if v})


def _monomial_laplacian(ctx: DunklContext, mono: Monomial) -> dict[Monomial, Fraction]:
    """The terms of Lap x^mono, from the context's table; do not mutate."""
    images = ctx.tables.laplacian
    image = images.get(mono)
    if image is None:
        image = images[mono] = _monomial_image(ctx, mono)
    return image


def _monomial_image(ctx: DunklContext, mono: Monomial) -> dict[Monomial, Fraction]:
    """Lap x^mono from the closed form (Dunkl 1989; Dunkl-Xu)

    Lap p = Delta p + sum over positive roots of
    kappa_alpha (2 <grad p, alpha> - |alpha|^2 (p - p(r_alpha x)) / <alpha, x>) / <alpha, x>,

    which equals the sum of squares because the roots and multiplicities are
    invariant under the group (:class:`DunklContext` checks it).  With
    delta_alpha the divided difference and d_alpha the derivative along
    alpha, each root's term is (delta_alpha d_alpha + d_alpha delta_alpha) p,
    so no linear division is left.  On a monomial both divided differences
    take :meth:`Poly.divided_difference`'s closed form whenever the
    reflection is a signed permutation.  The monomial enters with the int
    coefficient 1, so for a root with integer entries (every catalog root)
    the term keeps int coefficients, which :class:`Poly` arithmetic accepts,
    until it is multiplied by kappa_alpha; the table holds Fractions only,
    each monomial and coefficient as the context's shared instance.
    """
    x = Poly._raw(ctx.dim, {mono: 1})
    out: dict[Monomial, Fraction] = {}
    for i, e in enumerate(mono):
        if e > 1:
            out[_shifted(mono, i, e - 2)] = Fraction(e * (e - 1))
    for root, kappa in ctx.active_roots:
        alpha = tuple(a.numerator if a.denominator == 1 else a for a in root)
        term = dict(_derivative(x.divided_difference(root), alpha).terms)
        for m, v in _derivative(x, alpha).divided_difference(root).terms.items():
            term[m] = term.get(m, 0) + v
        for m, v in term.items():
            if v:
                out[m] = out.get(m, 0) + kappa * v
    shared = ctx.tables.shared
    return {shared.setdefault(m, m): shared.setdefault(v, v) for m, v in out.items() if v}


def _derivative(p: Poly, alpha: Sequence[RationalLike]) -> Poly:
    """The derivative of p along alpha, sum of alpha_j d_j p."""
    out: dict[Monomial, RationalLike] = {}
    for mono, c in p.terms.items():
        for j, a in enumerate(alpha):
            e = mono[j]
            if a and e:
                m = _shifted(mono, j, e - 1)
                out[m] = out.get(m, 0) + c * a * e
    return Poly._raw(p.dim, {m: v for m, v in out.items() if v})


def _shifted(mono: Monomial, i: int, e: int) -> Monomial:
    """mono with its i-th exponent set to e."""
    return mono[:i] + (e,) + mono[i + 1:]


def _laplacian_powers(ctx: DunklContext, p: Poly) -> Iterator[Poly]:
    """p, Lap p, Lap^2 p, ... up to the last nonzero power, each computed when it is read.

    Lap lowers the degree by 2, so for p of degree n the sequence ends by
    Lap^(n // 2) p; a power of degree < 2 ends it without another Laplacian,
    and a zero p yields nothing.
    """
    while not p.is_zero:
        yield p
        if p.degree() < 2:
            return
        p = laplacian(ctx, p)


def apply_operator_poly(ctx: DunklContext, q: Poly, p: Poly) -> Poly:
    """Substitute the coordinate Dunkl operators into q and apply to p.

    Each monomial x^beta of q acts as the product of the per-axis operators;
    the operators commute, so the fixed ascending axis order is immaterial
    (and that commutation is itself a verified property).
    """
    ctx.check_dim(q)
    ctx.check_dim(p)
    images = []
    for mono, coeff in q.terms.items():
        r = p
        for axis in (j + 1 for j, e in enumerate(mono) for _ in range(e)):
            r = dunkl_axis(ctx, axis, r)
        images.append((0, coeff, r))
    return radial_sum(ctx.dim, images)


def pairing(ctx: DunklContext, p: Poly, q: Poly) -> Fraction:
    """The bilinear form (p(D) q)(0): symmetric, and zero across degrees."""
    return apply_operator_poly(ctx, p, q).constant_term()
