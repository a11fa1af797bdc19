"""The Dunkl operator, its Laplacian, operator substitution, and the pairing.

Everything here is exact.  :func:`dunkl_apply` is the one Dunkl-operator
core and :func:`dunkl_axis` its coordinate case.  Both operators are
linear, so each sums the images of the input's monomials, and each image is
computed once per context into the context's tables: ``tables.axis`` holds
the d coordinate images D_j x^beta of a monomial, a partial derivative plus
one divided difference per root, and ``tables.laplacian`` holds Lap x^beta
from the closed form of the sum of squares.  A miss sums Python ints scaled
by the lcm of the context's kappa denominators, with no Fraction per step,
and each image is stored as int numerators over one denominator.  The two
kernels (and ``polyring.radial_sum``) put their input over one denominator,
take the lcm of the images' denominators once, sum Python ints, and build
one Fraction per output term.  The tables hold one entry per monomial the
context has seen, so they are bounded by the monomials of the degrees the
context has been asked about; they are dropped with the context, and the
results are the same as those of the formulas applied to the whole input.
:func:`apply_operator_poly` and :func:`pairing` reach the axis table
through :func:`dunkl_axis`.
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

import math
from fractions import Fraction
from typing import Iterator, Sequence

from .polyring import Monomial, Poly, RationalLike, as_fraction, over_one_denominator, radial_sum
from .reflection import DunklContext


def dunkl_apply(ctx: DunklContext, xi: Sequence[RationalLike], p: Poly) -> Poly:
    """Apply the Dunkl operator in direction ``xi``.

    D_xi p = d_xi p + sum over positive roots of
    kappa_alpha <alpha, xi> (p(x) - p(r_alpha x)) / <alpha, x>.
    The operator is linear in p and in xi, so D_xi p is the sum of
    c_beta xi_j D_j x^beta over the terms of p and the axes, and each
    D_j x^beta is read from the context's table (all d axes of a monomial
    are built together on a miss by ``_monomial_axes``).  The sum runs in
    integer numerators over one denominator.
    """
    ctx.check_dim(p)
    xi_den, xi_nums = over_one_denominator([c if isinstance(c, int) else as_fraction(c) for c in xi])
    if len(xi_nums) != ctx.dim or not any(xi_nums):
        raise ValueError("xi must be a nonzero vector of the ambient dimension")
    axes = [(j, x) for j, x in enumerate(xi_nums) if x]
    den, nums = over_one_denominator(p.terms.values())
    images = [_monomial_axis_images(ctx, mono) for mono in p.terms]
    scale = math.lcm(*[d for d, _ in images])
    out: dict[Monomial, int] = {}
    for n, (d, image) in zip(nums, images):
        n *= scale // d
        for j, x in axes:
            nx = n * x
            terms = iter(image[j])
            for m, w in zip(terms, terms):
                out[m] = out.get(m, 0) + nx * w
    return Poly._over(ctx.dim, den * xi_den * scale, out)


def _monomial_axis_images(ctx: DunklContext, mono: Monomial) -> tuple[int, tuple[tuple, ...]]:
    """D_j x^mono for j = 1..d from the context's table, as (den, images); see ``_monomial_axes``."""
    images = ctx.tables.axis
    image = images.get(mono)
    if image is None:
        image = images[mono] = _monomial_axes(ctx, mono)
    return image


def _monomial_axes(ctx: DunklContext, mono: Monomial) -> tuple[int, tuple[tuple, ...]]:
    """D_j x^mono = mono_j x^(mono - e_j) + sum of kappa_alpha alpha_j delta_alpha x^mono.

    The sum is over the positive roots, and delta_alpha is the divided
    difference (p - p(r_alpha x)) / <alpha, x>.  One divided difference per
    active root serves every axis.  The sums run in ints, scaled by the lcm
    of the kappa denominators, and are reduced once into (den, images), each
    image flat as m1, n1, m2, n2, ... for the terms n_i / den x^m_i, in the
    reduced form of :func:`over_one_denominator`, each monomial as the
    context's shared instance (see :class:`ContextTables`).
    """
    x = Poly._raw(ctx.dim, {mono: 1})
    scale, roots = ctx._scaled_roots
    out: list[dict[Monomial, RationalLike]] = [{} for _ in mono]
    for j, e in enumerate(mono):
        if e:
            out[j][_shifted(mono, j, e - 1)] = e * scale
    for root, alpha, k in roots:
        quotient = x.divided_difference(root).terms
        for j, a in enumerate(alpha):
            if a:
                ka, image = k * a, out[j]
                for m, v in quotient.items():
                    image[m] = image.get(m, 0) + ka * v
    out = [{m: v for m, v in image.items() if v} for image in out]
    den, nums = _unscaled(scale, [v for image in out for v in image.values()])
    shared = ctx.tables.shared
    numerators = iter(nums)
    return den, tuple(
        tuple(t for m in image for t in (shared.setdefault(m, m), next(numerators)))
        for image in out
    )


def _unscaled(scale: int, values: list[RationalLike]) -> tuple[int, list[int]]:
    """:func:`over_one_denominator` of the values over ``scale``, in the same reduced form."""
    den, nums = over_one_denominator(values)
    g = math.gcd(den * scale, *nums)
    return den * scale // g, [n // g for n in nums]


def dunkl_axis(ctx: DunklContext, axis: int, p: Poly) -> Poly:
    """D_j = D_(e_j), the Dunkl operator along a coordinate, 1-based axis index."""
    if not 1 <= axis <= ctx.dim:
        raise ValueError(f"axis {axis} out of range 1..{ctx.dim}")
    return dunkl_apply(ctx, [1 if j == axis - 1 else 0 for j in range(ctx.dim)], p)


def laplacian(ctx: DunklContext, p: Poly) -> Poly:
    """The Dunkl Laplacian, the sum of the squared coordinate operators.

    The Laplacian is linear, so Lap p = sum of c_beta Lap x^beta over the
    terms of p, and each monomial image is read from the context's table
    (built on a miss by ``_monomial_image``).  The sum runs in integer
    numerators over one denominator.
    """
    ctx.check_dim(p)
    den, nums = over_one_denominator(p.terms.values())
    images = [_monomial_laplacian(ctx, mono) for mono in p.terms]
    scale = math.lcm(*[d for d, _ in images])
    out: dict[Monomial, int] = {}
    for n, (d, image) in zip(nums, images):
        n *= scale // d
        terms = iter(image)
        for m, v in zip(terms, terms):
            out[m] = out.get(m, 0) + n * v
    return Poly._over(ctx.dim, den * scale, out)


def _monomial_laplacian(ctx: DunklContext, mono: Monomial) -> tuple[int, tuple]:
    """Lap x^mono from the context's table, as (den, image); see ``_monomial_image``."""
    images = ctx.tables.laplacian
    image = images.get(mono)
    if image is None:
        image = images[mono] = _monomial_image(ctx, mono)
    return image


def _monomial_image(ctx: DunklContext, mono: Monomial) -> tuple[int, tuple]:
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
    each term keeps int coefficients, summed in ints scaled by the lcm of the
    kappa denominators and reduced once into (den, image), flat as
    m1, n1, m2, n2, ... for the terms n_i / den x^m_i, in the reduced form of
    :func:`over_one_denominator`, each monomial as the context's shared instance.
    """
    scale, roots = ctx._scaled_roots
    x = Poly._raw(ctx.dim, {mono: 1})
    out: dict[Monomial, RationalLike] = {}
    for i, e in enumerate(mono):
        if e > 1:
            out[_shifted(mono, i, e - 2)] = e * (e - 1) * scale
    for root, alpha, k in roots:
        term = _derivative(x.divided_difference(root).terms, alpha)
        for m, v in Poly._raw(ctx.dim, _derivative(x.terms, alpha)).divided_difference(root).terms.items():
            term[m] = term.get(m, 0) + v
        for m, v in term.items():
            if v:
                out[m] = out.get(m, 0) + k * v
    out = {m: v for m, v in out.items() if v}
    den, nums = _unscaled(scale, list(out.values()))
    shared = ctx.tables.shared
    return den, tuple(t for m, n in zip(out, nums) for t in (shared.setdefault(m, m), n))


def _derivative(terms: dict, alpha: Sequence[RationalLike]) -> dict[Monomial, RationalLike]:
    """The nonzero terms of the derivative along alpha, sum of alpha_j d_j, of a polynomial's terms."""
    out: dict[Monomial, RationalLike] = {}
    for mono, c in terms.items():
        for j, a in enumerate(alpha):
            e = mono[j]
            if a and e:
                m = _shifted(mono, j, e - 1)
                out[m] = out.get(m, 0) + c * a * e
    return {m: v for m, v in out.items() if v}


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
