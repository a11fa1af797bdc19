"""The Dunkl operator, its Laplacian, operator substitution, and the pairing.

Everything here is exact.  :func:`dunkl_apply` is the one place where the
partial derivative meets the divided differences; :func:`dunkl_axis` is its
coordinate case, and :func:`laplacian` uses the closed form of the sum of
squares.  :func:`_laplacian_powers` is the one place that iterates the
Laplacian over a whole sequence p, Lap p, Lap^2 p, ...; the decomposition and
the radius expansions read that sequence.  For a homogeneous input of degree
n the operator output is homogeneous of degree n - 1 (zero when n = 0) and
the Laplacian output of degree n - 2; both facts fall out of the
difference-quotient form and are exercised by the test suite rather than
asserted per call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .polyring import Poly, RationalLike, as_fraction, divide_by_linear
from .reflection import DunklContext


def _require_ctx_dim(ctx: DunklContext, p: Poly) -> None:
    if p.dim != ctx.dim:
        raise ValueError(f"polynomial dimension {p.dim} does not match context dimension {ctx.dim}")


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def dunkl_apply(ctx: DunklContext, xi: Sequence[RationalLike], p: Poly) -> Poly:
    """Apply the Dunkl operator in direction ``xi``.

    D_xi p = d_xi p + sum over positive roots of
    kappa_alpha <alpha, xi> (p(x) - p(r_alpha x)) / <alpha, x>.
    """
    _require_ctx_dim(ctx, p)
    v = [as_fraction(c) for c in xi]
    if len(v) != ctx.dim or not any(v):
        raise ValueError("xi must be a nonzero vector of the ambient dimension")
    out = Poly.zero(ctx.dim)
    for j, c in enumerate(v):
        if c:
            d = p.partial(j + 1)
            out = out + (d if c == 1 else d * c)
    for root, kappa in ctx.active_roots:
        proj = _dot(root, v)
        if proj:
            out = out + p.divided_difference(root) * (kappa * proj)
    return out


def dunkl_axis(ctx: DunklContext, axis: int, p: Poly) -> Poly:
    """D_j = D_(e_j), the Dunkl operator along a coordinate, 1-based axis index."""
    if not 1 <= axis <= ctx.dim:
        raise ValueError(f"axis {axis} out of range 1..{ctx.dim}")
    return dunkl_apply(ctx, [1 if j == axis - 1 else 0 for j in range(ctx.dim)], p)


def laplacian(ctx: DunklContext, p: Poly) -> Poly:
    """The Dunkl Laplacian, the sum of the squared coordinate operators.

    Computed in one pass from the closed form
    Lap p = Delta p + sum over positive roots of
    kappa_alpha (2 <grad p, alpha> - |alpha|^2 (p - p(r_alpha x)) / <alpha, x>) / <alpha, x>
    (Dunkl 1989; Dunkl-Xu), one divided difference and one exact linear
    division per root.  It equals the sum of squares because the roots and
    multiplicities are invariant under the group, which :class:`RootSystem`
    checks at construction.
    """
    _require_ctx_dim(ctx, p)
    grad = [p.partial(j + 1) for j in range(ctx.dim)]
    out = Poly.zero(ctx.dim)
    for j, g in enumerate(grad):
        out = out + g.partial(j + 1)
    for root, kappa in ctx.active_roots:
        numer = p.divided_difference(root) * -_dot(root, root)
        for a, g in zip(root, grad):
            if a:
                numer = numer + g * (2 * a)
        out = out + divide_by_linear(numer, root) * kappa
    return out


def _laplacian_powers(ctx: DunklContext, p: Poly, count: int) -> list[Poly]:
    """[p, Lap p, ..., Lap^count p], each power computed once."""
    powers = [p]
    for _ in range(count):
        powers.append(laplacian(ctx, powers[-1]))
    return powers


def apply_operator_poly(ctx: DunklContext, q: Poly, p: Poly) -> Poly:
    """Substitute the coordinate Dunkl operators into q and apply to p.

    Each monomial x^beta of q acts as the product of the per-axis operators;
    the operators commute, so the fixed ascending axis order is immaterial
    (and that commutation is itself a verified property).
    """
    _require_ctx_dim(ctx, q)
    _require_ctx_dim(ctx, p)
    out = Poly.zero(ctx.dim)
    for mono, coeff in q.terms.items():
        r = p
        for j, e in enumerate(mono):
            for _ in range(e):
                if r.is_zero:
                    break
                r = dunkl_axis(ctx, j + 1, r)
            if r.is_zero:
                break
        if not r.is_zero:
            out = out + r * coeff
    return out


def pairing(ctx: DunklContext, p: Poly, q: Poly) -> Fraction:
    """The bilinear form (p(D) q)(0): symmetric, and zero across degrees."""
    return apply_operator_poly(ctx, p, q).constant_term()
