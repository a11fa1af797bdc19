"""The Dunkl operator, its Laplacian, operator substitution, and the pairing.

Everything here is exact.  Both operators are linear, and both are thin
callers of one kernel, :func:`_image_sum`, which takes a ``polyring.Form``
and sums the table images of its monomials weighted by a list of (image
index, int weight) pairs: the nonzero axes of xi for :func:`dunkl_apply`
(and its coordinate case :func:`dunkl_axis`), and ``((0, 1),)`` for
:func:`laplacian`.  Each image is computed once per context, on a miss of
the one lookup :func:`_entry`: ``tables.axis`` holds the d coordinate images
D_j x^beta of a monomial, a partial derivative plus one divided difference
per root, and ``tables.laplacian`` holds Lap x^beta.  The Laplacian commutes
with the group, so a Laplacian miss whose monomial has an orbit-mate
(``DunklContext._orbit_mate``) is the mate's entry reflected, and only an
orbit's representative takes the closed form of the sum of squares.  A
closed-form miss sums Python ints scaled by the lcm of the context's kappa
denominators, and both closed forms store through :func:`_reduced_entry`, as
int numerators over one denominator.  Only this module reads that layout;
others get Laplacian images from :func:`_monomial_laplacian`.  A public call
crosses from ``Poly`` to Form and back once (``Poly._form``, ``Poly._over``),
and a composition stays a Form between its steps, each one kernel call
reduced by one gcd (:func:`_step`): :func:`_laplacian_powers`, the one place
that iterates the Laplacian and decides where p, Lap p, ... ends, and
:func:`apply_operator_poly`, which chains the axis operators.  For a
homogeneous input of degree n the outputs are zero or homogeneous, of degree
n - 1 for an operator and n - 2 for the Laplacian; the tests check both.
Inputs of another dimension are refused by :meth:`DunklContext.check_dim`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .polyring import Form, Monomial, Poly, RationalLike, _radial_ints, as_fraction, over_one_denominator
from .reflection import DunklContext

# (den, (image, ...)), each image flat as m1, n1, m2, n2, ... for the terms n_i / den x^m_i
Entry = tuple[int, tuple[tuple, ...]]
Builder = Callable[[DunklContext, Monomial], Entry]


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
    xi_den, xi_nums = over_one_denominator([c if isinstance(c, int) else as_fraction(c) for c in xi])
    if len(xi_nums) != ctx.dim or not any(xi_nums):
        raise ValueError("xi must be a nonzero vector of the ambient dimension")
    axes = [(j, x) for j, x in enumerate(xi_nums) if x]
    den, terms = p._form()
    return Poly._over(ctx.dim, *_image_sum(ctx, (den * xi_den, terms), ctx.tables.axis, _monomial_axes, axes))


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
    return Poly._over(ctx.dim, *_image_sum(ctx, p._form(), ctx.tables.laplacian, _monomial_image, ((0, 1),)))


def _image_sum(
    ctx: DunklContext, form: Form, table: dict[Monomial, Entry], build: Builder, weights: Sequence[tuple[int, int]],
) -> Form:
    """The sum of n / den times w times image j of x^m's entry, over form's terms (m, n) and the (j, w) in weights.

    The entries are put over one denominator, and the output numerators,
    some of which may be zero, are over form's den times that denominator.
    """
    den, terms = form
    entries = [_entry(ctx, table, build, mono) for mono in terms]
    scale = math.lcm(*[d for d, _ in entries])
    out: dict[Monomial, int] = {}
    for n, (d, images) in zip(terms.values(), entries):
        n *= scale // d
        for j, w in weights:
            nw = n * w
            terms = iter(images[j])
            for m, v in zip(terms, terms):
                out[m] = out.get(m, 0) + nw * v
    return den * scale, out


def _entry(ctx: DunklContext, table: dict[Monomial, Entry], build: Builder, mono: Monomial) -> Entry:
    """The entry of ``mono`` in one of the context's operator tables, built and stored on a miss."""
    entry = table.get(mono)
    if entry is None:
        entry = table[mono] = build(ctx, mono)
    return entry


def _monomial_laplacian(ctx: DunklContext, mono: Monomial) -> tuple[int, list[tuple[Monomial, int]]]:
    """Lap x^mono from the context's table, as den and the (monomial, numerator) pairs of its terms."""
    den, (image,) = _entry(ctx, ctx.tables.laplacian, _monomial_image, mono)
    terms = iter(image)
    return den, list(zip(terms, terms))


def _monomial_axes(ctx: DunklContext, mono: Monomial) -> Entry:
    """D_j x^mono = mono_j x^(mono - e_j) + sum of kappa_alpha alpha_j delta_alpha x^mono.

    The sum is over the positive roots, and delta_alpha is the divided
    difference (p - p(r_alpha x)) / <alpha, x>.  One divided difference per
    active root, read from the root's rule for one monomial
    (``Root._terms``), serves every axis, and the d images are stored
    together as one entry (:func:`_reduced_entry`).
    """
    scale, roots = ctx._scaled_roots
    out: list[dict[Monomial, RationalLike]] = [{} for _ in mono]
    for j, e in enumerate(mono):
        if e:
            out[j][_shifted(mono, j, e - 1)] = e * scale
    for root, alpha, k in roots:
        quotient = root._terms(True, mono)
        for j, a in enumerate(alpha):
            if a:
                ka, image = k * a, out[j]
                for m, v in quotient:
                    image[m] = image.get(m, 0) + ka * v
    return _reduced_entry(ctx, scale, out)


def _monomial_image(ctx: DunklContext, mono: Monomial) -> Entry:
    """Lap x^mono: its orbit-mate's entry reflected, or the closed form for a representative.

    With (r, m, s) the mate of ctx._orbit_mate, x^mono = s x^m(r x), and the
    Laplacian commutes with r, so Lap x^mono = s (Lap x^m)(r x): the same
    denominator, and each term n x^t becomes s s_t n x^t' for x^t(r x) =
    s_t x^t', a bijection of monomials, so the entry stays reduced.  The
    chain of mates is walked down to the first one in the table, or to the
    representative, whose entry :func:`_entry` gets or builds, and back up,
    storing each entry on the way; only a representative takes
    :func:`_closed_form_image`.
    """
    table = ctx.tables.laplacian
    chain = []
    mate = ctx._orbit_mate(mono)
    while mate is not None:
        chain.append((mono, mate))
        mono = mate[1]
        if mono in table:
            break
        mate = ctx._orbit_mate(mono)
    if not chain:
        return _closed_form_image(ctx, mono)
    den, (image,) = _entry(ctx, table, _monomial_image, mono)
    shared = ctx.tables.shared
    for mono, (root, _, sign) in reversed(chain):
        terms = iter(image)
        reflected = []
        for t, n in zip(terms, terms):
            ((m, s),) = root._terms(False, t)
            reflected += (shared.setdefault(m, m), n if s == sign else -n)
        image = tuple(reflected)
        table[mono] = den, (image,)
    return table[mono]


def _closed_form_image(ctx: DunklContext, mono: Monomial) -> Entry:
    """Lap x^mono from the closed form (Dunkl 1989; Dunkl-Xu)

    Lap p = Delta p + sum over positive roots of
    kappa_alpha (2 <grad p, alpha> - |alpha|^2 (p - p(r_alpha x)) / <alpha, x>) / <alpha, x>,

    which equals the sum of squares because the roots and multiplicities are
    invariant under the group (:class:`DunklContext` checks it).  With
    delta_alpha the divided difference and d_alpha the derivative along
    alpha, each root's term is (d_alpha delta_alpha + delta_alpha d_alpha) p,
    so no linear division is left.  Both halves are summed in one pass per
    root: d_alpha is taken term by term of delta_alpha x^mono, read from the
    root's rule for one monomial (``Root._terms``), and the derivative
    d_alpha x^mono, a polynomial of up to d terms, takes
    :meth:`Poly.divided_difference`, which sums that rule, unless it is 0.
    The monomial enters with the int coefficient 1, so for a root with
    integer entries (every catalog root) each term keeps int coefficients,
    and the one image is stored as an entry (:func:`_reduced_entry`).  The
    first half's zero terms are dropped before the second half is added, so
    the entry's terms keep the order of the two halves summed apart.
    """
    scale, roots = ctx._scaled_roots
    out: dict[Monomial, RationalLike] = {}
    for i, e in enumerate(mono):
        if e > 1:
            out[_shifted(mono, i, e - 2)] = e * (e - 1) * scale
    for root, alpha, k in roots:
        axes = [(j, a) for j, a in enumerate(alpha) if a]
        term: dict[Monomial, RationalLike] = {}
        for m, c in root._terms(True, mono):
            for j, a in axes:
                e = m[j]
                if e:
                    d = _shifted(m, j, e - 1)
                    term[d] = term.get(d, 0) + c * a * e
        derivative = {_shifted(mono, j, mono[j] - 1): a * mono[j] for j, a in axes if mono[j]}
        if derivative:
            term = {m: v for m, v in term.items() if v}
            for m, v in Poly._raw(ctx.dim, derivative).divided_difference(root).terms.items():
                term[m] = term.get(m, 0) + v
        for m, v in term.items():
            if v:
                out[m] = out.get(m, 0) + k * v
    return _reduced_entry(ctx, scale, [out])


def _reduced_entry(ctx: DunklContext, scale: int, images: list[dict[Monomial, RationalLike]]) -> Entry:
    """The entry of images whose values are ``scale`` times the true coefficients, zero terms dropped.

    It is reduced as by :func:`over_one_denominator` of the true coefficients,
    and each monomial is the context's shared instance (see :class:`ContextTables`).
    """
    images = [{m: v for m, v in image.items() if v} for image in images]
    den, nums = over_one_denominator([v for image in images for v in image.values()])
    g = math.gcd(den * scale, *nums)
    shared = ctx.tables.shared
    numerators = iter(nums)
    return den * scale // g, tuple(
        tuple(t for m in image for t in (shared.setdefault(m, m), next(numerators) // g))
        for image in images
    )


def _shifted(mono: Monomial, i: int, e: int) -> Monomial:
    """mono with its i-th exponent set to e."""
    return mono[:i] + (e,) + mono[i + 1:]


def _step(
    ctx: DunklContext, form: Form, table: dict[Monomial, Entry], build: Builder, weights: Sequence[tuple[int, int]],
) -> Form:
    """One step of a composition: the kernel :func:`_image_sum` on form, reduced by one gcd, zeros dropped."""
    den, out = _image_sum(ctx, form, table, build, weights)
    g = math.gcd(den, *out.values())
    return den // g, {m: v // g for m, v in out.items() if v}


def _laplacian_powers(ctx: DunklContext, p: Poly) -> Iterator[Form]:
    """p, Lap p, Lap^2 p, ... up to the last nonzero power, each a reduced Form computed when it is read.

    Each step is one :func:`_step` on the Laplacian table.  Lap lowers the
    degree by 2, so for p of degree n the sequence ends by Lap^(n // 2) p; a
    power of degree < 2 ends it without another Laplacian, and a zero p
    yields nothing.
    """
    form = p._form()
    while form[1]:
        yield form
        if max(map(sum, form[1])) < 2:
            return
        form = _step(ctx, form, ctx.tables.laplacian, _monomial_image, ((0, 1),))


def apply_operator_poly(ctx: DunklContext, q: Poly, p: Poly) -> Poly:
    """Substitute the coordinate Dunkl operators into q and apply to p.

    Each monomial x^beta of q acts as the product of the per-axis operators;
    the operators commute, so the fixed ascending axis order is immaterial
    (and that commutation is itself a verified property).  p is split once,
    each axis step is one :func:`_step` on the axis table, and the images
    are summed by ``polyring._radial_ints`` into the one ``Poly`` returned.
    """
    ctx.check_dim(q)
    ctx.check_dim(p)
    form = p._form()
    images = []
    for mono, coeff in q.terms.items():
        image = form
        for j in (j for j, e in enumerate(mono) for _ in range(e)):
            image = _step(ctx, image, ctx.tables.axis, _monomial_axes, ((j, 1),))
        images.append((0, coeff, image))
    return Poly._over(ctx.dim, *_radial_ints(images))


def pairing(ctx: DunklContext, p: Poly, q: Poly) -> Fraction:
    """The bilinear form (p(D) q)(0): symmetric, and zero across degrees."""
    return apply_operator_poly(ctx, p, q).constant_term()
