"""The per-context monomial tables behind ``laplacian``, ``dunkl_apply`` and ``sphere_integrate``.

A missing Laplacian or Dunkl-operator image is built from divided
differences of the monomial, which take a closed form when the root's
reflection is a signed permutation; every such image is checked here
against the defining formula with the divided difference taken as a plain
quotient.  The moments are built by a recurrence over the Laplacian images
and checked against the iterated-Laplacian definition.  The remaining tests
pin down that the tables are reused.
"""

import math
from fractions import Fraction

import pytest

from dunkl_harmonics import (
    DunklContext,
    Poly,
    dirichlet_monomial,
    dunkl,
    dunkl_apply,
    h_harmonic_basis,
    laplacian,
    make_context,
    monomials_of_degree,
    pochhammer,
    reflection_matrix,
    sphere_integrate,
)
from dunkl_harmonics.polyring import divide_by_linear


def F(a, b=1):
    return Fraction(a, b)


CONTEXTS = {
    "z2^3": make_context("z2", 3, [1, F(1, 2), F(2, 3)]),
    "a2": make_context("a", 3, [F(1, 3)]),
    "b3": make_context("b", 3, [F(1, 2), F(3, 2)]),
    "d4": make_context("d", 4, [F(2, 3)]),
    "b4": make_context("b", 4, [F(1, 2), F(3, 2)]),
    "b2-scaled": DunklContext(  # the short roots of b2 rescaled by 2
        2,
        ((F(2), F(0)), (F(0), F(2)), (F(1), F(1)), (F(1), F(-1))),
        (0, 0, 1, 1),
        (F(1, 2), F(3, 4)),
    ),
    "dense": DunklContext(2, ((F(1), F(2)), (F(2), F(-1))), (0, 1), (F(1, 2), F(3, 4))),
}


def closed_form(ctx, p):
    """Lap p = Delta p + sum over roots of
    kappa (2 <grad p, alpha> - |alpha|^2 (p - p(r_alpha x)) / <alpha, x>) / <alpha, x>,
    with (p - p(r_alpha x)) / <alpha, x> as a plain quotient: the reference
    for every table entry."""
    grad = [p.partial(j + 1) for j in range(ctx.dim)]
    out = Poly.zero(ctx.dim)
    for j, g in enumerate(grad):
        out = out + g.partial(j + 1)
    for root, kappa in ctx.active_roots:
        numer = divide_by_linear(p - p.reflect(root), root) * -sum(a * a for a in root)
        for a, g in zip(root, grad):
            if a:
                numer = numer + g * (2 * a)
        out = out + divide_by_linear(numer, root) * kappa
    return out


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_miss_path_matches_the_closed_form(name):
    ctx = CONTEXTS[name]
    for n in range(9):
        for mono in monomials_of_degree(ctx.dim, n):
            p = Poly.monomial(ctx.dim, mono)
            image = dunkl._monomial_image(ctx, mono)
            assert all(isinstance(v, Fraction) for v in image.values()), mono
            assert Poly(ctx.dim, image) == closed_form(ctx, p), mono


def axis_reference(ctx, j, p):
    """D_j p = d_j p + sum over roots of kappa alpha_j (p - p(r_alpha x)) / <alpha, x>,
    with the quotient taken by plain division: the reference for the axis table."""
    out = p.partial(j + 1)
    for root, kappa in ctx.active_roots:
        if root[j]:
            out = out + divide_by_linear(p - p.reflect(root), root) * (kappa * root[j])
    return out


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_axis_miss_path_matches_the_definition(name):
    ctx = CONTEXTS[name]
    for n in range(9):
        for mono in monomials_of_degree(ctx.dim, n):
            p = Poly.monomial(ctx.dim, mono)
            images = dunkl._monomial_axes(ctx, mono)
            assert len(images) == ctx.dim
            for j, flat in enumerate(images):
                image = dict(zip(flat[::2], flat[1::2]))
                assert len(image) * 2 == len(flat), (mono, j)
                assert all(isinstance(v, Fraction) for v in image.values()), (mono, j)
                assert Poly(ctx.dim, image) == axis_reference(ctx, j, p), (mono, j)


def test_seen_monomials_take_no_divided_difference(monkeypatch):
    ctx = make_context("d", 4, [F(2, 3)])
    p = Poly(4, {(4, 2, 0, 1): 3, (1, 1, 4, 1): F(-1, 2), (0, 0, 6, 1): 1, (7, 0, 0, 0): F(5, 3)})
    first = dunkl_apply(ctx, [1, -2, 0, F(1, 3)], p)
    assert set(ctx.tables.axis) == set(p.terms)
    taken = []
    real = Poly.divided_difference

    def counted(self, alpha):
        taken.append(alpha)
        return real(self, alpha)

    monkeypatch.setattr(Poly, "divided_difference", counted)
    assert dunkl_apply(ctx, [2, -4, 0, F(2, 3)], p) == first * 2
    q = Poly(4, {m: c for m, c in p.terms.items() if m != (7, 0, 0, 0)})
    assert dunkl_apply(ctx, [0, 0, 1, 0], q) == axis_reference(ctx, 2, q)
    assert taken == []


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_moment_recurrence_matches_the_definition(name):
    ctx = CONTEXTS[name]
    lam = ctx.lambda_kappa
    for n in range(5):
        denominator = 4**n * math.factorial(n) * pochhammer(lam + 1, n)
        for mono in monomials_of_degree(ctx.dim, 2 * n):
            value = Poly.monomial(ctx.dim, mono)
            for _ in range(n):
                value = closed_form(ctx, value)
            assert sphere_integrate(ctx, Poly.monomial(ctx.dim, mono)) == (
                value.constant_term() / denominator
            ), mono


def _count_builds(monkeypatch):
    built = []
    real = dunkl._monomial_image

    def counting(ctx, mono):
        built.append(mono)
        return real(ctx, mono)

    monkeypatch.setattr(dunkl, "_monomial_image", counting)
    return built


def test_seen_monomials_build_no_image(monkeypatch):
    built = _count_builds(monkeypatch)
    ctx = make_context("b", 3, [F(1, 2), F(3, 2)])
    p = Poly(3, {(4, 2, 0): 3, (1, 1, 4): F(-1, 2), (0, 0, 6): 1})
    first = laplacian(ctx, p)
    assert sorted(built) == sorted(p.terms)
    built.clear()
    assert laplacian(ctx, p * 5) == first * 5
    assert laplacian(ctx, Poly.monomial(3, (1, 1, 4))) == closed_form(ctx, Poly.monomial(3, (1, 1, 4)))
    assert built == []


def test_basis_builds_each_image_once(monkeypatch):
    built = _count_builds(monkeypatch)
    ctx = make_context("d", 4, [F(2, 3)])
    h_harmonic_basis(ctx, 5)
    assert sorted(built) == sorted(monomials_of_degree(4, 5))


def test_deep_moment_chain_is_iterative():
    ctx = make_context("z2", 2, [F(1, 2), F(1, 3)])
    value = sphere_integrate(ctx, Poly.monomial(2, (2400, 0)))
    assert value == dirichlet_monomial(ctx, (1200, 0))


def test_int_roots_are_stored_exact_and_leave_the_reflection_cache_exact():
    # each context converts its own roots, and an int root equals the
    # Fraction root of the same values, so both systems must store the same
    # exact roots and reflections; these reflections are exact even in floats
    int_roots = ((1, 1, 1, 1), (1, -1, 1, -1))
    frac_roots = tuple(tuple(F(v) for v in root) for root in int_roots)
    int_ctx = DunklContext(4, int_roots, (0, 1), (1, 2))
    frac_ctx = DunklContext(4, frac_roots, (0, 1), (F(1, 2), F(3, 4)))
    for ctx in (int_ctx, frac_ctx):
        assert all(type(v) is Fraction for root in ctx.positive_roots for v in root)
        assert all(type(k) is Fraction for k in ctx.kappa_by_orbit)
        for root in frac_roots:
            assert all(type(v) is Fraction for row in reflection_matrix(ctx, root) for v in row)
        for degree in range(1, 5):
            for mono in monomials_of_degree(4, degree):
                p = Poly.monomial(4, mono)
                assert laplacian(ctx, p) == closed_form(ctx, p)
    with pytest.raises(ValueError, match="exact"):
        DunklContext(2, ((1.0, 2.0), (2, -1)), (0, 1), (1, 1))
    with pytest.raises(ValueError, match="exact"):
        DunklContext(2, int_roots, (0, 1), (0.5, 1))
