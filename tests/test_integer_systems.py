"""The cold-path systems built in integers against their Fraction-matrix fill.

``intertwine._build_degree`` fills the V system [T | R] in Python ints over
one denominator from the int forms one degree lower and stores int forms,
and ``h_harmonic_basis`` reads its matrix straight from the Laplacian table
as ints and writes its kernel vectors in ints from ``rref``'s pivot rows.
The references below fill the same systems as dense Fraction matrices, term
by term from ``Poly.reflect`` and ``laplacian``, and solve them with
``_linalg``; the basis reference takes the kernel by the test-local
:func:`nullspace`, the second route for the basis, and scales each kernel
vector to its primitive form by Fraction products.  The V forms are compared
through their ``Poly`` view, and the two routes must agree by ``==``.  The
contexts cover a zero orbit, mixed kappa denominators and a dense root pair
whose reflection images have Fraction coefficients.
"""

import math
from fractions import Fraction

import pytest

from dunkl_harmonics import DunklContext, Poly, h_harmonic_basis, laplacian, make_context, monomials_of_degree
from dunkl_harmonics import _linalg, intertwine


def F(a, b=1):
    return Fraction(a, b)


CONTEXTS = {
    "z2^3 with a zero orbit": lambda: make_context("z2", 3, [F(1, 2), 0, F(2, 3)]),
    "a2": lambda: make_context("a", 3, [F(1, 3)]),
    "b3 mixed denominators": lambda: make_context("b", 3, [F(1, 2), F(2, 3)]),
    "d4": lambda: make_context("d", 4, [F(2, 3)]),
    # the reflections of the roots (1, 2) and (2, -1) take the dense path
    "skew": lambda: DunklContext(2, ((F(1), F(2)), (F(2), F(-1))), (0, 1), (F(1, 3), F(2))),
}


def fraction_build_degree(ctx, n, lower):
    """V on the degree-n monomials from dense Fraction matrices T and R."""
    monos = monomials_of_degree(ctx.dim, n)
    index = {m: i for i, m in enumerate(monos)}
    shift = n + sum(kappa for _, kappa in ctx.active_roots)
    t = [[Fraction(0)] * len(monos) for _ in monos]
    r = [[Fraction(0)] * len(monos) for _ in monos]
    for col, mono in enumerate(monos):
        t[col][col] += shift
        unit = Poly.monomial(ctx.dim, mono)
        for root, kappa in ctx.active_roots:
            for m, c in unit.reflect(root).terms.items():
                t[index[m]][col] -= kappa * c
        for j, e in enumerate(mono):
            if e:
                for m, c in lower[mono[:j] + (e - 1,) + mono[j + 1:]].terms.items():
                    r[index[m[:j] + (m[j] + 1,) + m[j + 1:]]][col] += c * e
    return {mono: Poly(ctx.dim, {monos[i]: Fraction(v, den) for i, v in nums.items()})
            for mono, (den, nums) in zip(monos, _linalg.solve_unique(t, r))}


def nullspace(matrix, ncols):
    """Basis of the right kernel, one vector per free column, in column order, from ``rref``."""
    reduced, pivots = _linalg.rref(matrix)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -Fraction(row[f], row[p])
        basis.append(vec)
    return basis


def primitive(p):
    """Clear denominators, divide by the content, make the leading term positive, in Fractions."""
    if p.is_zero:
        return p
    denom_lcm = 1
    for c in p.terms.values():
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    nums = [c.numerator * (denom_lcm // c.denominator) for c in p.terms.values()]
    content = 0
    for v in nums:
        content = math.gcd(content, v)
    scale = Fraction(denom_lcm, content)
    lead = max(p.terms, key=lambda m: (sum(m), m))
    if p.terms[lead] < 0:
        scale = -scale
    return p * scale


def fraction_basis(ctx, n):
    """The kernel of the Laplacian on degree n from a Fraction matrix of ``laplacian`` images."""
    monos = monomials_of_degree(ctx.dim, n)
    if n < 2:
        return [Poly.monomial(ctx.dim, m) for m in monos]
    index = {m: i for i, m in enumerate(monomials_of_degree(ctx.dim, n - 2))}
    matrix = [[Fraction(0)] * len(monos) for _ in index]
    for col, mono in enumerate(monos):
        for m, c in laplacian(ctx, Poly.monomial(ctx.dim, mono)).terms.items():
            matrix[index[m]][col] = c
    return [primitive(Poly(ctx.dim, dict(zip(monos, vec)))) for vec in nullspace(matrix, len(monos))]


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_build_degree_matches_the_fraction_fill(name):
    ctx = CONTEXTS[name]()
    forms = {(0,) * ctx.dim: (1, {(0,) * ctx.dim: 1})}
    lower = {(0,) * ctx.dim: Poly.const(ctx.dim, 1)}
    for n in range(1, 7):
        forms = intertwine._build_degree(ctx, n, forms)
        lower = fraction_build_degree(ctx, n, lower)
        assert {mono: Poly._over(ctx.dim, *form) for mono, form in forms.items()} == lower, n
        assert all(type(den) is int and all(type(v) is int for v in nums.values()) for den, nums in forms.values())


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_basis_matches_the_fraction_matrix(name):
    ctx = CONTEXTS[name]()
    for n in range(9):
        got = h_harmonic_basis(ctx, n)
        assert got == fraction_basis(ctx, n), n
        assert all(type(c) is Fraction for q in got for c in q.terms.values())


@pytest.mark.parametrize("args", [("d", 4, [F(2, 3)]), ("b", 3, [F(1, 2), F(2, 3)]), ("z2", 3, [F(1, 2), 0, F(2, 3)])])
def test_v_build_constructs_no_fraction(monkeypatch, args):
    # the solver hands back int forms, so a catalog context's V table is built in ints throughout
    ctx = make_context(*args)
    built = []
    real = Fraction.__new__

    def counting(cls, *a, **k):
        built.append(a)
        return real(cls, *a, **k)

    monkeypatch.setattr(Fraction, "__new__", counting)
    table = intertwine._intertwiner_table(ctx, 5)
    monkeypatch.undo()
    assert built == []
    assert len(table) == len(monomials_of_degree(ctx.dim, 5))
