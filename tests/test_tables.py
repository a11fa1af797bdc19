"""The per-context monomial tables behind ``laplacian``, ``dunkl_apply`` and ``sphere_integrate``.

A missing Laplacian or Dunkl-operator image is built from divided
differences of the monomial, which take a closed form when the root's
reflection is a signed permutation; every such image is checked here
against the defining formula with the divided difference taken as a plain
quotient, and its stored tuple against the same miss path summed in Poly
and Fraction arithmetic, term order included.  A Laplacian miss whose
monomial has an orbit-mate is instead the mate's entry reflected, and it is
checked against the same two references, its terms in the mate's order; so
are the V columns reflected the same way, against a solve of every column.
A dense root, whose reflection is not a signed permutation, is also checked
against the plain substitution and division of ``dense_roots``.  The
moments are built by a recurrence over the Laplacian images and checked
against the iterated-Laplacian definition.  The remaining tests pin down
that the tables are reused.
"""

import math
from fractions import Fraction

import pytest

from dense_roots import divide_by_linear, rotated_b2_plus_a2, rotated_b3, substitute_linear
from dunkl_harmonics import (
    DunklContext,
    Poly,
    _linalg,
    dirichlet_monomial,
    dunkl,
    dunkl_apply,
    dunkl_axis,
    h_harmonic_basis,
    intertwine,
    intertwiner_apply,
    laplacian,
    make_context,
    monomials_of_degree,
    pochhammer,
    reflection_matrix,
    sphere_integrate,
)
from dunkl_harmonics.polyring import over_one_denominator


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
    # a2 conjugated by diag(1, -1, 1): its swaps flip signs, and no sign change is in the group,
    # so an orbit-mate's sign does not cancel against those of the reflected terms
    "a2-signed": DunklContext(3, ((1, 1, 0), (1, 0, -1), (0, 1, 1)), (0, 0, 0), (F(1, 3),)),
    "b3-zero-orbit": make_context("b", 3, [0, F(3, 2)]),
    "b3-two-denominators": make_context("b", 3, [F(1, 2), F(2, 3)]),
    "b3-rotated": rotated_b3(),
}

# the highest degree the per-monomial checks reach: 8, and 7 on b3-rotated,
# whose eight dense roots make degree 8 cost about two seconds a test
TOP_DEGREE = {"b3-rotated": 7}
DENSE = sorted(name for name, ctx in CONTEXTS.items() if any(root.perm is None for root in ctx.positive_roots))


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


def stored_poly(dim, den, flat):
    """The polynomial of a stored image: terms n_i / den x^m_i, flat as m1, n1, m2, n2, ...

    The stored form is reduced: den is a positive int, every numerator is a
    nonzero int, no monomial repeats, and den and the numerators have gcd 1."""
    monos, nums = flat[::2], flat[1::2]
    assert type(den) is int and den > 0
    assert all(type(n) is int and n for n in nums)
    assert len(set(monos)) == len(monos) and len(monos) + len(nums) == len(flat)
    return Poly(dim, {m: Fraction(n, den) for m, n in zip(monos, nums)})


def assert_reduced(den, flats):
    assert math.gcd(den, *(n for flat in flats for n in flat[1::2])) == 1


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_miss_path_matches_the_closed_form(name):
    ctx = CONTEXTS[name]
    reflected = 0
    for n in range(TOP_DEGREE.get(name, 8) + 1):
        for mono in monomials_of_degree(ctx.dim, n):
            p = Poly.monomial(ctx.dim, mono)
            den, (image,) = entry = dunkl._monomial_image(ctx, mono)
            assert_reduced(den, [image])
            assert stored_poly(ctx.dim, den, image) == closed_form(ctx, p), mono
            reference = fraction_image(ctx, mono)
            if ctx._orbit_mate(mono) is None:
                # a representative's int sums store the very entry of the Fraction sums, term order included
                assert entry == reference, mono
            else:
                # a reflected entry holds the same terms over the same denominator, in its mate's order
                reflected += 1
                ref_den, (ref_image,) = reference
                assert den == ref_den and pairs(image) == pairs(ref_image), mono
    # every context with a swapping signed-permutation root reflects some entry
    assert bool(reflected) == bool(ctx._swaps)


def pairs(flat):
    """The set of (monomial, numerator) pairs of a flat image m1, n1, m2, n2, ..."""
    terms = iter(flat)
    return set(zip(terms, terms))


@pytest.mark.parametrize("name", DENSE)
def test_dense_rule_matches_substitution_and_division(name):
    # every dense root's two tables against the tests' plain substitution and division
    ctx = CONTEXTS[name]
    for root in ctx.positive_roots:
        if root.perm is not None:
            continue
        for n in range(TOP_DEGREE.get(name, 8) + 1):
            for mono in monomials_of_degree(ctx.dim, n):
                x = Poly.monomial(ctx.dim, mono)
                image = substitute_linear(x, root.matrix)
                assert x.reflect(root) == image, (root, mono)
                assert x.divided_difference(root) == divide_by_linear(x - image, root), (root, mono)


def fraction_image(ctx, mono):
    """Lap x^mono as stored, summed in Poly and Fraction arithmetic with kappa
    applied per term: the table's one-image entry, term order included."""
    x = Poly.monomial(ctx.dim, mono)
    out = {}
    for i, e in enumerate(mono):
        if e > 1:
            out[mono[:i] + (e - 2,) + mono[i + 1:]] = e * (e - 1)
    for root, kappa in ctx.active_roots:
        alpha = tuple(a.numerator if a.denominator == 1 else a for a in root)
        term = dict(poly_derivative(x.divided_difference(root), alpha).terms)
        for m, v in poly_derivative(x, alpha).divided_difference(root).terms.items():
            term[m] = term.get(m, 0) + v
        for m, v in term.items():
            if v:
                out[m] = out.get(m, 0) + kappa * v
    out = {m: v for m, v in out.items() if v}
    den, nums = over_one_denominator(out.values())
    return den, (tuple(t for m, n in zip(out, nums) for t in (m, n)),)


def fraction_axes(ctx, mono):
    """D_1 x^mono, ..., D_d x^mono as stored, summed in Poly and Fraction
    arithmetic with kappa applied per term, term order included."""
    x = Poly.monomial(ctx.dim, mono)
    out = [{} for _ in mono]
    for j, e in enumerate(mono):
        if e:
            out[j][mono[:j] + (e - 1,) + mono[j + 1:]] = e
    for root, kappa in ctx.active_roots:
        quotient = x.divided_difference(root).terms
        for j, a in enumerate(root):
            if a:
                for m, v in quotient.items():
                    out[j][m] = out[j].get(m, 0) + kappa * a * v
    out = [{m: v for m, v in image.items() if v} for image in out]
    den, nums = over_one_denominator([v for image in out for v in image.values()])
    numerators = iter(nums)
    return den, tuple(tuple(t for m in image for t in (m, next(numerators))) for image in out)


def poly_derivative(p, alpha):
    out = {}
    for mono, c in p.terms.items():
        for j, a in enumerate(alpha):
            e = mono[j]
            if a and e:
                m = mono[:j] + (e - 1,) + mono[j + 1:]
                out[m] = out.get(m, 0) + c * a * e
    return Poly(p.dim, {m: v for m, v in out.items() if v})


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
    for n in range(TOP_DEGREE.get(name, 8) + 1):
        for mono in monomials_of_degree(ctx.dim, n):
            p = Poly.monomial(ctx.dim, mono)
            den, images = dunkl._monomial_axes(ctx, mono)
            assert len(images) == ctx.dim
            assert_reduced(den, images)
            for j, flat in enumerate(images):
                assert stored_poly(ctx.dim, den, flat) == axis_reference(ctx, j, p), (mono, j)
            assert (den, images) == fraction_axes(ctx, mono), mono


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_stored_images_are_reduced(name):
    ctx = CONTEXTS[name]
    for n in range(7):
        p = Poly(ctx.dim, {mono: 1 for mono in monomials_of_degree(ctx.dim, n)})
        laplacian(ctx, p)
        dunkl_apply(ctx, [1] * ctx.dim, p)
    shared = ctx.tables.shared
    for den, images in [*ctx.tables.laplacian.values(), *ctx.tables.axis.values()]:
        for flat in images:
            stored_poly(ctx.dim, den, flat)
            # both tables store the context's one instance of each monomial
            assert all(shared.get(m) is m for m in flat[::2])
        assert_reduced(den, images)


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
    for n in range(TOP_DEGREE.get(name, 8) // 2 + 1):
        denominator = 4**n * math.factorial(n) * pochhammer(lam + 1, n)
        for mono in monomials_of_degree(ctx.dim, 2 * n):
            value = Poly.monomial(ctx.dim, mono)
            for _ in range(n):
                value = closed_form(ctx, value)
            assert sphere_integrate(ctx, Poly.monomial(ctx.dim, mono)) == (
                value.constant_term() / denominator
            ), mono


def _count_builds(monkeypatch, builder="_monomial_image"):
    built = []
    real = getattr(dunkl, builder)

    def counting(ctx, mono):
        built.append(mono)
        return real(ctx, mono)

    monkeypatch.setattr(dunkl, builder, counting)
    return built


def test_seen_monomials_build_no_image(monkeypatch):
    built = _count_builds(monkeypatch)
    ctx = make_context("b", 3, [F(1, 2), F(3, 2)])
    p = Poly(3, {(4, 2, 0): 3, (1, 1, 4): F(-1, 2), (0, 0, 6): 1})
    first = laplacian(ctx, p)
    # (1, 1, 4) and (0, 0, 6) are reflected copies of their orbits' representatives
    assert sorted(built) == sorted([*p.terms, (4, 1, 1), (6, 0, 0)])
    built.clear()
    assert laplacian(ctx, p * 5) == first * 5
    assert laplacian(ctx, Poly.monomial(3, (1, 1, 4))) == closed_form(ctx, Poly.monomial(3, (1, 1, 4)))
    assert built == []


def test_basis_builds_each_image_once(monkeypatch):
    built = _count_builds(monkeypatch)
    ctx = make_context("d", 4, [F(2, 3)])
    h_harmonic_basis(ctx, 5)
    assert sorted(built) == sorted(monomials_of_degree(4, 5))


def test_basis_takes_the_closed_form_once_per_orbit(monkeypatch):
    closed = _count_builds(monkeypatch, "_closed_form_image")
    h_harmonic_basis(make_context("d", 4, [F(2, 3)]), 5)
    # the representatives on d4: the partitions of 5 into at most 4 parts
    assert sorted(closed) == [(2, 1, 1, 1), (2, 2, 1, 0), (3, 1, 1, 0), (3, 2, 0, 0), (4, 1, 0, 0), (5, 0, 0, 0)]
    closed.clear()
    # z2^4 has no swapping root, so every monomial is its own orbit
    h_harmonic_basis(make_context("z2", 4, [F(1, 2), F(1, 3), 1, F(2, 3)]), 5)
    assert sorted(closed) == sorted(monomials_of_degree(4, 5))


def all_columns_degree(ctx, n, lower):
    """V on the degree-n monomials with every column of [T | R] solved, none reflected.

    The reference for the V build: the same Euler system
    T V x^b = sum_j b_j x_j V x^(b - e_j), T = n + sum_a kappa_a (1 - r_a),
    in Fractions, with T from plain substitution into the reflection matrices."""
    monos = monomials_of_degree(ctx.dim, n)
    index = {m: i for i, m in enumerate(monos)}
    t = [[F(0)] * len(monos) for _ in monos]
    r = [[F(0)] * len(monos) for _ in monos]
    for col, mono in enumerate(monos):
        t[col][col] += n
        for root, kappa in ctx.active_roots:
            t[col][col] += kappa
            for m, c in substitute_linear(Poly.monomial(ctx.dim, mono), root.matrix).terms.items():
                t[index[m]][col] -= kappa * c
        for j, e in enumerate(mono):
            if e:
                below = mono[:j] + (e - 1,) + mono[j + 1:]
                for m, c in lower[below].terms.items():
                    r[index[m[:j] + (m[j] + 1,) + m[j + 1:]]][col] += e * c
    x = _linalg.solve_unique(t, r)
    return {mono: Poly(ctx.dim, {m: row[col] for m, row in zip(monos, x)}) for col, mono in enumerate(monos)}


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_reflected_v_columns_match_an_all_columns_solve(name):
    ctx = CONTEXTS[name]
    lower = {(0,) * ctx.dim: Poly.const(ctx.dim, 1)}
    for n in range(1, 6):
        reference = all_columns_degree(ctx, n, lower)
        table = intertwine._intertwiner_table(ctx, n)
        assert {mono: Poly._over(ctx.dim, *form) for mono, form in table.items()} == reference, n
        lower = reference


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_v_table_holds_reduced_forms(name):
    # every stored image n_i / den x^m_i is reduced, and an orbit-mate's
    # reflection keeps its mate's denominator, a bijection of its terms
    ctx = CONTEXTS[name]
    for n in range(6):
        table = intertwine._intertwiner_table(ctx, n)
        assert list(table) == list(monomials_of_degree(ctx.dim, n))
        for mono, (den, nums) in table.items():
            assert type(den) is int and den > 0 and nums
            assert all(type(v) is int and v for v in nums.values())
            assert math.gcd(den, *nums.values()) == 1
            mate = ctx._orbit_mate(mono)
            if mate is not None:
                _, m, _ = mate
                assert den == table[m][0]
                assert sorted(map(abs, nums.values())) == sorted(map(abs, table[m][1].values()))


def test_reducible_context_mixes_dense_and_swapping_roots():
    ctx = rotated_b2_plus_a2()
    assert {root.perm is None for root in ctx.positive_roots} == {True, False} and ctx._swaps
    # ascending lex order, so a miss walks its whole chain of mates down to the representative
    for n in range(7):
        for mono in reversed(monomials_of_degree(ctx.dim, n)):
            p = Poly.monomial(ctx.dim, mono)
            assert laplacian(ctx, p) == closed_form(ctx, p), mono
    for n in range(5):
        for mono in monomials_of_degree(ctx.dim, n):
            p = Poly.monomial(ctx.dim, mono)
            vp = intertwiner_apply(ctx, p)
            for j in range(1, ctx.dim + 1):
                assert dunkl_axis(ctx, j, vp) == intertwiner_apply(ctx, p.partial(j)), (mono, j)


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
