import math
import random
from fractions import Fraction

import pytest

from dunkl_harmonics import (
    DunklContext,
    Poly,
    apply_operator_poly,
    dunkl_apply,
    h_harmonic_basis,
    laplacian,
    make_context,
    pairing,
    parse,
    pochhammer,
    sphere_integrate,
)
from dunkl_harmonics import dunkl
from dunkl_harmonics.verify import random_poly


def F(a, b=1):
    return Fraction(a, b)


class TestDunklApply:
    def test_linear_coordinate(self, z2_2):
        # derivative contributes 1, the sign-flip difference contributes 2 kappa_1
        out = dunkl_apply(z2_2, [1, 0], parse("x1", 2))
        assert out == Poly.const(2, 1 + 2 * F(1, 2))

    def test_invariant_coordinate(self, z2_3):
        assert dunkl_apply(z2_3, [1, 0, 0], parse("x2", 3)).is_zero

    def test_kappa_zero_is_partial(self, z2_2_zero):
        assert dunkl_apply(z2_2_zero, [1, 0], parse("x1^3", 2)) == parse("3*x1^2", 2)

    def test_degree_drop(self, rng, b2):
        for n in range(1, 6):
            p = random_poly(rng, 2, n, homogeneous=True)
            out = dunkl_apply(b2, [1, 2], p)
            assert out.is_zero or (out.is_homogeneous() and out.degree() == n - 1)

    def test_degree_zero_killed(self, a2):
        assert dunkl_apply(a2, [1, 0, 0], Poly.const(3, 5)).is_zero

    def test_zero_direction_rejected(self, z2_2):
        with pytest.raises(ValueError):
            dunkl_apply(z2_2, [0, 0], parse("x1", 2))

    def test_dimension_mismatch(self, z2_2):
        with pytest.raises(ValueError):
            dunkl_apply(z2_2, [1, 0], parse("x1", 3))


class TestLaplacian:
    def test_constant(self, b2):
        assert laplacian(b2, Poly.const(2, 1)).is_zero

    def test_norm_squared(self, nonzero_corpus, z2_2_zero):
        # Lap |x|^2 = 2d + 4 sum(kappa) = 4 (lambda + 1), by hand expansion
        for ctx in list(nonzero_corpus) + [z2_2_zero]:
            value = laplacian(ctx, Poly.norm_squared(ctx.dim))
            assert value == Poly.const(ctx.dim, 4 * (ctx.lambda_kappa + 1))

    def test_classical_harmonic(self, z2_2_zero):
        assert laplacian(z2_2_zero, parse("x1^2 - x2^2", 2)).is_zero

    def test_degree_drop_by_two(self, rng, d3):
        p = random_poly(rng, 3, 5, homogeneous=True)
        out = laplacian(d3, p)
        assert out.is_zero or out.degree() == 3


    def test_powers_end_at_the_last_nonzero_one(self, rng, b2):
        # each power is an int form: den > 0, no zero numerator, reduced by one gcd
        p = random_poly(rng, 2, 5, max_terms=8)
        forms = list(dunkl._laplacian_powers(b2, p))
        for den, terms in forms:
            assert den > 0 and all(terms.values()) and math.gcd(den, *terms.values()) == 1
        powers = [Poly._over(2, den, terms) for den, terms in forms]
        assert powers[0] == p and len(powers) <= 3 and not powers[-1].is_zero
        for lower, upper in zip(powers[1:], powers):
            assert lower == laplacian(b2, upper)
        assert laplacian(b2, powers[-1]).is_zero
        harmonic = parse("x1*x2", 2)
        assert list(dunkl._laplacian_powers(b2, harmonic)) == [(1, {(1, 1): 1})]
        assert list(dunkl._laplacian_powers(b2, Poly.zero(2))) == []


class TestOperatorSubstitution:
    def test_constant_operator(self, rng, z2_3):
        p = random_poly(rng, 3, 4)
        assert apply_operator_poly(z2_3, Poly.const(3, 1), p) == p

    def test_norm_squared_is_laplacian(self, rng, nonzero_corpus, d3):
        # the reflections of the roots (1, 2) and (2, -1) are not signed
        # permutations, so that system takes the dense reflection path
        skew = DunklContext(2, ((F(1), F(2)), (F(2), F(-1))), (0, 1), (F(1, 2), F(3, 4)))
        cases = [(ctx, 5) for ctx in nonzero_corpus] + [(d3, 8), (skew, 8)]
        for ctx, degree in cases:
            p = random_poly(rng, ctx.dim, degree)
            assert apply_operator_poly(ctx, Poly.norm_squared(ctx.dim), p) == laplacian(ctx, p)

    def test_single_axis(self, z2_2):
        out = apply_operator_poly(z2_2, parse("x1", 2), parse("x1*x2", 2))
        assert out == parse("2*x2", 2)  # (1 + 2 kappa_1) x2

    def test_one_crossing_and_one_kernel_call_per_axis_step(self, monkeypatch):
        # p becomes a Form once and the result a Poly once; in between, each
        # axis step of each monomial of q is one kernel call on the axis
        # table, with no dunkl_apply and so no Poly per step
        ctx = make_context("d", 4, [F(2, 3)])
        q = parse("x1*x2*x3 - 2*x4^3 + 3/2*x1^2*x4", 4)
        p = parse("x1^5*x2*x3 - 2*x1*x2^3*x3*x4^2 + 3/2*x1*x2*x3^5 + x4^4 + x1^3", 4)
        expected = Poly.zero(4)
        for mono, c in q.terms.items():
            image = p
            for j in (j for j, e in enumerate(mono) for _ in range(e)):
                image = dunkl.dunkl_axis(ctx, j + 1, image)
            expected = expected + image * c
        calls = []

        def counting(name, real):
            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted

        real_sum = dunkl._image_sum

        def kernel(ctx, form, table, *rest):
            calls.append("axis kernel" if table is ctx.tables.axis else "other kernel")
            return real_sum(ctx, form, table, *rest)

        monkeypatch.setattr(dunkl, "_image_sum", kernel)
        monkeypatch.setattr(dunkl, "dunkl_apply", counting("dunkl_apply", dunkl.dunkl_apply))
        monkeypatch.setattr(Poly, "_over", classmethod(counting("_over", Poly._over.__func__)))
        monkeypatch.setattr(Poly, "_form", counting("_form", Poly._form))
        got = apply_operator_poly(ctx, q, p)
        monkeypatch.undo()
        assert got == expected and not got.is_zero
        assert calls == ["_form"] + ["axis kernel"] * 9 + ["_over"]  # 3 monomials of degree 3


class TestPairing:
    def test_constants(self, a2):
        assert pairing(a2, Poly.const(3, 1), Poly.const(3, 1)) == 1

    def test_cross_term(self, z2_3):
        assert pairing(z2_3, parse("x1", 3), parse("x2", 3)) == 0

    def test_coordinate(self, z2_2):
        assert pairing(z2_2, parse("x1", 2), parse("x1", 2)) == 1 + 2 * F(1, 2)


def gaussian_pairing(ctx, p, q):
    """[p, q] by the Macdonald-Dunkl identity, with no Dunkl operator:
    the sum over j of 2^j (lam + 1)_j mu(f_2j), where f is the product of
    e^(-Lap/2) p and e^(-Lap/2) q, f_2j its degree-2j part and mu the
    normalized integral over the weighted sphere."""

    def heat(g):
        out, k = Poly.zero(ctx.dim), 0
        while not g.is_zero:
            out = out + g * (F(-1, 2) ** k / math.factorial(k))
            g, k = laplacian(ctx, g), k + 1
        return out

    total = Fraction(0)
    for degree, part in (heat(p) * heat(q)).homogeneous_parts():
        if degree % 2 == 0:
            j = degree // 2
            total += 2**j * pochhammer(ctx.lambda_kappa + 1, j) * sphere_integrate(ctx, part)
    return total


@pytest.mark.parametrize(
    "family,dim,kappa",
    [("z2", 3, [1, F(1, 2), F(2, 3)]), ("a", 3, [F(1, 3)]), ("b", 3, [F(1, 2), F(3, 2)]), ("d", 4, [F(2, 3)])],
    ids=["z2^3", "a2", "b3", "d4"],
)
def test_pairing_matches_the_macdonald_identity(family, dim, kappa):
    ctx = make_context(family, dim, kappa)
    rng = random.Random(f"macdonald:{family}{dim}")
    for _ in range(10):
        p, q = (random_poly(rng, dim, 6, homogeneous=True, max_terms=8) for _ in range(2))
        assert pairing(ctx, p, q) == gaussian_pairing(ctx, p, q)


# the integer kernels against a plain per-term Fraction sum of the same table images
KERNEL_CONTEXTS = {
    "z2^3": make_context("z2", 3, [1, F(1, 2), F(2, 3)]),
    "a2": make_context("a", 3, [F(1, 3)]),
    "b3": make_context("b", 3, [F(1, 2), F(3, 2)]),
    "d4": make_context("d", 4, [F(2, 3)]),
    # orthogonal roots with fractional entries, two of them with dense reflections
    "dense": DunklContext(
        3,
        ((F(1, 2), F(1), F(0)), (F(2, 3), F(-1, 3), F(0)), (F(0), F(0), F(1, 3))),
        (0, 1, 2),
        (F(1, 2), F(3, 4), F(2, 5)),
    ),
}


def image_terms(den, flat):
    """A stored image, flat as m1, n1, m2, n2, ... over den, as Fraction terms."""
    return {m: Fraction(n, den) for m, n in zip(flat[::2], flat[1::2])}


def per_term_sum(products):
    """The sum of c * v over (m, c, v), one Fraction multiply and add per term, zeros dropped."""
    out = {}
    for m, c, v in products:
        out[m] = out.get(m, 0) + c * v
    return {m: v for m, v in out.items() if v}


def laplacian_reference(ctx, p):
    products = []
    for mono, c in p.terms.items():
        den, (image,) = dunkl._entry(ctx, ctx.tables.laplacian, dunkl._monomial_image, mono)
        products += [(m, c, v) for m, v in image_terms(den, image).items()]
    return per_term_sum(products)


def dunkl_apply_reference(ctx, xi, p):
    products = []
    for mono, c in p.terms.items():
        den, images = dunkl._entry(ctx, ctx.tables.axis, dunkl._monomial_axes, mono)
        for x, image in zip(xi, images):
            products += [(m, c * x, v) for m, v in image_terms(den, image).items()]
    return per_term_sum(products)


def assert_exact_terms(result, expected):
    assert result.terms == expected
    assert all(type(v) is Fraction and v for v in result.terms.values())


def random_direction(rng, dim):
    xi = [0] * dim
    while not any(xi):
        xi = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim)]
    return xi


@pytest.mark.parametrize("name", sorted(KERNEL_CONTEXTS))
def test_kernels_match_the_per_term_fraction_sum(name):
    ctx = KERNEL_CONTEXTS[name]
    rng = random.Random(f"integer-kernels:{name}")
    for degree in range(9):
        for _ in range(3):
            p = random_poly(rng, ctx.dim, degree, max_terms=12)
            assert_exact_terms(laplacian(ctx, p), laplacian_reference(ctx, p))
            xi = random_direction(rng, ctx.dim)
            assert_exact_terms(dunkl_apply(ctx, xi, p), dunkl_apply_reference(ctx, xi, p))


@pytest.mark.parametrize("name", sorted(KERNEL_CONTEXTS))
def test_kernels_take_int_coefficient_values(name):
    # the miss paths build Polys whose values are ints, which the kernels accept as they are
    ctx = KERNEL_CONTEXTS[name]
    rng = random.Random(f"int-values:{name}")
    for degree in range(1, 7):
        p = random_poly(rng, ctx.dim, degree, max_terms=8)
        ints = Poly._raw(ctx.dim, {m: rng.choice((-3, -1, 1, 2, 5)) for m in p.terms})
        as_fractions = Poly(ctx.dim, ints.terms)
        assert_exact_terms(laplacian(ctx, ints), laplacian_reference(ctx, as_fractions))
        xi = random_direction(rng, ctx.dim)
        assert_exact_terms(dunkl_apply(ctx, xi, ints), dunkl_apply_reference(ctx, xi, as_fractions))


@pytest.mark.parametrize("name", sorted(KERNEL_CONTEXTS))
def test_kernels_drop_terms_that_cancel(name):
    ctx = KERNEL_CONTEXTS[name]
    rng = random.Random(f"cancel:{name}")
    for degree in range(2, 6):
        for h in h_harmonic_basis(ctx, degree):
            # the images of an h-harmonic's terms cancel to zero, and next to
            # another input they leave exactly that input's image
            assert laplacian(ctx, h).is_zero and laplacian_reference(ctx, h) == {}
            p = random_poly(rng, ctx.dim, degree, homogeneous=True)
            assert_exact_terms(laplacian(ctx, p + h), laplacian_reference(ctx, p))
    # D_(e1 - e2) of a degree-1 polynomial is a constant; swapping x1 and x2
    # leaves the group and x1 + x2 fixed, so the two axes cancel
    if ctx.family in ("a", "b", "d"):
        p = Poly(ctx.dim, {(1, 0) + (0,) * (ctx.dim - 2): F(3, 2), (0, 1) + (0,) * (ctx.dim - 2): F(3, 2)})
        xi = [1, -1] + [0] * (ctx.dim - 2)
        assert dunkl_apply(ctx, xi, p).is_zero and dunkl_apply_reference(ctx, xi, p) == {}
