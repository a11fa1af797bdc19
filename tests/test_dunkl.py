import math
import random
from fractions import Fraction

import pytest

from dunkl_harmonics import (
    DunklContext,
    Poly,
    apply_operator_poly,
    dunkl_apply,
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
        p = random_poly(rng, 2, 5, max_terms=8)
        powers = list(dunkl._laplacian_powers(b2, p))
        assert powers[0] == p and len(powers) <= 3 and not powers[-1].is_zero
        for lower, upper in zip(powers[1:], powers):
            assert lower == laplacian(b2, upper)
        assert laplacian(b2, powers[-1]).is_zero
        harmonic = parse("x1*x2", 2)
        assert list(dunkl._laplacian_powers(b2, harmonic)) == [harmonic]
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
