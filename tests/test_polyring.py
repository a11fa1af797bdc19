import math
import random
from fractions import Fraction

import pytest

from dense_roots import divide_by_linear, substitute_linear
from dunkl_harmonics import (
    Poly, PolyParseError, dunkl, format_poly, intertwine, make_context, monomials_of_degree, parse, pochhammer,
    polyring,
)
from dunkl_harmonics.verify import random_poly


def F(a, b=1):
    return Fraction(a, b)


class TestArithmetic:
    def test_additive_inverse(self):
        x1 = parse("x1", 2)
        assert (x1 + parse("-x1", 2)).is_zero

    def test_difference_of_squares(self):
        p = parse("x1+x2", 2) * parse("x1-x2", 2)
        assert p == parse("x1^2 - x2^2", 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            parse("x1", 2) + parse("x1", 3)

    def test_pow(self):
        p = parse("x1 + 1", 2)
        assert p**3 == p * p * p
        assert p**0 == Poly.const(2, 1)


class TestCalculus:
    def test_partial_product(self):
        assert parse("x1^2*x2", 2).partial(1) == parse("2*x1*x2", 2)

    def test_partial_absent_variable(self):
        assert parse("x1^2", 2).partial(2).is_zero

    def test_partial_power(self):
        assert parse("x1^3", 2).partial(1) == parse("3*x1^2", 2)

    def test_partial_out_of_range(self):
        with pytest.raises(ValueError):
            parse("x1", 2).partial(3)


class TestSubstitution:
    # the tests' linear substitution, the reference for dense reflections
    def test_identity(self):
        eye = [[1, 0], [0, 1]]
        assert substitute_linear(parse("x1", 2), eye) == parse("x1", 2)

    def test_even_power_sign_flip(self):
        m = [[-1, 0], [0, 1]]
        assert substitute_linear(parse("x1^2", 2), m) == parse("x1^2", 2)

    def test_swap_symmetry(self):
        swap = [[0, 1], [1, 0]]
        assert substitute_linear(parse("x1*x2", 2), swap) == parse("x1*x2", 2)

    def test_general_matrix(self):
        m = [[1, 1], [0, 1]]  # x1 -> x1 + x2
        assert substitute_linear(parse("x1^2", 2), m) == parse("x1^2 + 2*x1*x2 + x2^2", 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            substitute_linear(parse("x1", 2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_substitution_composes(self, rng):
        # p(M1 x) then x -> M2 x equals a single substitution by M1 M2
        m1 = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]
        m2 = [[0, -1, 0], [1, 0, 0], [0, 0, -1]]
        product = [
            [sum(F(m1[i][k]) * F(m2[k][j]) for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        for _ in range(5):
            p = random_poly(rng, 3, 4)
            assert substitute_linear(substitute_linear(p, m1), m2) == substitute_linear(p, product)


class TestDividedDifference:
    def test_even_in_pivot(self):
        e1 = [1, 0]
        assert parse("x1^2*x2", 2).divided_difference(e1).is_zero

    def test_cubic(self):
        # (x1^3 - (-x1)^3) / x1 = 2 x1^2, by hand
        assert parse("x1^3", 2).divided_difference([1, 0]) == parse("2*x1^2", 2)

    def test_invariant(self):
        assert parse("x2", 2).divided_difference([1, 0]).is_zero

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            parse("x1", 2).divided_difference([0, 0])

    def test_quotient_reconstructs(self, rng):
        alphas = [[1, 0, 0], [1, -1, 0], [1, 1, 0], [0, 1, -1], [2, 1, 3],
                  [-2, 0, 0], [3, 0, -3], [F(1, 2), F(1, 2), 0], [0, -1, 1]]
        for alpha in alphas:
            linear = Poly(3, {tuple(1 if i == j else 0 for i in range(3)): F(a)
                              for j, a in enumerate(alpha) if a})
            for _ in range(6):
                p = random_poly(rng, 3, 5)
                dd = p.divided_difference(alpha)
                assert dd * linear == p - p.reflect(alpha)

    def test_signed_permutation_roots_take_the_closed_form(self, rng, monkeypatch):
        alphas = [[1, 0, 0], [-2, 0, 0], [1, -1, 0], [3, 0, 3], [0, F(1, 2), F(-1, 2)]]
        cases = [(alpha, random_poly(rng, 3, 6)) for alpha in alphas for _ in range(4)]
        want = [divide_by_linear(p - p.reflect(alpha), alpha) for alpha, p in cases]

        def refuse(*args):
            raise AssertionError("a signed-permutation root took the dense rule")

        monkeypatch.setattr(polyring.Root, "_dense", refuse)
        monkeypatch.setattr(Poly, "reflect", refuse)
        assert [p.divided_difference(alpha) for alpha, p in cases] == want
        # the operator table misses and the V build read the same rule
        for ctx in (make_context("b", 3, [F(1, 2), F(2, 3)]), make_context("d", 4, [F(2, 3)])):
            for mono in (m for n in range(7) for m in monomials_of_degree(ctx.dim, n)):
                dunkl._monomial_image(ctx, mono)
                dunkl._monomial_axes(ctx, mono)
            intertwine._intertwiner_table(ctx, 4)


class TestHomogeneousParts:
    def test_mixed(self):
        parts = parse("x1^2 + x2", 2).homogeneous_parts()
        assert parts == [(1, parse("x2", 2)), (2, parse("x1^2", 2))]

    def test_zero(self):
        assert Poly.zero(2).homogeneous_parts() == []

    def test_constant(self):
        assert Poly.const(2, 3).homogeneous_parts() == [(0, Poly.const(2, 3))]

    def test_degree_sentinel(self):
        assert Poly.zero(4).degree() == -1
        assert Poly.const(4, 5).degree() == 0


class TestTextIO:
    def test_parse_basic(self):
        p = parse("3/2*x1^2*x2 - x3", 3)
        assert p.terms == {(2, 1, 0): F(3, 2), (0, 0, 1): F(-1)}

    def test_parse_zero(self):
        assert parse("0", 3).is_zero

    def test_canonical_order(self):
        assert format_poly(parse("x2+x1", 2)) == "x1 + x2"

    def test_roundtrip_random(self, rng):
        for dim in (2, 3, 4):
            for _ in range(15):
                p = random_poly(rng, dim, 5, max_terms=7)
                assert parse(format_poly(p), dim) == p

    def test_zero_formats(self):
        assert format_poly(Poly.zero(2)) == "0"
        assert parse(format_poly(Poly.zero(2)), 2).is_zero

    def test_whitespace_insensitive(self):
        assert parse(" 3 * x1 ^ 2 - 1/2 ", 2) == parse("3*x1^2-1/2", 2)

    def test_variable_out_of_dimension(self):
        with pytest.raises(PolyParseError):
            parse("x3", 2)

    def test_error_carries_position(self):
        with pytest.raises(PolyParseError) as err:
            parse("x1 + @", 2)
        assert err.value.position == 5

    def test_bad_exponent(self):
        with pytest.raises(PolyParseError):
            parse("x1^0", 2)

    def test_empty(self):
        with pytest.raises(PolyParseError):
            parse("   ", 2)

    def test_missing_star(self):
        with pytest.raises(PolyParseError):
            parse("2x1", 2)


def test_pochhammer():
    assert pochhammer(F(3, 2), 0) == 1
    assert pochhammer(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)
    assert pochhammer(-2, 2) == 2
    with pytest.raises(ValueError):
        pochhammer(F(1), -1)


def test_over_one_denominator_is_reduced():
    rng = random.Random("over-one-denominator")
    for _ in range(200):
        values = [F(rng.randint(-30, 30), rng.randint(1, 24)) for _ in range(rng.randint(0, 6))]
        values += rng.choice(([], [0], [3]))
        den, nums = polyring.over_one_denominator(values)
        assert den > 0 and math.gcd(den, *nums) == 1
        assert [F(n, den) for n in nums] == values
    assert polyring.over_one_denominator([]) == (1, [])


def radial_reference(dim, terms):
    """The sum of c |x|^(2k) g, each term expanded by Poly products and summed with
    one Fraction multiply and add per coefficient, zeros dropped."""
    out = {}
    for k, c, g in terms:
        for m, v in (Poly.norm_squared(dim) ** k * g).terms.items():
            out[m] = out.get(m, 0) + c * v
    return {m: v for m, v in out.items() if v}


def assert_radial_sum(dim, terms):
    out = polyring.radial_sum(dim, terms)
    assert out.terms == radial_reference(dim, terms)
    assert all(type(v) is Fraction and v for v in out.terms.values())
    return out


def test_radial_sum_matches_the_per_term_fraction_sum():
    rng = random.Random("radial-sum")
    for dim in (2, 3, 4):
        for _ in range(20):
            terms = [
                (rng.randint(0, 3), rng.choice((1, -2, F(3, 4), F(-5, 6))),
                 random_poly(rng, dim, rng.randint(0, 5), max_terms=8))
                for _ in range(rng.randint(1, 5))
            ]
            assert_radial_sum(dim, terms)
            # a Poly with int values, as the operator miss paths build them
            ints = [(k, c, Poly._raw(dim, {m: rng.randint(-4, 4) or 1 for m in g.terms})) for k, c, g in terms]
            assert_radial_sum(dim, ints)


def test_radial_sum_drops_terms_that_cancel():
    rng = random.Random("radial-sum-cancel")
    assert polyring.radial_sum(3, []).is_zero
    for dim in (2, 3):
        for _ in range(10):
            g = random_poly(rng, dim, 4)
            q = random_poly(rng, dim, 3)
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            norm = Poly.norm_squared(dim)
            assert assert_radial_sum(dim, [(1, c, g), (0, -c, norm * g)]).is_zero
            assert assert_radial_sum(dim, [(2, c, g), (0, 1, q), (1, -c, norm * g)]) == q
