from fractions import Fraction

import pytest

from dunkl_harmonics import Poly, PolyParseError, format_poly, parse, pochhammer, polyring
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

    def test_ring_laws_random(self, rng):
        for _ in range(25):
            p = random_poly(rng, 3, 4)
            q = random_poly(rng, 3, 4)
            r = random_poly(rng, 3, 4)
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r
            assert (p * q) * r == p * (q * r)


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
    def test_identity(self):
        eye = [[1, 0], [0, 1]]
        assert parse("x1", 2).substitute_linear(eye) == parse("x1", 2)

    def test_even_power_sign_flip(self):
        m = [[-1, 0], [0, 1]]
        assert parse("x1^2", 2).substitute_linear(m) == parse("x1^2", 2)

    def test_swap_symmetry(self):
        swap = [[0, 1], [1, 0]]
        assert parse("x1*x2", 2).substitute_linear(swap) == parse("x1*x2", 2)

    def test_general_matrix(self):
        m = [[1, 1], [0, 1]]  # x1 -> x1 + x2
        assert parse("x1^2", 2).substitute_linear(m) == parse("x1^2 + 2*x1*x2 + x2^2", 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            parse("x1", 2).substitute_linear([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

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
            assert p.substitute_linear(m1).substitute_linear(m2) == p.substitute_linear(product)


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
        want = [polyring.divide_by_linear(p - p.reflect(alpha), alpha) for alpha, p in cases]

        def refuse(*args):
            raise AssertionError("a signed-permutation root took the plain quotient")

        monkeypatch.setattr(polyring, "divide_by_linear", refuse)
        monkeypatch.setattr(Poly, "reflect", refuse)
        assert [p.divided_difference(alpha) for alpha, p in cases] == want


class TestHomogeneousParts:
    def test_mixed(self):
        parts = parse("x1^2 + x2", 2).homogeneous_parts()
        assert parts == [(1, parse("x2", 2)), (2, parse("x1^2", 2))]

    def test_zero(self):
        assert Poly.zero(2).homogeneous_parts() == []

    def test_constant(self):
        assert Poly.const(2, 3).homogeneous_parts() == [(0, Poly.const(2, 3))]

    def test_sum_reconstructs(self, rng):
        for _ in range(10):
            p = random_poly(rng, 3, 6, max_terms=10)
            total = Poly.zero(3)
            for n, part in p.homogeneous_parts():
                assert part.is_homogeneous() and part.degree() == n
                total = total + part
            assert total == p

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
