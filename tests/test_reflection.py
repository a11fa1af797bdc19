import inspect
from fractions import Fraction

import pytest

from dunkl_harmonics import (
    DunklContext,
    Poly,
    polyring,
    context_from_descriptor,
    h_harmonic_basis,
    intertwiner_apply,
    make_context,
    reflection_matrix,
)
from dunkl_harmonics.reflection import FAMILY_ORBITS
from dunkl_harmonics.verify import random_poly


def F(a, b=1):
    return Fraction(a, b)


class TestMakeContext:
    def test_lambda_z2_zero(self):
        assert make_context("z2", 2, [0, 0]).lambda_kappa == 0

    def test_lambda_z2_half(self):
        # 2/2 - 1 + 1/2 + 1/2, by hand
        assert make_context("z2", 2, [F(1, 2), F(1, 2)]).lambda_kappa == 1

    def test_lambda_a2(self):
        # three positive roots e_i - e_j in dimension 3: 3/2 - 1 + 3
        assert make_context("a", 3, [1]).lambda_kappa == F(7, 2)

    def test_lambda_b2(self):
        # 2 coordinate roots and 2 mixed roots
        ctx = make_context("b", 2, [F(1, 2), F(3, 2)])
        assert ctx.lambda_kappa == F(2, 2) - 1 + 2 * F(1, 2) + 2 * F(3, 2)

    def test_root_counts(self):
        assert len(make_context("z2", 4, [0, 0, 0, 0]).positive_roots) == 4
        assert len(make_context("a", 4, [0]).positive_roots) == 6
        assert len(make_context("b", 3, [0, 0]).positive_roots) == 9
        assert len(make_context("d", 3, [0]).positive_roots) == 6

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            make_context("z2", 2, [F(-1, 2), 0])

    def test_wrong_orbit_count(self):
        with pytest.raises(ValueError):
            make_context("b", 2, [1])
        with pytest.raises(ValueError):
            make_context("a", 3, [1, 2])

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            make_context("z2", 1, [0])

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_context("h", 3, [1])

    def test_inexact_multiplicity_rejected_as_by_the_constructor(self):
        # both ways to build a context refuse a float with one message
        roots = make_context("z2", 2, [0, 0]).positive_roots
        message = "^roots and multiplicities must be exact: expected an exact rational, got float$"
        with pytest.raises(ValueError, match=message):
            make_context("z2", 2, [0.5, 0.5])
        with pytest.raises(ValueError, match=message):
            DunklContext(2, roots, (0, 1), (0.5, 0.5))

    def test_descriptors(self):
        assert context_from_descriptor("z2^3", [0, 0, 0]).dim == 3
        assert context_from_descriptor("a2", [1]).dim == 3
        assert context_from_descriptor("b2", [0, 0]).dim == 2
        assert context_from_descriptor("d4", [1]).dim == 4
        with pytest.raises(ValueError):
            context_from_descriptor("i5", [1])


class TestReflectionMatrix:
    def test_coordinate_flip(self, z2_2):
        m = reflection_matrix(z2_2, (1, 0))
        assert m == [[F(-1), F(0)], [F(0), F(1)]]

    def test_transposition(self, a2):
        m = reflection_matrix(a2, (1, -1, 0))
        assert m == [[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]

    def test_reflect_matches_matrix_substitution(self, rng, nonzero_corpus, d3):
        # Poly.reflect takes catalog roots as signed permutations; the dense
        # substitution by the same matrix is the second route
        for ctx in list(nonzero_corpus) + [d3]:
            p = random_poly(rng, ctx.dim, 5)
            for root in ctx.positive_roots:
                assert p.reflect(root) == p.substitute_linear(reflection_matrix(ctx, root))

    def test_not_a_root(self, z2_2):
        with pytest.raises(ValueError):
            reflection_matrix(z2_2, (1, 1))


def matrix_rule(a):
    """r_a = I - 2 a a^T / |a|^2, with perm and flips when every row has one nonzero."""
    norm2 = sum(v * v for v in a)
    n = len(a)
    matrix = tuple(tuple(F(int(i == j)) - 2 * a[i] * a[j] / norm2 for j in range(n)) for i in range(n))
    nonzero = [[j for j, v in enumerate(row) if v] for row in matrix]
    if any(len(cols) != 1 for cols in nonzero):
        return matrix, None, ()
    perm = tuple(cols[0] for cols in nonzero)
    return matrix, perm, tuple(i for i in range(n) if matrix[i][perm[i]] < 0)


class TestRootClassification:
    # Root classifies r_a from the support of a; the matrix rule is the second route
    EXTRA_ROOTS = [
        (F(-2), F(0), F(0)),
        (F(3), F(0), F(-3)),
        (F(1, 2), F(1, 2), F(0)),
        (F(0), F(-1), F(1)),
        (F(1), F(2)),
        (F(2), F(-1)),
        (F(1), F(1), F(1), F(1)),
    ]

    def roots(self):
        catalog = [
            root
            for family, orbits in FAMILY_ORBITS.items()
            for d in range(2, 6)
            for root in make_context(family, d, [0] * (orbits or d)).positive_roots
        ]
        return catalog + self.EXTRA_ROOTS

    def test_support_rule_matches_the_matrix_rule(self, rng):
        for values in self.roots():
            root = polyring.Root(values)
            matrix, perm, flips = matrix_rule(tuple(values))
            assert (root.perm, root.flips, root.matrix) == (perm, flips, matrix)
            v = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in values)
            assert root.apply(v) == tuple(sum(m * x for m, x in zip(row, v)) for row in matrix)
            for _ in range(3):
                p = random_poly(rng, len(values), 5)
                assert root.image(p) == p.reflect(values) == p.substitute_linear(matrix)

    def test_a_root_is_built_once(self):
        root = polyring.Root([1, -1, 0])
        assert polyring.Root(root) is root
        assert all(type(v) is Fraction for v in root)
        with pytest.raises(ValueError, match="nonzero vector"):
            polyring.Root([0, 0])

    def test_a_context_root_is_reflected_without_hashing(self, rng, monkeypatch):
        contexts = [make_context("d", 4, [F(1, 2)]), make_context("b", 3, [1, F(1, 3)]),
                    DunklContext(2, ((1, 2), (2, -1)), (0, 1), (1, 2))]
        cases = [(root, random_poly(rng, ctx.dim, 5)) for ctx in contexts for root in ctx.positive_roots]
        hashes = []
        real_hash = Fraction.__hash__

        def counted(self):
            hashes.append(self)
            return real_hash(self)

        monkeypatch.setattr(Fraction, "__hash__", counted)
        for root, p in cases:
            p.divided_difference(root)
            p.reflect(root)
        assert hashes == []

    def test_catalog_roots_build_no_matrix(self):
        for ctx in (make_context("d", 4, [F(1, 2)]), make_context("b", 3, [1, F(1, 3)])):
            h_harmonic_basis(ctx, 6)
            intertwiner_apply(ctx, Poly.monomial(ctx.dim, (2, 2, 1) + (0,) * (ctx.dim - 3)))
            assert all(root.perm is not None and "matrix" not in vars(root) for root in ctx.positive_roots)


class TestDerivedValues:
    # b2 with its orbits interleaved in root order and the coordinate orbit at kappa 0
    ROOTS = ((F(1), F(0)), (F(1), F(1)), (F(0), F(1)), (F(1), F(-1)))

    def test_custom_context_derives_lambda_and_active_roots(self):
        ctx = DunklContext(2, self.ROOTS, (0, 1, 0, 1), (0, F(3, 4)))
        # 2/2 - 1 + (0 + 3/4 + 0 + 3/4), by hand
        assert ctx.lambda_kappa == F(3, 2)
        assert ctx.active_roots == (((F(1), F(1)), F(3, 4)), ((F(1), F(-1)), F(3, 4)))
        assert ctx.label() == "custom[kappa=0,3/4]"

    def test_derived_values_are_not_parameters(self):
        params = list(inspect.signature(DunklContext).parameters)
        assert params == ["dim", "positive_roots", "orbit_ids", "kappa_by_orbit", "family"]
        for name in ("lambda_kappa", "active_roots"):
            with pytest.raises(TypeError):
                DunklContext(2, self.ROOTS, (0, 1, 0, 1), (0, F(3, 4)), **{name: ()})


class TestInvariance:
    def test_parallel_roots_rejected(self):
        with pytest.raises(ValueError):
            DunklContext(2, ((F(1), F(0)), (F(2), F(0))), (0, 0), (F(1),))

    def test_unclosed_roots_rejected(self):
        # the reflection across (1, 0) maps (1, 1) to (-1, 1), which is not a root
        with pytest.raises(ValueError):
            DunklContext(2, ((F(1), F(0)), (F(1), F(1))), (0, 1), (F(1), F(1)))
        # closed, but the orbit assignment splits the orbit of (1, 1) and (1, -1)
        b2_roots = ((F(1), F(0)), (F(0), F(1)), (F(1), F(-1)), (F(1), F(1)))
        with pytest.raises(ValueError):
            DunklContext(2, b2_roots, (0, 0, 1, 2), (F(1), F(1), F(2)))


class TestRootSetVerdict:
    def test_faulty_systems_raise_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="roots #0 and #1 are parallel"):
                DunklContext(2, ((F(1), F(0)), (F(2), F(0))), (0, 0), (F(1),))
            with pytest.raises(ValueError, match="outside the root set or its orbit"):
                DunklContext(2, ((F(1), F(0)), (F(1), F(1))), (0, 1), (F(1), F(1)))

    def test_second_context_of_a_family_applies_no_reflection(self, monkeypatch):
        make_context("d", 4, [F(1, 3)])
        calls = []
        apply = polyring.Root.apply

        def counted(self, v):
            calls.append(v)
            return apply(self, v)

        monkeypatch.setattr(polyring.Root, "apply", counted)
        ctx = make_context("d", 4, [F(5, 7)])
        assert calls == []
        assert ctx.lambda_kappa == 1 + 12 * F(5, 7)
