from fractions import Fraction

import pytest

from dunkl_harmonics import (
    DunklContext,
    polyring,
    RootSystem,
    context_from_descriptor,
    dunkl_apply,
    make_context,
    reflection_matrix,
    sphere_integrate,
)
from dunkl_harmonics.reflection import root_closure_failure
from dunkl_harmonics.verify import random_poly, random_vector


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
        assert len(make_context("z2", 4, [0, 0, 0, 0]).root_system.positive_roots) == 4
        assert len(make_context("a", 4, [0]).root_system.positive_roots) == 6
        assert len(make_context("b", 3, [0, 0]).root_system.positive_roots) == 9
        assert len(make_context("d", 3, [0]).root_system.positive_roots) == 6

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

    def test_involution_all_catalog_roots(self, nonzero_corpus, d3):
        for ctx in list(nonzero_corpus) + [d3]:
            d = ctx.dim
            for root in ctx.root_system.positive_roots:
                m = reflection_matrix(ctx, root)
                square = [
                    [sum(m[i][k] * m[k][j] for k in range(d)) for j in range(d)]
                    for i in range(d)
                ]
                assert square == [[F(1 if i == j else 0) for j in range(d)] for i in range(d)]

    def test_reflect_matches_matrix_substitution(self, rng, nonzero_corpus, d3):
        # Poly.reflect takes catalog roots as signed permutations; the dense
        # substitution by the same matrix is the second route
        for ctx in list(nonzero_corpus) + [d3]:
            p = random_poly(rng, ctx.dim, 5)
            for root in ctx.root_system.positive_roots:
                assert p.reflect(root) == p.substitute_linear(reflection_matrix(ctx, root))

    def test_not_a_root(self, z2_2):
        with pytest.raises(ValueError):
            reflection_matrix(z2_2, (1, 1))


class TestInvariance:
    def test_roots_closed_under_reflections(self, nonzero_corpus, d3):
        for ctx in list(nonzero_corpus) + [d3]:
            rs = ctx.root_system
            roots = set(rs.positive_roots)
            for beta in rs.positive_roots:
                bb = sum(v * v for v in beta)
                for alpha in rs.positive_roots:
                    factor = 2 * sum(a * b for a, b in zip(alpha, beta)) / bb
                    image = tuple(a - factor * b for a, b in zip(alpha, beta))
                    assert image in roots or tuple(-v for v in image) in roots

    def test_scale_invariance_of_operator_outputs(self, rng, nonzero_corpus):
        for ctx in nonzero_corpus:
            rs = ctx.root_system
            scaled = RootSystem(
                rs.dim,
                tuple(tuple(F(5, 3) * v for v in root) for root in rs.positive_roots),
                rs.orbit_ids,
                rs.kappa_by_orbit,
            )
            scaled_ctx = DunklContext.from_root_system(scaled)
            assert scaled_ctx.lambda_kappa == ctx.lambda_kappa
            for _ in range(4):
                p = random_poly(rng, ctx.dim, 4)
                xi = random_vector(rng, ctx.dim)
                assert dunkl_apply(ctx, xi, p) == dunkl_apply(scaled_ctx, xi, p)
                assert sphere_integrate(ctx, p) == sphere_integrate(scaled_ctx, p)

    def test_parallel_roots_rejected(self):
        with pytest.raises(ValueError):
            RootSystem(2, ((F(1), F(0)), (F(2), F(0))), (0, 0), (F(1),))

    def test_unclosed_roots_rejected(self):
        # the reflection across (1, 0) maps (1, 1) to (-1, 1), which is not a root
        with pytest.raises(ValueError):
            RootSystem(2, ((F(1), F(0)), (F(1), F(1))), (0, 1), (F(1), F(1)))
        # closed, but the orbit assignment splits the orbit of (1, 1) and (1, -1)
        b2_roots = ((F(1), F(0)), (F(0), F(1)), (F(1), F(-1)), (F(1), F(1)))
        with pytest.raises(ValueError):
            RootSystem(2, b2_roots, (0, 0, 1, 2), (F(1), F(1), F(2)))


class TestRootSetVerdict:
    def test_faulty_systems_raise_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="roots #0 and #1 are parallel"):
                RootSystem(2, ((F(1), F(0)), (F(2), F(0))), (0, 0), (F(1),))
            with pytest.raises(ValueError, match="outside the root set or its orbit"):
                RootSystem(2, ((F(1), F(0)), (F(1), F(1))), (0, 1), (F(1), F(1)))

    def test_second_context_of_a_family_applies_no_reflection(self, monkeypatch):
        make_context("d", 4, [F(1, 3)])
        calls = []
        apply = polyring._Reflection.apply

        def counted(self, v):
            calls.append(v)
            return apply(self, v)

        monkeypatch.setattr(polyring._Reflection, "apply", counted)
        ctx = make_context("d", 4, [F(5, 7)])
        assert calls == []
        assert ctx.lambda_kappa == 1 + 12 * F(5, 7)
        # the closure check that verify reports is recomputed on request
        assert root_closure_failure(ctx.root_system) is None
        assert calls
