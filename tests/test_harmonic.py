import math
from fractions import Fraction

import pytest

from dunkl_harmonics import dunkl, harmonic
from dunkl_harmonics import (
    Poly,
    RadialPowerSum,
    apply_operator_poly,
    canonical_decompose,
    h_harmonic_basis,
    harmonic_radial_power,
    hobson_apply,
    intertwiner_apply,
    is_h_harmonic,
    laplacian,
    parse,
    pochhammer,
    proj,
    reduce_mod_sphere,
)
from dunkl_harmonics.verify import random_poly


def F(a, b=1):
    return Fraction(a, b)


class TestProj:
    def test_fixes_harmonics(self, a2):
        for q in h_harmonic_basis(a2, 3):
            assert proj(a2, 3, q) == q

    def test_classical_x1_squared(self, z2_2_zero):
        got = proj(z2_2_zero, 2, parse("x1^2", 2))
        assert got == parse("1/2*x1^2 - 1/2*x2^2", 2)
        assert laplacian(z2_2_zero, got).is_zero

    def test_low_degree_identity(self, b2):
        assert proj(b2, 0, Poly.const(2, 7)) == Poly.const(2, 7)
        assert proj(b2, 1, parse("x1 - 2*x2", 2)) == parse("x1 - 2*x2", 2)

    def test_output_is_harmonic(self, rng, nonzero_corpus):
        for ctx in nonzero_corpus:
            for n in range(2, 6):
                p = random_poly(rng, ctx.dim, n, homogeneous=True)
                assert is_h_harmonic(ctx, proj(ctx, n, p))

    def test_degree_mismatch_rejected(self, z2_2):
        with pytest.raises(ValueError):
            proj(z2_2, 3, parse("x1^2", 2))

    def test_non_homogeneous_rejected(self, z2_2):
        with pytest.raises(ValueError):
            proj(z2_2, 2, parse("x1^2 + x2", 2))

    def test_dimension_mismatch_rejected(self, b2):
        # a zero of the wrong dimension is refused too, not handed back
        for p in (parse("x3", 3), Poly.zero(3)):
            with pytest.raises(ValueError, match="polynomial dimension does not match the context"):
                proj(b2, 1, p)


# every site that sums c |x|^(2k) g, through polyring's Horner core
RADIAL_SUM_SITES = (
    "canonical_decompose",
    "reconstruct",
    "to_poly",
    "hobson_apply",
    "harmonic_radial_power",
    "apply_operator_poly",
    "intertwiner_apply",
    "reduce_mod_sphere",
)


def radial_sum_calls(ctx):
    """One call of each of RADIAL_SUM_SITES on a context of dimension 3."""
    p = parse("x1^8 + 3*x1^2*x2^4*x3^2 - x2^5*x3^3 + 2/3*x1*x2^4*x3^3", 3)
    f = p + parse("x1^3 - 1/2*x2*x3 + 4", 3)
    q = h_harmonic_basis(ctx, 2)[0]
    f0 = RadialPowerSum.from_pairs([(0, 1), (2, F(-1, 3)), (5, 2)])
    decomp = canonical_decompose(ctx, p)
    return {
        "canonical_decompose": lambda: canonical_decompose(ctx, p),
        "reconstruct": decomp.reconstruct,
        "to_poly": lambda: f0.to_poly(3),
        "hobson_apply": lambda: hobson_apply(ctx, p, f0),
        "harmonic_radial_power": lambda: harmonic_radial_power(ctx, q, 5),
        "apply_operator_poly": lambda: apply_operator_poly(ctx, q, f),
        "intertwiner_apply": lambda: intertwiner_apply(ctx, f),
        "reduce_mod_sphere": lambda: reduce_mod_sphere(ctx, f),
    }


class TestCanonicalDecompose:
    def test_norm_squared(self, nonzero_corpus):
        for ctx in nonzero_corpus:
            decomp = canonical_decompose(ctx, Poly.norm_squared(ctx.dim))
            assert decomp.components[0][1].is_zero
            assert decomp.components[1][1] == Poly.const(ctx.dim, 1)

    def test_harmonic_input_single_component(self, a2):
        q = h_harmonic_basis(a2, 2)[1]
        decomp = canonical_decompose(a2, q)
        assert decomp.components[0][1] == q
        assert decomp.components[1][1].is_zero

    def test_classical_x1_squared(self, z2_2_zero):
        decomp = canonical_decompose(z2_2_zero, parse("x1^2", 2))
        assert decomp.components[0][1] == parse("1/2*x1^2 - 1/2*x2^2", 2)
        assert decomp.components[1][1] == Poly.const(2, F(1, 2))
        assert decomp.reconstruct() == parse("x1^2", 2)

    def test_reconstruction_and_harmonicity(self, rng, nonzero_corpus):
        for ctx in nonzero_corpus:
            for n in range(0, 8):
                p = random_poly(rng, ctx.dim, n, homogeneous=True, max_terms=5)
                decomp = canonical_decompose(ctx, p)
                assert decomp.reconstruct() == p
                for i, comp in decomp.components:
                    assert comp.is_zero or (comp.is_homogeneous() and comp.degree() == n - 2 * i)
                    assert is_h_harmonic(ctx, comp)

    def test_non_homogeneous_rejected(self, z2_2):
        with pytest.raises(ValueError):
            canonical_decompose(z2_2, parse("x1^2 + x2", 2))

    def test_each_laplacian_power_computed_once(self, d3, monkeypatch):
        # every Laplacian, of a Poly or of a power's int form, is one call of
        # the kernel dunkl._image_sum on the Laplacian table
        real = dunkl._image_sum
        calls = []

        def counted(ctx, den, monos, nums, table, *rest):
            monos = list(monos)
            calls.append((table is ctx.tables.laplacian, max(map(sum, monos))))
            return real(ctx, den, monos, nums, table, *rest)

        monkeypatch.setattr(dunkl, "_image_sum", counted)
        p = parse("x1^8 + 3*x1^2*x2^4*x3^2 - x2^5*x3^3", 3)
        decomp = canonical_decompose(d3, p)
        assert calls == [(True, 8), (True, 6), (True, 4), (True, 2)]  # Lap p, ..., Lap^4 p, one call each
        assert decomp.reconstruct() == p

    @pytest.mark.parametrize("lam", [F(0), F(1, 2), F(7, 3), 10**6 + F(1, 3)])
    def test_coefficient_table_is_the_closed_form(self, lam):
        for n in range(11):
            table = harmonic._coefficients(lam, n)
            assert len(table) == n // 2 + 1
            for i, row in enumerate(table):
                assert len(row) == n // 2 - i + 1
                for j, a in enumerate(row):
                    component = 4**i * math.factorial(i) * pochhammer(lam + 1 + n - 2 * i, i)
                    projection = 4**j * math.factorial(j) * pochhammer(-lam - n + 2 * i + 1, j)
                    assert type(a) is Fraction and a == 1 / (component * projection)

    def test_one_fraction_build_per_component(self, d3, a2, monkeypatch):
        # the Laplacian powers stay int forms: only each component's terms become Fractions
        real = Poly._over.__func__
        calls = []

        def counted(cls, dim, den, numerators):
            calls.append(dim)
            return real(cls, dim, den, numerators)

        monkeypatch.setattr(Poly, "_over", classmethod(counted))
        p = parse("x1^8 + 3*x1^2*x2^4*x3^2 - x2^5*x3^3", 3)
        q = h_harmonic_basis(a2, 4)[0]  # its powers end at q, and the components past it are 0
        for ctx, poly in ((d3, p), (a2, q), (a2, p * q)):
            calls.clear()
            decomp = canonical_decompose(ctx, poly)
            assert len(calls) == len(decomp.components) == poly.degree() // 2 + 1
        calls.clear()
        assert proj(a2, 4, q) == q and len(calls) == 1

    @pytest.mark.parametrize("site", RADIAL_SUM_SITES)
    def test_no_polynomial_products(self, d3, monkeypatch, site):
        # with the tables warm, a sum of c |x|^(2k) g shifts exponents and adds
        # into one dict: no Poly sum, product or power
        run = radial_sum_calls(d3)[site]
        expected = run()
        calls = []

        def counting(name):
            real = getattr(Poly, name)

            def counted(self, other):
                calls.append(name)
                return real(self, other)

            return counted

        for name in ("__add__", "__mul__", "__pow__"):
            monkeypatch.setattr(Poly, name, counting(name))
        got = run()
        assert calls == []
        monkeypatch.undo()
        assert got == expected


class TestIsHHarmonic:
    def test_constants(self, b2):
        assert is_h_harmonic(b2, Poly.const(2, 9))

    def test_degree_one(self, d3):
        assert is_h_harmonic(d3, parse("x1 - 3*x3", 3))

    def test_norm_squared_not(self, nonzero_corpus):
        for ctx in nonzero_corpus:
            assert not is_h_harmonic(ctx, Poly.norm_squared(ctx.dim))


class TestBasis:
    def test_degree_zero(self, z2_2):
        assert h_harmonic_basis(z2_2, 0) == [Poly.const(2, 1)]

    def test_d3_degree2_size(self, a2, z2_3, d3):
        for ctx in (a2, z2_3, d3):
            basis = h_harmonic_basis(ctx, 2)
            assert len(basis) == 5
            for b in basis:
                assert is_h_harmonic(ctx, b)

    def test_classical_d2_degree3(self, z2_2_zero):
        basis = h_harmonic_basis(z2_2_zero, 3)
        assert len(basis) == 2

    def test_deterministic(self, b2):
        assert h_harmonic_basis(b2, 4) == h_harmonic_basis(b2, 4)


class TestReduceModSphere:
    def test_norm_squared_becomes_one(self, z2_3):
        assert reduce_mod_sphere(z2_3, Poly.norm_squared(3)) == Poly.const(3, 1)

    def test_harmonic_fixed(self, a2):
        q = h_harmonic_basis(a2, 2)[0]
        assert reduce_mod_sphere(a2, q) == q

    def test_dimension_mismatch_rejected(self, b2):
        # a zero of the wrong dimension is refused too, not handed back
        for p in (parse("x3", 3), Poly.zero(3)):
            with pytest.raises(ValueError, match="polynomial dimension does not match the context"):
                reduce_mod_sphere(b2, p)

    def test_sum_of_the_components(self, rng, corpus):
        # one Horner sum over every part's powers equals the components added up
        for ctx in corpus:
            for degree in range(7):
                p = random_poly(rng, ctx.dim, degree, max_terms=8)
                parts = [canonical_decompose(ctx, part) for _, part in p.homogeneous_parts()]
                want = sum((comp for d in parts for _, comp in d.components), Poly.zero(ctx.dim))
                assert reduce_mod_sphere(ctx, p) == want

    def test_multiple_of_sphere_ideal_dies(self, rng, b2):
        norm2 = Poly.norm_squared(2)
        ideal_gen = norm2 - Poly.const(2, 1)
        p = random_poly(rng, 2, 3)
        assert reduce_mod_sphere(b2, ideal_gen * p).is_zero
