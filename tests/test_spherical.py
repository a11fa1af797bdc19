from fractions import Fraction

import pytest

from dunkl_harmonics import (
    PizzettiSeries,
    Poly,
    RadialPowerSum,
    bessel_form_eval,
    dirichlet_monomial,
    extended_pizzetti,
    h_harmonic_basis,
    harmonic_radial_power,
    hobson_apply,
    laplacian,
    pair_integral,
    parse,
    pizzetti,
    pizzetti_from_hobson,
    sphere_integrate,
)
from dunkl_harmonics import dunkl, spherical
from dunkl_harmonics.verify import random_poly


def F(a, b=1):
    return Fraction(a, b)


def laplacian_kernel_calls(monkeypatch) -> list[int]:
    """The input degree of every Laplacian from now on, recorded in a list that is returned.

    Each Laplacian, of a Poly or of a power's int form in
    dunkl._laplacian_powers, is one call of the kernel dunkl._image_sum on the
    context's Laplacian table; the kernel's Dunkl-operator calls are not recorded.
    """
    calls = []
    real = dunkl._image_sum

    def counting(ctx, den, monos, nums, table, *rest):
        monos = list(monos)
        if table is ctx.tables.laplacian:
            calls.append(max(map(sum, monos)))
        return real(ctx, den, monos, nums, table, *rest)

    monkeypatch.setattr(dunkl, "_image_sum", counting)
    return calls


def integral_radius_poly(ctx, q, f):
    """Independent oracle: expand f(ry) by homogeneous degree and integrate."""
    out = {}
    for l, part in f.homogeneous_parts():
        value = sphere_integrate(ctx, q * part)
        if value:
            out[l] = value
    return out


class TestSphereIntegrate:
    def test_normalization(self, nonzero_corpus):
        for ctx in nonzero_corpus:
            assert sphere_integrate(ctx, Poly.const(ctx.dim, 1)) == 1

    def test_coordinate_square(self, z2_2):
        assert sphere_integrate(z2_2, parse("x1^2", 2)) == F(1, 2)

    def test_odd_monomials_vanish(self, nonzero_corpus):
        for ctx in nonzero_corpus:
            assert sphere_integrate(ctx, parse("x1", ctx.dim)) == 0
            assert sphere_integrate(ctx, parse("x1^2*x2", ctx.dim)) == 0

    def test_against_dirichlet_closed_form(self, z2_2, z2_3):
        for ctx in (z2_2, z2_3):
            from dunkl_harmonics import monomials_of_degree

            for total in range(0, 4):
                for halved in monomials_of_degree(ctx.dim, total):
                    mono = Poly.monomial(ctx.dim, tuple(2 * a for a in halved))
                    assert sphere_integrate(ctx, mono) == dirichlet_monomial(ctx, halved)

    def test_splits_inhomogeneous(self, b2):
        p = parse("3 + x1 + x1^2", 2)
        assert sphere_integrate(b2, p) == 3 + sphere_integrate(b2, parse("x1^2", 2))


class TestPairIntegral:
    def test_classical_quartic(self, z2_2_zero):
        # (1/2pi) integral of cos^4 is 3/8
        assert pair_integral(z2_2_zero, parse("x1", 2), parse("x1^3", 2)) == F(3, 8)

    def test_odd_gap_vanishes(self, z2_2):
        assert pair_integral(z2_2, parse("x1", 2), parse("x2^2", 2)) == 0

    def test_negative_gap_vanishes(self, a2):
        q = h_harmonic_basis(a2, 2)[0]
        assert pair_integral(a2, q, parse("x1", 3)) == 0

    def test_constants(self, z2_2):
        one = Poly.const(2, 1)
        assert pair_integral(z2_2, one, one) == 1

    def test_classical_coordinate(self, z2_2_zero):
        # (1/2pi) integral of cos^2 is 1/2
        x1 = parse("x1", 2)
        assert pair_integral(z2_2_zero, x1, x1) == F(1, 2)

    def test_cross_degree_zero(self, a2):
        q = h_harmonic_basis(a2, 1)[0]
        p = h_harmonic_basis(a2, 2)[0]
        assert pair_integral(a2, q, p) == 0

    def test_dimension_mismatch_rejected(self, b2):
        # the gap 2 - 1 is odd, so only the dimension check can refuse it
        with pytest.raises(ValueError, match="p dimension does not match the context"):
            pair_integral(b2, parse("x1", 2), parse("x1*x3", 3))

    def test_rejects_non_harmonic_factor(self, z2_2):
        with pytest.raises(ValueError):
            pair_integral(z2_2, Poly.norm_squared(2), parse("x1^2", 2))


class TestExtendedPizzetti:
    def test_norm_squared(self, nonzero_corpus):
        for ctx in nonzero_corpus:
            series = extended_pizzetti(ctx, Poly.const(ctx.dim, 1), Poly.norm_squared(ctx.dim), 1)
            assert series.m == 0
            assert series.coefficients == (F(0), F(1))

    def test_constant_function(self, b2):
        series = extended_pizzetti(b2, Poly.const(2, 1), Poly.const(2, 1), 2)
        assert series.coefficients == (F(1), F(0), F(0))

    def test_low_degree_or_wrong_parity_vanishes(self, a2):
        q = h_harmonic_basis(a2, 2)[0]
        series = extended_pizzetti(a2, q, parse("x1 + 3", 3), 3)
        assert all(c == 0 for c in series.coefficients)

    def test_truncation_order(self, rng, z2_3):
        f = random_poly(rng, 3, 8, max_terms=9)
        q = h_harmonic_basis(z2_3, 1)[0]
        full = integral_radius_poly(z2_3, q, f)
        for n_cut in range(0, 3):
            series = extended_pizzetti(z2_3, q, f, n_cut)
            residual = dict(full)
            for power, c in series.radius_poly().items():
                residual[power] = residual.get(power, F(0)) - c
            residual = {k: v for k, v in residual.items() if v}
            if residual:
                assert min(residual) > 1 + 2 * n_cut

    def test_denominators_carried_across_terms(self, monkeypatch, z2_2):
        calls = []
        real = spherical.pochhammer

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(spherical, "pochhammer", counting)
        series = extended_pizzetti(z2_2, parse("x1", 2), parse("x1^3 + x1*x2^2", 2), 200)
        assert len(series.coefficients) == 201
        assert len(calls) <= 1

    def test_laplacian_calls_stop_at_the_input_degree(self, monkeypatch, b2):
        # Lap lowers the degree by 2, so a degree-6 f takes 3 Laplacians however
        # many terms are asked for: Lap f_4, Lap f_6 and Lap^2 f_6, after the
        # one that checks that q is h-harmonic
        calls = laplacian_kernel_calls(monkeypatch)
        q = parse("x1*x2", 2)
        f = parse("x1^4*x2^2 + 3*x2^6 - x1^3*x2", 2)
        series = extended_pizzetti(b2, q, f, 10**5)
        assert calls == [2, 4, 6, 4]
        head = extended_pizzetti(b2, q, f, 3).coefficients
        assert series.coefficients == head + (F(0),) * (10**5 - 3)
        assert all(type(c) is Fraction for c in series.coefficients)
        calls.clear()
        series = extended_pizzetti(b2, q, parse("x1^40 + x1^20*x2^20", 2), 0)
        assert series.coefficients == (F(0),) and calls == [2]

    def test_each_coefficient_reads_one_homogeneous_part(self, monkeypatch, b2):
        # (q(D) g)(0) reads only the degree-m part of g, so q(D) meets nothing
        # but Lap^n f_(m+2n), of degree m, and a part of the wrong parity costs
        # neither a Laplacian nor a q(D)
        laplacian_inputs, operator_inputs = laplacian_kernel_calls(monkeypatch), []
        real_apply = spherical.apply_operator_poly

        def counting_apply(ctx, q, p):
            operator_inputs.append(p)
            return real_apply(ctx, q, p)

        monkeypatch.setattr(spherical, "apply_operator_poly", counting_apply)
        q = parse("x1*x2", 2)
        f = parse("x1^4*x2^2 + 3*x2^6 - x1^3*x2 + x1^2", 2)
        for run in (lambda: bessel_form_eval(b2, q, f, 0.5), lambda: extended_pizzetti(b2, q, f, 10)):
            operator_inputs.clear()
            run()
            assert operator_inputs
            assert all(p.is_homogeneous() and p.degree() == 2 for p in operator_inputs)
        laplacian_inputs.clear()
        operator_inputs.clear()
        series = extended_pizzetti(b2, q, parse("x1^7 + x1^5*x2^2 + x1", 2), 5)
        assert series.coefficients == (F(0),) * 6
        assert laplacian_inputs == [2] and not operator_inputs  # only the check of q

    def test_eval_matches_coefficients(self, z2_2):
        series = PizzettiSeries(1, (F(1, 2), F(3)))
        assert series.eval_rational(F(2)) == F(1, 2) * 2 + 3 * 2**3
        assert series.eval_float(0.5) == pytest.approx(0.5 * 0.5 + 3 * 0.125)

    @pytest.mark.parametrize("r", [1e160, float("inf"), float("nan")])
    def test_eval_float_refuses_a_value_that_is_not_finite(self, r):
        # r**2 overflows at 1e160 and raises, inf and nan pass through a float power
        with pytest.raises(ValueError, match="not finite in floating point"):
            PizzettiSeries(2, (F(1),)).eval_float(r)


class TestPizzetti:
    def test_constant(self, z2_2):
        assert pizzetti(z2_2, Poly.const(2, 1), 1).coefficients == (F(1), F(0))

    def test_norm_fourth(self, nonzero_corpus):
        for ctx in nonzero_corpus:
            lam = ctx.lambda_kappa
            norm4 = Poly.norm_squared(ctx.dim) ** 2
            # the series must be exactly r^4, pinning the iterated value
            series = pizzetti(ctx, norm4, 2)
            assert series.coefficients == (F(0), F(0), F(1))
            twice = laplacian(ctx, laplacian(ctx, norm4))
            assert twice == Poly.const(ctx.dim, 32 * (lam + 1) * (lam + 2))

    def test_odd_function_vanishes(self, b2):
        series = pizzetti(b2, parse("x1^3 + x2", 2), 4)
        assert all(c == 0 for c in series.coefficients)


class TestHobson:
    def test_coordinate_against_closed_form(self, nonzero_corpus):
        for ctx in nonzero_corpus:
            x1 = parse("x1", ctx.dim)
            for j in range(1, 4):
                f0 = RadialPowerSum.from_pairs([(j, 1)])
                expected = (Poly.norm_squared(ctx.dim) ** (j - 1)) * x1 * (2 * j)
                assert hobson_apply(ctx, x1, f0) == expected

    def test_harmonic_annihilates_low_powers(self, a2):
        q = h_harmonic_basis(a2, 2)[0]
        f0 = RadialPowerSum.from_pairs([(1, 1)])
        assert hobson_apply(a2, q, f0).is_zero

    def test_degree_zero(self, z2_3):
        f0 = RadialPowerSum.from_pairs([(0, F(1, 2)), (2, 3)])
        p = Poly.const(3, 4)
        assert hobson_apply(z2_3, p, f0) == f0.to_poly(3) * 4

    def test_rejects_non_homogeneous(self, z2_2):
        with pytest.raises(ValueError):
            hobson_apply(z2_2, parse("x1 + x1^2", 2), RadialPowerSum.from_pairs([(1, 1)]))


class TestHarmonicRadialPower:
    def test_trivial_harmonic(self, b2):
        for j in range(4):
            got = harmonic_radial_power(b2, Poly.const(2, 1), j)
            assert got == Poly.norm_squared(2) ** j

    def test_coordinate(self, z2_3):
        # 2 * 1!/0! * rho^0 * x1
        assert harmonic_radial_power(z2_3, parse("x1", 3), 1) == parse("2*x1", 3)

    def test_vanishes_below_degree(self, a2):
        q = h_harmonic_basis(a2, 3)[0]
        for j in range(3):
            assert harmonic_radial_power(a2, q, j).is_zero


class TestSeriesRouteAgreement:
    def test_matches_extended(self, rng, nonzero_corpus):
        for ctx in nonzero_corpus:
            for m in range(3):
                q = h_harmonic_basis(ctx, m)[0]
                f = random_poly(rng, ctx.dim, 6, max_terms=6)
                n_terms = (f.degree() + 1) // 2 + 1
                assert pizzetti_from_hobson(ctx, q, f, n_terms) == extended_pizzetti(ctx, q, f, n_terms)

    def test_reduces_to_plain_series(self, rng, b2):
        f = random_poly(rng, 2, 5)
        one = Poly.const(2, 1)
        assert pizzetti_from_hobson(b2, one, f, 3) == pizzetti(b2, f, 3)

    def test_classical_instance(self, z2_2_zero):
        # coefficient at the quartic radius power matches the direct integral 3/8
        series = pizzetti_from_hobson(z2_2_zero, parse("x1", 2), parse("x1^3", 2), 1)
        assert series.m == 1
        assert series.coefficients[1] == pair_integral(z2_2_zero, parse("x1", 2), parse("x1^3", 2))
        assert series.coefficients[1] == F(3, 8)

    @pytest.mark.parametrize("n_terms", [-1, -2])
    def test_negative_term_count_rejected(self, b2, n_terms):
        # refused before q f is formed, with extended_pizzetti's message
        q = parse("x1*x2", 2)
        f = parse("x1^4*x2^2 + 3*x2^6 - x1^3*x2 + x1^2", 2)
        for expansion in (extended_pizzetti, pizzetti_from_hobson):
            with pytest.raises(ValueError, match="the number of series terms must be >= 0"):
                expansion(b2, q, f, n_terms)


class TestBesselForm:
    def test_zero_function(self, z2_2):
        assert bessel_form_eval(z2_2, Poly.const(2, 1), Poly.zero(2), 0.7) == 0.0

    def test_display_prefactor_rejected(self, z2_2):
        # with a degree-1 factor the two candidate normalizations differ by
        # lambda/(lambda+1); only the shifted one reproduces the series
        q = parse("x1", 2)
        f = parse("x1^3 + x1", 2)
        series = extended_pizzetti(z2_2, q, f, 1)
        exact = series.eval_float(1.0)
        good = bessel_form_eval(z2_2, q, f, 1.0, variant="lambda_plus_one")
        bad = bessel_form_eval(z2_2, q, f, 1.0, variant="lambda")
        assert abs(good - exact) <= 1e-12 * abs(exact)
        assert abs(bad - exact) > 1e-3 * abs(exact)

    @pytest.mark.parametrize("r", [1e160, float("inf"), float("nan")])
    def test_refuses_a_value_that_is_not_finite(self, b2, r):
        q = parse("x1*x2", 2)
        f = parse("x1^4*x2^2 + 3*x2^6 - x1^3*x2 + x1^2", 2)
        with pytest.raises(ValueError, match="not finite in floating point"):
            bessel_form_eval(b2, q, f, r)

    def test_unknown_variant_rejected(self, z2_2):
        with pytest.raises(ValueError):
            bessel_form_eval(z2_2, Poly.const(2, 1), parse("x1^2", 2), 0.5, variant="bogus")
