import math
from fractions import Fraction

import pytest
from dense_roots import rotated_b3

from dunkl_harmonics import (
    DunklContext,
    Poly,
    dunkl_axis,
    funk_hecke_check,
    funk_hecke_coeff,
    funk_hecke_coeff_moments,
    gegenbauer,
    h_harmonic_basis,
    intertwiner_apply,
    make_context,
    monomials_of_degree,
    parse,
    pochhammer,
    reduce_mod_sphere,
    reproducing_check,
    reproducing_kernel,
    sphere_integrate,
)
from dunkl_harmonics import _linalg, dunkl, intertwine
from dunkl_harmonics.verify import random_poly


def F(a, b=1):
    return Fraction(a, b)


# the variable t of a profile phi(t), a polynomial in one variable
T = Poly.variable(1, 1)


class TestGegenbauer:
    def test_degree_zero(self):
        assert gegenbauer(0, F(3, 2)) == Poly.const(1, 1)

    def test_degree_one(self):
        lam = F(5, 4)
        assert gegenbauer(1, lam) == T * (2 * lam)

    def test_degree_two(self):
        lam = F(2, 3)
        # 2 lam (lam + 1) t^2 - lam, from the recurrence by hand
        assert gegenbauer(2, lam) == Poly(1, {(2,): 2 * lam * (lam + 1), (0,): -lam})

    def test_nonpositive_index_rejected(self):
        with pytest.raises(ValueError):
            gegenbauer(2, 0)


class TestIntertwiner:
    def test_fixes_constants(self, nonzero_corpus):
        for ctx in nonzero_corpus:
            assert intertwiner_apply(ctx, Poly.const(ctx.dim, 4)) == Poly.const(ctx.dim, 4)

    def test_sign_flip_coordinate(self, z2_2):
        # 1/(1 + 2 kappa_1) x1, from solving the one-dimensional system
        assert intertwiner_apply(z2_2, parse("x1", 2)) == parse("1/2*x1", 2)

    def test_defining_property(self, rng, nonzero_corpus, d3):
        # the reflections of the roots (1, 2) and (2, -1) take the dense path
        skew = DunklContext(2, ((F(1), F(2)), (F(2), F(-1))), (0, 1), (F(1, 3), F(2)))
        for ctx in list(nonzero_corpus) + [d3, skew]:
            for _ in range(4):
                n = rng.randint(1, 5)
                p = random_poly(rng, ctx.dim, n, homogeneous=True, max_terms=4)
                vp = intertwiner_apply(ctx, p)
                assert vp.is_homogeneous() and (vp.is_zero or vp.degree() == n)
                for j in range(1, ctx.dim + 1):
                    assert dunkl_axis(ctx, j, vp) == intertwiner_apply(ctx, p.partial(j))

    def test_build_solves_square_systems_without_dunkl_operators(self, monkeypatch):
        applied, shapes = [], []
        real_apply, real_solve = dunkl.dunkl_apply, _linalg.solve_unique

        def counting_apply(*args):
            applied.append(args)
            return real_apply(*args)

        def recording_solve(a, b):
            shapes.append((len(a), len(a[0])))
            return real_solve(a, b)

        monkeypatch.setattr(dunkl, "dunkl_apply", counting_apply)
        monkeypatch.setattr(_linalg, "solve_unique", recording_solve)
        ctx = make_context("b", 3, [F(1, 2), F(3, 2)])  # fresh, so no table is cached
        intertwiner_apply(ctx, Poly.monomial(3, (4, 0, 0)))
        assert applied == []
        assert len(shapes) == 4 and all(rows == cols for rows, cols in shapes)

    def test_linear(self, rng, b2):
        p = random_poly(rng, 2, 4)
        q = random_poly(rng, 2, 4)
        assert intertwiner_apply(b2, p + q) == intertwiner_apply(b2, p) + intertwiner_apply(b2, q)


class TestFunkHeckeCoeff:
    def test_unit(self, nonzero_corpus):
        for ctx in nonzero_corpus:
            assert funk_hecke_coeff(ctx, 0, Poly.const(1, 1)) == 1

    def test_cubic_value(self, nonzero_corpus):
        for ctx in nonzero_corpus:
            lam = ctx.lambda_kappa
            got = funk_hecke_coeff(ctx, 1, T**3)
            assert got == F(3) / (4 * (lam + 1) * (lam + 2))

    def test_parity_vanishing(self, z2_3):
        assert funk_hecke_coeff(z2_3, 2, T) == 0
        assert funk_hecke_coeff(z2_3, 1, T**2) == 0

    def test_monomial_closed_form(self, b2):
        lam = b2.lambda_kappa
        import math

        for m in range(4):
            for n in range(4):
                l = m + 2 * n
                got = funk_hecke_coeff(b2, m, T**l)
                want = F(math.factorial(l)) / (
                    F(2**l) * math.factorial(n) * pochhammer(lam + 1, m + n)
                )
                assert got == want

    def test_moment_route_agrees(self, rng, nonzero_corpus):
        for ctx in nonzero_corpus:
            for m in range(4):
                phi = Poly(1, {(l,): F(rng.randint(-4, 4), rng.randint(1, 3)) for l in range(7)})
                assert funk_hecke_coeff(ctx, m, phi) == funk_hecke_coeff_moments(ctx, m, phi)


def y_integral_by_products(ctx, phi, q):
    """The y-integral by the product route: for each gamma, (l!/gamma!) c_l times
    the integral of the product polynomial (V y^gamma) q, with V y^gamma from
    ``intertwiner_apply``."""
    out = {}
    for (l,), c in phi.terms.items():
        for gamma in monomials_of_degree(ctx.dim, l):
            weight = c * (math.factorial(l) // math.prod(math.factorial(e) for e in gamma))
            image = intertwiner_apply(ctx, Poly.monomial(ctx.dim, gamma))
            out[gamma] = weight * sphere_integrate(ctx, image * q)
    return Poly(ctx.dim, out)


class TestYIntegral:
    """``_y_integral`` reads one functional L_q(x^a) per monomial; the product route is the reference."""

    PROFILES = [T**l for l in range(5)] + [T**4 * 3 - T * F(1, 2)]

    def test_matches_the_product_route(self, nonzero_corpus):
        # rotated b3's roots are dense, so its V images keep Fraction coefficients
        for ctx in nonzero_corpus + [rotated_b3()]:
            for m in range(4):
                for q in h_harmonic_basis(ctx, m):
                    for phi in self.PROFILES:
                        assert intertwine._y_integral(ctx, phi, q) == y_integral_by_products(ctx, phi, q)

    def test_zonal_checks_build_no_product_polynomial(self, monkeypatch, nonzero_corpus):
        cases = [(ctx, q) for ctx in nonzero_corpus for m in range(3) for q in h_harmonic_basis(ctx, m)]
        multiply = Poly.__mul__

        def scalars_only(self, other):
            if isinstance(other, Poly):
                raise AssertionError("a product of two polynomials was built")
            return multiply(self, other)

        monkeypatch.setattr(Poly, "__mul__", scalars_only)
        for ctx, q in cases:
            assert funk_hecke_check(ctx, Poly.monomial(1, (q.degree() + 2,)), q).holds
            assert all(reproducing_check(ctx, n, q) for n in range(3))


class TestFunkHeckeCheck:
    def test_eigenvalue_scales_harmonic(self, z2_3):
        q = h_harmonic_basis(z2_3, 1)[1]
        result = funk_hecke_check(z2_3, T**3, q)
        assert result.holds
        assert result.rhs == reduce_mod_sphere(z2_3, q * result.coefficient)

    def test_low_degree_profile_vanishes(self, a2):
        q = h_harmonic_basis(a2, 2)[0]
        result = funk_hecke_check(a2, T, q)
        assert result.holds
        assert result.lhs.is_zero and result.rhs.is_zero

    def test_classical_case(self, z2_2_zero):
        # lambda = 0: still covered by the monomial rule and the classical integral
        q = parse("x1", 2)
        result = funk_hecke_check(z2_2_zero, T, q)
        assert result.holds
        assert result.coefficient == F(1, 2)
        assert result.lhs == parse("1/2*x1", 2)

    def test_linearity_in_profile(self, rng, b2):
        q = h_harmonic_basis(b2, 1)[0]
        phi = Poly(1, {(l,): F(rng.randint(-3, 3), 2) for l in range(6)})
        combo = funk_hecke_check(b2, phi, q)
        assert combo.holds
        total = F(0)
        for (l,), c in phi.terms.items():
            total += c * funk_hecke_coeff(b2, 1, T**l)
        assert combo.coefficient == total

    def test_rejects_non_harmonic(self, z2_2):
        with pytest.raises(ValueError):
            funk_hecke_check(z2_2, Poly.const(1, 1), Poly.norm_squared(2))

    def test_rejects_profile_in_several_variables(self, z2_2):
        q = parse("x1", 2)
        for call in (
            lambda phi: funk_hecke_check(z2_2, phi, q),
            lambda phi: funk_hecke_coeff(z2_2, 1, phi),
            lambda phi: funk_hecke_coeff_moments(z2_2, 1, phi),
        ):
            with pytest.raises(ValueError, match="one variable"):
                call(parse("x1^3", 2))


class TestReproducing:
    def test_kernel_degree_zero(self, z2_2):
        kernel = reproducing_kernel(z2_2, 0)
        assert kernel == Poly.const(4, 1)

    def test_kernel_classical_linear(self):
        ctx = make_context("z2", 3, [0, 0, 0])
        kernel = reproducing_kernel(ctx, 1)
        assert kernel == parse("3*x1*x4 + 3*x2*x5 + 3*x3*x6", 6)

    def test_kernel_at_kappa_zero_is_the_gegenbauer_profile(self):
        # V is the identity and lam = 1/2, so the kernel is (n + lam)/lam C_n(<x, y>),
        # here built from powers of <x, y> rather than from the multinomial weights
        for ctx in (make_context("z2", 3, [0, 0, 0]), make_context("a", 3, [0])):
            lam = ctx.lambda_kappa
            assert lam == F(1, 2)
            d = ctx.dim
            inner = sum(
                (Poly.variable(2 * d, i) * Poly.variable(2 * d, d + i) for i in range(1, d + 1)),
                Poly.zero(2 * d),
            )
            for n in range(5):
                want = Poly.zero(2 * d)
                for (l,), c in gegenbauer(n, lam).terms.items():
                    want = want + inner**l * c
                kernel = reproducing_kernel(ctx, n)
                assert kernel.dim == 2 * d
                assert kernel == want * ((n + lam) / lam)

    def test_materialized_kernel_reproduces(self, z2_3, b2):
        # integrate the kernel's y-block against q term by term, grouped by x-monomial
        for ctx in (z2_3, b2):
            d = ctx.dim
            for n in range(3):
                groups = {}
                for mono, c in reproducing_kernel(ctx, n).terms.items():
                    groups.setdefault(mono[:d], {})[mono[d:]] = c
                for m in range(3):
                    for q in h_harmonic_basis(ctx, m):
                        integral = Poly(
                            d,
                            {x: sphere_integrate(ctx, Poly(d, y) * q) for x, y in groups.items()},
                        )
                        want = reduce_mod_sphere(ctx, q) if m == n else Poly.zero(d)
                        assert reduce_mod_sphere(ctx, integral) == want

    def test_rejects_degenerate_index(self, z2_2_zero):
        with pytest.raises(ValueError):
            reproducing_kernel(z2_2_zero, 1)
