"""Acceptance suite: one test per criterion, at the stated size and tolerance.

Each test prints a single PASS line on success (visible with pytest -s; the
pytest -v status line itself is the per-criterion pass/fail record).
"""

import math
import random
import time
from fractions import Fraction

import pytest

from dunkl_harmonics import (
    Poly,
    RadialPowerSum,
    UniPoly,
    apply_operator_poly,
    bessel_form_eval,
    canonical_decompose,
    dirichlet_monomial,
    dunkl_apply,
    dunkl_axis,
    extended_pizzetti,
    funk_hecke_check,
    funk_hecke_coeff,
    gegenbauer,
    h_harmonic_basis,
    harmonic_radial_power,
    hobson_apply,
    intertwiner_apply,
    is_h_harmonic,
    make_context,
    mc_sphere_integral,
    monomials_of_degree,
    pair_integral,
    pizzetti_from_hobson,
    pochhammer,
    sphere_integrate,
)
from dunkl_harmonics.verify import random_poly, random_vector


def F(a, b=1):
    return Fraction(a, b)


@pytest.fixture(scope="module")
def family_reps(z2_3, a2, b2, d3):
    """One nonzero-multiplicity instance per catalog family."""
    return [z2_3, a2, b2, d3]


@pytest.fixture(scope="module")
def decomposition_corpus(z2_2, z2_3, a2, b2, d3):
    return [z2_2, z2_3, a2, b2, d3]


def _rng(tag):
    return random.Random(f"acceptance:{tag}")


def test_c01_commutativity_per_family(family_reps):
    """Criterion 1: the coordinate deformations commute, 200 triples per family."""
    rng = _rng("c1")
    start = time.monotonic()
    for ctx in family_reps:
        for _ in range(200):
            p = random_poly(rng, ctx.dim, rng.randint(0, 6), max_terms=4)
            xi = random_vector(rng, ctx.dim)
            eta = random_vector(rng, ctx.dim)
            lhs = dunkl_apply(ctx, eta, dunkl_apply(ctx, xi, p))
            rhs = dunkl_apply(ctx, xi, dunkl_apply(ctx, eta, p))
            assert lhs == rhs, (str(p), xi, eta)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"commutativity sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE C1 PASS: commutativity, 200 triples x {len(family_reps)} families "
          f"in {elapsed:.1f}s")


def test_c02_decomposition_and_dimensions(decomposition_corpus):
    """Criterion 2: reconstruction + harmonicity to degree 8; dimension identity."""
    rng = _rng("c2")
    for ctx in decomposition_corpus:
        for trial in range(50):
            n = trial % 9
            p = random_poly(rng, ctx.dim, n, homogeneous=True, max_terms=5)
            decomp = canonical_decompose(ctx, p)
            assert decomp.reconstruct() == p, (ctx.label(), str(p))
            for i, comp in decomp.components:
                assert is_h_harmonic(ctx, comp), (ctx.label(), str(p), i)

    dimension_cases = [
        make_context("b", 2, [F(1, 2), F(3, 2)]),
        make_context("a", 3, [1]),
        make_context("z2", 4, [F(1, 2), 1, 0, 2]),
        make_context("d", 4, [F(1, 2)]),
    ]
    for ctx in dimension_cases:
        d = ctx.dim
        for n in range(9):
            expected = math.comb(n + d - 1, d - 1) - (
                math.comb(n + d - 3, d - 1) if n >= 2 else 0
            )
            basis = h_harmonic_basis(ctx, n)
            assert len(basis) == expected, (ctx.label(), n)
    print("\nACCEPTANCE C2 PASS: canonical decomposition (50 polys x "
          f"{len(decomposition_corpus)} instances, deg<=8) and dimension identity (n<=8, d<=4)")


def test_c03_orthogonality_vs_integral(nonzero_corpus):
    """Criterion 3: the orthogonality relation (pair_integral) equals product integrals, l,m <= 4."""
    checked = 0
    for ctx in nonzero_corpus:
        bases = {m: h_harmonic_basis(ctx, m) for m in range(5)}
        for l in range(5):
            for m in range(5):
                for p in bases[l]:
                    for q in bases[m]:
                        assert pair_integral(ctx, q, p) == sphere_integrate(ctx, p * q)
                        checked += 1
    print(f"\nACCEPTANCE C3 PASS: orthogonality relation vs quadrature on {checked} basis pairs")


def test_c04_dirichlet_oracle(z2_2, z2_3):
    """Criterion 4: the sign-flip closed form matches exactly, |a| <= 8."""
    count = 0
    for ctx in (z2_2, z2_3):
        for total in range(9):
            for halved in monomials_of_degree(ctx.dim, total):
                mono = Poly.monomial(ctx.dim, tuple(2 * v for v in halved))
                assert sphere_integrate(ctx, mono) == dirichlet_monomial(ctx, halved)
                count += 1
    assert dirichlet_monomial(z2_2, (1, 0)) == F(1, 2)  # the worked value
    print(f"\nACCEPTANCE C4 PASS: Dirichlet closed form on {count} monomials, "
          "including the worked value 1/2")


def _integral_radius_poly(ctx, q, f):
    out = {}
    for l, part in f.homogeneous_parts():
        value = sphere_integrate(ctx, q * part)
        if value:
            out[l] = value
    return out


def test_c05_pizzetti_exactness_and_truncation(nonzero_corpus):
    """Criterion 5: the radius expansion is exact at full order; truncation order."""
    rng = _rng("c5")
    for ctx in nonzero_corpus:
        for m in range(4):
            for q in h_harmonic_basis(ctx, m):
                deg = rng.randint(max(m, 4), 8)
                f = random_poly(rng, ctx.dim, deg, max_terms=6)
                oracle = _integral_radius_poly(ctx, q, f)
                n_full = max(0, -(-(f.degree() - m) // 2))  # ceil
                series = extended_pizzetti(ctx, q, f, n_full)
                assert series.radius_poly() == oracle, (ctx.label(), m, str(f))
                for n_cut in range(n_full):
                    truncated = extended_pizzetti(ctx, q, f, n_cut)
                    residual = dict(oracle)
                    for power, c in truncated.radius_poly().items():
                        residual[power] = residual.get(power, F(0)) - c
                    residual = {k: v for k, v in residual.items() if v}
                    if residual:
                        assert min(residual) > m + 2 * n_cut, (ctx.label(), m, n_cut)
    print("\nACCEPTANCE C5 PASS: radius expansion exact (deg f<=8, all bases m<=3) "
          "with correct truncation order")


def test_c06_hobson_suite(family_reps):
    """Criterion 6: radial expansion vs brute force, 100 pairs per family; closed form."""
    rng = _rng("c6")
    for ctx in family_reps:
        for _ in range(100):
            m = rng.randint(0, 5)
            p = random_poly(rng, ctx.dim, m, homogeneous=True, max_terms=3)
            f0 = RadialPowerSum.from_pairs(
                [(rng.randint(0, 6), F(rng.randint(-6, 6), rng.randint(1, 3)))
                 for _ in range(3)]
            )
            assert hobson_apply(ctx, p, f0) == apply_operator_poly(ctx, p, f0.to_poly(ctx.dim))
        norm2 = Poly.norm_squared(ctx.dim)
        for m in range(4):
            for q in h_harmonic_basis(ctx, m)[:3]:
                for j in range(7):
                    assert harmonic_radial_power(ctx, q, j) == apply_operator_poly(
                        ctx, q, norm2**j
                    )
    print(f"\nACCEPTANCE C6 PASS: radial calculus, 100 pairs x {len(family_reps)} families "
          "+ closed form (m<=3, j<=6)")


def test_c07_series_route_agreement(nonzero_corpus):
    """Criterion 7: both expansion routes agree coefficient by coefficient."""
    rng = _rng("c7")
    checked = 0
    for ctx in nonzero_corpus:
        for m in range(4):
            for q in h_harmonic_basis(ctx, m):
                f = random_poly(rng, ctx.dim, rng.randint(2, 7), max_terms=6)
                n_terms = (f.degree() + 3) // 2
                direct = extended_pizzetti(ctx, q, f, n_terms)
                via_product = pizzetti_from_hobson(ctx, q, f, n_terms)
                assert direct == via_product, (ctx.label(), m, str(f))
                checked += 1
    print(f"\nACCEPTANCE C7 PASS: expansion route agreement on {checked} (q, f) cases")


def test_c08_funk_hecke(nonzero_corpus):
    """Criterion 8: the zonal identity holds exactly for t^l, l <= 6, m <= 3."""
    checked = 0
    for ctx in nonzero_corpus:
        assert ctx.lambda_kappa > 0
        lam = ctx.lambda_kappa
        for m in range(4):
            for n in range(4):
                l = m + 2 * n
                want = F(math.factorial(l)) / (
                    F(2**l) * math.factorial(n) * pochhammer(lam + 1, m + n)
                )
                assert funk_hecke_coeff(ctx, m, UniPoly.t_power(l)) == want
        for m in range(4):
            for q in h_harmonic_basis(ctx, m):
                for l in range(7):
                    result = funk_hecke_check(ctx, UniPoly.t_power(l), q)
                    assert result.holds, (ctx.label(), m, l, str(q))
                    checked += 1
    print(f"\nACCEPTANCE C8 PASS: zonal identity on {checked} (profile, harmonic) cases "
          "across 4 groups")


def test_c09_reproducing_property(nonzero_corpus):
    """Criterion 9: delta behavior of the kernel, m,n <= 3; eigenvalues m,n <= 5."""
    from dunkl_harmonics import reproducing_check

    for ctx in nonzero_corpus:
        lam = ctx.lambda_kappa
        for m in range(6):
            for n in range(6):
                want = F(0) if m != n else lam / (n + lam)
                assert funk_hecke_coeff(ctx, m, gegenbauer(n, lam)) == want
        for n in range(4):
            for m in range(4):
                for q in h_harmonic_basis(ctx, m)[:2]:
                    assert reproducing_check(ctx, n, q), (ctx.label(), n, m)
    print("\nACCEPTANCE C9 PASS: reproducing kernel delta behavior (m,n<=3) and "
          "eigenvalues (m,n<=5)")


def test_c10_intertwiner_certification(family_reps, z2_2_zero):
    """Criterion 10: the defining exchange property on random inputs; identity at 0."""
    rng = _rng("c10")
    for ctx in family_reps:
        for _ in range(25):
            n = rng.randint(1, 6)
            p = random_poly(rng, ctx.dim, n, homogeneous=True, max_terms=4)
            vp = intertwiner_apply(ctx, p)
            for j in range(1, ctx.dim + 1):
                assert dunkl_axis(ctx, j, vp) == intertwiner_apply(ctx, p.partial(j)), (
                    ctx.label(), str(p), j,
                )
    for _ in range(10):
        p = random_poly(rng, 2, rng.randint(0, 6))
        assert intertwiner_apply(z2_2_zero, p) == p
    print("\nACCEPTANCE C10 PASS: intertwiner exchange property (deg<=6, all axes, "
          f"{len(family_reps)} families) and identity at zero multiplicity")


def test_c11_monte_carlo_agreement(nonzero_corpus):
    """Criterion 11: 4-sigma agreement at one million samples per corpus integral."""
    start = time.monotonic()
    samples = 1_000_000
    total = 0
    for ctx in nonzero_corpus:
        d = ctx.dim
        targets = [
            Poly.monomial(d, tuple(2 if i == 0 else 0 for i in range(d))),
            Poly.monomial(d, (2,) * d) if d == 2 else Poly.monomial(d, (2, 2, 0)),
            (Poly.variable(d, 1) + Poly.variable(d, 2)) ** 4,
        ]
        for p in targets:
            exact = float(sphere_integrate(ctx, p))
            est = mc_sphere_integral(ctx, p, seed=31415, samples=samples)
            assert abs(est.mean - exact) <= 4 * est.std_error, (ctx.label(), str(p))
            total += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"Monte-Carlo sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE C11 PASS: {total} integrals within 4 sigma at 1e6 samples "
          f"in {elapsed:.1f}s")


def test_c12_bessel_form(nonzero_corpus):
    """Criterion 12: the operator-series form matches to 1e-12; prefactor resolved."""
    rng = _rng("c12")
    resolved = 0
    for ctx in nonzero_corpus:
        for m in range(3):
            q = h_harmonic_basis(ctx, m)[0]
            f = random_poly(rng, ctx.dim, 6, max_terms=5)
            n_full = max(0, -(-(f.degree() - m) // 2))
            series = extended_pizzetti(ctx, q, f, n_full)
            for r in (0.1, 0.5, 1.0):
                exact = series.eval_float(r)
                numeric = bessel_form_eval(ctx, q, f, r, variant="lambda_plus_one")
                assert abs(numeric - exact) <= 1e-12 * max(abs(exact), 1e-30), (
                    ctx.label(), m, r, exact, numeric,
                )
            # the unshifted prefactor must fail whenever it differs at all (m >= 1)
            if m >= 1:
                exact = series.eval_float(1.0)
                if abs(exact) > 1e-9:
                    wrong = bessel_form_eval(ctx, q, f, 1.0, variant="lambda")
                    assert abs(wrong - exact) > 1e-6 * abs(exact), (ctx.label(), m)
                    resolved += 1
    assert resolved > 0
    print("\nACCEPTANCE C12 PASS: operator-series form within 1e-12 at r in {0.1,0.5,1.0}; "
          "the shifted prefactor 1/(lambda+1)_m validates, 1/(lambda)_m does not "
          f"({resolved} discriminating cases)")
