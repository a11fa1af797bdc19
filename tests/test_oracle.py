import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from dunkl_harmonics import (
    Poly,
    bessel_phi,
    dirichlet_monomial,
    make_context,
    mc_sphere_integral,
    parse,
    sphere_integrate,
)
from dunkl_harmonics.oracle import CHUNK_SIZE, _eval_poly, _layout


def F(a, b=1):
    return Fraction(a, b)


class TestDirichlet:
    def test_zero_exponents(self, z2_2):
        assert dirichlet_monomial(z2_2, (0, 0)) == 1

    def test_worked_value(self, z2_2):
        assert dirichlet_monomial(z2_2, (1, 0)) == F(1, 2)

    def test_classical_value(self, z2_2_zero):
        assert dirichlet_monomial(z2_2_zero, (1, 0)) == F(1, 2)
        assert dirichlet_monomial(z2_2_zero, (2, 0)) == F(3, 8)

    def test_wrong_family_rejected(self, b2):
        with pytest.raises(ValueError):
            dirichlet_monomial(b2, (1, 0))


class TestMonteCarlo:
    def test_constant_is_exact(self, b2):
        est = mc_sphere_integral(b2, Poly.const(2, 1), seed=11, samples=2000)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_classical_coordinate_square(self, z2_2_zero):
        est = mc_sphere_integral(z2_2_zero, parse("x1^2", 2), seed=3, samples=200_000)
        assert abs(est.mean - 0.5) <= 4 * est.std_error

    def test_weighted_coordinate_square(self, z2_2):
        est = mc_sphere_integral(z2_2, parse("x1^2", 2), seed=3, samples=200_000)
        assert abs(est.mean - 0.5) <= 4 * est.std_error

    def test_deterministic_given_seed(self, a2):
        p = parse("x1^2*x2^2", 3)
        one = mc_sphere_integral(a2, p, seed=99, samples=10_000)
        two = mc_sphere_integral(a2, p, seed=99, samples=10_000)
        assert one == two
        other = mc_sphere_integral(a2, p, seed=100, samples=10_000)
        assert other.mean != one.mean

    def test_agreement_with_exact(self, nonzero_corpus):
        for ctx in nonzero_corpus:
            p = parse("x1^2*x2^2", ctx.dim)
            exact = float(sphere_integrate(ctx, p))
            est = mc_sphere_integral(ctx, p, seed=2718, samples=200_000)
            assert abs(est.mean - exact) <= 4 * est.std_error

    def test_sample_validation(self, z2_2):
        with pytest.raises(ValueError):
            mc_sphere_integral(z2_2, Poly.const(2, 1), seed=0, samples=0)


def broadcast_reference(p, points):
    """The oracle's former evaluation: every term's (rows, dim) powers at once, one product per term."""
    import numpy as np

    exponents = np.array(sorted(p.terms), dtype=np.int64)
    coeffs = np.array([float(p.terms[tuple(e)]) for e in exponents], dtype=np.float64)
    if exponents.size == 0:
        return np.zeros(points.shape[0])
    powers = points[:, None, :] ** exponents[None, :, :]
    return powers.prod(axis=2) @ coeffs


def sphere_points(rng, rows, dim):
    gauss = rng.standard_normal((rows, dim))
    return gauss / ((gauss * gauss).sum(axis=1) ** 0.5)[:, None]


class TestEvalPoly:
    """`_eval_poly` against the broadcast formula, compared bit for bit with ``np.array_equal``."""

    def check(self, exponents, coeffs, points):
        import numpy as np

        p = Poly(points.shape[1], {})
        for row, c in zip(exponents, coeffs):
            p = p + Poly(points.shape[1], {tuple(map(int, row)): Fraction(float(c))})
        assert np.array_equal(_eval_poly(_layout(p, points.shape[0]), points), broadcast_reference(p, points))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_seeded_polynomials(self, dim):
        import numpy as np

        rng = np.random.default_rng(1800 + dim)
        for rows in (1, 7, 1000, CHUNK_SIZE):
            for n_terms in (2, 5, 12, 40):
                exponents = rng.integers(0, 9, size=(n_terms, dim))
                exponents[: n_terms // 2, 0] = exponents[0, 0]  # one exponent repeated down a column
                exponents[-1] = 0  # a constant term
                self.check(exponents, rng.standard_normal(n_terms), sphere_points(rng, rows, dim))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_single_term(self, dim):
        import numpy as np

        rng = np.random.default_rng(1900 + dim)
        for exponent in range(9):
            # the rest of the row up to 8, then only 0 and 1: a lone raised column
            for top in (9, 2):
                row = [exponent] + list(rng.integers(0, top, size=dim - 1))
                self.check([row], [rng.standard_normal()], sphere_points(rng, 513, dim))

    def test_single_term_in_one_dimension(self):
        # The broadcast formula meets a lone x^2 in one variable with a stride-0
        # exponent, which numpy 2.4 evaluates as x * x: the one layout where it
        # skips array pow.  `_eval_poly` takes array pow there too; no context has
        # dimension 1, so the oracle never reaches that case.
        import numpy as np

        rng = np.random.default_rng(1901)
        points = sphere_points(rng, 513, 1)
        for exponent in (0, 1, 3, 4, 5, 6, 7, 8):
            self.check([[exponent]], [-1.5], points)
        square = np.power(points[:, 0], np.full(513, 2, dtype=np.int64)) * -1.5
        assert np.array_equal(_eval_poly(_layout(parse("-3/2*x1^2", 1), 513), points), square)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_constant_and_zero(self, dim):
        import numpy as np

        points = sphere_points(np.random.default_rng(dim), 100, dim)
        self.check([[0] * dim], [2.5], points)
        self.check([], [], points)


class TestMonteCarloBits:
    """Means and standard errors pinned by ``float.hex`` at the broadcast formula's bits."""

    @pytest.mark.parametrize("family, d, kappa, poly, seed, samples, mean, std_error", [
        # exponents 0, 1 and >= 2, a constant, 2 kappa = 2, a partial last chunk
        ("a", 3, [1], "x1 + 2*x2^3*x3 - x1^2*x3^2 + 5", 3, 10_000,
         "0x1.34bdd48137bd3p+2", "0x1.428a095f3e079p-7"),
        # one full chunk, a scalar 2 kappa = 3 on the weight
        ("b", 3, [F(1, 2), F(3, 2)], "x1^2*x2^2 + x3^4", 7, CHUNK_SIZE,
         "0x1.1212d29a5d564p-2", "0x1.834d2e6debddfp-8"),
        # one partial chunk, exponents up to 8, three orbits
        ("z2", 3, [F(1, 3), 2, F(5, 2)], "x1^8*x2^3 - 3*x2^2*x3^6 + x3", 11, 2000,
         "-0x1.0d68c9f488ce7p-3", "0x1.e2d27c37d4289p-6"),
    ])
    def test_small_cases(self, family, d, kappa, poly, seed, samples, mean, std_error):
        ctx = make_context(family, d, kappa)
        est = mc_sphere_integral(ctx, parse(poly, ctx.dim), seed=seed, samples=samples)
        assert (est.mean.hex(), est.std_error.hex()) == (mean, std_error)

    def test_many_terms(self):
        # 969 terms: the broadcast formula held a (4096, 969, 4) float array per chunk
        ctx = make_context("d", 4, [F(1, 2)])
        p = parse("x1 + x2 + x3 + x4", 4) ** 16
        est = mc_sphere_integral(ctx, p, seed=5, samples=8192)
        assert (est.mean.hex(), est.std_error.hex()) == ("0x1.96f210a3f8c3ap+9", "0x1.0275659a49a38p+5")


class TestBesselPhi:
    def test_at_zero(self):
        assert bessel_phi(0.7, 0.0) == 1.0

    def test_sinc_identity(self):
        for z in (0.1, 1.0, 4.0, 9.0):
            assert bessel_phi(0.5, z) == pytest.approx(math.sin(z) / z, rel=1e-12)

    def test_cosine_identity(self):
        for z in (0.1, 1.0, 4.0, 9.0):
            assert bessel_phi(-0.5, z) == pytest.approx(math.cos(z), rel=1e-11, abs=1e-13)

    def test_alternating_remainder_bound(self):
        alpha, z = 1.25, 2.0
        full = bessel_phi(alpha, z)
        for n_terms in range(1, 8):
            partial = bessel_phi(alpha, z, max_terms=n_terms)
            # first omitted term
            term = 1.0
            for k in range(n_terms + 1):
                term *= -((z / 2.0) ** 2) / ((k + 1) * (alpha + k + 1))
            assert abs(full - partial) <= abs(term) + 1e-15

    def test_bad_index(self):
        with pytest.raises(ValueError):
            bessel_phi(-0.75, 1.0)

    def test_refuses_a_negative_term_count(self):
        # the empty sum would read 1.0 against 0.0470 for the full series
        for n_terms in (-1, -5):
            with pytest.raises(ValueError, match="term count"):
                bessel_phi(0.5, 3.0, max_terms=n_terms)
        assert bessel_phi(0.5, 3.0, max_terms=0) == 1.0

    @pytest.mark.parametrize("z", [1e200, float("inf"), float("nan")])
    def test_refuses_a_value_that_is_not_finite(self, z):
        # (z/2)**2 overflows at 1e200 and raises, inf and nan pass through the series
        with pytest.raises(ValueError, match="not finite in floating point"):
            bessel_phi(0.5, z)


def test_numpy_is_imported_on_first_float_lane_use():
    # a fresh interpreter, so that no other test has loaded numpy; -W error
    # turns any warning that escapes into a failure
    script = textwrap.dedent("""
        import sys
        import dunkl_harmonics
        from dunkl_harmonics import cli
        assert "numpy" not in sys.modules
        assert cli.main(["laplacian", "--group", "b3", "--kappa", "1/2,3/2", "--poly", "x1^4*x2^2"]) == 0
        assert "numpy" not in sys.modules
        assert cli.main(["mc", "--group", "b3", "--kappa", "1/2,3/2", "--poly", "x1^2*x2^2 + x3^4",
                         "--seed", "7", "--samples", "5000"]) == 0
        assert "numpy" in sys.modules
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lap, mc = map(json.loads, proc.stdout.splitlines())
    assert lap == {"result": "10*x1^4 + 40*x1^2*x2^2 + 6*x2^2*x3^2"}
    assert mc["samples"] == 5000 and math.isfinite(mc["mean"]) and mc["stderr"] > 0
