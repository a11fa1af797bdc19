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
    mc_sphere_integral,
    parse,
    sphere_integrate,
)


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
