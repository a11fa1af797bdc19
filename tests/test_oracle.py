import ast
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
from dunkl_harmonics import oracle
from dunkl_harmonics.oracle import CHUNK_SIZE, _eval_poly, _layout, _root, _weight_squared


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

    def test_fields_are_python_floats(self, b2):
        # the dataclass declares both as float; the mean was a numpy.float64
        for p, samples in ((parse("x1^2*x2", 2), 1000), (Poly.const(2, 1), 10), (parse("x1^2", 2), 1)):
            est = mc_sphere_integral(b2, p, seed=1, samples=samples)
            assert type(est.mean) is float and type(est.std_error) is float

    def test_zero_norm_fallback_point(self, monkeypatch):
        # a Gaussian row of zeros keeps norm 1, so its point is the origin, where
        # every |<x, a>| is 0; 2 kappa = 2/3, 4 and 5 take the root, the square
        # root and the plain power, and each gives that point the weight 0
        import numpy as np

        real_rng = np.random.default_rng

        class FirstRowZero:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def standard_normal(self, shape):
                gauss = self.rng.standard_normal(shape)
                gauss[0] = 0.0
                return gauss

        ctx = make_context("z2", 3, [F(1, 3), 2, F(5, 2)])
        roots = [((1.0, 0.0, 0.0), 2, 3), ((0.0, 1.0, 0.0), 4, 1), ((0.0, 0.0, 1.0), 5, 2)]
        assert _weight_squared(roots, np.zeros((1, 3))).tolist() == [0.0]
        monkeypatch.setattr(np.random, "default_rng", FirstRowZero)
        est = mc_sphere_integral(ctx, parse("x1^2 + x2 - 1", 3), seed=1, samples=5000)
        assert math.isfinite(est.mean) and math.isfinite(est.std_error)


def square_rule_power(x, n):
    """x^n in Python floats by the oracle's rule: (x^(n // 2))^2, times x when n is odd."""
    if n == 1:
        return x
    half = square_rule_power(x, n // 2)
    return half * half * x if n % 2 else half * half


def float_reference(p, points):
    """p at each row of ``points`` in Python floats, multiplied and summed in `_eval_poly`'s order.

    A term's nonzero-exponent factors left to right in coordinate order,
    times its coefficient; the terms summed one after another in sorted
    order.  A constant term adds its coefficient alone.
    """
    monomials = sorted(p.terms)
    values = []
    for x in points.tolist():
        total = 0.0
        for mono in monomials:
            term = 1.0
            for xj, e in zip(x, mono):
                if e:
                    term *= square_rule_power(xj, e)
            total += term * float(p.terms[mono])
        values.append(total)
    return values


def sphere_points(rng, rows, dim):
    gauss = rng.standard_normal((rows, dim))
    return gauss / ((gauss * gauss).sum(axis=1) ** 0.5)[:, None]


def eval_rows(p, points):
    return _eval_poly(_layout(p), points).tolist()


class TestEvalPoly:
    """`_eval_poly` against a pure-Python float evaluation in the same order, compared with ``==``."""

    def check(self, exponents, coeffs, points):
        p = Poly(points.shape[1], {})
        for row, c in zip(exponents, coeffs):
            p = p + Poly(points.shape[1], {tuple(map(int, row)): Fraction(float(c))})
        assert eval_rows(p, points) == float_reference(p, points)

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
        # one variable, every exponent 0-8 of a lone term; no context has
        # dimension 1, so the oracle itself never reaches this layout
        import numpy as np

        rng = np.random.default_rng(1901)
        points = sphere_points(rng, 513, 1)
        for exponent in range(9):
            self.check([[exponent]], [-1.5], points)
        # x^4 is (x * x)^2, not x^3 * x
        x = points[:, 0]
        assert eval_rows(parse("x1^4", 1), points) == ((x * x) * (x * x)).tolist()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_constant_and_zero(self, dim):
        import numpy as np

        points = sphere_points(np.random.default_rng(dim), 100, dim)
        self.check([[0] * dim], [2.5], points)
        self.check([], [], points)

    def test_chunk_memory_follows_the_powers_not_the_terms(self):
        # 969 terms from 64 distinct powers x_j^e; a (rows x terms) array would be 32 MB
        import tracemalloc

        import numpy as np

        p = parse("x1 + x2 + x3 + x4", 4) ** 16
        powers = {(j, e) for mono in p.terms for j, e in enumerate(mono) if e}
        terms = _layout(p)
        points = sphere_points(np.random.default_rng(16), CHUNK_SIZE, 4)
        tracemalloc.start()
        try:
            _eval_poly(terms, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < CHUNK_SIZE * 8 * (len(powers) + 4), (peak, len(powers))


class TestMonteCarloBits:
    """Means and standard errors pinned by ``float.hex``.

    Past the Gaussian draws the oracle uses correctly rounded operations
    only, so these bits do not depend on the CPU's SIMD level or on BLAS.
    """

    @pytest.mark.parametrize("family, d, kappa, poly, seed, samples, mean, std_error", [
        # exponents 0, 1 and >= 2, a constant, 2 kappa = 2, a partial last chunk
        ("a", 3, [1], "x1 + 2*x2^3*x3 - x1^2*x3^2 + 5", 3, 10_000,
         "0x1.34bdd48137bd3p+2", "0x1.428a095f3e079p-7"),
        # one full chunk, a scalar 2 kappa = 3 on the weight
        ("b", 3, [F(1, 2), F(3, 2)], "x1^2*x2^2 + x3^4", 7, CHUNK_SIZE,
         "0x1.1212d29a5d564p-2", "0x1.834d2e6debddep-8"),
        # one partial chunk, exponents up to 8, three orbits
        ("z2", 3, [F(1, 3), 2, F(5, 2)], "x1^8*x2^3 - 3*x2^2*x3^6 + x3", 11, 2000,
         "-0x1.0d68c9f488ce6p-3", "0x1.e2d27c37d4289p-6"),
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


def pow_reference(x, a, b):
    """x^(a/b) by ``math.pow``, with the rounding of the exponent a/b divided back out.

    math.pow(x, fl(a/b)) is x^(a/b) times x^(fl(a/b) - a/b); that factor,
    exp(ln x (fl(a/b) - a/b)), is 1 within 1e-13 and is divided out, which
    leaves math.pow's own error and one rounding, within about 2 * 2^-53.
    """
    e = a / b
    return math.pow(x, e) / math.exp(math.log(x) * float(Fraction(e) - Fraction(a, b)))


def seeded_grid(seed, n, low_exponent=-1073):
    """n seeded x in [2^-1074, 1], spread over every binary exponent from ``low_exponent``."""
    import numpy as np

    rng = np.random.default_rng(seed)
    x = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(low_exponent, 1, n))
    return np.concatenate([[2.0**low_exponent / 2, 1.0], x])


class TestFractionalPower:
    """The weight's powers |t|^(a/b) against ``math.pow``.

    With a = q b + r, the weight takes t^q by squaring and t^(r/b) by
    `_root`, whose docstring bounds: within 4 * 2^-53 relative when b <= 512
    (after the Newton step) and (3.6 + 2.1 |s|) 2^-53 otherwise, with
    s = log2(t) r / b.  t^q adds q - 1 roundings and the product one more,
    and the reference is within about 2 * 2^-53; so the bound in units of
    2^-53 is 6 + q, plus 2.1 |s| when b > 512.
    """

    @staticmethod
    def worst_excess(x, values, a, b):
        """The largest error, in units of 2^-53, minus the bound above (<= 0 passes)."""
        q, r = divmod(a, b)
        excess = []
        for t, y in zip(x.tolist(), values.tolist()):
            bound = 6 + q + (2.1 * abs(math.log2(t)) * r / b if b > 512 else 0.0)
            excess.append(abs(y / pow_reference(t, a, b) - 1) / 2.0**-53 - bound)
        return max(excess)

    @pytest.mark.parametrize("b", list(range(2, 17)) + [10**3, 10**6])
    def test_root(self, b):
        x = seeded_grid(2500 + b, 4000)
        assert x.min() == 2.0**-1074 and x.max() == 1.0
        assert self.worst_excess(x, _root(x, 1, b), 1, b) <= 0

    @pytest.mark.parametrize("a, b", [
        (2, 3), (4, 3), (5, 2), (7, 4), (3, 10), (11, 6), (7, 513), (999, 1000),
        # a kappa of 9 and 16 decimal digits: as the a-th power of a b-th root
        # the latter was off by up to 59%, the root's error times a ~ 3e15
        (123456789, 500000000), (3333333333333333, 5000000000000000),
    ])
    def test_weight_power(self, a, b):
        # x from 2^-200 up, so that x^(a/b) stays a normal float
        x = seeded_grid(2600 + 17 * a % 1000 + b % 1000, 4000, low_exponent=-200)
        assert self.worst_excess(x, _weight_squared([((1.0,), a, b)], x[:, None]), a, b) <= 0

    @pytest.mark.parametrize("b", [2, 3, 7, 513, 10**6])
    def test_zero_stays_zero(self, b):
        import numpy as np

        assert _root(np.array([0.0, 1.0, 0.0]), 1, b).tolist() == [0.0, 1.0, 0.0]
        assert _root(np.array([0.0, 1.0]), b - 1, b).tolist() == [0.0, 1.0]


def test_float_lane_has_no_power_or_matrix_product():
    # the oracle's bits rest on correctly rounded operations: no matrix product
    # (BLAS), no numpy power, exp or log (SIMD kernels chosen per CPU); the one
    # ``**`` left is bessel_phi's on a Python float
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.MatMult)]
    banned = {"power", "float_power", "matmul", "dot", "exp", "exp2", "log", "log2", "cbrt"}
    assert not [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in banned]
    powers = {
        function.name
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function) if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
    }
    assert powers == {"bessel_phi"}


def test_mc_bytes_do_not_depend_on_simd_dispatch():
    # every numpy dispatch target this CPU has is switched off, and OpenBLAS held to
    # its Sandybridge kernels; naming only targets the CPU has keeps numpy from
    # warning, and -W error would turn such a warning into a failure
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    script = textwrap.dedent("""
        from dunkl_harmonics import cli
        cli.main(["mc", "--group", "b3", "--kappa", "1/2,3/2", "--poly", "x1^2*x2^2 + x3^4",
                  "--seed", "7", "--samples", "4096"])
        cli.main(["mc", "--group", "z2^3", "--kappa", "1/3,2,5/2", "--poly", "x1^8*x2^3 - 3*x2^2*x3^6 + x3",
                  "--seed", "11", "--samples", "2000"])
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    unset = ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")
    env = {key: value for key, value in os.environ.items() if key not in unset}
    env["PYTHONPATH"] = str(src)
    switched_off = {
        "NPY_DISABLE_CPU_FEATURES": " ".join(name for name in __cpu_dispatch__ if __cpu_features__.get(name)),
        "OPENBLAS_CORETYPE": "Sandybridge",
    }
    outputs = []
    for extra in ({}, switched_off):
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                              capture_output=True, env={**env, **extra}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 2


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
