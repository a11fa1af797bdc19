"""The identity corpus: every module property bundled into named checks.

Each check runs a deterministic, seeded sweep of one verified property and
reports pass or fail per (group, kappa) corpus entry; a failure always
carries a printable counterexample with the inputs and both sides.  The
default corpus covers sign-flip groups in dimensions 2 and 3, the symmetric
group on three coordinates, the square-symmetry group, and a
demihyperoctahedral instance, each with a nonzero multiplicity choice and
(where meaningful) the classical kappa = 0 reduction.

``rows()`` is the single property registry: ``verify()`` and the test suite
both run every row on every corpus context through ``run_row``, the suite at
the defaults below, so a passing suite means a passing ``dunkl verify``.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from . import harmonic, intertwine, oracle, spherical
from .dunkl import apply_operator_poly, dunkl_apply, dunkl_axis, laplacian, pairing
from .polyring import Poly, format_poly, monomials_of_degree, parse
from .reflection import FAMILY_ORBITS, DunklContext, make_context, reflection_matrix

DEFAULT_MAX_DEGREE = 6
DEFAULT_SEED = 20260801
DEFAULT_MC_SAMPLES = 200_000


@dataclass
class CheckResult:
    name: str
    group: str
    kappa: str
    degrees: str
    status: str
    counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "group": self.group,
            "kappa": self.kappa,
            "degrees": self.degrees,
            "status": self.status,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def passed(self) -> int:
        return self.total - self.failed

    @property
    def all_pass(self) -> bool:
        return self.failed == 0

    def to_json_dict(self) -> dict:
        return {
            "checks": [c.to_json_dict() for c in self.checks],
            "summary": {"total": self.total, "passed": self.passed, "failed": self.failed},
        }


# ---------------------------------------------------------------------------
# corpus and random generators


def default_corpus() -> list[DunklContext]:
    """Group/multiplicity instances exercised by every family-level check."""
    return [
        make_context("z2", 2, [Fraction(1, 2), Fraction(1, 2)]),
        make_context("z2", 2, [0, 0]),
        make_context("z2", 3, [1, Fraction(1, 2), 0]),
        make_context("z2", 3, [0, 0, 0]),
        make_context("a", 3, [1]),
        make_context("a", 3, [0]),
        make_context("b", 2, [Fraction(1, 2), Fraction(3, 2)]),
        make_context("b", 2, [0, 0]),
        make_context("d", 3, [Fraction(2, 3)]),
    ]


def filter_corpus(corpus: Sequence[DunklContext], families: Sequence[str] | None) -> list[DunklContext]:
    if not families:
        return list(corpus)
    wanted = [f.lower() for f in families]
    for family in wanted:
        if family not in FAMILY_ORBITS:
            raise ValueError(f"unknown family {family!r}; expected one of z2, a, b, d")
    return [ctx for ctx in corpus if ctx.family in wanted]


def random_fraction(rng: random.Random, zero_ok: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if value or zero_ok:
            return value


def random_poly(
    rng: random.Random,
    dim: int,
    degree: int,
    *,
    homogeneous: bool = False,
    max_terms: int = 6,
) -> Poly:
    """Random nonzero polynomial of (total or exact) degree at most ``degree``."""
    terms = {}
    pool = (
        monomials_of_degree(dim, degree)
        if homogeneous
        else [m for n in range(degree + 1) for m in monomials_of_degree(dim, n)]
    )
    count = min(max_terms, len(pool))
    for mono in rng.sample(pool, count):
        terms[mono] = random_fraction(rng)
    p = Poly(dim, terms)
    if p.is_zero:
        return random_poly(rng, dim, degree, homogeneous=homogeneous, max_terms=max_terms)
    return p


def random_vector(rng: random.Random, dim: int) -> list[Fraction]:
    while True:
        vec = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        if any(vec):
            return vec


def _rng(seed: int, *scope: str) -> random.Random:
    return random.Random(":".join((str(seed),) + scope))


def _counterexample(**kwargs) -> dict:
    return {k: str(v) for k, v in kwargs.items()}


# ---------------------------------------------------------------------------
# check implementations; each returns (status, counterexample, degrees)

Outcome = tuple[str, dict | None, str]
Check = Callable[..., Outcome]


def _ok(degrees: str) -> Outcome:
    return ("pass", None, degrees)


def _fail(degrees: str, **ce) -> Outcome:
    return ("fail", _counterexample(**ce), degrees)


def check_ring_laws(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    deg = min(max_degree, 4)
    for trial in range(12):
        p = random_poly(rng, ctx.dim, deg)
        q = random_poly(rng, ctx.dim, deg)
        r = random_poly(rng, ctx.dim, deg)
        if (p + q) + r != p + (q + r):
            return _fail(f"deg<={deg}", law="add associativity", p=p, q=q, r=r)
        if p * q != q * p:
            return _fail(f"deg<={deg}", law="mul commutativity", p=p, q=q)
        if p * (q + r) != p * q + p * r:
            return _fail(f"deg<={deg}", law="distributivity", p=p, q=q, r=r)
        if (p * q) * r != p * (q * r):
            return _fail(f"deg<={deg}", law="mul associativity", p=p, q=q, r=r)
        if not (p - p).is_zero:
            return _fail(f"deg<={deg}", law="additive inverse", p=p)
    return _ok(f"deg<={deg}")


def check_parse_roundtrip(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    deg = min(max_degree, 5)
    for trial in range(20):
        p = random_poly(rng, ctx.dim, deg)
        text = format_poly(p)
        back = parse(text, ctx.dim)
        if back != p:
            return _fail(f"deg<={deg}", text=text, parsed=back, original=p)
    return _ok(f"deg<={deg}")


def check_divided_difference(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    deg = min(max_degree, 5)
    roots = [root for root, _ in ctx.active_roots] or list(ctx.positive_roots)
    linear_forms = {
        root: Poly(ctx.dim, {tuple(1 if k == i else 0 for k in range(ctx.dim)): c
                             for i, c in enumerate(root)})
        for root in roots
    }
    for trial in range(10):
        p = random_poly(rng, ctx.dim, deg)
        for root in roots:
            dd = p.divided_difference(root)
            if dd * linear_forms[root] != p - p.reflect(root):
                return _fail(f"deg<={deg}", p=p, alpha=root, quotient=dd)
    return _ok(f"deg<={deg}")


def check_homogeneous_parts(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    deg = min(max_degree, 6)
    for trial in range(10):
        p = random_poly(rng, ctx.dim, deg, max_terms=8)
        parts = p.homogeneous_parts()
        total = Poly.zero(ctx.dim)
        last = -1
        for n, part in parts:
            if not part.is_homogeneous() or part.degree() != n or n <= last:
                return _fail(f"deg<={deg}", p=p, part_degree=n, part=part)
            last = n
            total = total + part
        if total != p:
            return _fail(f"deg<={deg}", p=p, reassembled=total)
    return _ok(f"deg<={deg}")


def check_root_closure(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    # r_beta alpha = alpha - 2<alpha, beta>/|beta|^2 beta, not the constructor's reflection table
    orbit_of = dict(zip(ctx.positive_roots, ctx.orbit_ids))
    for beta in ctx.positive_roots:
        for alpha, orbit in orbit_of.items():
            factor = 2 * sum(a * b for a, b in zip(alpha, beta)) / sum(v * v for v in beta)
            image = tuple(a - factor * b for a, b in zip(alpha, beta))
            if orbit_of.get(image, orbit_of.get(tuple(-v for v in image))) != orbit:
                return _fail("all roots", beta=beta, alpha=alpha, image=image)
    for beta in ctx.positive_roots:
        m = reflection_matrix(ctx, beta)
        square = [
            [sum(m[i][k] * m[k][j] for k in range(ctx.dim)) for j in range(ctx.dim)]
            for i in range(ctx.dim)
        ]
        if any(square[i][j] != (1 if i == j else 0) for i in range(ctx.dim) for j in range(ctx.dim)):
            return _fail("all roots", beta=beta, square=square)
    return _ok("all roots")


def check_scale_invariance(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    factor = Fraction(3, 2)
    scaled_ctx = DunklContext(
        ctx.dim,
        tuple(tuple(factor * v for v in root) for root in ctx.positive_roots),
        ctx.orbit_ids,
        ctx.kappa_by_orbit,
    )
    if scaled_ctx.lambda_kappa != ctx.lambda_kappa:
        return _fail("deg<=4", lhs=scaled_ctx.lambda_kappa, rhs=ctx.lambda_kappa)
    deg = min(max_degree, 4)
    for trial in range(6):
        p = random_poly(rng, ctx.dim, deg)
        xi = random_vector(rng, ctx.dim)
        if dunkl_apply(ctx, xi, p) != dunkl_apply(scaled_ctx, xi, p):
            return _fail(f"deg<={deg}", p=p, xi=xi)
        if spherical.sphere_integrate(ctx, p) != spherical.sphere_integrate(scaled_ctx, p):
            return _fail(f"deg<={deg}", p=p, what="sphere integral")
    return _ok(f"deg<={deg}")


def check_commutativity(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    deg = min(max_degree, 6)
    trials = 200
    for trial in range(trials):
        p = random_poly(rng, ctx.dim, deg, max_terms=4)
        xi = random_vector(rng, ctx.dim)
        eta = random_vector(rng, ctx.dim)
        lhs = dunkl_apply(ctx, eta, dunkl_apply(ctx, xi, p))
        rhs = dunkl_apply(ctx, xi, dunkl_apply(ctx, eta, p))
        if lhs != rhs:
            return _fail(f"deg<={deg}, {trials} trials", p=p, xi=xi, eta=eta, lhs=lhs, rhs=rhs)
    return _ok(f"deg<={deg}, {trials} trials")


def check_pairing_symmetry(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    deg = min(max_degree, 5)
    for trial in range(10):
        n = rng.randint(0, deg)
        p = random_poly(rng, ctx.dim, n, homogeneous=True)
        q = random_poly(rng, ctx.dim, n, homogeneous=True)
        if pairing(ctx, p, q) != pairing(ctx, q, p):
            return _fail(f"deg<={deg}", p=p, q=q,
                         lhs=pairing(ctx, p, q), rhs=pairing(ctx, q, p))
    return _ok(f"deg<={deg}")


def check_degree_orthogonality(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    deg = min(max_degree, 5)
    for trial in range(10):
        l = rng.randint(0, deg)
        m = rng.randint(0, deg)
        if l == m:
            m = (m + 1) % (deg + 1)
            if l == m:
                continue
        p = random_poly(rng, ctx.dim, l, homogeneous=True)
        q = random_poly(rng, ctx.dim, m, homogeneous=True)
        if pairing(ctx, p, q):
            return _fail(f"deg<={deg}", p=p, q=q, value=pairing(ctx, p, q))
    return _ok(f"deg<={deg}")


def check_pairing_positivity(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    deg = min(max_degree, 5)
    for trial in range(10):
        n = rng.randint(0, deg)
        p = random_poly(rng, ctx.dim, n, homogeneous=True)
        if pairing(ctx, p, p) <= 0:
            return _fail(f"deg<={deg}", p=p, value=pairing(ctx, p, p))
    return _ok(f"deg<={deg}")


def check_kappa_zero_reduction(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    if ctx.active_roots:
        return _ok("skipped: nonzero kappa")
    deg = min(max_degree, 5)
    for trial in range(8):
        p = random_poly(rng, ctx.dim, deg)
        xi = random_vector(rng, ctx.dim)
        classical = Poly.zero(ctx.dim)
        for j, c in enumerate(xi):
            if c:
                classical = classical + p.partial(j + 1) * c
        if dunkl_apply(ctx, xi, p) != classical:
            return _fail(f"deg<={deg}", p=p, xi=xi)
        classical_lap = Poly.zero(ctx.dim)
        for j in range(ctx.dim):
            classical_lap = classical_lap + p.partial(j + 1).partial(j + 1)
        if laplacian(ctx, p) != classical_lap:
            return _fail(f"deg<={deg}", p=p, what="laplacian")
    return _ok(f"deg<={deg}")


def check_laplacian_operator_consistency(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    deg = min(max_degree, 5)
    norm2 = Poly.norm_squared(ctx.dim)
    for trial in range(6):
        p = random_poly(rng, ctx.dim, deg)
        if laplacian(ctx, p) != apply_operator_poly(ctx, norm2, p):
            return _fail(f"deg<={deg}", p=p)
    return _ok(f"deg<={deg}")


def check_harmonic_reconstruction(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    for n in range(max_degree + 1):
        for trial in range(4):
            p = random_poly(rng, ctx.dim, n, homogeneous=True)
            decomp = harmonic.canonical_decompose(ctx, p)
            if decomp.reconstruct() != p:
                return _fail(f"n<={max_degree}", p=p, degree=n,
                             reconstructed=decomp.reconstruct())
            for i, comp in decomp.components:
                if not harmonic.is_h_harmonic(ctx, comp):
                    return _fail(f"n<={max_degree}", p=p, component_index=i, component=comp)
    return _ok(f"n<={max_degree}")


def check_component_orthogonality(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    deg = min(max_degree, 6)
    norm2 = Poly.norm_squared(ctx.dim)
    for trial in range(3):
        n = rng.randint(2, max(2, deg))
        p = random_poly(rng, ctx.dim, n, homogeneous=True)
        decomp = harmonic.canonical_decompose(ctx, p)
        lifted = [(i, (norm2**i) * comp) for i, comp in decomp.components if not comp.is_zero]
        for a in range(len(lifted)):
            for b in range(a + 1, len(lifted)):
                value = pairing(ctx, lifted[a][1], lifted[b][1])
                if value:
                    return _fail(f"n<={deg}", p=p, i=lifted[a][0], j=lifted[b][0], value=value)
    return _ok(f"n<={deg}")


def check_proj_idempotence(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    deg = min(max_degree, 6)
    for n in range(deg + 1):
        p = random_poly(rng, ctx.dim, n, homogeneous=True)
        first = harmonic.proj(ctx, n, p)
        if harmonic.proj(ctx, n, first) != first:
            return _fail(f"n<={deg}", p=p, degree=n)
    return _ok(f"n<={deg}")


def check_basis_dimension(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    d = ctx.dim
    top = min(max_degree, 8)
    for n in range(top + 1):
        basis = harmonic.h_harmonic_basis(ctx, n)
        expected = math.comb(n + d - 1, d - 1) - (math.comb(n + d - 3, d - 1) if n >= 2 else 0)
        if len(basis) != expected:
            return _fail(f"n<={top}", degree=n, size=len(basis), expected=expected)
        for b in basis:
            if not harmonic.is_h_harmonic(ctx, b):
                return _fail(f"n<={top}", degree=n, element=b)
    return _ok(f"n<={top}")


def check_orthogonality_vs_integral(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    top = min(max_degree, 3)
    bases = {m: harmonic.h_harmonic_basis(ctx, m) for m in range(top + 1)}
    for l in range(top + 1):
        for m in range(top + 1):
            for p in bases[l][:3]:
                for q in bases[m][:3]:
                    lhs = spherical.pair_integral(ctx, q, p)
                    rhs = spherical.sphere_integrate(ctx, p * q)
                    if lhs != rhs:
                        return _fail(f"l,m<={top}", p=p, q=q, lhs=lhs, rhs=rhs)
    return _ok(f"l,m<={top}")


def check_quadrature_consistency(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    top = min(max_degree, 3)
    for m in range(top + 1):
        basis = harmonic.h_harmonic_basis(ctx, m)
        for q in basis[:2]:
            for l in range(max_degree + 1):
                p = random_poly(rng, ctx.dim, l, homogeneous=True)
                lhs = spherical.sphere_integrate(ctx, q * p)
                rhs = spherical.pair_integral(ctx, q, p)
                if lhs != rhs:
                    return _fail(f"m<={top}, l<={max_degree}", q=q, p=p, lhs=lhs, rhs=rhs)
    return _ok(f"m<={top}, l<={max_degree}")


def check_dirichlet_oracle(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    if ctx.family != "z2":
        return _ok("skipped: z2 only")
    top = min(max_degree, 8)
    halved = [m for total in range(top // 2 + 1) for m in monomials_of_degree(ctx.dim, total)]
    for a in halved:
        mono = Poly.monomial(ctx.dim, tuple(2 * v for v in a))
        lhs = spherical.sphere_integrate(ctx, mono)
        rhs = oracle.dirichlet_monomial(ctx, a)
        if lhs != rhs:
            return _fail(f"|a|<={top // 2}", a=a, lhs=lhs, rhs=rhs)
    return _ok(f"|a|<={top // 2}")


def _integral_radius_poly(ctx: DunklContext, q: Poly, f: Poly) -> dict[int, Fraction]:
    """Exact radius polynomial of the weighted spherical mean of q(y) f(ry)."""
    out: dict[int, Fraction] = {}
    for l, part in f.homogeneous_parts():
        value = spherical.sphere_integrate(ctx, q * part)
        if value:
            out[l] = value
    return out


def check_pizzetti_exactness(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    for m in range(min(2, max_degree) + 1):
        basis = harmonic.h_harmonic_basis(ctx, m)
        for q in basis[:2]:
            f = random_poly(rng, ctx.dim, max_degree, max_terms=8)
            n_exact = max(0, (f.degree() - m + 1) // 2)
            series = spherical.extended_pizzetti(ctx, q, f, n_exact)
            if series.radius_poly() != _integral_radius_poly(ctx, q, f):
                return _fail(f"deg f<={max_degree}, m<=2", q=q, f=f,
                             series=dict(series.radius_poly()),
                             integral=_integral_radius_poly(ctx, q, f))
    return _ok(f"deg f<={max_degree}, m<=2")


def check_pizzetti_truncation(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    deg = max(4, max_degree)
    q = Poly.const(ctx.dim, 1)
    f = random_poly(rng, ctx.dim, deg, max_terms=8)
    full = _integral_radius_poly(ctx, q, f)
    for n_cut in range(0, max(0, (f.degree() // 2) - 1)):
        series = spherical.pizzetti(ctx, f, n_cut)
        residual = dict(full)
        for power, c in series.radius_poly().items():
            residual[power] = residual.get(power, Fraction(0)) - c
        residual = {k: v for k, v in residual.items() if v}
        if residual and min(residual) <= 2 * n_cut:
            return _fail(f"deg f<={deg}", f=f, cutoff=n_cut, residual_min_degree=min(residual))
    return _ok(f"deg f<={deg}")


def check_hobson_equivalence(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    deg = min(max_degree, 5)
    for trial in range(8):
        m = rng.randint(0, deg)
        p = random_poly(rng, ctx.dim, m, homogeneous=True, max_terms=4)
        pairs = [(rng.randint(0, 6), random_fraction(rng)) for _ in range(3)]
        f0 = spherical.RadialPowerSum.from_pairs(pairs)
        radial = sum((Poly.norm_squared(ctx.dim) ** j * c for j, c in f0.terms), Poly.zero(ctx.dim))
        direct = apply_operator_poly(ctx, p, radial)
        via_formula = spherical.hobson_apply(ctx, p, f0)
        if direct != via_formula:
            return _fail(f"deg p<={deg}, j<=6", p=p, radial=f0.terms,
                         direct=direct, formula=via_formula)
    return _ok(f"deg p<={deg}, j<=6")


def check_radial_power_formula(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    norm2 = Poly.norm_squared(ctx.dim)
    for m in range(min(3, max_degree) + 1):
        basis = harmonic.h_harmonic_basis(ctx, m)
        for q in basis[:2]:
            for j in range(7):
                closed = spherical.harmonic_radial_power(ctx, q, j)
                brute = apply_operator_poly(ctx, q, norm2**j)
                if closed != brute:
                    return _fail("m<=3, j<=6", q=q, j=j, closed=closed, brute=brute)
    return _ok("m<=3, j<=6")


def check_series_route_agreement(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    for m in range(min(2, max_degree) + 1):
        basis = harmonic.h_harmonic_basis(ctx, m)
        for q in basis[:2]:
            f = random_poly(rng, ctx.dim, max_degree, max_terms=6)
            n_terms = max(1, (f.degree() + 1) // 2)
            one = spherical.extended_pizzetti(ctx, q, f, n_terms)
            two = spherical.pizzetti_from_hobson(ctx, q, f, n_terms)
            if one != two:
                return _fail(f"deg f<={max_degree}, m<=2", q=q, f=f,
                             direct=one.coefficients, via_product=two.coefficients)
    return _ok(f"deg f<={max_degree}, m<=2")


def check_intertwiner_property(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    deg = min(max_degree, 6)
    for trial in range(6):
        p = random_poly(rng, ctx.dim, rng.randint(1, deg), homogeneous=True, max_terms=4)
        vp = intertwine.intertwiner_apply(ctx, p)
        for j in range(1, ctx.dim + 1):
            lhs = dunkl_axis(ctx, j, vp)
            rhs = intertwine.intertwiner_apply(ctx, p.partial(j))
            if lhs != rhs:
                return _fail(f"deg<={deg}", p=p, axis=j, lhs=lhs, rhs=rhs)
    return _ok(f"deg<={deg}")


def check_intertwiner_identity_at_zero(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    if ctx.active_roots:
        return _ok("skipped: nonzero kappa")
    deg = min(max_degree, 5)
    for trial in range(6):
        p = random_poly(rng, ctx.dim, deg)
        if intertwine.intertwiner_apply(ctx, p) != p:
            return _fail(f"deg<={deg}", p=p)
    return _ok(f"deg<={deg}")


def check_gegenbauer_orthogonality(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    lam = ctx.lambda_kappa
    if lam <= 0:
        return _ok("skipped: needs positive spectral index")
    for m in range(6):
        for n in range(6):
            want = Fraction(0) if m != n else lam / (n + lam)
            profile = intertwine.gegenbauer(n, lam)
            got = intertwine.funk_hecke_coeff(ctx, m, profile)
            alt = intertwine.funk_hecke_coeff_moments(ctx, m, profile)
            if got != want or alt != want:
                return _fail("m,n<=5", m=m, n=n, monomial_rule=got, moment_rule=alt, expected=want)
    return _ok("m,n<=5")


def check_funk_hecke(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    lam = ctx.lambda_kappa
    if lam <= 0:
        return _ok("skipped: needs positive spectral index")
    top_l = min(max_degree, 6)
    for m in range(min(2, max_degree) + 1):
        basis = harmonic.h_harmonic_basis(ctx, m)
        for q in basis[:2]:
            for l in range(top_l + 1):
                result = intertwine.funk_hecke_check(ctx, Poly.monomial(1, (l,)), q)
                if not result.holds:
                    return _fail(f"l<={top_l}, m<=2", phi=f"t^{l}", q=q,
                                 lhs=result.lhs, rhs=result.rhs)
    # linearity in the profile
    basis = harmonic.h_harmonic_basis(ctx, 1)
    q = basis[0]
    phi = Poly(1, {(l,): random_fraction(rng, zero_ok=True) for l in range(top_l + 1)})
    combined = intertwine.funk_hecke_check(ctx, phi, q)
    if not combined.holds:
        return _fail(f"l<={top_l}, m<=2", phi=str(phi).replace("x1", "t"), q=q,
                     lhs=combined.lhs, rhs=combined.rhs)
    return _ok(f"l<={top_l}, m<=2")


def check_reproducing(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    lam = ctx.lambda_kappa
    if lam <= 0:
        return _ok("skipped: needs positive spectral index")
    top = min(2, max_degree)
    for n in range(top + 1):
        for m in range(top + 1):
            basis = harmonic.h_harmonic_basis(ctx, m)
            for q in basis[:2]:
                if not intertwine.reproducing_check(ctx, n, q):
                    return _fail(f"m,n<={top}", n=n, q=q)
    return _ok(f"m,n<={top}")


def check_mc_agreement(ctx: DunklContext, rng: random.Random, max_degree: int, samples: int) -> Outcome:
    if not ctx.active_roots and ctx.family != "z2":
        return _ok("skipped: covered by kappa=0 siblings")
    polys = [
        Poly.monomial(ctx.dim, tuple(2 if i == 0 else 0 for i in range(ctx.dim))),
        random_poly(rng, ctx.dim, 4, max_terms=5),
    ]
    seed = rng.randrange(2**31)
    for p in polys:
        exact = spherical.sphere_integrate(ctx, p)
        estimate = oracle.mc_sphere_integral(ctx, p, seed=seed, samples=samples)
        bound = 4.0 * estimate.std_error
        if abs(float(exact) - estimate.mean) > bound:
            return _fail(f"{samples} samples", p=p, exact=exact,
                         mc_mean=estimate.mean, four_sigma=bound)
    return _ok(f"{samples} samples")


def check_bessel_phi(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    for z in (0.25, 1.0, 3.0):
        sinc = oracle.bessel_phi(0.5, z)
        if abs(sinc - math.sin(z) / z) > 1e-13:
            return _fail("|z|<=3", alpha=0.5, z=z, got=sinc, want=math.sin(z) / z)
        cosine = oracle.bessel_phi(-0.5, z)
        if abs(cosine - math.cos(z)) > 1e-13:
            return _fail("|z|<=3", alpha=-0.5, z=z, got=cosine, want=math.cos(z))
    # alternating series: truncation error bounded by the first omitted term
    alpha, z = 0.75, 2.5
    full = oracle.bessel_phi(alpha, z)
    for n_terms in range(1, 6):
        partial = oracle.bessel_phi(alpha, z, max_terms=n_terms)
        omitted = 1.0
        for k in range(n_terms + 1):
            omitted *= -((z / 2.0) ** 2) / ((k + 1) * (alpha + k + 1))
        if abs(full - partial) > abs(omitted) + 1e-15:
            return _fail("|z|<=3", alpha=alpha, z=z, terms=n_terms,
                         error=abs(full - partial), bound=abs(omitted))
    return _ok("|z|<=3")


def check_bessel_form(ctx: DunklContext, rng: random.Random, max_degree: int) -> Outcome:
    for m in range(min(2, max_degree) + 1):
        basis = harmonic.h_harmonic_basis(ctx, m)
        for q in basis[:1]:
            f = random_poly(rng, ctx.dim, min(max_degree, 6), max_terms=5)
            n_exact = max(0, (f.degree() - m + 1) // 2)
            series = spherical.extended_pizzetti(ctx, q, f, n_exact)
            for r in (0.1, 0.5, 1.0):
                exact = series.eval_float(r)
                numeric = spherical.bessel_form_eval(ctx, q, f, r)
                scale = max(abs(exact), 1e-30)
                if abs(numeric - exact) > 1e-12 * scale:
                    return _fail("r in {0.1,0.5,1.0}", q=q, f=f, r=r,
                                 exact=exact, numeric=numeric)
            # the competing normalization must not reproduce the series
            if m >= 1 and ctx.lambda_kappa > 0:
                exact = series.eval_float(1.0)
                if abs(exact) > 1e-9:
                    wrong = spherical.bessel_form_eval(ctx, q, f, 1.0, variant="lambda")
                    if abs(wrong - exact) <= 1e-12 * abs(exact):
                        return _fail("prefactor resolution", q=q, f=f,
                                     note="competing normalization also matched")
    return _ok("r in {0.1,0.5,1.0}")


# ---------------------------------------------------------------------------
# the registry and the runner

PER_FAMILY_CHECKS: list[tuple[str, Check]] = [
    ("polyring_ring_laws", check_ring_laws),
    ("polyring_parse_format_roundtrip", check_parse_roundtrip),
    ("polyring_divided_difference", check_divided_difference),
    ("polyring_homogeneous_parts", check_homogeneous_parts),
    ("reflection_root_closure", check_root_closure),
    ("reflection_scale_invariance", check_scale_invariance),
    ("dunkl_commutativity", check_commutativity),
    ("dunkl_pairing_symmetry", check_pairing_symmetry),
    ("dunkl_degree_orthogonality", check_degree_orthogonality),
    ("dunkl_pairing_positivity", check_pairing_positivity),
    ("dunkl_kappa_zero_reduction", check_kappa_zero_reduction),
    ("dunkl_laplacian_operator_consistency", check_laplacian_operator_consistency),
    ("harmonic_reconstruction", check_harmonic_reconstruction),
    ("harmonic_component_orthogonality", check_component_orthogonality),
    ("harmonic_proj_idempotence", check_proj_idempotence),
    ("harmonic_basis_dimension", check_basis_dimension),
    ("harmonic_orthogonality_vs_integral", check_orthogonality_vs_integral),
    ("spherical_quadrature_consistency", check_quadrature_consistency),
    ("spherical_dirichlet_oracle", check_dirichlet_oracle),
    ("spherical_pizzetti_exactness", check_pizzetti_exactness),
    ("spherical_pizzetti_truncation", check_pizzetti_truncation),
    ("spherical_hobson_equivalence", check_hobson_equivalence),
    ("spherical_radial_power_formula", check_radial_power_formula),
    ("spherical_series_route_agreement", check_series_route_agreement),
    ("intertwine_defining_property", check_intertwiner_property),
    ("intertwine_identity_at_kappa_zero", check_intertwiner_identity_at_zero),
    ("intertwine_gegenbauer_orthogonality", check_gegenbauer_orthogonality),
    ("intertwine_funk_hecke", check_funk_hecke),
    ("intertwine_reproducing", check_reproducing),
    ("oracle_bessel_phi", check_bessel_phi),
    ("spherical_bessel_form", check_bessel_form),
]


MC_SAMPLES_ERROR = "--samples must be >= 2: one sample has no standard error"


def rows(mc_samples: int = DEFAULT_MC_SAMPLES) -> list[tuple[str, Check]]:
    """Every named check verify runs, in report order: the registry."""
    return PER_FAMILY_CHECKS + [
        ("oracle_mc_agreement", functools.partial(check_mc_agreement, samples=mc_samples))
    ]


def run_row(name: str, check: Check, ctx: DunklContext, seed: int, max_degree: int) -> CheckResult:
    """One report row: the check on one context, with an rng scoped to both."""
    rng = _rng(seed, name, ctx.label())
    try:
        status, ce, degrees = check(ctx, rng, max_degree)
    except Exception as exc:  # a crash is a failing check, not a crash of verify
        status, ce, degrees = "fail", {"error": repr(exc)}, "-"
    return CheckResult(name, ctx.group_name, ctx.kappa_text, degrees, status, ce)


def verify(
    max_degree: int = DEFAULT_MAX_DEGREE,
    families: Sequence[str] | None = None,
    seed: int = DEFAULT_SEED,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    timings: dict[str, float] | None = None,
) -> VerifyReport:
    """Run the full check corpus and collect a deterministic report.

    Failures never raise; they become report rows with counterexamples.
    Fewer than two Monte-Carlo samples is refused, since one sample has no
    standard error and would pass every agreement row.  When ``timings`` is
    a dict, each named check's wall-clock seconds over the corpus are put in
    it, in report order; the report itself does not change.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    if mc_samples < 2:
        raise ValueError(MC_SAMPLES_ERROR)
    corpus = filter_corpus(default_corpus(), families)
    checks: list[CheckResult] = []
    for name, check in rows(mc_samples):
        start = time.perf_counter()
        checks += [run_row(name, check, ctx, seed, max_degree) for ctx in corpus]
        if timings is not None:
            timings[name] = time.perf_counter() - start
    return VerifyReport(checks)
