"""The three benchmark workloads: seeded inputs and the ops that run on them.

A workload is built once per process (its set-up), warmed up, and then asked
for rounds of ops.  A round is a fixed, balanced set of cells (context x kind
x size) in a seeded order, so every round has the same mix and only the
random inputs differ between seeds.  Inputs come from ``random.Random``
seeded with the workload name, the workload seed and the round index; the
library receives only the generated inputs.

Each op carries the timed call, a canonical text form of its exact output
(folded into the correctness digest outside the timed region), and an
optional check that returns a failure reason.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import dunkl_harmonics as dh


@dataclass(frozen=True)
class Op:
    cell: str
    run: Callable[[], object]
    canon: Callable[[object], str]
    check: Callable[[object], str | None] | None = None


# -- input generators ---------------------------------------------------------

_EXPONENTS: dict[tuple[int, int], list[tuple[int, ...]]] = {}


def exponents(dim: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of one total degree, in a fixed sorted order."""
    key = (dim, degree)
    if key not in _EXPONENTS:
        _EXPONENTS[key] = sorted(
            tuple(combo.count(i) for i in range(dim))
            for combo in itertools.combinations_with_replacement(range(dim), degree)
        )
    return _EXPONENTS[key]


def random_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-9, -7, -5, -3, -2, -1, 1, 2, 3, 5, 7, 9)), rng.randint(1, 4))


def random_poly(rng: random.Random, dim: int, degrees: range | tuple[int, ...], terms: int) -> dh.Poly:
    """A polynomial with ``terms`` distinct monomials drawn from the given degrees."""
    pool = [m for n in degrees for m in exponents(dim, n)]
    picked = rng.sample(pool, min(terms, len(pool)))
    return dh.Poly(dim, {m: random_coeff(rng) for m in picked})


def _ctx(spec: tuple[str, str, int, tuple]) -> dh.DunklContext:
    _, family, dim, kappa = spec
    return dh.make_context(family, dim, [Fraction(k) for k in kappa])


# -- canonical output text ------------------------------------------------------


def canon_decomposition(dec: dh.HarmonicDecomposition) -> str:
    return " | ".join(dh.format_poly(part) for _, part in dec.components)


def canon_series(series: dh.PizzettiSeries) -> str:
    return f"m={series.m}: " + ", ".join(str(c) for c in series.coefficients)


# -- workloads ------------------------------------------------------------------


WARMUP_ROUND = -1


class Workload:
    """Base class: subclasses build their contexts in ``__init__`` (set-up)."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, round_index: int) -> random.Random:
        if round_index == WARMUP_ROUND:  # the same warm-up work for every seed
            return random.Random(f"{self.name}:warm-up")
        return random.Random(f"{self.name}:{self.seed}:{round_index}")

    def round_ops(self, round_index: int) -> list[Op]:
        raise NotImplementedError

    def warm_up_ops(self) -> list[Op]:
        """One op per context and kind, from a round that no timed phase uses.

        The warm-up is the same for every seed, so its digest is pinned once
        and checked on every run.
        """
        ops = {}
        for op in self.round_ops(WARMUP_ROUND):
            ops.setdefault(tuple(op.cell.split("/")[:2]), op)
        return list(ops.values())


OPERATOR_CONTEXTS = (
    ("z2^3", "z2", 3, (1, Fraction(1, 2), 0)),
    ("a2", "a", 3, (1,)),
    ("b3", "b", 3, (Fraction(1, 2), Fraction(3, 2))),
    ("d4", "d", 4, (Fraction(1, 2),)),
)
OPERATOR_KINDS = ("laplacian", "dunkl_apply", "sphere_integrate", "canonical_decompose")
OPERATOR_DEGREES = range(4, 9)


class OperatorStream(Workload):
    """Fresh homogeneous polynomials through the operator layer on fixed contexts."""

    name = "operator_stream"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.contexts = [(spec[0], _ctx(spec)) for spec in OPERATOR_CONTEXTS]

    def round_ops(self, round_index: int) -> list[Op]:
        rng = self.rng(round_index)
        cells = list(itertools.product(self.contexts, OPERATOR_KINDS, OPERATOR_DEGREES))
        rng.shuffle(cells)
        ops = []
        for (label, ctx), kind, degree in cells:
            p = random_poly(rng, ctx.dim, (degree,), rng.randint(6, 20))
            cell = f"{label}/{kind}/deg{degree}"
            if kind == "laplacian":
                ops.append(Op(cell, lambda c=ctx, p=p: dh.laplacian(c, p), dh.format_poly))
            elif kind == "dunkl_apply":
                xi = [0] * ctx.dim
                while not any(xi):
                    xi = [rng.randint(-3, 3) for _ in range(ctx.dim)]
                ops.append(Op(cell, lambda c=ctx, p=p, xi=xi: dh.dunkl_apply(c, xi, p), dh.format_poly))
            elif kind == "sphere_integrate":
                ops.append(Op(cell, lambda c=ctx, p=p: dh.sphere_integrate(c, p), str))
            else:
                ops.append(Op(cell, lambda c=ctx, p=p: dh.canonical_decompose(c, p), canon_decomposition))
        return ops


# family, dimension, number of orbits, degrees (d4 lower so ops stay comparable)
COLD_FAMILIES = (
    ("z2^3", "z2", 3, 3, (3, 4, 5)),
    ("a2", "a", 3, 1, (2, 3, 4)),
    ("b3", "b", 3, 2, (2, 3, 4)),
    ("d4", "d", 4, 1, (1, 2, 3)),
)


def _cold_op(family: str, dim: int, kappa: list[Fraction], degree: int, p: dh.Poly):
    ctx = dh.make_context(family, dim, kappa)
    return ctx.label(), dh.h_harmonic_basis(ctx, degree), dh.intertwiner_apply(ctx, p)


def _canon_cold(result) -> str:
    label, basis, image = result
    return f"{label} basis: " + " ; ".join(dh.format_poly(b) for b in basis) + f" V: {dh.format_poly(image)}"


class ColdTables(Workload):
    """A fresh context per op: no per-context table can be reused across ops."""

    name = "cold_tables"

    def round_ops(self, round_index: int) -> list[Op]:
        rng = self.rng(round_index)
        cells = [(spec, n) for spec in COLD_FAMILIES for n in spec[4]]
        rng.shuffle(cells)
        ops = []
        for (label, family, dim, orbits, _), degree in cells:
            kappa = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(orbits)]
            p = random_poly(rng, dim, (degree,), 6)
            ops.append(Op(
                f"{label}/basis+V/deg{degree}",
                lambda f=family, d=dim, k=kappa, n=degree, p=p: _cold_op(f, d, k, n, p),
                _canon_cold,
            ))
        return ops


CORPUS = (
    ("z2^2", "z2", 2, (Fraction(1, 2), Fraction(1, 2))),
    ("z2^3", "z2", 3, (1, Fraction(1, 2), 0)),
    ("a2", "a", 3, (1,)),
    ("b2", "b", 2, (Fraction(1, 2), Fraction(3, 2))),
)
ZONAL_KINDS = (
    "funk_hecke_check",
    "reproducing_check",
    "extended_pizzetti",
    "pizzetti_from_hobson",
    "pair_integral",
    "hobson_apply",
    "mc_sphere_integral",
)
ZONAL_MAX_M = 3  # harmonic degrees of the set-up bases
ZONAL_MAX_V = 4  # V tables built in set-up: the largest profile degree used

MC_SAMPLES = 16384
MC_SEEDS = (11, 23, 37, 53)
MC_POOL_PER_CONTEXT = 8
MC_POOL_SEED = "mc_sphere_integral:pool"


def mc_targets(dim: int, rng: random.Random) -> list[dh.Poly]:
    """The fixed Monte-Carlo targets of one context: the C11 targets plus a random pool.

    The pool does not depend on the workload seed, so the set of (target,
    Monte-Carlo seed) pairs is finite and every pair can be checked at 4 sigma
    once (the smoke test does): a run never fails by a chance 4-sigma miss.
    """
    targets = [
        dh.Poly.monomial(dim, tuple(2 if i == 0 else 0 for i in range(dim))),
        dh.Poly.monomial(dim, (2,) * dim) if dim == 2 else dh.Poly.monomial(dim, (2, 2, 0)),
        (dh.Poly.variable(dim, 1) + dh.Poly.variable(dim, 2)) ** 4,
    ]
    return targets + [random_poly(rng, dim, range(1, 5), rng.randint(2, 4)) for _ in range(MC_POOL_PER_CONTEXT)]


def _check_holds(result) -> str | None:
    return None if result.holds else "the Funk-Hecke identity does not hold"


def _check_true(result) -> str | None:
    return None if result is True else "the reproducing property fails"


def _canon_funk_hecke(result) -> str:
    return f"{result.holds} | {result.lhs} | {result.rhs} | {result.coefficient}"


def _within_4_sigma(exact: float) -> Callable[[object], str | None]:
    def check(est) -> str | None:
        if not math.isfinite(est.std_error) or abs(est.mean - exact) > 4 * est.std_error:
            return f"Monte-Carlo mean {est.mean!r} +- {est.std_error!r} misses {exact!r} at 4 sigma"
        return None

    return check


class WarmZonal(Workload):
    """Reuse-heavy queries on the acceptance corpus with prebuilt tables.

    Besides the zonal and radius-expansion queries, one kind in seven is a
    Monte-Carlo integral of a fixed target, checked at 4 sigma against its
    exact value from set-up: the oracle lane, measured on the same corpus.
    """

    name = "warm_zonal"

    def __init__(self, seed: int):
        super().__init__(seed)
        pool_rng = random.Random(MC_POOL_SEED)
        self.contexts = []
        for spec in CORPUS:
            ctx = _ctx(spec)
            bases = [dh.h_harmonic_basis(ctx, m) for m in range(ZONAL_MAX_M + 1)]
            dh.intertwiner_apply(ctx, dh.Poly.monomial(ctx.dim, (ZONAL_MAX_V,) + (0,) * (ctx.dim - 1)))
            targets = [(f"{spec[0]}#{i}", p, dh.sphere_integrate(ctx, p))
                       for i, p in enumerate(mc_targets(ctx.dim, pool_rng))]
            self.contexts.append((spec[0], ctx, bases, targets))

    def round_ops(self, round_index: int) -> list[Op]:
        rng = self.rng(round_index)
        cells = list(itertools.product(self.contexts, ZONAL_KINDS, range(ZONAL_MAX_M + 1)))
        rng.shuffle(cells)
        ops = []
        for (label, ctx, bases, targets), kind, m in cells:
            q = rng.choice(bases[m])
            d = ctx.dim
            cell = f"{label}/{kind}/m{m}"
            if kind == "funk_hecke_check":
                l = m + 2 * rng.randint(0, 1) if m + 2 <= ZONAL_MAX_V else m
                phi = dh.UniPoly.t_power(l)
                ops.append(Op(cell, lambda c=ctx, phi=phi, q=q: dh.funk_hecke_check(c, phi, q),
                              _canon_funk_hecke, _check_holds))
            elif kind == "reproducing_check":
                n = rng.randint(0, ZONAL_MAX_M)
                ops.append(Op(cell, lambda c=ctx, n=n, q=q: dh.reproducing_check(c, n, q),
                              str, _check_true))
            elif kind in ("extended_pizzetti", "pizzetti_from_hobson"):
                f = random_poly(rng, d, range(0, 5), rng.randint(3, 5))
                func = getattr(dh, kind)
                ops.append(Op(cell, lambda c=ctx, q=q, f=f, func=func: func(c, q, f, 2), canon_series))
            elif kind == "pair_integral":
                p = random_poly(rng, d, (m + 2 * rng.randint(0, 1),), rng.randint(3, 5))
                ops.append(Op(cell, lambda c=ctx, q=q, p=p: dh.pair_integral(c, q, p), str))
            elif kind == "hobson_apply":
                p = random_poly(rng, d, (m + 1,), rng.randint(2, 4))
                f0 = dh.RadialPowerSum.from_pairs(
                    [(rng.randint(0, 3), random_coeff(rng)) for _ in range(rng.randint(1, 2))]
                )
                ops.append(Op(cell, lambda c=ctx, p=p, f0=f0: dh.hobson_apply(c, p, f0), dh.format_poly))
            else:
                target, p, exact = rng.choice(targets)
                mc_seed = rng.choice(MC_SEEDS)
                ops.append(Op(
                    f"{cell}/{target}/seed{mc_seed}",
                    lambda c=ctx, p=p, s=mc_seed: dh.mc_sphere_integral(c, p, seed=s, samples=MC_SAMPLES),
                    lambda _est, exact=exact: f"exact={exact}",  # floats are gated at 4 sigma, not by bits
                    _within_4_sigma(float(exact)),
                ))
        return ops


WORKLOADS = {cls.name: cls for cls in (OperatorStream, ColdTables, WarmZonal)}
