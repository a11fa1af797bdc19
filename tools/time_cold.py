"""Time the cold exact paths on fixed inputs (h-harmonic bases, the V table, the operator tables) and Monte-Carlo calls.

    PYTHONPATH=src python3 tools/time_cold.py [--repeat 5]

Each case builds a fresh context per repetition, so no table is cached
across repetitions.  The cold_tables cases come first, on that workload's
four groups: one ``make_context`` per repetition, then a cold op, a fresh
context with the h-harmonic basis and V at the group's top workload degree;
their ``first_s``, the first repetition, is the first context of its root
set in the process, and the first cold op, before the bounded caches of the
monomial lists and the root-set verdict have seen it.  Then the degree-8 bases of A3, d4, b4 and z2^4 (their kernels
are the same shape, and A3 grows the largest rows), V up to degree 6 on the
same groups, and the d4 axis table: D_xi of the sum of every degree-8
monomial, which fills the table's 165 degree-8 entries.  The dense cases
time roots whose reflection is not a signed permutation: the planar
``dense`` system (roots (1, 2) and (2, -1)) and b3 rotated about x3, whose
roots are dense except e3; a "table to degree n" case applies the operator
to the sum of every monomial of degree <= n.  On z2^4 no root swaps two
coordinates, so every monomial is its own orbit and every Laplacian image
and V column is computed, none reflected from an orbit-mate.  The
Monte-Carlo cases time one ``mc_sphere_integral`` call each: (x1+x2)^4 on
b2, (x1+...+x4)^8 (165 terms) on d4 and a z2^3 target whose weight has the
fractional power 2 kappa = 2/3, with 16384 samples, and (x1+...+x4)^16
(969 terms) on d4 with 8192 samples, which times the term loop.  Point
PYTHONPATH at another checkout's ``src`` to time that revision with the
same cases.
Prints one JSON object: per case, the first, the best and the median seconds.
Standard library and the package only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from fractions import Fraction

from dunkl_harmonics import (
    DunklContext, Poly, dunkl_apply, h_harmonic_basis, intertwiner_apply, laplacian, make_context,
    mc_sphere_integral, monomials_of_degree, parse,
)

GROUPS = {
    "a3": ("a", 4, [Fraction(1, 3)]),
    "d4": ("d", 4, [Fraction(2, 3)]),
    "b4": ("b", 4, [Fraction(1, 2), Fraction(3, 2)]),
    "z2^4": ("z2", 4, [Fraction(1, 2), Fraction(1, 3), 1, Fraction(2, 3)]),
}


def dense() -> DunklContext:
    return DunklContext(2, ((1, 2), (2, -1)), (0, 1), (Fraction(1, 2), Fraction(3, 4)))


def rotated_b3() -> DunklContext:
    """b3 with kappa (1/2, 3/2), rotated by [[3/5, -4/5, 0], [4/5, 3/5, 0], [0, 0, 1]]."""
    c, s = Fraction(3, 5), Fraction(4, 5)
    units = [(c, s, 0), (-s, c, 0), (0, 0, 1)]
    pairs = [tuple(a + w * b for a, b in zip(u, v)) for i, u in enumerate(units) for v in units[i + 1:]
             for w in (-1, 1)]
    return DunklContext(3, tuple(units + pairs), (0,) * 3 + (1,) * 6, (Fraction(1, 2), Fraction(3, 2)))


def up_to(dim: int, degree: int) -> Poly:
    """The sum of every monomial of degree <= ``degree``."""
    return Poly(dim, {mono: 1 for n in range(degree + 1) for mono in monomials_of_degree(dim, n)})


# cold_tables' groups and the top degree of each (perfbench/workloads.py's COLD_FAMILIES)
COLD = {
    "z2^3": (("z2", 3, [Fraction(1, 2), Fraction(5, 3), 2]), 5),
    "a2": (("a", 3, [Fraction(4, 3)]), 4),
    "b3": (("b", 3, [Fraction(1, 2), Fraction(5, 3)]), 4),
    "d4": (("d", 4, [Fraction(2, 3)]), 3),
}


def cold_op(args, degree: int):
    ctx = make_context(*args)
    top = Poly.monomial(ctx.dim, (degree,) + (0,) * (ctx.dim - 1))
    return h_harmonic_basis(ctx, degree), intertwiner_apply(ctx, top)


def cases():
    for name, (args, degree) in COLD.items():
        yield f"{name} make_context", lambda args=args: make_context(*args)
        yield f"{name} cold op, basis and V at degree {degree}", lambda a=args, n=degree: cold_op(a, n)
    for name, args in GROUPS.items():
        yield f"{name} basis degree 8", lambda args=args: h_harmonic_basis(make_context(*args), 8)
        yield f"{name} V to degree 6", lambda args=args: intertwiner_apply(
            make_context(*args), Poly.monomial(4, (6, 0, 0, 0)))
    octics = Poly(4, {mono: 1 for mono in monomials_of_degree(4, 8)})
    yield "d4 axis table degree 8", lambda: dunkl_apply(make_context(*GROUPS["d4"]), [1, 1, 1, 1], octics)
    yield "dense V to degree 12", lambda: intertwiner_apply(dense(), Poly.monomial(2, (12, 0)))
    yield "dense bases of degree 2-10", lambda: [h_harmonic_basis(ctx, n) for ctx in [dense()] for n in range(2, 11)]
    plane, solid = up_to(2, 12), up_to(3, 7)
    yield "dense Laplacian table to degree 12", lambda: laplacian(dense(), plane)
    yield "rotated b3 V to degree 6", lambda: intertwiner_apply(rotated_b3(), Poly.monomial(3, (6, 0, 0)))
    yield "rotated b3 Laplacian table to degree 7", lambda: laplacian(rotated_b3(), solid)
    yield "rotated b3 axis table to degree 7", lambda: dunkl_apply(rotated_b3(), [1, 1, 1], solid)
    d4_sum = parse("x1 + x2 + x3 + x4", 4)
    for name, args, p, samples in (
        ("b2 (x1+x2)^4", ("b", 2, [Fraction(1, 2), Fraction(3, 2)]), parse("x1 + x2", 2) ** 4, 16384),
        ("d4 (x1+...+x4)^8", ("d", 4, [Fraction(1, 2)]), d4_sum ** 8, 16384),
        ("z2^3 kappa (1/3, 2, 5/2)", ("z2", 3, [Fraction(1, 3), 2, Fraction(5, 2)]),
         parse("x1^8*x2^3 - 3*x2^2*x3^6 + x3", 3), 16384),
        ("d4 (x1+...+x4)^16, 8192 samples", ("d", 4, [Fraction(1, 2)]), d4_sum ** 16, 8192),
    ):
        yield f"Monte-Carlo {name}", lambda args=args, p=p, samples=samples: mc_sphere_integral(
            make_context(*args), p, seed=11, samples=samples)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="repetitions per case (default 5)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    out = {}
    for name, run in cases():
        times = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        out[name] = {"first_s": round(times[0], 6), "best_s": round(min(times), 6),
                     "median_s": round(statistics.median(times), 6)}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
