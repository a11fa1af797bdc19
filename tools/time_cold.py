"""Time the cold exact paths on fixed inputs: h-harmonic bases, the V table and the axis table.

    PYTHONPATH=src python3 tools/time_cold.py [--repeat 5]

Each case builds a fresh context per repetition, so no table is cached
across repetitions: the degree-8 bases of A3, d4 and b4 (their kernels are
the same shape, and A3 grows the largest rows), V up to degree 6 on the
same groups, and the d4 axis table: D_xi of the sum of every degree-8
monomial, which fills the table's 165 degree-8 entries.  Point PYTHONPATH
at another checkout's ``src`` to time that revision with the same cases.
Prints one JSON object: per case, the best and the median seconds.
Standard library and the package only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from fractions import Fraction

from dunkl_harmonics import (
    Poly, dunkl_apply, h_harmonic_basis, intertwiner_apply, make_context, monomials_of_degree,
)

GROUPS = {
    "a3": ("a", 4, [Fraction(1, 3)]),
    "d4": ("d", 4, [Fraction(2, 3)]),
    "b4": ("b", 4, [Fraction(1, 2), Fraction(3, 2)]),
}


def cases():
    for name, args in GROUPS.items():
        yield f"{name} basis degree 8", lambda args=args: h_harmonic_basis(make_context(*args), 8)
        yield f"{name} V to degree 6", lambda args=args: intertwiner_apply(
            make_context(*args), Poly.monomial(4, (6, 0, 0, 0)))
    octics = Poly(4, {mono: 1 for mono in monomials_of_degree(4, 8)})
    yield "d4 axis table degree 8", lambda: dunkl_apply(make_context(*GROUPS["d4"]), [1, 1, 1, 1], octics)


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
        out[name] = {"best_s": round(min(times), 4), "median_s": round(statistics.median(times), 4)}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
