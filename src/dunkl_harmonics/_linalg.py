"""Exact dense linear algebra over the rationals: RREF and unique solves.

Pivoting is first-nonzero in row order within each column, scanned left to
right over every column, so every result is deterministic for a
deterministic input ordering.  Every nonzero row of the reduced form takes
a pivot, so the rows past the rank are zero: ``rref`` returns only the
pivot rows, from which ``solve_unique`` reads both of its verdicts and
``h_harmonic_basis`` its kernel vectors.

The elimination is fraction-free (Bareiss, Math. Comp. 22, 1968; Geddes,
Czapor and Labahn, Algorithms for Computer Algebra, 1992, ch. 9).  Each
row is scaled once to a primitive integer row; a row is reduced against
the pivot row by row = (a/g) row - (f/g) lead with g = gcd(a, f), a the
pivot and f the row's entry, and divided by its content.  No Fraction is
built: ``rref`` returns each pivot row as the primitive integer multiple of
the reduced row whose pivot entry is positive, and ``solve_unique`` each
column of X as a reduced form, int numerators over one denominator.  The
results are those of Gauss-Jordan over Fraction: every integer row is a
nonzero multiple of the row the same steps give over Fraction, the pivot
rule does not change under a nonzero row scaling, so the pivots match, and
the reduced row echelon form is unique, so dividing a returned row by its
pivot entry gives the reduced row.

Entries may be Python ints or Fractions, and a row of ints skips the pass
over the denominators.  A nonzero scale of the system leaves the pivots,
the pivot rows, the kernel and the solution as they are; the V build and
``h_harmonic_basis`` rely on it to hand over their systems in ints.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

Matrix = list[list[int | Fraction]]
# (den, {i: n}): the column x_i = n / den, reduced and den > 0, its zero entries left out
Column = tuple[int, dict[int, int]]


def _content_free(row: list[int]) -> list[int]:
    # reduce, not math.gcd(*row): CPython 3.11 puts each freed 20-tuple on its free
    # list but never takes one off it, so star calls on width-20 rows park 368 KB there
    g = functools.reduce(math.gcd, row, 0)
    return [v // g for v in row] if g > 1 else row


def rref(matrix: Matrix) -> tuple[list[list[int]], list[int]]:
    """The pivot rows of the reduced row echelon form, in ints, and their pivot columns.

    Each row is the primitive integer multiple of the reduced row with a
    positive pivot entry.  The input is not touched.  The rows past the rank
    are zero and are left out, so a zero matrix gives ``([], [])``.
    """
    rows = []
    for row in matrix:
        try:
            rows.append(_content_free(row))  # rows are replaced, never changed in place
        except TypeError:  # math.gcd refuses a Fraction: scale the row to ints over its denominators
            scale = functools.reduce(math.lcm, (v.denominator for v in row), 1)
            rows.append(_content_free([v.numerator * (scale // v.denominator) for v in row]))
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = rows[r]
        a = lead[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = math.gcd(a, f)
                p, q = a // g, f // g
                rows[i] = _content_free([p * x - q * y for x, y in zip(row, lead)])
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return [row if row[c] > 0 else [-v for v in row] for row, c in zip(rows, pivots)], pivots


def solve_unique(a: Matrix, b: Matrix) -> list[Column]:
    """Solve A X = B where the (possibly overdetermined) system is consistent
    with a unique solution.  Inconsistency or rank deficiency raises
    AssertionError: callers use this only for systems that provably have
    exactly one solution, so failure means an implementation bug.

    [A | B] is reduced at full width: A has full column rank when its n
    columns are the first n pivots, and then the system is consistent when
    no pivot falls in B.  Pivot row i is then a_i [e_i | X_i] with a_i > 0,
    and column j of X is returned as its reduced :data:`Column`, the
    x_ij = y_ij / a_i over the lcm of the a_i divided by one gcd.
    """
    if not a:
        raise ValueError("empty coefficient matrix")
    n = len(a[0])
    reduced, pivots = rref([list(ra) + list(rb) for ra, rb in zip(a, b)])
    if pivots[:n] != list(range(n)):
        raise AssertionError("linear system is rank deficient; this is a bug")
    if len(pivots) > n:
        raise AssertionError("linear system is inconsistent; this is a bug")
    lcm = functools.reduce(math.lcm, (row[i] for i, row in enumerate(reduced)), 1)
    scales = [lcm // row[i] for i, row in enumerate(reduced)]
    columns = []
    for j in range(n, n + len(b[0])):
        nums = {i: y * s for i, (row, s) in enumerate(zip(reduced, scales)) if (y := row[j])}
        g = functools.reduce(math.gcd, nums.values(), lcm)
        columns.append((lcm // g, {i: v // g for i, v in nums.items()}))
    return columns
