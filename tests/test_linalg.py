"""The fraction-free solver against plain Gauss-Jordan over Fraction.

The reference below divides each pivot row by its pivot and subtracts
Fraction multiples, with the solver's pivot rule: first nonzero in row
order, columns left to right, optionally over the leading columns only.  On
seeded random rational matrices of every shape the solver must return the
reference's pivot rows, each as its primitive integer multiple with a
positive pivot entry, entry for entry, and the same pivots, and the
reference's rows past the rank must be zero.  Split at a drawn column into
A | B, the reference restricted to A's columns gives ``solve_unique`` its
verdict: rank deficient, inconsistent, or the solution, whose columns must
be the reference's, each over one reduced denominator.  The rows are drawn
in three kinds: Fractions, Python ints, and a mix of the two, which is what
the integer V build hands over when a dense root's reflection brings
Fraction entries into int rows.
"""

import math
import random
from fractions import Fraction

import pytest

from dunkl_harmonics import _linalg


def gauss_jordan(matrix, ncols=None):
    rows = [[Fraction(v) for v in row] for row in matrix]
    if not rows:
        return rows, []
    if ncols is None:
        ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        pivot = rows[r][c]
        rows[r] = [v / pivot for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def primitive(row):
    """The primitive integer multiple of a reduced row, whose pivot entry 1 makes it positive."""
    den = math.lcm(*[v.denominator for v in row])
    nums = [v.numerator * (den // v.denominator) for v in row]
    g = math.gcd(*nums)
    return [v // g for v in nums]


def pivot_rows(matrix):
    """The reference's pivot rows, as ``rref`` returns them, and pivots; its rows past the rank are zero."""
    rows, pivots = gauss_jordan(matrix)
    assert not any(any(row) for row in rows[len(pivots):])
    return [primitive(row) for row in rows[:len(pivots)]], pivots


def columns(x, width):
    """The ``width`` columns of X, given as Fraction rows, as ``solve_unique`` returns them: (den, {i: n}), reduced."""
    out = []
    for column in ([row[j] for row in x] for j in range(width)):
        den = math.lcm(*[v.denominator for v in column])
        out.append((den, {i: v.numerator * (den // v.denominator) for i, v in enumerate(column) if v}))
    return out


def assert_int_rows(rows, pivots):
    # the pivot rows are ints, with a positive pivot entry
    assert all(type(v) is int for row in rows for v in row)
    assert all(row[c] > 0 for row, c in zip(rows, pivots))


KINDS = ("fraction", "int", "mixed")


def rational(rng, zero_frac=0.3, kind="fraction"):
    """A random entry of the kind: a Fraction, a Python int, or either at random."""
    if kind == "mixed":
        kind = rng.choice(("fraction", "int"))
    zero = Fraction(0) if kind == "fraction" else 0
    if rng.random() < zero_frac:
        return zero
    if kind == "int":
        return rng.randint(-10**6, 10**6)
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def random_matrix(rng, n_rows, width, rank=None, kind="fraction"):
    """A random matrix of the kind's entries; with ``rank`` its rows past the
    first ``rank`` are combinations of those (with int weights for int rows),
    and a few rows and columns are zeroed."""
    zero = Fraction(0) if kind == "fraction" else 0
    rows = [[rational(rng, kind=kind) for _ in range(width)] for _ in range(n_rows if rank is None else rank)]
    if rank is not None:
        basis = rows[:]
        while len(rows) < n_rows:
            weights = [rng.randint(-9, 9) if kind == "int" else Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in basis]
            rows.append([sum((w * b[j] for w, b in zip(weights, basis)), zero) for j in range(width)])
        rng.shuffle(rows)
    if rng.random() < 0.5:
        rows[rng.randrange(n_rows)] = [zero] * width
    if rng.random() < 0.5:
        j = rng.randrange(width)
        for row in rows:
            row[j] = zero
    return rows


SHAPES = {
    "square": (5, 5, None),
    "tall": (8, 4, None),
    "wide": (3, 7, None),
    "rank-deficient square": (6, 6, 3),
    "rank-deficient tall": (7, 5, 2),
    "rank-deficient wide": (4, 8, 2),
    "single row": (1, 5, None),
    "single column": (5, 1, None),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_rref_matches_fraction_gauss_jordan(shape):
    n_rows, width, rank = SHAPES[shape]
    for kind in KINDS:
        rng = random.Random(f"linalg:{shape}" + ("" if kind == "fraction" else f":{kind}"))
        for _ in range(30):
            matrix = random_matrix(rng, n_rows, width, rank, kind)
            before = [row[:] for row in matrix]
            got = _linalg.rref(matrix)
            assert got == pivot_rows(matrix)
            assert_int_rows(*got)
            k = rng.randint(0, width)
            a, b = [row[:k] for row in matrix], [row[k:] for row in matrix]
            rows, pivots = gauss_jordan(matrix, k)
            if len(pivots) < k:
                with pytest.raises(AssertionError, match="rank deficient"):
                    _linalg.solve_unique(a, b)
            elif any(any(row) for row in rows[k:]):
                with pytest.raises(AssertionError, match="inconsistent"):
                    _linalg.solve_unique(a, b)
            else:
                assert _linalg.solve_unique(a, b) == columns([row[k:] for row in rows[:k]], width - k)
            assert matrix == before  # the input is not touched


def test_a_uniform_scale_keeps_the_pivot_rows():
    # the integer V build and basis hand over their systems times a common denominator
    rng = random.Random("linalg:scale")
    for n_rows, width, rank in SHAPES.values():
        for kind in KINDS:
            matrix = random_matrix(rng, n_rows, width, rank, kind)
            s = rng.choice((-1, 1)) * rng.randint(2, 10**6)
            for k in (width, rng.randint(0, width)):  # the whole matrix and its leading k columns
                part = [row[:k] for row in matrix]
                assert _linalg.rref([[s * v for v in row] for row in part]) == _linalg.rref(part)


def test_rref_accepts_int_entries():
    matrix = [[2, -4, 6], [1, 3, Fraction(1, 2)], [3, -1, Fraction(13, 2)]]
    assert _linalg.rref(matrix) == pivot_rows(matrix)


def test_rref_ends_a_negative_pivot_entry_positive():
    # [1, 1] - [1, -1] leaves [0, -2], so the second pivot is -1 after the content, and
    # reducing [1, 1] against it gives [-1, 0]: both rows end with a negative pivot entry
    matrix = [[1, 1], [1, -1]]
    assert _linalg.rref(matrix) == pivot_rows(matrix) == ([[1, 0], [0, 1]], [0, 1])
    matrix = [[-2, 4, Fraction(-6, 5)], [0, 0, -3]]
    assert _linalg.rref(matrix) == pivot_rows(matrix) == ([[1, -2, 0], [0, 0, 1]], [0, 2])


def assert_reduced_like_the_reference(matrix):
    rows, pivots = _linalg.rref(matrix)
    assert (rows, pivots) == pivot_rows(matrix)
    assert_int_rows(rows, pivots)


def test_rref_takes_int_fraction_and_mixed_rows():
    rng = random.Random("linalg:row-types")
    for _ in range(30):
        ints = random_matrix(rng, 3, 6, kind="int")
        fractions = random_matrix(rng, 3, 6, kind="fraction")
        mixed = random_matrix(rng, 3, 6, kind="mixed")
        for matrix in (ints, fractions, mixed, ints + fractions + mixed, mixed[:1] + ints[:2] + fractions[:2]):
            assert_reduced_like_the_reference(matrix)
    # Fractions of denominator 1 take the denominator pass, and ints beside them the int rows' path
    assert_reduced_like_the_reference([[Fraction(4), Fraction(6), 2], [3, 5, 7], [Fraction(2), 0, Fraction(-4)]])


def test_rref_of_the_dense_v_system(monkeypatch):
    # the V build's [T | R] on the roots (1, 2) and (2, -1): their reflections bring
    # Fraction entries into T beside ints, so rows mix the two types
    from dunkl_harmonics import DunklContext, intertwine

    systems = []
    real = _linalg.rref

    def recording(matrix):
        systems.append([row[:] for row in matrix])
        return real(matrix)

    monkeypatch.setattr(_linalg, "rref", recording)
    ctx = DunklContext(2, ((1, 2), (2, -1)), (0, 1), (Fraction(1, 3), 2))
    intertwine._intertwiner_table(ctx, 4)
    monkeypatch.undo()
    assert len(systems) == 4
    assert any({type(v) for v in row} == {int, Fraction} for matrix in systems for row in matrix)
    for matrix in systems:
        assert_reduced_like_the_reference(matrix)


def test_rref_of_a_zero_matrix_and_of_no_rows():
    zero = [[Fraction(0)] * 3 for _ in range(2)]
    assert _linalg.rref(zero) == ([], [])
    assert _linalg.rref([]) == ([], [])


def test_solve_unique_recovers_the_solution():
    for kind in KINDS:
        rng = random.Random("linalg:solve" + ("" if kind == "fraction" else f":{kind}"))
        for n_rows, n in ((4, 4), (7, 3)):
            for _ in range(20):
                a = random_matrix(rng, n_rows, n, kind=kind)
                if len(gauss_jordan(a)[1]) < n:
                    continue
                x = [[rational(rng, 0.2, kind) for _ in range(2)] for _ in range(n)]
                b = [[sum((a[i][k] * x[k][j] for k in range(n)), 0) for j in range(2)] for i in range(n_rows)]
                got = _linalg.solve_unique(a, b)
                assert got == columns(x, 2)
                assert all(type(den) is int and all(type(v) is int for v in nums.values()) for den, nums in got)


def test_solve_unique_refuses_an_inconsistent_system():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(-1, 7)], [Fraction(4), Fraction(13, 7)]]
    b = [[Fraction(1)], [Fraction(2)], [Fraction(4)]]  # row 3 = row 1 + row 2 on the left, not on the right
    with pytest.raises(AssertionError, match="inconsistent"):
        _linalg.solve_unique(a, b)
    b[2][0] = Fraction(3)  # now consistent
    ((den, nums),) = _linalg.solve_unique(a, b)
    assert [sum(aik * Fraction(nums.get(k, 0), den) for k, aik in enumerate(row)) for row in a] == [1, 2, 3]


def test_solve_unique_refuses_a_rank_deficient_system():
    a = [[Fraction(1, 3), Fraction(2, 3)], [Fraction(-1), Fraction(-2)]]
    with pytest.raises(AssertionError, match="rank deficient"):
        _linalg.solve_unique(a, [[Fraction(1)], [Fraction(-3)]])


def test_solve_unique_refuses_an_empty_matrix():
    with pytest.raises(ValueError, match="empty"):
        _linalg.solve_unique([], [])
