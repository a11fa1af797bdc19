"""Dense roots for the tests: a system that is not planar, and the plain references for its reflections.

A root is dense when its reflection is not a signed permutation.  The
library maps monomials through a dense reflection by the product rule (see
``polyring.Root``); the two references here take no part in that rule.
:func:`substitute_linear` expands p(Mx) by powers of the linear forms, and
:func:`divide_by_linear` divides by <a, x> synthetically, refusing a
nonzero remainder.
"""

from fractions import Fraction

from dunkl_harmonics import DunklContext, Poly


def rotated_b3() -> DunklContext:
    """b3 with kappa (1/2, 3/2), rotated by [[3/5, -4/5, 0], [4/5, 3/5, 0], [0, 0, 1]].

    Every root but e3 is dense, and the roots span space, not a plane."""
    c, s = Fraction(3, 5), Fraction(4, 5)
    units = [(c, s, 0), (-s, c, 0), (0, 0, 1)]
    pairs = [tuple(a + w * b for a, b in zip(u, v)) for i, u in enumerate(units) for v in units[i + 1:]
             for w in (-1, 1)]
    return DunklContext(3, tuple(units + pairs), (0,) * 3 + (1,) * 6, (Fraction(1, 2), Fraction(3, 2)))


def rotated_b2_plus_a2() -> DunklContext:
    """b2 rotated by [[3/5, -4/5], [4/5, 3/5]] on (x1, x2), beside a2 on (x3, x4, x5).

    A reducible system: the four b2 roots are dense, and the three a2 roots
    swap two coordinates, so orbit-mates and dense reflections meet in one
    context.  kappa is (1/2, 3/2) on the short and long b2 roots and 1/3 on a2."""
    c, s = Fraction(3, 5), Fraction(4, 5)
    units = [(c, s), (-s, c)]
    b2 = units + [tuple(a + w * b for a, b in zip(*units)) for w in (-1, 1)]
    a2 = [tuple(1 if k == i else -1 if k == j else 0 for k in range(3)) for i in range(3) for j in range(i + 1, 3)]
    roots = [(*root, 0, 0, 0) for root in b2] + [(0, 0, *root) for root in a2]
    return DunklContext(5, tuple(roots), (0, 0, 1, 1, 2, 2, 2), (Fraction(1, 2), Fraction(3, 2), Fraction(1, 3)))


def substitute_linear(p: Poly, matrix) -> Poly:
    """p(Mx), exactly, for a square rational matrix M, as the sum of c prod_i (row i . x)^e_i."""
    if len(matrix) != p.dim or any(len(row) != p.dim for row in matrix):
        raise ValueError("matrix must be dim x dim")
    forms = [Poly(p.dim, {tuple(int(k == j) for k in range(p.dim)): v for j, v in enumerate(row)})
             for row in matrix]
    out = Poly.zero(p.dim)
    for mono, c in p.terms.items():
        term = Poly.const(p.dim, c)
        for form, e in zip(forms, mono):
            term = term * form**e
        out = out + term
    return out


def divide_by_linear(p: Poly, a) -> Poly:
    """The quotient of an exactly divisible p by the linear form <a, x>.

    Synthetic division in the first variable where a is nonzero; a nonzero
    remainder raises AssertionError."""
    if p.is_zero:
        return p
    pivot = next(i for i, v in enumerate(a) if v)
    inv = 1 / Fraction(a[pivot])
    levels: dict = {}
    for mono, c in p.terms.items():
        levels.setdefault(mono[pivot], {})[mono] = c
    quotient = {}
    for k in range(max(levels), 0, -1):
        for mono, c in levels.get(k, {}).items():
            if not c:
                continue
            q_mono = mono[:pivot] + (k - 1,) + mono[pivot + 1:]
            quotient[q_mono] = qc = c * inv
            below = levels.setdefault(k - 1, {})
            for i, ai in enumerate(a):
                if i != pivot and ai:
                    m = q_mono[:i] + (q_mono[i] + 1,) + q_mono[i + 1:]
                    below[m] = below.get(m, 0) - qc * ai
    remainder = {m: c for m, c in levels.get(0, {}).items() if c}
    assert not remainder, f"division by a linear form left the remainder {remainder!r}"
    return Poly(p.dim, quotient)
