"""h-harmonic polynomials: projection, canonical decomposition, exact bases.

A polynomial is h-harmonic when the Dunkl Laplacian kills it.  Every
homogeneous polynomial of degree n splits uniquely as a sum of
|x|^(2i) p_(n-2i) with h-harmonic components, and the closed-form
coefficients of that splitting are implemented verbatim; the reconstruction
identity is the independent check, exercised by the tests.  Both the
projection and the splitting read the sequence p, Lap p, Lap^2 p, ... as
int forms (``dunkl._laplacian_powers``); the splitting computes each
Lap^k p once and shares it among its components.  Their coefficients depend
only on (lam, n), so they are one cached table (:func:`_coefficients`).
The projection, the components, the reconstruction and the reduction modulo
the sphere are sums of c |x|^(2k) g, taken with Horner's rule in |x|^2 by
``polyring.radial_sum`` or, from the int forms, its core
``polyring._radial_ints``, so none of them makes a product of two
polynomials or any Fraction but one per output term.  The spherical layer
shares the homogeneity and h-harmonic checks kept here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from .dunkl import Form, _laplacian_powers, _monomial_laplacian, laplacian
from .polyring import Poly, _radial_ints, monomials_of_degree, pochhammer, radial_sum
from .reflection import DunklContext


@dataclass(frozen=True)
class HarmonicDecomposition:
    """Components p_(n-2i), i = 0..floor(n/2), of a homogeneous polynomial."""

    degree: int
    components: tuple[tuple[int, Poly], ...]

    def reconstruct(self) -> Poly:
        return radial_sum(self.components[0][1].dim, ((i, 1, part) for i, part in self.components))


def is_h_harmonic(ctx: DunklContext, p: Poly) -> bool:
    return laplacian(ctx, p).is_zero


def require_h_harmonic(ctx: DunklContext, q: Poly) -> int:
    """Validate a nonzero homogeneous h-harmonic factor and return its degree."""
    ctx.check_dim(q, "q")
    if q.is_zero:
        raise ValueError("the harmonic factor q must be nonzero")
    m = _require_homogeneous(q, "q")
    if not is_h_harmonic(ctx, q):
        raise ValueError("q must be h-harmonic")
    return m


def _require_homogeneous(p: Poly, what: str) -> int:
    if not p.is_homogeneous():
        raise ValueError(f"{what} must be homogeneous")
    return p.degree()


def proj(ctx: DunklContext, n: int, p: Poly) -> Poly:
    """Project a homogeneous polynomial of degree n onto the h-harmonics.

    proj p = sum over j of |x|^(2j) Lap^j p / (4^j j! (-lam - n + 1)_j);
    the denominators never vanish for dimension >= 2 and kappa >= 0.
    The projection fixes every h-harmonic of degree n.  It is the first
    component of the canonical decomposition (see :func:`_project`).
    """
    ctx.check_dim(p)
    if p.is_zero:
        return p
    deg = _require_homogeneous(p, "projection input")
    if deg != n:
        raise ValueError(f"input has degree {deg}, expected {n}")
    return _project(ctx, n, 0, list(_laplacian_powers(ctx, p)))


@functools.lru_cache(maxsize=256)
def _coefficients(lam: Fraction, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """The table a_ij = 1 / (4^i i! (lam + 1 + n - 2i)_i 4^j j! (-lam - n + 2i + 1)_j), row i = 0 .. n // 2.

    Row i has j = 0 .. n // 2 - i, and p_(n-2i) is the sum of
    a_ij |x|^(2j) Lap^(i+j) p.  Each a_ij is carried from a_i(j-1).  The
    table depends on lam and n only, so it is computed once per (lam, n)
    and kept in a bounded cache, keyed by plain values.
    """
    rows = []
    for i in range(n // 2 + 1):
        row = [1 / (Fraction(4**i) * math.factorial(i) * pochhammer(lam + 1 + n - 2 * i, i))]
        for j in range(1, n // 2 - i + 1):
            row.append(row[-1] / (4 * j * (-lam - n + 2 * i + j)))
        rows.append(tuple(row))
    return tuple(rows)


def _project(ctx: DunklContext, n: int, i: int, powers: list[Form]) -> Poly:
    """The component p_(n-2i) of p, of degree n, given powers = [Lap^i p, Lap^(i+1) p, ...].

    That is the sum of a_ij |x|^(2j) Lap^(i+j) p over row i of
    :func:`_coefficients`, taken by ``polyring._radial_ints`` from the
    powers' int forms, with one Fraction per output term; for i = 0 it is
    the projection of p.  The powers end at the last nonzero one (see
    ``_laplacian_powers``), and past it the component is 0.
    """
    row = _coefficients(ctx.lambda_kappa, n)[i]
    split = [(j, c, terms, den, terms.values()) for j, (c, (den, terms)) in enumerate(zip(row, powers))]
    return Poly._over(ctx.dim, *_radial_ints(split))


def canonical_decompose(ctx: DunklContext, p: Poly) -> HarmonicDecomposition:
    """Split a homogeneous p as sum of |x|^(2i) p_(n-2i), all components h-harmonic.

    p_(n-2i) = proj(Lap^i p) / (4^i i! (lam + 1 + n - 2i)_i).  Each nonzero
    Lap^k p is computed once and shared by every component, and the
    coefficients of all components come from one cached table
    (:func:`_project`).
    """
    ctx.check_dim(p)
    if p.is_zero:
        return HarmonicDecomposition(0, ((0, p),))
    n = _require_homogeneous(p, "decomposition input")
    powers = list(_laplacian_powers(ctx, p))
    return HarmonicDecomposition(n, tuple((i, _project(ctx, n, i, powers[i:])) for i in range(n // 2 + 1)))


def h_harmonic_basis(ctx: DunklContext, n: int) -> list[Poly]:
    """Exact rational basis of the degree-n h-harmonics.

    The kernel of the Laplacian from degree n to n - 2, by fraction-free
    Gauss-Jordan elimination (``_linalg.rref``) over the graded-lex monomials,
    with each column, a table image n_i / d, scaled to ints by L / d for L the
    lcm of the d.  Every row takes a pivot, as the Laplacian maps onto degree
    n - 2; below degree 2 the monomials are the basis.  The kernel vector of
    a free column f, x^f minus the sum of R_pf x^p over the pivot rows R, is
    written in ints times den, the lcm of the R_pf denominators: primitive,
    as each prime's full power in den divides some R_pf's denominator, and
    signed so that its leading term, which is that of the first pivot row
    with R_pf nonzero (all lie left of f), or else x^f, is positive.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    monos = monomials_of_degree(ctx.dim, n)
    if n < 2:
        return [Poly.monomial(ctx.dim, m) for m in monos]
    index = {m: i for i, m in enumerate(monomials_of_degree(ctx.dim, n - 2))}
    images = [_monomial_laplacian(ctx, mono) for mono in monos]
    scale = math.lcm(*[d for d, _ in images])
    matrix = [[0] * len(monos) for _ in index]
    for col, (d, pairs) in enumerate(images):
        for m, v in pairs:
            matrix[index[m]][col] = v * (scale // d)
    reduced, pivots = _linalg.rref(matrix)
    basis = []
    for f in (c for c in range(len(monos)) if c not in pivots):
        entries = [(monos[p], row[f]) for p, row in zip(pivots, reduced) if row[f]]
        den = math.lcm(*[v.denominator for _, v in entries])
        sign = -1 if entries and entries[0][1] > 0 else 1
        terms = {m: Fraction(-sign * v.numerator * (den // v.denominator)) for m, v in entries}
        terms[monos[f]] = Fraction(sign * den)
        basis.append(Poly._raw(ctx.dim, terms))
    return basis


def reduce_mod_sphere(ctx: DunklContext, p: Poly) -> Poly:
    """Canonical representative of p modulo the ideal of the unit sphere.

    Each homogeneous part is canonically decomposed and every |x|^(2i)
    factor replaced by 1, giving equality of polynomials as functions on
    the sphere.  For a part of degree n that is the sum of the components,
    sum over i <= j of a_i(j-i) |x|^(2(j-i)) Lap^j p (see
    :func:`_coefficients`), so every part enters one Horner sum from its
    powers' int forms, and no component is built.
    """
    ctx.check_dim(p)
    split = []
    for n, part in p.homogeneous_parts():
        rows = _coefficients(ctx.lambda_kappa, n)
        for j, (den, terms) in enumerate(_laplacian_powers(ctx, part)):
            split += [(j - i, rows[i][j - i], terms, den, terms.values()) for i in range(j + 1)]
    return Poly._over(ctx.dim, *_radial_ints(split))
