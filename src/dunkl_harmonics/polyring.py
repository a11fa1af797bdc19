"""Sparse multivariate polynomials with exact rational coefficients.

A :class:`Poly` is an immutable map from exponent tuples to nonzero
``fractions.Fraction`` coefficients in a fixed ambient dimension.  All
arithmetic is exact, and no float enters: the float lane is
:mod:`dunkl_harmonics.oracle`.  Text I/O follows a small grammar with
variables ``x1 .. xd`` (see :func:`parse`), and :meth:`Poly.__str__`
emits terms in graded-lexicographic order so that formatting is canonical.
:func:`radial_sum` is the one routine for a sum of c |x|^(2k) g: Horner's
rule in |x|^2, whose multiplication is a shift of exponents, summed in int
numerators over one denominator by its core :func:`_radial_ints`, which the
Laplacian powers' int forms enter directly.  :func:`over_one_denominator`
is the one place that splits exact values into that form, for the operator
kernels and their tables too.

The reflection primitives live here too.  A :class:`Root` is a nonzero
rational vector ``a`` that carries its reflection ``r_a``, classified once
when the root is built: a signed permutation whenever it is one (every
catalog root), dense otherwise.  The root has one rule per monomial for
both of its maps, the image x^b(r_a x) and the divided difference
(x^b - x^b(r_a x)) / <a, x>: a closed form for a signed permutation, and for
a dense root the product rule on x^b = x_i x^(b - e_i), whose terms come
from the monomials one degree lower, kept in two tables on the root, so
nothing divides by a linear form.  :meth:`Poly.reflect` and
:meth:`Poly.divided_difference` sum that rule over a polynomial's terms,
with a context's Roots as they are and any other exact vector classified
first.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction
from typing import Callable, Collection, Iterable, Mapping, Sequence

Monomial = tuple[int, ...]
RationalLike = Fraction | int


class PolyParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


def as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__!s}")


def over_one_denominator(values: Collection[RationalLike]) -> tuple[int, list[int]]:
    """(den, numerators) with values[i] == numerators[i] / den and den the lcm of their denominators.

    The form is reduced, den > 0 and gcd(den, *numerators) == 1: each prime
    power of den is that prime's full power in some value's denominator,
    and that value's numerator is prime to it.  The operator kernels sum in
    these ints and build one Fraction per output term (:meth:`Poly._over`),
    as in fraction-free arithmetic (Geddes, Czapor and Labahn, *Algorithms
    for Computer Algebra*, 1992, ch. 9).
    """
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[d for _, d in ratios])
    return den, [n * (den // d) for n, d in ratios]


def pochhammer(a: RationalLike, n: int) -> Fraction:
    """Shifted factorial a (a+1) ... (a+n-1), with the empty product 1."""
    if n < 0:
        raise ValueError("pochhammer order must be >= 0")
    out = Fraction(1)
    a = as_fraction(a)
    for i in range(n):
        out *= a + i
    return out


@functools.lru_cache(maxsize=256)
def monomials_of_degree(dim: int, degree: int) -> tuple[Monomial, ...]:
    """All exponent vectors of total degree ``degree``, lex-descending, as one tuple kept in a bounded cache."""
    if dim < 1 or degree < 0:
        raise ValueError("need dim >= 1 and degree >= 0")

    def gen(d: int, n: int):
        if d == 1:
            yield (n,)
            return
        for k in range(n, -1, -1):
            for rest in gen(d - 1, n - k):
                yield (k,) + rest

    return tuple(gen(dim, degree))


class Poly:
    """Sparse polynomial over Q in a fixed dimension.

    Zero coefficients are never stored; the zero polynomial has degree -1.
    Instances are immutable by convention: no method mutates ``terms``.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[Monomial, RationalLike] | None = None):
        if dim < 1:
            raise ValueError("dimension must be a positive integer")
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = as_fraction(coeff)
                if not c:
                    continue
                mono = tuple(mono)
                if len(mono) != dim or any(e < 0 or not isinstance(e, int) for e in mono):
                    raise ValueError(f"bad monomial {mono!r} for dimension {dim}")
                clean[mono] = c
        self.dim = dim
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> Poly:
        return cls(dim)

    @classmethod
    def const(cls, dim: int, value: RationalLike) -> Poly:
        return cls(dim, {(0,) * dim: as_fraction(value)})

    @classmethod
    def variable(cls, dim: int, axis: int) -> Poly:
        """The coordinate polynomial x_axis, with 1-based axis index."""
        if not 1 <= axis <= dim:
            raise ValueError(f"axis {axis} out of range 1..{dim}")
        mono = tuple(1 if i == axis - 1 else 0 for i in range(dim))
        return cls(dim, {mono: Fraction(1)})

    @classmethod
    def monomial(cls, dim: int, exponents: Sequence[int], coeff: RationalLike = 1) -> Poly:
        return cls(dim, {tuple(exponents): as_fraction(coeff)})

    @classmethod
    def norm_squared(cls, dim: int) -> Poly:
        """x1^2 + ... + xd^2."""
        return cls(dim, {tuple(2 if j == i else 0 for j in range(dim)): 1 for i in range(dim)})

    @classmethod
    def _raw(cls, dim: int, clean_terms: dict[Monomial, Fraction]) -> Poly:
        # internal: caller guarantees terms are clean (no zeros, right dim)
        p = object.__new__(cls)
        p.dim = dim
        p.terms = clean_terms
        return p

    @classmethod
    def _over(cls, dim: int, den: int, numerators: dict[Monomial, int]) -> Poly:
        # internal: the terms n / den of the nonzero numerators, den > 0
        return cls._raw(dim, {m: Fraction(n, den) for m, n in numerators.items() if n})

    # -- basic queries ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.dim, Fraction(0))

    def _require_same_dim(self, other: Poly) -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    # -- ring operations --------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_dim(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono)
            if s is None:
                out[mono] = c
            else:
                s = s + c
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Poly._raw(self.dim, out)

    def __neg__(self) -> Poly:
        return Poly._raw(self.dim, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._require_same_dim(other)
            out: dict[Monomial, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    s = out.get(m)
                    out[m] = c1 * c2 if s is None else s + c1 * c2
            return Poly._raw(self.dim, {m: c for m, c in out.items() if c})
        c = as_fraction(other)
        if not c:
            return Poly.zero(self.dim)
        return Poly._raw(self.dim, {m: v * c for m, v in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> Poly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Poly.const(self.dim, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def partial(self, axis: int) -> Poly:
        """Formal partial derivative along x_axis (1-based)."""
        if not 1 <= axis <= self.dim:
            raise ValueError(f"axis {axis} out of range 1..{self.dim}")
        j = axis - 1
        out = {}
        for mono, c in self.terms.items():
            e = mono[j]
            if e:
                out[mono[:j] + (e - 1,) + mono[j + 1:]] = c * e
        return Poly._raw(self.dim, out)

    def reflect(self, alpha: Sequence[RationalLike]) -> Poly:
        """Return p(r_a x), r_a the reflection across a-perp, for a Root or any nonzero exact a."""
        return Root(alpha)._sum(self, False)

    def divided_difference(self, alpha: Sequence[RationalLike]) -> Poly:
        """Exact quotient (p(x) - p(r_a x)) / <a, x> for nonzero ``alpha``.

        The quotients of p's terms by the root's rule for one monomial (see
        :class:`Root`), summed: no reflected copy of p and no division, and
        for a signed-permutation root c e_i or c (e_i +- e_j) with c = 1
        (every catalog root) integer coefficients stay integers.  ``alpha``
        is taken as in :meth:`reflect`.
        """
        return Root(alpha)._sum(self, True)

    def homogeneous_parts(self) -> list[tuple[int, Poly]]:
        """Split into homogeneous parts, degrees strictly increasing."""
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for mono, c in self.terms.items():
            buckets.setdefault(sum(mono), {})[mono] = c
        return [(n, Poly._raw(self.dim, buckets[n])) for n in sorted(buckets)]

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self.dim}, {format_poly(self)!r})"


def radial_sum(dim: int, terms: Iterable[tuple[int, RationalLike, Poly]]) -> Poly:
    """The sum of c |x|^(2k) g over triples (k, c, g) of dimension ``dim``, by Horner's rule in |x|^2.

    Each g is put over one denominator (see :func:`over_one_denominator`)
    and summed by :func:`_radial_ints`, with one Fraction per output term.
    """
    split = [(k, c, g.terms, *over_one_denominator(g.terms.values())) for k, c, g in terms]
    return Poly._over(dim, *_radial_ints(split))


def _radial_ints(
    terms: Iterable[tuple[int, RationalLike, Iterable[Monomial], int, Iterable[int]]],
) -> tuple[int, dict[Monomial, int]]:
    """The sum of c |x|^(2k) sum_i n_i / den x^(m_i) over (k, c, monos, den, nums), as (scale, numerators).

    This is the one Horner routine in |x|^2.  Every term is put over one
    common denominator, ``scale``, so the sum runs in Python ints, and some
    output numerators may be zero.  out = |x|^2 out + (the terms with k)
    for k = K .. 0, where multiplying by |x|^2 adds 2 to each exponent in
    turn: one dict, and no product of two polynomials.
    """
    buckets: dict[int, list[tuple[int, int, Iterable[Monomial], Iterable[int]]]] = {}
    for k, c, monos, den, nums in terms:
        buckets.setdefault(k, []).append((c.numerator, c.denominator * den, monos, nums))
    scale = math.lcm(*[den for bucket in buckets.values() for _, den, _, _ in bucket])
    out: dict[Monomial, int] = {}
    for k in range(max(buckets, default=-1), -1, -1):
        if out:
            shifted: dict[Monomial, int] = {}
            for mono, c in out.items():
                for m in _raised(mono):
                    shifted[m] = shifted.get(m, 0) + c
            out = shifted
        for c, den, monos, nums in buckets.get(k, ()):
            c *= scale // den
            for m, v in zip(monos, nums):
                out[m] = out.get(m, 0) + c * v
    return scale, out


@functools.lru_cache(maxsize=4096)
def _raised(mono: Monomial) -> tuple[Monomial, ...]:
    """The d monomials of x^mono |x|^2, each exponent raised by 2 in turn.

    Horner's shift by |x|^2 reads them once per term and step; they depend
    on the monomial only, so a bounded cache keeps them, as plain tuples.
    """
    return tuple(mono[:i] + (e + 2,) + mono[i + 1:] for i, e in enumerate(mono))


class Root(tuple):
    """A nonzero vector a of Fractions that carries its reflection r_a = I - 2 a a^T / |a|^2.

    r_a is classified once, from the reduced (numerator, denominator) pairs
    of a's entries (``ratios``), with no Fraction arithmetic: it is a signed
    permutation exactly when a is c e_i or c (e_i +- e_j) with |a_i| = |a_j|
    (every catalog root), and dense (``perm`` None) otherwise.  Every map of a
    monomial by the root goes through one rule, :meth:`_terms`, which gives
    the terms of x^b(r_a x) or of the divided difference of x^b: in closed
    form for a signed permutation, and from the tables of :meth:`_dense` for
    a dense root, filled on first use and dropped with the root.
    :meth:`_sum` applies the rule to a polynomial.  ``matrix`` is built on
    first use, and ``Root(a)`` returns a itself when it is already a Root.
    """

    ratios: tuple[tuple[int, int], ...]  # (numerator, denominator) of each entry
    perm: tuple[int, ...] | None  # column of row i's single nonzero, or None if dense
    flips: tuple[int, ...]  # rows whose single nonzero is -1
    support: tuple[int, ...]  # the coordinates where a is nonzero
    scale: RationalLike | None  # 2 / c for c e_i, 1 / c for c (e_i - w e_j), None if dense
    _permute: Callable[[Monomial], Monomial]  # mono -> (mono[perm[0]], ...), set when perm is not None

    def __new__(cls, values: Sequence[RationalLike]) -> Root:
        if isinstance(values, Root):
            return values
        self = super().__new__(cls, map(as_fraction, values))
        self.ratios = ratios = tuple(v.as_integer_ratio() for v in self)
        self.support = support = tuple(i for i, (n, _) in enumerate(ratios) if n)
        if not support:
            raise ValueError("alpha must be a nonzero vector of the ambient dimension")
        self.perm, self.flips, self.scale = None, (), None
        n, d = ratios[support[0]]
        if len(support) == 1:
            self.perm, self.flips = tuple(range(len(self))), support
            self.scale = 2 if n == d == 1 else Fraction(2 * d, n)
        elif len(support) == 2 and (abs(n), d) == (abs(ratios[support[1]][0]), ratios[support[1]][1]):
            i, j = support
            self.perm = tuple(j if k == i else i if k == j else k for k in range(len(self)))
            self.flips, self.scale = support if n * ratios[j][0] > 0 else (), 1 if n == d == 1 else Fraction(d, n)
        if self.perm is not None:
            # itemgetter of one index returns the item, not a 1-tuple; in dimension 1 the perm is the identity
            self._permute = operator.itemgetter(*self.perm) if len(self) > 1 else tuple
        return self

    @functools.cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """r_a as a d x d Fraction matrix."""
        norm2 = sum(v * v for v in self)
        n = len(self)
        return tuple(
            tuple((Fraction(1) if i == j else Fraction(0)) - 2 * self[i] * self[j] / norm2 for j in range(n))
            for i in range(n)
        )

    def apply(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """The image r_a v of a vector."""
        if self.perm is None:
            return tuple(sum((m * x for m, x in zip(row, v)), Fraction(0)) for row in self.matrix)
        return tuple(-v[j] if i in self.flips else v[j] for i, j in enumerate(self.perm))

    @functools.cached_property
    def _tables(self) -> tuple[dict[Monomial, dict[Monomial, Fraction]], dict[Monomial, dict[Monomial, Fraction]]]:
        """The dense rule's tables of images and of divided differences, seeded with the monomial 1."""
        one = (0,) * len(self)
        return {one: {one: Fraction(1)}}, {one: {}}

    def _dense(self, quotient: bool, mono: Monomial) -> dict[Monomial, Fraction]:
        """The terms of x^mono(r_a x), or of delta_a x^mono when ``quotient``, for a dense root.

        With x^b = x_i x^(b - e_i), i the first axis of b, and l_i the linear
        form of row i of r_a, the image is x^b(r_a x) = l_i x^(b - e_i)(r_a x).
        The divided difference delta_a p = (p - p(r_a x)) / <a, x> obeys the
        product rule delta_a(f g) = delta_a(f) g + f(r_a x) delta_a(g)
        (Dunkl, Trans. AMS 311, 1989), and delta_a x_i = 2 a_i / |a|^2, so
        delta_a x^b = (2 a_i / |a|^2) x^(b - e_i) + l_i delta_a x^(b - e_i).
        Each entry is built from the one below it and stored; a miss walks
        down to the nearest stored monomial and back up in a loop, so the
        degree is not bounded by the recursion limit.
        """
        table = self._tables[quotient]
        chain = []
        while mono not in table:
            i = next(i for i, e in enumerate(mono) if e)
            chain.append((mono, i))
            mono = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
        for mono, i in reversed(chain):
            below = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
            out = {below: 2 * self[i] / sum(v * v for v in self)} if quotient and self[i] else {}
            row = [(j, r) for j, r in enumerate(self.matrix[i]) if r]
            for m, c in table[below].items():
                for j, r in row:
                    k = m[:j] + (m[j] + 1,) + m[j + 1:]
                    out[k] = out.get(k, 0) + c * r
            table[mono] = {m: c for m, c in out.items() if c}
        return table[mono]

    def _terms(self, quotient: bool, mono: Monomial) -> Collection[tuple[Monomial, RationalLike]]:
        """The (monomial, coefficient) pairs of delta_a x^mono when ``quotient``, else of x^mono(r_a x).

        This is the root's one rule per monomial.  The monomials are
        distinct, the coefficients nonzero, and the pairs can be read more
        than once.  A dense root reads its tables (:meth:`_dense`) in place;
        a signed permutation maps x^mono to one term +-x^m, read through the
        ``itemgetter`` of its perm built with the root, with the sign from at
        most two flipped exponents, and its quotient has a closed form.  The
        image serves the V build's T matrix and both orbit-mate reflections
        (``DunklContext._orbit_mate``).
        """
        if self.perm is None:
            return self._dense(quotient, mono).items()
        if not quotient:
            # x^e -> prod (+-x_perm[i])^e_i; perm is an involution, so the new
            # exponent of x_k is e_perm[k], and the sign is that of the parity
            # of the at most two flipped exponents
            flips = self.flips
            if not flips:
                return ((self._permute(mono), 1),)
            odd = mono[flips[0]] + mono[flips[1]] if len(flips) == 2 else mono[flips[0]]
            return ((self._permute(mono), -1 if odd & 1 else 1),)
        if len(self.support) == 1:
            # a = c e_i: x^b - r x^b is 2 x^b for odd b_i and 0 for even b_i
            i = self.support[0]
            return ((mono[:i] + (mono[i] - 1,) + mono[i + 1:], self.scale),) if mono[i] % 2 else ()
        # a = c (e_i - w e_j), and r maps x_i to w x_j and x_j to w x_i; with
        # u = x_i, v = w x_j, e = b_i and f = b_j, the quotient of x^b is
        # w^f / c (u^e v^f - u^f v^e) / (u - v) times the other variables,
        # that is sign(e - f) w^f / c times the sum over k < |e - f| of
        # u^(min(e, f) + k) v^(max(e, f) - 1 - k)
        i, j = self.support
        e, f = mono[i], mono[j]
        if e == f:
            return ()
        lo, hi = (f, e) if e > f else (e, f)
        q = self.scale if e > f else -self.scale
        signed = (q, -q) if self.flips else (q, q)
        out = []  # a loop, not a comprehension, whose frame costs more than the one or two terms it mostly builds
        for k in range(hi - lo):
            out.append((mono[:i] + (lo + k,) + mono[i + 1:j] + (hi - 1 - k,) + mono[j + 1:],
                        signed[(f + hi - 1 - k) % 2]))
        return out

    def _sum(self, p: Poly, quotient: bool) -> Poly:
        """delta_a p when ``quotient``, else p(r_a x): the rule of :meth:`_terms` summed over p's terms."""
        if len(self) != p.dim:
            raise ValueError("alpha must be a nonzero vector of the ambient dimension")
        out: dict[Monomial, Fraction] = {}
        for mono, c in p.terms.items():
            for m, v in self._terms(quotient, mono):
                s = out.get(m)
                out[m] = c * v if s is None else s + c * v
        return Poly._raw(p.dim, {m: v for m, v in out.items() if v})


def format_poly(p: Poly) -> str:
    """Canonical text form: graded-lex term order, '+'/'-' separated."""
    if not p.terms:
        return "0"
    keys = sorted(p.terms, key=lambda m: (sum(m), m), reverse=True)
    pieces: list[str] = []
    for idx, mono in enumerate(keys):
        c = p.terms[mono]
        body = "*".join(
            f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
            for i, e in enumerate(mono)
            if e
        )
        mag = abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if idx == 0:
            pieces.append(text if c > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(pieces)


_WS = re.compile(r"\s*")
_INT = re.compile(r"\d+")


def parse(text: str, dim: int) -> Poly:
    """Parse polynomial text over variables x1..xd.

    Grammar: terms joined by '+'/'-'; each term is an optional rational
    coefficient (``p/q`` or an integer) followed by '*'-separated variable
    powers ``xK^E`` with 1 <= K <= dim and E >= 1 (``^1`` may be omitted).
    Whitespace is insignificant.
    """
    if dim < 1:
        raise ValueError("dimension must be a positive integer")
    pos = 0
    n = len(text)

    def skip_ws(p: int) -> int:
        return _WS.match(text, p).end()

    def read_int(p: int, what: str) -> tuple[int, int]:
        m = _INT.match(text, p)
        if not m:
            raise PolyParseError(f"expected {what}", p)
        return int(m.group()), m.end()

    terms: dict[Monomial, Fraction] = {}
    pos = skip_ws(pos)
    if pos >= n:
        raise PolyParseError("empty polynomial text", pos)

    first = True
    while True:
        pos = skip_ws(pos)
        sign = 1
        if pos < n and text[pos] in "+-":
            if text[pos] == "-":
                sign = -1
            pos = skip_ws(pos + 1)
        elif not first:
            raise PolyParseError("expected '+' or '-' between terms", pos)
        first = False

        coeff = Fraction(1)
        saw_coeff = False
        exps = [0] * dim

        if pos < n and text[pos].isdigit():
            num, pos = read_int(pos, "a number")
            pos2 = skip_ws(pos)
            if pos2 < n and text[pos2] == "/":
                den, pos = read_int(skip_ws(pos2 + 1), "a denominator")
                if den == 0:
                    raise PolyParseError("zero denominator", pos2 + 1)
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            saw_coeff = True

        saw_var = False
        while True:
            probe = skip_ws(pos)
            if saw_coeff or saw_var:
                if probe < n and text[probe] == "*":
                    probe = skip_ws(probe + 1)
                else:
                    break
            if probe >= n or text[probe] != "x":
                if saw_coeff or saw_var:
                    raise PolyParseError("expected a variable after '*'", probe)
                raise PolyParseError("expected a coefficient or variable", probe)
            k, probe = read_int(probe + 1, "a variable index")
            if not 1 <= k <= dim:
                raise PolyParseError(f"variable x{k} exceeds dimension {dim}", probe)
            e = 1
            probe2 = skip_ws(probe)
            if probe2 < n and text[probe2] == "^":
                e, probe = read_int(skip_ws(probe2 + 1), "an exponent")
                if e < 1:
                    raise PolyParseError("exponent must be >= 1", probe)
            exps[k - 1] += e
            saw_var = True
            pos = probe

        mono = tuple(exps)
        c = sign * coeff
        prev = terms.get(mono)
        total = c if prev is None else prev + c
        if total:
            terms[mono] = total
        elif prev is not None:
            del terms[mono]

        pos = skip_ws(pos)
        if pos >= n:
            break
        if text[pos] not in "+-":
            raise PolyParseError(f"unexpected character {text[pos]!r}", pos)

    return Poly(dim, terms)
