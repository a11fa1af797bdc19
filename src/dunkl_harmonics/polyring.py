"""Sparse multivariate polynomials with exact rational coefficients.

A :class:`Poly` is an immutable map from exponent tuples to nonzero
``fractions.Fraction`` coefficients in a fixed ambient dimension.  All
arithmetic is exact, and no float enters: the float lane is
:mod:`dunkl_harmonics.oracle`.  Text I/O follows a small grammar with
variables ``x1 .. xd`` (see :func:`parse`), and :meth:`Poly.__str__`
emits terms in graded-lexicographic order so that formatting is canonical.
:func:`radial_sum` is the one routine for a sum of c |x|^(2k) g: Horner's
rule in |x|^2, whose multiplication is a shift of exponents.

The reflection primitives live here too.  A :class:`Root` is a nonzero
rational vector ``a`` that carries its reflection ``r_a``, classified once
when the root is built: a signed permutation whenever it is one (every
catalog root), a dense matrix built on first use otherwise.  A context's
roots are Roots, so :meth:`Poly.reflect` (which applies ``Root.image``) and
:meth:`Poly.divided_difference` use their reflection as it is, and classify
any other exact vector they are given.  :meth:`Poly.divided_difference`
is the exact quotient (p(x) - p(r_a x)) / <a, x>, term by term in closed form
when r_a is a signed permutation.  Otherwise the numerator vanishes on the
hyperplane orthogonal to ``a``, so :func:`divide_by_linear` leaves no
remainder, and a nonzero one is an internal error, never a property of the
input.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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


def pochhammer(a: RationalLike, n: int) -> Fraction:
    """Shifted factorial a (a+1) ... (a+n-1), with the empty product 1."""
    if n < 0:
        raise ValueError("pochhammer order must be >= 0")
    out = Fraction(1)
    a = as_fraction(a)
    for i in range(n):
        out *= a + i
    return out


def monomials_of_degree(dim: int, degree: int) -> list[Monomial]:
    """All exponent vectors of total degree ``degree``, lex-descending."""
    if dim < 1 or degree < 0:
        raise ValueError("need dim >= 1 and degree >= 0")

    def gen(d: int, n: int):
        if d == 1:
            yield (n,)
            return
        for k in range(n, -1, -1):
            for rest in gen(d - 1, n - k):
                yield (k,) + rest

    return list(gen(dim, degree))


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

    def substitute_linear(self, matrix: Sequence[Sequence[RationalLike]]) -> Poly:
        """Return p(Mx), exactly, for a square rational matrix M."""
        rows = [[as_fraction(v) for v in row] for row in matrix]
        if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
            raise ValueError("matrix must be dim x dim")
        images = [
            Poly(self.dim, {tuple(1 if j == k else 0 for k in range(self.dim)): rows[i][j]
                            for j in range(self.dim)})
            for i in range(self.dim)
        ]

        @functools.cache
        def image_power(i: int, e: int) -> Poly:
            return images[i] ** e

        acc = Poly.zero(self.dim)
        for mono, c in self.terms.items():
            term = Poly.const(self.dim, c)
            for i, e in enumerate(mono):
                if e:
                    term = term * image_power(i, e)
            acc = acc + term
        return acc

    def reflect(self, alpha: Sequence[RationalLike]) -> Poly:
        """Return p(r_a x), r_a the reflection across a-perp, for a Root or any nonzero exact a."""
        a = Root(alpha)
        if len(a) != self.dim:
            raise ValueError("alpha must be a nonzero vector of the ambient dimension")
        return a.image(self)

    def divided_difference(self, alpha: Sequence[RationalLike]) -> Poly:
        """Exact quotient (p(x) - p(r_a x)) / <a, x> for nonzero ``alpha``.

        When r_a is a signed permutation, ``a`` is c e_i or c (e_i - w e_j)
        with w = +-1, and each term's quotient has a closed form: no
        reflected copy of p and no division, and for c = 1 (every catalog
        root) integer coefficients stay integers.  Any other root divides
        p - p(r_a x) by <a, x>.  ``alpha`` is taken as in :meth:`reflect`.
        """
        a = Root(alpha)
        if len(a) != self.dim:
            raise ValueError("alpha must be a nonzero vector of the ambient dimension")
        if a.perm is None:
            return divide_by_linear(self - a.image(self), a)
        moved = [i for i, j in enumerate(a.perm) if i != j]
        if not moved:
            # a = c e_i: x^b - r x^b is 2 x^b for odd b_i and 0 for even b_i
            i = a.flips[0]
            scale = 2 if a[i] == 1 else 2 / a[i]
            return Poly._raw(self.dim, {
                mono[:i] + (mono[i] - 1,) + mono[i + 1:]: c * scale
                for mono, c in self.terms.items() if mono[i] % 2
            })
        # a = c (e_i - w e_j), and r maps x_i to w x_j and x_j to w x_i; with
        # u = x_i, v = w x_j, e = b_i and f = b_j, the quotient of x^b is
        # w^f / c (u^e v^f - u^f v^e) / (u - v) times the other variables,
        # that is sign(e - f) w^f / c times the sum over k < |e - f| of
        # u^(min(e, f) + k) v^(max(e, f) - 1 - k)
        i, j = moved
        inv = 1 if a[i] == 1 else 1 / a[i]
        w_odd = bool(a.flips)
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            e, f = mono[i], mono[j]
            if e == f:
                continue
            lo, hi = (f, e) if e > f else (e, f)
            q = c * inv if e > f else -c * inv
            signed = (q, -q) if w_odd else (q, q)
            for k in range(hi - lo):
                ej = hi - 1 - k
                m = mono[:i] + (lo + k,) + mono[i + 1:j] + (ej,) + mono[j + 1:]
                v = signed[(f + ej) % 2]
                s = out.get(m)
                out[m] = v if s is None else s + v
        return Poly._raw(self.dim, {m: v for m, v in out.items() if v})

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

    out = |x|^2 out + (the terms with k) for k = K .. 0, where multiplying by
    |x|^2 adds 2 to each exponent in turn: one dict, and no product of two polynomials.
    """
    buckets: dict[int, list[tuple[RationalLike, Poly]]] = {}
    for k, c, g in terms:
        buckets.setdefault(k, []).append((c, g))
    out: dict[Monomial, Fraction] = {}
    for k in range(max(buckets, default=-1), -1, -1):
        if out:
            shifted: dict[Monomial, Fraction] = {}
            for mono, c in out.items():
                for i, e in enumerate(mono):
                    m = mono[:i] + (e + 2,) + mono[i + 1:]
                    s = shifted.get(m)
                    shifted[m] = c if s is None else s + c
            out = shifted
        for c, g in buckets.get(k, ()):
            one = c == 1
            for m, v in g.terms.items():
                v = v if one else c * v
                s = out.get(m)
                out[m] = v if s is None else s + v
    return Poly._raw(dim, {m: v for m, v in out.items() if v})


class Root(tuple):
    """A nonzero vector a of Fractions that carries its reflection r_a = I - 2 a a^T / |a|^2.

    r_a is classified once, from the support of a: it is a signed permutation
    exactly when a is c e_i or c (e_i +- e_j) with |a_i| = |a_j| (every
    catalog root), and dense (``perm`` None) otherwise.  ``matrix`` is built
    on first use, and ``Root(a)`` returns a itself when it is already a Root.
    """

    perm: tuple[int, ...] | None  # column of row i's single nonzero, or None if dense
    flips: tuple[int, ...]  # rows whose single nonzero is -1

    def __new__(cls, values: Sequence[RationalLike]) -> Root:
        if isinstance(values, Root):
            return values
        self = super().__new__(cls, map(as_fraction, values))
        support = [i for i, v in enumerate(self) if v]
        if not support:
            raise ValueError("alpha must be a nonzero vector of the ambient dimension")
        self.perm, self.flips = None, ()
        if len(support) == 1:
            self.perm, self.flips = tuple(range(len(self))), tuple(support)
        elif len(support) == 2 and abs(self[support[0]]) == abs(self[support[1]]):
            i, j = support
            self.perm = tuple(j if k == i else i if k == j else k for k in range(len(self)))
            self.flips = (i, j) if self[i] * self[j] > 0 else ()
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

    def image(self, p: Poly) -> Poly:
        """The polynomial p(r_a x)."""
        if self.perm is None:
            return p.substitute_linear(self.matrix)
        # x^e -> prod (+-x_perm[i])^e_i; perm is an involution, so the new
        # exponent of x_k is e_perm[k], and no two terms merge
        perm, flips = self.perm, self.flips
        out: dict[Monomial, Fraction] = {}
        for mono, c in p.terms.items():
            odd = sum(mono[i] for i in flips) & 1
            out[tuple(mono[i] for i in perm)] = -c if odd else c
        return Poly._raw(p.dim, out)


def divide_by_linear(p: Poly, a: Sequence[Fraction]) -> Poly:
    """Divide an exactly-divisible polynomial by the linear form <a, x>.

    Synthetic division in the first pivot variable; the remainder must be
    identically zero, otherwise an AssertionError flags an internal bug.
    """
    if not p.terms:
        return p
    pivot = next(i for i, v in enumerate(a) if v)
    inv = Fraction(1) / a[pivot]
    levels: dict[int, dict[Monomial, Fraction]] = {}
    for mono, c in p.terms.items():
        levels.setdefault(mono[pivot], {})[mono] = c
    quotient: dict[Monomial, Fraction] = {}
    for k in range(max(levels), 0, -1):
        for mono, c in levels.get(k, {}).items():
            if not c:
                continue
            q_mono = mono[:pivot] + (k - 1,) + mono[pivot + 1:]
            qc = c * inv
            quotient[q_mono] = qc
            below = levels.setdefault(k - 1, {})
            for i, ai in enumerate(a):
                if i == pivot or not ai:
                    continue
                m3 = q_mono[:i] + (q_mono[i] + 1,) + q_mono[i + 1:]
                below[m3] = below.get(m3, Fraction(0)) - qc * ai
    remainder = {m: c for m, c in levels.get(0, {}).items() if c}
    if remainder:
        raise AssertionError(
            f"division by a linear form left a nonzero remainder {remainder!r}; this is a bug"
        )
    return Poly._raw(p.dim, {m: c for m, c in quotient.items() if c})


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
