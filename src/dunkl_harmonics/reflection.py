"""Reflection groups with rational root coordinates, and their weights.

The catalog covers the families that admit rational-coordinate reduced
root systems: sign flips (``z2``), the symmetric group acting on all d
coordinates (``a``), hyperoctahedral (``b``), and demihyperoctahedral
(``d``).  Dihedral groups with irrational standard roots are deliberately
absent; ``b`` at d = 2 supplies the square-symmetry case.  Roots are kept
in their integer-coordinate normalization: every exposed quantity is
invariant under rescaling a root orbit by a positive rational.

A :class:`DunklContext` is one reduced root system with its multiplicities,
built by :func:`make_context` for the catalog or from its positive roots for
any other system; it derives lambda_kappa and the active roots itself.  Its
roots are ``polyring.Root`` tuples, each of which carries its reflection.

Each context owns one :class:`ContextTables`, created on first use and
dropped with the context, in which the operator layers memoize exact
per-monomial data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .polyring import Monomial, Poly, RationalLike, Root, as_fraction

FAMILY_ORBITS = {"z2": None, "a": 1, "b": 2, "d": 1}


def _exact(values: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    """The values as Fractions, refusing a root entry or multiplicity that is not exact."""
    try:
        return tuple(map(as_fraction, values))
    except TypeError as exc:
        raise ValueError(f"roots and multiplicities must be exact: {exc}") from None


@dataclass(frozen=True, eq=False)
class DunklContext:
    """A reduced root system with a group-invariant multiplicity.

    ``orbit_ids[k]`` is the orbit of ``positive_roots[k]``; ``kappa_by_orbit``
    assigns one multiplicity per orbit.  Construction checks that every
    reflection maps the roots onto roots of the same orbit, so the roots and
    the multiplicities are invariant under the group.  Multiplicities are
    stored as Fractions and roots as ``Root``s with Fraction entries,
    whatever exact type they came in.

    Construction also derives the rest, which no caller can set:
    ``lambda_kappa`` is d/2 - 1 plus the sum of all positive-root
    multiplicities, and ``active_roots`` pairs each root of nonzero
    multiplicity with its multiplicity, in root order; only these enter the
    difference part of the Dunkl operator.

    It is also the one argument gate: every public function that takes a
    context and a polynomial checks the dimension with :meth:`check_dim`.
    """

    dim: int
    positive_roots: tuple[Root, ...]
    orbit_ids: tuple[int, ...]
    kappa_by_orbit: tuple[Fraction, ...]
    family: str | None = None
    lambda_kappa: Fraction = field(init=False)
    active_roots: tuple[tuple[Root, Fraction], ...] = field(init=False)

    def __post_init__(self):
        roots = tuple(root if isinstance(root, Root) else _exact(root) for root in self.positive_roots)
        kappas = _exact(self.kappa_by_orbit)
        if self.dim < 2:
            raise ValueError("dimension must be >= 2")
        if len(self.orbit_ids) != len(roots):
            raise ValueError("need one orbit id per positive root")
        if any(k < 0 for k in kappas):
            raise ValueError("multiplicities must be non-negative")
        if any(oid not in range(len(kappas)) for oid in self.orbit_ids):
            raise ValueError("orbit id out of range")
        for idx, root in enumerate(roots):
            if len(root) != self.dim or not any(root):
                raise ValueError(f"root #{idx} is not a nonzero vector of dimension {self.dim}")
        roots = tuple(map(Root, roots))
        fault = _root_set_fault(tuple(root.ratios for root in roots), self.orbit_ids)
        if fault is not None:
            raise ValueError(fault)
        object.__setattr__(self, "positive_roots", roots)
        object.__setattr__(self, "kappa_by_orbit", kappas)
        root_kappas = [kappas[oid] for oid in self.orbit_ids]
        active = tuple((root, kappa) for root, kappa in zip(roots, root_kappas) if kappa)
        total = sum(k * self.orbit_ids.count(oid) for oid, k in enumerate(kappas) if k)
        object.__setattr__(self, "lambda_kappa", Fraction(self.dim, 2) - 1 + total)
        object.__setattr__(self, "active_roots", active)

    def check_dim(self, p: Poly, name: str = "polynomial") -> None:
        """Refuse p, called ``name`` in the message, unless its dimension is this context's."""
        if p.dim != self.dim:
            raise ValueError(f"{name} dimension does not match the context")

    @property
    def group_name(self) -> str:
        """The group descriptor (``z2^D``, ``aR``, ``bD``, ``dD``), or ``custom``."""
        fam = self.family or "custom"
        if fam == "z2":
            return f"z2^{self.dim}"
        if fam == "a":
            return f"a{self.dim - 1}"
        return f"{fam}{self.dim}" if fam in ("b", "d") else fam

    @property
    def kappa_text(self) -> str:
        """The multiplicities, one per orbit, comma-separated."""
        return ",".join(str(k) for k in self.kappa_by_orbit)

    def label(self) -> str:
        return f"{self.group_name}[kappa={self.kappa_text}]"

    @functools.cached_property
    def _scaled_roots(self) -> tuple[int, tuple[tuple[Root, tuple[RationalLike, ...], int], ...]]:
        """(den, ((root, alpha, den kappa), ...)) over the active roots: den the lcm of the kappa
        denominators, and alpha the root with its integral entries as ints; dropped with the context."""
        den = math.lcm(*[kappa.denominator for _, kappa in self.active_roots])
        return den, tuple((root, tuple(n if d == 1 else a for a, (n, d) in zip(root, root.ratios)),
                           kappa.numerator * (den // kappa.denominator)) for root, kappa in self.active_roots)

    @functools.cached_property
    def _swaps(self) -> tuple[tuple[Root, int, int], ...]:
        """(root, i, j) for each positive root whose reflection is a signed permutation that swaps
        coordinates i < j, in root order; dropped with the context."""
        return tuple((root, *root.support) for root in self.positive_roots
                     if root.perm is not None and len(root.support) == 2)

    def _orbit_mate(self, mono: Monomial) -> tuple[Root, Monomial, int] | None:
        """(r, m, s) with x^mono(r x) = s x^m and m lex-greater than mono, or None for a representative.

        This is the one orbit-mate rule.  r is the first positive root whose
        reflection is a signed permutation that moves mono to a lex-greater
        monomial: one that swaps coordinates i < j with mono_j > mono_i, since
        then m agrees with mono before i and m_i = mono_j.  A monomial with no
        mate is its orbit's representative: the descending-sorted exponents
        for types A, B and D, and every monomial for z2^d or dense roots.
        Every reflection r of the group commutes with the Laplacian and with
        V (Dunkl, Trans. AMS 311, 1989), and x^mono = s x^m(r x), so the image
        of x^mono under either is s times that of x^m composed with r.  Each
        step is lex-greater, so a chain of mates ends at the representative.
        """
        for root, i, j in self._swaps:
            if mono[j] > mono[i]:
                ((m, s),) = root._terms(False, mono)
                return root, m, s
        return None

    @functools.cached_property
    def tables(self) -> ContextTables:
        """This context's memo tables, created on first use and dropped with it."""
        return ContextTables()


@dataclass
class ContextTables:
    """Exact per-monomial data of one context, each entry computed once.

    ``laplacian`` maps a monomial to its Dunkl Laplacian, ``axis`` a monomial
    to its d coordinate Dunkl operator images D_1 x^beta, ..., D_d x^beta,
    ``moments`` an even-degree monomial to its normalized weighted spherical
    integral, and ``intertwiner`` a degree to the V images of its monomials,
    each a reduced ``polyring.Form`` (den, {monomial: numerator}) that V's
    readers take as it is.  ``laplacian`` and ``axis`` share one entry
    layout, (den, images) with one image for the Laplacian and d for the
    axes: one positive int denominator and each image flat as m1, n1, m2,
    n2, ... for the terms n_i / den x^m_i, den prime to the int numerators
    (``polyring.over_one_denominator``), so the operator kernel sums ints;
    only ``dunkl`` reads it.  Entries are only ever added, and each is a
    function of the context and its key, so two threads that miss together
    write equal values.  The tables grow with the monomials of the degrees
    asked about and are dropped with the context.  The images repeat a few hundred
    monomials many times over, so they hold the one instance of each that
    ``shared`` maps it to; on d4 that takes the two tables from 0.77 MB to
    0.35 MB once every monomial of degree 4 to 8 has been seen.
    """

    laplacian: dict[Monomial, tuple[int, tuple[tuple, ...]]] = field(default_factory=dict)
    axis: dict[Monomial, tuple[int, tuple[tuple, ...]]] = field(default_factory=dict)
    shared: dict[Monomial, Monomial] = field(default_factory=dict)
    moments: dict[Monomial, Fraction] = field(default_factory=dict)
    intertwiner: dict[int, dict[Monomial, tuple[int, dict[Monomial, int]]]] = field(default_factory=dict)


_UNIT_ENTRIES = {v: Fraction(v) for v in (-1, 0, 1)}


def _catalog_roots(family: str, d: int) -> tuple[list[Root], list[int]]:
    """The positive roots of a known family in dimension d, built once as ``Root``s of shared entries, and their
    orbit ids; :class:`DunklContext` keeps them as they are."""
    if family in ("z2", "b"):  # the unit roots e_i, which a and d do not have
        units = [Root([_UNIT_ENTRIES[int(k == i)] for k in range(d)]) for i in range(d)]
        if family == "z2":
            return units, list(range(d))
    signs = (-1,) if family == "a" else (-1, 1)
    pairs = [Root([_UNIT_ENTRIES[1 if k == i else sj if k == j else 0] for k in range(d)])
             for i in range(d) for j in range(i + 1, d) for sj in signs]
    if family == "b":
        return units + pairs, [0] * d + [1] * len(pairs)
    return pairs, [0] * len(pairs)


def make_context(family: str, d: int, kappa_by_orbit: Sequence[RationalLike]) -> DunklContext:
    """Build a catalog context.

    ``family`` is one of ``z2`` (d orbits), ``a`` (1 orbit, the symmetric
    group acting on d coordinates), ``b`` (2 orbits: coordinate roots then
    the two-coordinate roots), ``d`` (1 orbit).  ``d`` is the ambient
    dimension, at least 2.
    """
    family = family.lower()
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if family not in FAMILY_ORBITS:
        raise ValueError(f"unknown family {family!r}; expected one of z2, a, b, d")
    n_orbits = FAMILY_ORBITS[family] or d
    kappas = tuple(kappa_by_orbit)
    if len(kappas) != n_orbits:
        raise ValueError(f"family {family!r} at d={d} takes {n_orbits} multiplicities, got {len(kappas)}")
    roots, orbits = _catalog_roots(family, d)
    return DunklContext(d, tuple(roots), tuple(orbits), kappas, family=family)


@functools.lru_cache(maxsize=64)
def _root_set_fault(ratios: tuple[tuple[tuple[int, int], ...], ...], orbit_ids: tuple[int, ...]) -> str | None:
    """Why the roots, given by their ``Root.ratios``, are not a reduced, reflection-closed system, or None.

    Each reflection must map every root to a root of the same orbit, up to
    sign, so that it permutes the root set and preserves multiplicities.
    The verdict depends on the roots and their orbits, not on the
    multiplicities, so it is computed once per root set, in ints: the reduced
    int pairs are the exact roots, so they key the index, the parallel test
    cross-multiplies them, and a signed permutation maps them with no
    Fraction.  The key keeps no ``Root`` nor a dense Root's tables alive.
    """
    for i, u in enumerate(ratios):
        for j in range(i + 1, len(ratios)):
            v = ratios[j]  # u_a v_b == u_b v_a for all a, b
            if all(u[a][0] * v[b][0] * u[b][1] * v[a][1] == u[b][0] * v[a][0] * u[a][1] * v[b][1]
                   for a in range(len(u)) for b in range(a)):
                return f"roots #{i} and #{j} are parallel; the system must be reduced"
    index = {root: i for i, root in enumerate(ratios)}
    for beta in (Root([Fraction(n, d) for n, d in root]) for root in ratios):
        for i, alpha in enumerate(ratios):
            if beta.perm is None:
                image = tuple(v.as_integer_ratio() for v in beta.apply([Fraction(n, d) for n, d in alpha]))
            else:
                image = tuple((-alpha[j][0], alpha[j][1]) if k in beta.flips else alpha[j]
                              for k, j in enumerate(beta.perm))
            pos = image if image in index else tuple((-n, d) for n, d in image)
            if pos not in index or orbit_ids[index[pos]] != orbit_ids[i]:
                alpha = tuple(Fraction(n, d) for n, d in alpha)
                return (f"the reflection across {beta} maps {alpha} to {beta.apply(alpha)}, "
                        "outside the root set or its orbit")
    return None


def reflection_matrix(ctx: DunklContext, alpha: Sequence[RationalLike]) -> list[list[Fraction]]:
    """Matrix of the reflection across alpha-perp, for a positive root alpha."""
    a = tuple(as_fraction(v) for v in alpha)
    for root in ctx.positive_roots:
        if root == a:
            return [list(row) for row in root.matrix]
    raise ValueError(f"{a!r} is not a positive root of this context")


def context_from_descriptor(descriptor: str, kappa_by_orbit: Sequence[RationalLike]) -> DunklContext:
    """Parse a group descriptor string: ``z2^D``, ``aR``, ``bD``, ``dD``.

    For the ``a`` family the number is the Coxeter rank, so ``a2`` is the
    symmetric group on 3 letters acting in dimension 3.
    """
    import re

    text = descriptor.strip().lower()
    m = re.fullmatch(r"z2\^(\d+)", text)
    if m:
        return make_context("z2", int(m.group(1)), kappa_by_orbit)
    m = re.fullmatch(r"([abd])(\d+)", text)
    if m:
        family, num = m.group(1), int(m.group(2))
        d = num + 1 if family == "a" else num
        return make_context(family, d, kappa_by_orbit)
    raise ValueError(f"bad group descriptor {descriptor!r}; expected z2^D, aR, bD, or dD")
