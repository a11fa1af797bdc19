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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .polyring import Monomial, Poly, RationalLike, Root, as_fraction

Vector = tuple[Fraction, ...]

FAMILY_ORBITS = {"z2": None, "a": 1, "b": 2, "d": 1}


def _exact(values: Sequence[RationalLike]) -> Vector:
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
        roots = tuple(map(_exact, self.positive_roots))
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
        object.__setattr__(self, "positive_roots", roots)
        object.__setattr__(self, "kappa_by_orbit", kappas)
        fault = _root_set_fault(roots, self.orbit_ids)
        if fault is not None:
            raise ValueError(fault)
        root_kappas = [kappas[oid] for oid in self.orbit_ids]
        active = tuple((root, kappa) for root, kappa in zip(roots, root_kappas) if kappa)
        object.__setattr__(self, "lambda_kappa", Fraction(self.dim, 2) - 1 + sum(root_kappas, Fraction(0)))
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
    def tables(self) -> ContextTables:
        """This context's memo tables, created on first use and dropped with it."""
        return ContextTables()


@dataclass
class ContextTables:
    """Exact per-monomial data of one context, each entry computed once.

    ``laplacian`` maps a monomial to the terms of its Dunkl Laplacian,
    ``axis`` a monomial to the terms of its d coordinate Dunkl operator
    images D_1 x^beta, ..., D_d x^beta, ``moments`` an even-degree monomial
    to its normalized weighted spherical integral, and ``intertwiner`` a
    degree to the V images of its monomials.  Entries are only ever added,
    and every entry is a function of the context and its key, so two
    threads that miss together write equal values.  The tables grow with
    the monomials of the degrees this context has been asked about (``axis``
    holds d images per monomial it has seen) and are dropped with the
    context.  The images repeat a few hundred monomials and a few dozen
    coefficients many times over, so ``laplacian`` and ``axis`` hold the one
    instance of each that ``shared`` maps it to, and ``axis`` keeps each
    image as a flat tuple m1, c1, m2, c2, ... rather than a dict; on d4 that
    takes the two tables from 1.4 MB to about 0.5 MB once every monomial of
    degree 4 to 8 has been seen.
    """

    laplacian: dict[Monomial, dict[Monomial, Fraction]] = field(default_factory=dict)
    axis: dict[Monomial, tuple[tuple, ...]] = field(default_factory=dict)
    shared: dict[Monomial | Fraction, Monomial | Fraction] = field(default_factory=dict)
    moments: dict[Monomial, Fraction] = field(default_factory=dict)
    intertwiner: dict[int, dict[Monomial, Poly]] = field(default_factory=dict)


def _catalog_roots(family: str, d: int) -> tuple[list[Vector], list[int]]:
    """The positive roots of a known family in dimension d, and their orbit ids."""
    units = [tuple(Fraction(int(k == i)) for k in range(d)) for i in range(d)]
    if family == "z2":
        return units, list(range(d))
    signs = (-1,) if family == "a" else (-1, 1)
    pairs = [tuple(Fraction(1 if k == i else sj if k == j else 0) for k in range(d))
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
def _root_set_fault(roots: tuple[Root, ...], orbit_ids: tuple[int, ...]) -> str | None:
    """Why the roots are not a reduced, reflection-closed system, or None.

    Each reflection must map every root to a root of the same orbit, up to
    sign, so that it permutes the root set and preserves multiplicities.
    The verdict depends on the roots and their orbits only, not on the
    multiplicities, so it is computed once per root set: the O(R^2) checks
    in Fractions otherwise dominate every ``make_context``.
    """
    for i, u in enumerate(roots):
        for j in range(i + 1, len(roots)):
            v = roots[j]
            if all(u[a] * v[b] == u[b] * v[a] for a in range(len(u)) for b in range(len(u))):
                return f"roots #{i} and #{j} are parallel; the system must be reduced"
    index = {root: i for i, root in enumerate(roots)}
    for beta in roots:
        for i, alpha in enumerate(roots):
            image = beta.apply(alpha)
            pos = image if image in index else tuple(-v for v in image)
            if pos not in index or orbit_ids[index[pos]] != orbit_ids[i]:
                return (f"the reflection across {beta} maps {alpha} to {image}, "
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
