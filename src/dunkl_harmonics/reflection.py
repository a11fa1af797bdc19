"""Reflection groups with rational root coordinates, and their weights.

The catalog covers the families that admit rational-coordinate reduced
root systems: sign flips (``z2``), the symmetric group acting on all d
coordinates (``a``), hyperoctahedral (``b``), and demihyperoctahedral
(``d``).  Dihedral groups with irrational standard roots are deliberately
absent; ``b`` at d = 2 supplies the square-symmetry case.  Roots are kept
in their integer-coordinate normalization: every exposed quantity is
invariant under rescaling a root orbit by a positive rational.

Each context owns one :class:`ContextTables`, created on first use and
dropped with the context, in which the operator layers memoize exact
per-monomial data.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .polyring import Monomial, Poly, RationalLike, _reflection, as_fraction

Vector = tuple[Fraction, ...]

FAMILY_ORBITS = {"z2": None, "a": 1, "b": 2, "d": 1}


def _unit(dim: int, i: int, sign: int = 1) -> Vector:
    return tuple(Fraction(sign if j == i else 0) for j in range(dim))


@dataclass(frozen=True, eq=False)
class RootSystem:
    """A reduced root system given by positive roots and orbit multiplicities.

    ``orbit_ids[k]`` is the orbit of ``positive_roots[k]``; ``kappa_by_orbit``
    assigns one multiplicity per orbit.  Construction checks that every
    reflection maps the roots onto roots of the same orbit, so the roots and
    the multiplicities are invariant under the group.
    """

    dim: int
    positive_roots: tuple[Vector, ...]
    orbit_ids: tuple[int, ...]
    kappa_by_orbit: tuple[Fraction, ...]
    family: str | None = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension must be >= 2")
        if len(self.orbit_ids) != len(self.positive_roots):
            raise ValueError("need one orbit id per positive root")
        if any(k < 0 for k in self.kappa_by_orbit):
            raise ValueError("multiplicities must be non-negative")
        if any(oid not in range(len(self.kappa_by_orbit)) for oid in self.orbit_ids):
            raise ValueError("orbit id out of range")
        for idx, root in enumerate(self.positive_roots):
            if len(root) != self.dim or not any(root):
                raise ValueError(f"root #{idx} is not a nonzero vector of dimension {self.dim}")
        fault = _root_set_fault(self.positive_roots, self.orbit_ids)
        if fault is not None:
            raise ValueError(fault)

    def kappa_of(self, index: int) -> Fraction:
        return self.kappa_by_orbit[self.orbit_ids[index]]

    def kappa_sum(self) -> Fraction:
        return sum((self.kappa_of(i) for i in range(len(self.positive_roots))), Fraction(0))


@dataclass(frozen=True, eq=False)
class DunklContext:
    """A root system together with its derived spectral constant.

    ``lambda_kappa`` is d/2 - 1 plus the sum of all positive-root
    multiplicities. ``active_roots`` pre-filters the roots with nonzero
    multiplicity, which are the only ones entering the difference part of
    the Dunkl operator.
    """

    root_system: RootSystem
    lambda_kappa: Fraction
    active_roots: tuple[tuple[Vector, Fraction], ...]

    @classmethod
    def from_root_system(cls, rs: RootSystem) -> DunklContext:
        lam = Fraction(rs.dim, 2) - 1 + rs.kappa_sum()
        active = tuple(
            (root, rs.kappa_of(i))
            for i, root in enumerate(rs.positive_roots)
            if rs.kappa_of(i)
        )
        return cls(rs, lam, active)

    @property
    def dim(self) -> int:
        return self.root_system.dim

    @property
    def family(self) -> str | None:
        return self.root_system.family

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
        return ",".join(str(k) for k in self.root_system.kappa_by_orbit)

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
    roots: list[Vector] = []
    orbits: list[int] = []
    if family == "z2":
        for i in range(d):
            roots.append(_unit(d, i))
            orbits.append(i)
    elif family == "a":
        for i in range(d):
            for j in range(i + 1, d):
                roots.append(tuple(Fraction(1 if k == i else -1 if k == j else 0) for k in range(d)))
                orbits.append(0)
    elif family == "b":
        for i in range(d):
            roots.append(_unit(d, i))
            orbits.append(0)
        for i in range(d):
            for j in range(i + 1, d):
                for sj in (-1, 1):
                    roots.append(tuple(Fraction(1 if k == i else sj if k == j else 0) for k in range(d)))
                    orbits.append(1)
    elif family == "d":
        for i in range(d):
            for j in range(i + 1, d):
                for sj in (-1, 1):
                    roots.append(tuple(Fraction(1 if k == i else sj if k == j else 0) for k in range(d)))
                    orbits.append(0)
    else:
        raise ValueError(f"unknown family {family!r}; expected one of z2, a, b, d")
    return roots, orbits


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
    kappas = tuple(as_fraction(k) for k in kappa_by_orbit)
    if any(k < 0 for k in kappas):
        raise ValueError("multiplicities must be non-negative")
    expected = FAMILY_ORBITS.get(family)
    if family not in FAMILY_ORBITS:
        raise ValueError(f"unknown family {family!r}; expected one of z2, a, b, d")
    n_orbits = d if expected is None else expected
    if len(kappas) != n_orbits:
        raise ValueError(f"family {family!r} at d={d} takes {n_orbits} multiplicities, got {len(kappas)}")
    roots, orbits = _catalog_roots(family, d)
    rs = RootSystem(d, tuple(roots), tuple(orbits), kappas, family=family)
    return DunklContext.from_root_system(rs)


def root_closure_failure(rs: RootSystem) -> tuple[Vector, Vector, Vector] | None:
    """The first (beta, alpha, r_beta alpha) breaking closure, or None.

    Each reflection must map every root to a root of the same orbit, up to
    sign, so that it permutes the root set and preserves multiplicities.
    """
    return _closure_failure(rs.positive_roots, rs.orbit_ids)


def _closure_failure(
    roots: tuple[Vector, ...], orbit_ids: tuple[int, ...]
) -> tuple[Vector, Vector, Vector] | None:
    index = {root: i for i, root in enumerate(roots)}
    for beta in roots:
        r = _reflection(beta)
        for i, alpha in enumerate(roots):
            image = r.apply(alpha)
            pos = image if image in index else tuple(-v for v in image)
            if pos not in index or orbit_ids[index[pos]] != orbit_ids[i]:
                return beta, alpha, image
    return None


@functools.lru_cache(maxsize=64)
def _root_set_fault(roots: tuple[Vector, ...], orbit_ids: tuple[int, ...]) -> str | None:
    """Why the roots are not a reduced, reflection-closed system, or None.

    The verdict depends on the roots and their orbits only, not on the
    multiplicities, so it is computed once per root set: the O(R^2) checks
    in Fractions otherwise dominate every ``make_context``.
    """
    for i, u in enumerate(roots):
        for j in range(i + 1, len(roots)):
            v = roots[j]
            if all(u[a] * v[b] == u[b] * v[a] for a in range(len(u)) for b in range(len(u))):
                return f"roots #{i} and #{j} are parallel; the system must be reduced"
    bad = _closure_failure(roots, orbit_ids)
    if bad is not None:
        beta, alpha, image = bad
        return f"the reflection across {beta} maps {alpha} to {image}, outside the root set or its orbit"
    return None


def reflection_matrix(ctx: DunklContext, alpha: Sequence[RationalLike]) -> list[list[Fraction]]:
    """Matrix of the reflection across alpha-perp, for a positive root alpha."""
    a = tuple(as_fraction(v) for v in alpha)
    if a not in ctx.root_system.positive_roots:
        raise ValueError(f"{a!r} is not a positive root of this context")
    return [list(row) for row in _reflection(a).matrix]


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
