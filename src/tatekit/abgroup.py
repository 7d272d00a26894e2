"""Finitely generated abelian groups presented by integer lattices.

A group is always carried around together with the presentation that
produced it (a sublattice P of some ambient Z^r modulo a relation lattice
R), so that classes can be projected from and lifted back to honest lattice
vectors.  The normal form keeps invariant factors >= 2 in divisibility
order; factors equal to 1 are dropped.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd

from .errors import CoordinateLengthError, DomainError, Frozen, MembershipError
from .matrices import (
    IntMatrix,
    SmithForm,
    hnf_basis,
    kernel_basis,
    smith_normal_form,
    solve_matrix,
    solve_matrix_strict,
    solve_vector,
)

__all__ = [
    "INFINITE",
    "FinAbGroup",
    "AbElement",
    "LatticeQuotient",
    "InducedMap",
    "class_in",
    "cokernel",
    "common_kernel",
    "element_order",
]


class _Infinite:
    __slots__ = ()

    def __repr__(self):
        return "INFINITE"


#: Sentinel returned for the order of an element of infinite order.
INFINITE = _Infinite()


class FinAbGroup(Frozen):
    """Invariant-factor normal form: Z/d1 x ... x Z/dk x Z^free_rank.

    Immutable; groups with the same invariants are equal and hash alike.
    """

    def __init__(self, invariant_factors: tuple[int, ...], free_rank: int):
        for d in invariant_factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(invariant_factors, invariant_factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        object.__setattr__(self, "invariant_factors", invariant_factors)
        object.__setattr__(self, "free_rank", free_rank)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.invariant_factors, self.free_rank) == (other.invariant_factors, other.free_rank)
        return NotImplemented

    def __hash__(self):
        return hash((self.invariant_factors, self.free_rank))

    @property
    def ncoords(self) -> int:
        return len(self.invariant_factors) + self.free_rank

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def is_trivial(self) -> bool:
        return self.ncoords == 0

    def size(self):
        if not self.is_finite:
            return INFINITE
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def exponent(self):
        if not self.is_finite:
            return INFINITE
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def reduce(self, coords) -> tuple[int, ...]:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.ncoords:
            raise ValueError("coordinate length does not match the group")
        tor = tuple(c % d for c, d in zip(coords, self.invariant_factors))
        return tor + coords[len(self.invariant_factors):]

    def zero(self) -> "AbElement":
        return AbElement(self, (0,) * self.ncoords)

    def element(self, coords) -> "AbElement":
        return AbElement(self, coords)

    def elements(self):
        """Iterate over all elements; only allowed for finite groups."""
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        for tor in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield AbElement(self, tor)


class AbElement(Frozen):
    """An element of ``group`` by its reduced coordinates; immutable, equal
    to an element of the same group with the same coordinates."""

    def __init__(self, group: FinAbGroup, coords):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", group.reduce(coords))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.group, self.coords) == (other.group, other.coords)
        return NotImplemented

    def __hash__(self):
        return hash((self.group, self.coords))

    def __add__(self, other: "AbElement") -> "AbElement":
        if other.group != self.group:
            raise ValueError("elements of different groups")
        return AbElement(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "AbElement":
        return AbElement(self.group, tuple(-a for a in self.coords))

    def __sub__(self, other: "AbElement") -> "AbElement":
        return self + (-other)

    def __rmul__(self, n: int) -> "AbElement":
        return AbElement(self.group, tuple(n * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self):
        return element_order(self)


def class_in(group: FinAbGroup, x, field: str) -> AbElement:
    """``x`` as an element of ``group``: an element of it, or its coordinates.
    The errors name ``field``, the input ``x`` came from."""
    if isinstance(x, AbElement):
        if x.group != group:
            raise DomainError(f"{field}: the class does not live in this group")
        return x
    coords = tuple(x)
    if len(coords) != group.ncoords:
        raise CoordinateLengthError(f"{field}: expected {group.ncoords} coordinates, got {len(coords)}")
    return group.element(coords)


def element_order(x: AbElement):
    """Order of x: a positive integer, or INFINITE."""
    g = x.group
    nt = len(g.invariant_factors)
    if any(c != 0 for c in x.coords[nt:]):
        return INFINITE
    n = 1
    for c, d in zip(x.coords, g.invariant_factors):
        k = d // gcd(d, c)
        n = n * k // gcd(n, k)
    return n


class LatticeQuotient:
    """The abelian group P / span(R) for lattices R <= P <= Z^ambient_rank.

    ``basis`` holds an independent column basis of P and ``relations`` holds
    columns spanning R inside the ambient space.  Instances are treated as
    immutable after construction.  A basis whose rows are those of the
    identity presents all of Z^ambient_rank: every vector is then its own
    coordinate vector, and no Smith form of the basis is taken.
    """

    def __init__(
        self,
        ambient_rank: int,
        basis: IntMatrix,
        relations: IntMatrix,
        *,
        rel_in_basis: IntMatrix | None = None,
    ):
        """``rel_in_basis``, given only by a caller that already knows it, is
        the unique X with basis @ X == relations; the basis's Smith form is
        then taken only when a solve first needs it."""
        if basis.rows != ambient_rank or relations.rows != ambient_rank:
            raise ValueError("basis and relations must live in the ambient space")
        self.ambient_rank = ambient_rank
        self.basis = basis
        self.relations = relations
        self._full_basis = basis.is_identity()
        if self._full_basis:
            self.rel_in_basis = relations
        elif rel_in_basis is not None:
            self.rel_in_basis = rel_in_basis
        else:
            if self._basis_sf.rank != basis.cols:
                raise ValueError("basis columns must be independent")
            self.rel_in_basis = solve_matrix_strict(basis, relations, self._basis_sf)
        self.snf: SmithForm = smith_normal_form(self.rel_in_basis, cols=False)
        diag = self.snf.diagonal
        k = self.snf.rank
        self._rank_rel = k
        self._rel_factors = diag[:k]
        # d1 | d2 | ..., so the unit factors come first and a class's
        # coordinates are the class coordinates from _units on
        self._units = diag[:k].count(1)
        self.group = FinAbGroup(diag[self._units : k], basis.cols - k)

    @cached_property
    def _basis_sf(self) -> SmithForm | None:
        """Smith form of a basis other than the identity, taken on first use;
        it tracks the u and v that solving over the basis reads."""
        if self._full_basis:
            return None
        return smith_normal_form(self.basis, inverses=False)

    def _basis_coords(self, vec):
        """Coordinates of an ambient vector over ``basis``, or None outside P."""
        if self._basis_sf is None:
            vec = tuple(vec)
            if len(vec) != self.ambient_rank:
                raise ValueError("right-hand side has the wrong length")
            return vec
        return solve_vector(self.basis, vec, self._basis_sf)

    def _class_coords(self, vecs: IntMatrix) -> IntMatrix:
        """u @ (basis coordinates) of every column of vecs, which must lie in P."""
        if self._basis_sf is not None:
            vecs = solve_matrix(self.basis, vecs, self._basis_sf)
            if vecs is None:
                raise MembershipError("vector is not in the presented sublattice")
        return self.snf.u @ vecs

    def _all_zero_classes(self, w: IntMatrix) -> bool:
        """Whether every column of a ``_class_coords`` matrix is the zero class."""
        rows = w.entries
        return all(x % d == 0 for row, d in zip(rows, self._rel_factors) for x in row) and not any(
            map(any, rows[self._rank_rel :])
        )

    # -- class arithmetic ------------------------------------------------

    def project(self, vec) -> AbElement:
        """Class of an ambient vector; the vector must lie in P."""
        x = self._basis_coords(vec)
        if x is None:
            raise MembershipError("vector is not in the presented sublattice")
        return AbElement(self.group, self.snf.u.mul_vec(x)[self._units :])

    def lift(self, x: AbElement) -> tuple[int, ...]:
        """A lattice representative of the class x."""
        if x.group != self.group:
            raise ValueError("element does not belong to this quotient")
        z = self.snf.u_inv.mul_vec((0,) * self._units + x.coords)
        return self.basis.mul_vec(z)

    def generator_vectors(self) -> list[tuple[int, ...]]:
        """One lattice representative per normal-form coordinate."""
        out = []
        for i in range(self.group.ncoords):
            coords = [0] * self.group.ncoords
            coords[i] = 1
            out.append(self.lift(AbElement(self.group, tuple(coords))))
        return out

    def zero(self) -> AbElement:
        return self.group.zero()

    # -- derived quotients -------------------------------------------------

    def torsion(self) -> "LatticeQuotient":
        """Torsion subgroup, presented on the saturation of the relations."""
        k = self._rank_rel
        sat = IntMatrix(self.basis.cols, k, tuple(row[:k] for row in self.snf.u_inv.entries))
        # u @ rel_in_basis vanishes below row k, so its top rows are the
        # relations' coordinates over sat
        coords = IntMatrix(k, self.basis.cols, self.snf.u.entries[:k]) @ self.rel_in_basis
        return LatticeQuotient(self.ambient_rank, self.basis @ sat, self.relations, rel_in_basis=coords)

    def torsion_on_generators(self) -> "LatticeQuotient":
        """The torsion subgroup on one generator g per invariant factor d, the
        ``generator_vectors`` of the torsion coordinates, with relation d*g.
        Over the identity basis the g are the lifts themselves.  A vector
        outside the span of the g cannot be projected into it."""
        units, k = self._units, self._rank_rel
        t, factors = k - units, self.group.invariant_factors
        lifts = IntMatrix(self.basis.cols, t, tuple(row[units:k] for row in self.snf.u_inv.entries))
        diag = IntMatrix(t, t, tuple((0,) * i + (d,) + (0,) * (t - 1 - i) for i, d in enumerate(factors)))
        basis = lifts if self._full_basis else self.basis @ lifts
        return LatticeQuotient(self.ambient_rank, basis, basis @ diag, rel_in_basis=diag)


def cokernel(a: IntMatrix) -> LatticeQuotient:
    """Z^rows / column span of a, with projection and lift maps attached."""
    return LatticeQuotient(a.rows, IntMatrix.identity(a.rows), a)


class InducedMap:
    """Homomorphism between lattice quotients induced by an ambient matrix.

    ``matrix`` maps the source ambient space to the target ambient space.
    Every map is verified when it is built, from W, the target class
    coordinates of the images of the source basis: a basis image outside
    P_tgt raises ``MembershipError``, and a relation image that is not a
    zero class raises ``ValueError``.  W also answers ``kernel`` and
    ``is_identity_on``.
    """

    def __init__(self, source: LatticeQuotient, target: LatticeQuotient, matrix: IntMatrix):
        if matrix.rows != target.ambient_rank or matrix.cols != source.ambient_rank:
            raise ValueError("matrix shape does not match the ambient spaces")
        self.source = source
        self.target = target
        self.matrix = matrix
        self._w = target._class_coords(matrix @ source.basis)
        # class coordinates are linear, so W @ rel_in_basis holds those of
        # the relation images
        if not target._all_zero_classes(self._w @ source.rel_in_basis):
            raise ValueError("map does not send relations to relations")

    def apply(self, x: AbElement) -> AbElement:
        return self.target.project(self.matrix.mul_vec(self.source.lift(x)))

    def __call__(self, x: AbElement) -> AbElement:
        return self.apply(x)

    def kernel(self) -> LatticeQuotient:
        """Kernel as a subquotient presented inside the source ambient space
        (see ``common_kernel``)."""
        return common_kernel(self.source, (self,))

    def is_identity_on(self, quotient: LatticeQuotient) -> bool:
        """True when source == target == quotient and the map fixes every generator.

        The basis classes generate the group, and W holds their images, so
        the map is the identity iff every column of W - u is a zero class.
        """
        if not (_same_presentation(self.source, quotient) and _same_presentation(self.target, quotient)):
            return False
        return self.target._all_zero_classes(self._w - self.target.snf.u)

    @staticmethod
    def compose(outer: "InducedMap", inner: "InducedMap") -> "InducedMap":
        if not _same_presentation(outer.source, inner.target):
            raise ValueError("maps do not compose")
        return InducedMap(inner.source, outer.target, outer.matrix @ inner.matrix)


def common_kernel(source: LatticeQuotient, maps) -> LatticeQuotient:
    """The classes of ``source`` that every map in ``maps`` sends to zero.

    This is the kernel of the map into the direct sum of their targets, since
    a class of a direct sum is zero exactly when each component is; an empty
    family gives all of ``source``.  The kernel lattice K, in coordinates over
    the source basis, is presented by its Hermite normal form, and the source
    relations by the Hermite normal form of their coordinates over it; both
    depend only on the lattices, not on how the targets are presented.
    """
    maps = tuple(maps)
    if not all(_same_presentation(f.source, source) for f in maps):
        raise ValueError("map does not start from the given source")
    l = source.basis.cols
    # solved in each target's class coordinates: a class is zero iff each
    # torsion coordinate is a multiple of its d_i and each free one is 0, so
    # K is the top of ker [W_tor, diag(d); W_free, 0], one such block of rows
    # per map, each with its own diag(d) columns
    tor, free = [], []
    for f in maps:
        t, w = f.target, f._w.entries
        tor += zip(w[t._units : t._rank_rel], t._rel_factors[t._units :])
        free += w[t._rank_rel :]
    nt = len(tor)
    rows = [row + (0,) * j + (d,) + (0,) * (nt - 1 - j) for j, (row, d) in enumerate(tor)]
    rows += [row + (0,) * nt for row in free]
    pre = kernel_basis(IntMatrix(len(rows), l + nt, tuple(rows)), rows=l)
    rel = hnf_basis(solve_matrix_strict(pre, source.rel_in_basis))
    basis = source.basis @ pre
    return LatticeQuotient(source.ambient_rank, basis, basis @ rel, rel_in_basis=rel)


def _same_presentation(a: LatticeQuotient, b: LatticeQuotient) -> bool:
    """Whether two quotients present the same group the same way."""
    return a.ambient_rank == b.ambient_rank and a.basis == b.basis and a.relations == b.relations
