"""Finite groups acting on integer lattices, and their norm-kernel groups.

Every element of a group is reached by one breadth-first walk of the Cayley
graph of a generating set, :func:`_cayley_walk`.  Its tree edges build
(closures, element lists, the matrix of every element) and its other edges,
which close the cycles, check.  A module is a finite group together with
the integer matrices by which the elements of its ``generating_set()`` act;
the matrix of any other element is their product along the tree edges.
Modules built from outside data go through :func:`module_from_generators`,
which checks the group law on every non-tree edge.
Coinvariants and their torsion part M_{G,Tors}, invariants, the norm map,
its kernel on coinvariant classes, and transfer maps to subgroups are all
computed exactly through the lattice presentations in :mod:`tatekit.abgroup`.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from .abgroup import AbElement, InducedMap, LatticeQuotient, cokernel
from .errors import Frozen, SubgroupMismatchError
from .matrices import IntMatrix, block_diagonal, hnf_basis, kernel_basis

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "PermAction",
    "GModule",
    "cyclic",
    "dihedral",
    "quaternion",
    "direct_product",
    "klein_four",
    "from_permutations",
    "quotient_group",
    "subgroup",
    "generated_subgroup",
    "coset_action",
    "disjoint_union_action",
    "module_from_generators",
    "trivial_module",
    "augmentation_kernel_module",
    "restrict_module",
    "pullback_module",
    "direct_sum_modules",
    "coinvariants",
    "torsion_coinvariants",
    "invariants",
    "norm_matrix",
    "norm_induced_map",
    "tate_h_minus1",
    "tate_h0",
    "transfer",
    "transfer_matrix",
]


class FiniteGroup(Frozen):
    """A finite group as a full multiplication table over indices 0..order-1.

    Immutable; groups with the same table, identity and inverses are equal
    and hash alike.
    """

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...], identity: int, inverses: tuple[int, ...]):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverses", inverses)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.order, self.table, self.identity, self.inverses) == (
                other.order, other.table, other.identity, other.inverses
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.table, self.identity, self.inverses))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, g: int) -> int:
        n = 1
        x = g
        while x != self.identity:
            x = self.mul(x, g)
            n += 1
        return n

    def exponent(self) -> int:
        from math import lcm

        return lcm(*(self.element_order(g) for g in self.elements())) if self.order > 1 else 1

    def generating_set(self) -> tuple[int, ...]:
        """Deterministic small generating set (greedy by element index)."""
        return self._generating_set

    @cached_property
    def _generating_set(self) -> tuple[int, ...]:
        gens: list[int] = []
        closure = {self.identity}
        for g in self.elements():
            if g in closure:
                continue
            gens.append(g)
            closure = _close(self, gens)
            if len(closure) == self.order:
                break
        return tuple(gens)

    def conjugate(self, g: int, members) -> frozenset[int]:
        """The conjugate set g * members * g^-1."""
        gi = self.inv(g)
        return frozenset(self.mul(self.mul(g, h), gi) for h in members)


def _cayley_walk(start, gens, mul) -> tuple[list, dict, list]:
    """Breadth-first walk of the Cayley graph of ``gens`` from ``start``.

    Returns the vertices in the order reached; the tree edge {b: (a, i)},
    b = mul(a, gens[i]), that first reached each vertex but ``start``; and
    every other edge as (a, i, b).  Values carried along the tree edges
    build a table, and the other edges, which close the cycles, check it.
    """
    order, tree, others = [start], {}, []
    for a in order:  # the list grows as it is read: a FIFO queue
        for i, g in enumerate(gens):
            b = mul(a, g)
            if b in tree or b == start:
                others.append((a, i, b))
            else:
                tree[b] = (a, i)
                order.append(b)
    return order, tree, others


def _close(group: FiniteGroup, gens) -> set[int]:
    return set(_cayley_walk(group.identity, gens, group.mul)[0])


def finite_group(table) -> FiniteGroup:
    """Validate a multiplication table: closure, identity, inverses, associativity."""
    table = tuple(tuple(int(x) for x in row) for row in table)
    n = len(table)
    if any(len(row) != n for row in table):
        raise ValueError("multiplication table must be square")
    for row in table:
        for x in row:
            if not 0 <= x < n:
                raise ValueError("table entry out of range")
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError("no identity element")
    inverses = []
    for a in range(n):
        inv = next((b for b in range(n) if table[a][b] == identity), None)
        if inv is None or table[inv][a] != identity:
            raise ValueError("missing inverse")
        inverses.append(inv)
    for a in range(n):
        for b in range(n):
            tab = table[a][b]
            for c in range(n):
                if table[tab][c] != table[a][table[b][c]]:
                    raise ValueError("multiplication table is not associative")
    return FiniteGroup(n, table, identity, tuple(inverses))


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    inverses = tuple((-i) % n for i in range(n))
    return FiniteGroup(n, table, 0, inverses)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Product group; element (x, y) gets index x * b.order + y."""
    n = a.order * b.order
    table = []
    for x1 in a.elements():
        for y1 in b.elements():
            row = []
            for x2 in a.elements():
                for y2 in b.elements():
                    row.append(a.mul(x1, x2) * b.order + b.mul(y1, y2))
            table.append(tuple(row))
    identity = a.identity * b.order + b.identity
    inverses = tuple(a.inv(i // b.order) * b.order + b.inv(i % b.order) for i in range(n))
    return FiniteGroup(n, tuple(table), identity, inverses)


def klein_four() -> FiniteGroup:
    return direct_product(cyclic(2), cyclic(2))


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; element (a, b) = rotation^a reflection^b."""
    if n < 1:
        raise ValueError("rotation order must be positive")

    def idx(a, b):
        return a + n * b

    table = [[0] * (2 * n) for _ in range(2 * n)]
    for a1 in range(n):
        for b1 in range(2):
            for a2 in range(n):
                for b2 in range(2):
                    a = (a1 + (a2 if b1 == 0 else -a2)) % n
                    table[idx(a1, b1)][idx(a2, b2)] = idx(a, (b1 + b2) % 2)
    return finite_group(table)


def quaternion() -> FiniteGroup:
    """The quaternion group of order 8: indices 1,-1,i,-i,j,-j,k,-k."""
    units = ["1", "i", "j", "k"]
    # (sign, axis) with axis in units; index = axis_index * 2 + (0 if +, 1 if -)
    mul_axis = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }

    def idx(sign, axis):
        return units.index(axis) * 2 + (0 if sign == 1 else 1)

    table = [[0] * 8 for _ in range(8)]
    for s1, a1 in itertools.product((1, -1), units):
        for s2, a2 in itertools.product((1, -1), units):
            s, a = mul_axis[(a1, a2)]
            table[idx(s1, a1)][idx(s2, a2)] = idx(s1 * s2 * s, a)
    return finite_group(table)


def from_permutations(perms) -> tuple[FiniteGroup, list[tuple[int, ...]]]:
    """Group generated by permutations (tuples of images); returns the group
    and the list of its elements as permutations, in index order.

    Composition of permutations is associative, so the table is built, not
    validated: the identity is element 0, where the walk starts."""
    perms = [tuple(p) for p in perms]
    if not perms:
        raise ValueError("need at least one permutation")
    deg = len(perms[0])
    ident = tuple(range(deg))
    if any(len(p) != deg for p in perms):
        raise ValueError("permutations must all have the same degree")
    if any(sorted(p) != list(ident) for p in perms):
        raise ValueError(f"each permutation must map range({deg}) onto itself")

    def compose(p, q):
        return tuple(p[q[i]] for i in range(deg))

    elements = _cayley_walk(ident, perms, compose)[0]
    index = {p: i for i, p in enumerate(elements)}
    table = tuple(tuple(index[compose(p, q)] for q in elements) for p in elements)
    inverses = tuple(index[tuple(sorted(ident, key=p.__getitem__))] for p in elements)
    return FiniteGroup(len(elements), table, 0, inverses), elements


class Subgroup(Frozen):
    """Subgroup given by its sorted member indices plus coset transversals.

    ``left_reps`` satisfy parent = union of r * H (used for coset spaces of
    places); ``right_reps`` satisfy parent = union of H * r (used by the
    transfer sum, which is only well defined over a right transversal).
    For abelian parents the two lists coincide.  Immutable; equality and
    hash read all four fields.
    """

    def __init__(
        self,
        parent: FiniteGroup,
        members: tuple[int, ...],
        left_reps: tuple[int, ...],
        right_reps: tuple[int, ...],
    ):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "left_reps", left_reps)
        object.__setattr__(self, "right_reps", right_reps)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.parent, self.members, self.left_reps, self.right_reps) == (
                other.parent, other.members, other.left_reps, other.right_reps
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.parent, self.members, self.left_reps, self.right_reps))

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.members)

    def contains(self, g: int) -> bool:
        return g in self._member_set

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def left_coset_of(self, g: int) -> int:
        """The stored left representative r with g in r * H, from the coset index."""
        return self.left_reps[self._coset_index[g]]

    @cached_property
    def _coset_index(self) -> list[int]:
        """The position in ``left_reps`` of each element's left coset, filled
        from left_reps x members in |G| steps, last to first, so that where
        two representatives share a coset the first one is kept."""
        index = [None] * self.parent.order
        for i in range(len(self.left_reps) - 1, -1, -1):
            row = self.parent.table[self.left_reps[i]]
            for h in self.members:
                index[row[h]] = i
        if None in index:
            raise ValueError("coset representative not found")
        return index

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """The subgroup as its own FiniteGroup, plus member list in index order."""
        return self._as_group

    @cached_property
    def _as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        pos = {g: i for i, g in enumerate(self.members)}
        table = tuple(
            tuple(pos[self.parent.mul(a, b)] for b in self.members) for a in self.members
        )
        inv = tuple(pos[self.parent.inv(g)] for g in self.members)
        return FiniteGroup(len(self.members), table, pos[self.parent.identity], inv), self.members

    def generating_set(self) -> tuple[int, ...]:
        """The members that ``as_group()``'s generating set names, as elements
        of the parent: greedy over the members in index order."""
        group, members = self._as_group
        return tuple(members[s] for s in group.generating_set())

    def is_normal(self) -> bool:
        p = self.parent
        return all(p.conjugate(g, self.members) == self._member_set for g in p.elements())


def subgroup(parent: FiniteGroup, members) -> Subgroup:
    members = tuple(sorted(set(int(m) for m in members)))
    mset = set(members)
    if parent.identity not in mset:
        raise ValueError("subgroup must contain the identity")
    for a in members:
        if parent.inv(a) not in mset:
            raise ValueError("subgroup must be closed under inverses")
        for b in members:
            if parent.mul(a, b) not in mset:
                raise ValueError("subgroup must be closed under multiplication")
    left = []
    covered = set()
    for g in parent.elements():
        if g not in covered:
            left.append(g)
            covered.update(parent.mul(g, h) for h in members)
    right = []
    covered = set()
    for g in parent.elements():
        if g not in covered:
            right.append(g)
            covered.update(parent.mul(h, g) for h in members)
    return Subgroup(parent, members, tuple(left), tuple(right))


def generated_subgroup(parent: FiniteGroup, gens) -> Subgroup:
    return subgroup(parent, _close(parent, list(gens)))


def full_subgroup(parent: FiniteGroup) -> Subgroup:
    return subgroup(parent, list(parent.elements()))


def quotient_group(parent: FiniteGroup, normal: Subgroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup; returns (quotient, projection table)."""
    if normal.parent is not parent and normal.parent != parent:
        raise SubgroupMismatchError("subgroup belongs to a different group")
    if not normal.is_normal():
        raise ValueError("subgroup is not normal")
    reps, proj = normal.left_reps, normal._coset_index
    table = tuple(tuple(proj[parent.mul(a, b)] for b in reps) for a in reps)
    inv = tuple(proj[parent.inv(r)] for r in reps)
    q = FiniteGroup(len(reps), table, proj[parent.identity], inv)
    return q, tuple(proj)


class PermAction(Frozen):
    """Action of a finite group on points 0..degree-1, table of images; immutable."""

    def __init__(self, group: FiniteGroup, degree: int, images: tuple[tuple[int, ...], ...]):
        g = group
        if len(images) != g.order or any(len(p) != degree for p in images):
            raise ValueError("permutation table has the wrong shape")
        if images[g.identity] != tuple(range(degree)):
            raise ValueError("identity must act trivially")
        for p in images:
            if sorted(p) != list(range(degree)):
                raise ValueError("images must be permutations")
        # a(bx) = (ab)x for every generator b gives it for every b, by
        # induction on a word for b
        gens = g.generating_set()
        for a in g.elements():
            pa = images[a]
            for s in gens:
                ps, pas = images[s], images[g.mul(a, s)]
                if any(pa[ps[x]] != pas[x] for x in range(degree)):
                    raise ValueError("not a group action")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "images", images)

    def act(self, g: int, x: int) -> int:
        return self.images[g][x]

    def fixed_point(self, g: int):
        for x in range(self.degree):
            if self.images[g][x] == x:
                return x
        return None


def coset_action(parent: FiniteGroup, sub: Subgroup) -> PermAction:
    """Left translation on the left coset space parent / sub."""
    index, reps = sub._coset_index, sub.left_reps
    images = tuple(tuple(index[row[r]] for r in reps) for row in parent.table)
    return PermAction(parent, len(reps), images)


def disjoint_union_action(actions) -> PermAction:
    actions = list(actions)
    if not actions:
        raise ValueError("need at least one action")
    g = actions[0].group
    if any(a.group != g for a in actions):
        raise ValueError("all actions must share the group")
    degree = sum(a.degree for a in actions)
    images = []
    for e in g.elements():
        row = []
        off = 0
        for a in actions:
            row.extend(off + y for y in a.images[e])
            off += a.degree
        images.append(tuple(row))
    return PermAction(g, degree, tuple(images))


class GModule(Frozen):
    """Integer lattice with an action of a finite group, given on generators.

    ``gens`` holds the matrices of ``group.generating_set()``, in that order;
    hash and equality read only them, with the group and rank.  ``act(g)``
    multiplies them out along the Cayley graph, once per module.  Nothing
    here checks the action: build modules from outside data with
    :func:`module_from_generators`.  Immutable.
    """

    def __init__(self, group: FiniteGroup, rank: int, gens: tuple[IntMatrix, ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "gens", gens)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.group, self.rank, self.gens) == (other.group, other.rank, other.gens)
        return NotImplemented

    def __hash__(self):
        return hash((self.group, self.rank, self.gens))

    def act(self, g: int) -> IntMatrix:
        return self._table[g]

    @cached_property
    def _table(self) -> tuple[IntMatrix, ...]:
        action, _ = _multiply_out(self.group, self.group.generating_set(), self.gens, self.rank)
        return tuple(action[g] for g in self.group.elements())


def _multiply_out(group: FiniteGroup, gens, mats, rank: int) -> tuple[dict, list]:
    """The matrix of every element the Cayley walk of ``gens`` reaches, with
    A(b) = A(a) @ mats[i] along each tree edge; and the walk's other edges,
    on which that product is left unchecked."""
    _, tree, others = _cayley_walk(group.identity, gens, group.mul)
    action = {group.identity: IntMatrix.identity(rank)}
    for b, (a, i) in tree.items():
        action[b] = mats[i] if a == group.identity else action[a] @ mats[i]  # I @ m is m
    return action, others


def module_from_generators(group: FiniteGroup, rank: int, gen_matrices: dict) -> GModule:
    """The module on which the given elements act by the given matrices.

    ``gen_matrices`` maps element indices to matrices, and the elements must
    generate the group.  The tree edges of the Cayley walk define A(b) =
    A(a) @ A(g) along a -> b = a*g; every other edge is checked to satisfy
    it too.  That is the homomorphism law, and in a finite group it also
    makes every matrix invertible: A(g)^|g| = A(1) = I.
    """
    for g, m in gen_matrices.items():
        if m.rows != rank or m.cols != rank:
            raise ValueError("generator matrix has the wrong shape")
        if g == group.identity and not m.is_identity():
            raise ValueError("inconsistent generator assignment")
    mats = tuple(gen_matrices.values())
    action, others = _multiply_out(group, tuple(gen_matrices), mats, rank)
    for a, i, b in others:
        if action[b] != action[a] @ mats[i]:
            raise ValueError("generator matrices are inconsistent with the group law")
    if len(action) != group.order:
        raise ValueError("generators do not generate the group")
    return GModule(group, rank, tuple(action[s] for s in group.generating_set()))


def trivial_module(group: FiniteGroup, rank: int) -> GModule:
    eye = IntMatrix.identity(rank)
    return GModule(group, rank, tuple(eye for _ in group.generating_set()))


def augmentation_kernel_module(group: FiniteGroup) -> GModule:
    """Kernel of the coefficient-sum map on the regular representation.

    Basis vectors are e_g - e_identity for g != identity, in index order.
    """
    n = group.order
    others = [g for g in group.elements() if g != group.identity]
    pos = {g: i for i, g in enumerate(others)}
    mats = []
    for h in group.generating_set():
        cols = []
        for g in others:
            hg = group.mul(h, g)
            he = group.mul(h, group.identity)
            col = [0] * (n - 1)
            if hg != group.identity:
                col[pos[hg]] += 1
            if he != group.identity:
                col[pos[he]] -= 1
            cols.append(col)
        mats.append(IntMatrix(n - 1, n - 1, tuple(tuple(col[i] for col in cols) for i in range(n - 1))))
    return GModule(group, n - 1, tuple(mats))


def restrict_module(module: GModule, sub: Subgroup) -> GModule:
    if sub.parent != module.group:
        raise SubgroupMismatchError("subgroup belongs to a different group")
    return GModule(sub.as_group()[0], module.rank, tuple(map(module.act, sub.generating_set())))


def pullback_module(module: GModule, group: FiniteGroup, hom) -> GModule:
    """Module over ``group`` acting through a homomorphism into module.group."""
    return GModule(group, module.rank, tuple(module.act(hom[s]) for s in group.generating_set()))


def direct_sum_modules(modules) -> GModule:
    modules = list(modules)
    g = modules[0].group
    if any(m.group != g for m in modules):
        raise ValueError("modules must share the group")
    rank = sum(m.rank for m in modules)
    gens = tuple(map(block_diagonal, zip(*(m.gens for m in modules))))
    return GModule(g, rank, gens)


def permutation_module(action: PermAction, coeff: GModule) -> GModule:
    """Tensor of a point permutation with a coefficient module.

    Basis index (point w, coefficient i) -> w * rank + i; an element g sends
    the w block to the g(w) block through coeff's matrix for g.
    """
    if action.group != coeff.group:
        raise ValueError("action and coefficients must share the group")
    r = coeff.rank
    n = action.degree * r
    mats = []
    for g, m in zip(coeff.group.generating_set(), coeff.gens):
        data = [[0] * n for _ in range(n)]
        for w in range(action.degree):
            gw = action.images[g][w]
            for i in range(r):
                for j in range(r):
                    data[gw * r + j][w * r + i] = m.entries[j][i]
        mats.append(IntMatrix(n, n, tuple(map(tuple, data))))
    return GModule(coeff.group, n, tuple(mats))


@lru_cache(maxsize=128)
def degree_zero_submodule(action: PermAction, coeff: GModule) -> tuple[GModule, IntMatrix]:
    """Kernel of the total coefficient-sum map on a permutation module.

    Returns (submodule in its own basis, basis matrix into the permutation
    module of :func:`permutation_module`, which is not built).  Basis vectors
    are e_(w,i) - e_(last,i) for every point w except the last, so the basis
    matrix is written as identity rows, then the last point's rows: its row i
    is -1 at coefficient i of every other point.  Cached: an action is its
    own key (it has no value equality), so a caller that holds the action of
    a ``build_place_module`` gets that module's submodule back.
    """
    if action.group != coeff.group:
        raise ValueError("action and coefficients must share the group")
    r, deg = coeff.rank, action.degree
    sub_rank = max(deg - 1, 0) * r
    rows = [(0,) * t + (1,) + (0,) * (sub_rank - 1 - t) for t in range(sub_rank)]
    if deg:
        rows += (((0,) * i + (-1,) + (0,) * (r - 1 - i)) * (deg - 1) for i in range(r))
    basis = IntMatrix(deg * r, sub_rank, tuple(rows))
    mats = tuple(
        degree_zero_map(action.images[g], deg, m)
        for g, m in zip(coeff.group.generating_set(), coeff.gens)
    )
    return GModule(coeff.group, sub_rank, mats), basis


def degree_zero_map(images, target_degree: int, block: IntMatrix) -> IntMatrix:
    """A point map twisted by ``block``, on the degree-zero bases.

    Source point w goes to target point ``images[w]``, and its coefficients
    through ``block`` (target rank x source rank).  Both bases are those of
    :func:`degree_zero_submodule`: basis vector (w, i) = e_(w,i) - e_(last,i)
    goes to sum_j block_ji (b_(images[w],j) - b_(images[last],j)), where
    b_(p,j) = e_(p,j) - e_(last,j) is a target basis vector, or zero at the
    target's last point.  The map need not be injective.
    """
    rt, rs = block.rows, block.cols
    last, t_last = len(images) - 1, target_degree - 1
    nrows, ncols = max(t_last, 0) * rt, max(last, 0) * rs
    plus = block.entries
    minus = tuple(tuple(-x for x in row) for row in plus)
    data = [[0] * ncols for _ in range(nrows)]
    for w in range(last):
        a, b = images[w], images[last]
        if a == b:
            continue  # the two terms cancel
        # a != b, so the two terms fill different rows of column block w
        span = slice(w * rs, (w + 1) * rs)
        for p, m in ((a, plus), (b, minus)):
            if p != t_last:
                for j in range(rt):
                    data[p * rt + j][span] = m[j]
    return IntMatrix(nrows, ncols, tuple(map(tuple, data)))


# -- coinvariants, invariants, norms ------------------------------------


@lru_cache(maxsize=512)
def coinvariants(module: GModule) -> LatticeQuotient:
    """M_G = Z^rank / span{ (g - 1) m }, with projection and lift attached.

    The relations are taken over ``generating_set()`` only, which spans the
    same lattice: (gs - 1) m = (g - 1)(s m) + (s - 1) m.  Their matrix
    [A_1 - I | A_2 - I | ...] is written row by row from the generators'
    matrices, and presented by its Hermite normal form, so the quotient
    depends only on that lattice.
    """
    return cokernel(hnf_basis(_side_by_side(module.rank, [_minus_identity(a.entries) for a in module.gens])))


@lru_cache(maxsize=256)
def torsion_coinvariants(module: GModule) -> LatticeQuotient:
    """M_{G,Tors}, the torsion part of the coinvariants."""
    return coinvariants(module).torsion()


def invariants(module: GModule) -> IntMatrix:
    """Hermite normal form basis (as columns) of the fixed sublattice M^G:
    the kernel of the generators' A - I stacked one above the other, which
    is M^G because every element is a word in the generators."""
    r, moves = module.rank, [_minus_identity(a.entries) for a in module.gens]
    return kernel_basis(IntMatrix(r * len(moves), r, tuple(itertools.chain.from_iterable(moves))))


def _minus_identity(rows: tuple) -> tuple:
    """The rows of A - I, written from A's ``rows`` by decrementing the diagonal."""
    return tuple(row[:i] + (row[i] - 1,) + row[i + 1 :] for i, row in enumerate(rows))


def _side_by_side(nrows: int, blocks) -> IntMatrix:
    """The matrix [B_1 | B_2 | ...] of blocks given by their nrows rows."""
    blocks = list(blocks)
    rows = tuple(tuple(itertools.chain.from_iterable(parts)) for parts in zip(*blocks)) if blocks else ((),) * nrows
    return IntMatrix(nrows, sum(len(b[0]) for b in blocks) if nrows else 0, rows)


def norm_matrix(module: GModule) -> IntMatrix:
    total = IntMatrix.zeros(module.rank, module.rank)
    for g in module.group.elements():
        total = total + module.act(g)
    return total


def invariants_quotient(module: GModule) -> LatticeQuotient:
    """The fixed lattice M^G presented as a quotient with no relations."""
    basis = invariants(module)
    return LatticeQuotient(module.rank, basis, IntMatrix.zeros(module.rank, 0))


@lru_cache(maxsize=512)
def norm_induced_map(module: GModule) -> InducedMap:
    """The norm map on coinvariant classes, landing in the fixed lattice."""
    return InducedMap(coinvariants(module), invariants_quotient(module), norm_matrix(module))


@lru_cache(maxsize=512)
def tate_h_minus1(module: GModule) -> LatticeQuotient:
    """Kernel of the norm map on coinvariant classes.

    When the norm matrix vanishes this is the whole coinvariant group.
    """
    return norm_induced_map(module).kernel()


def tate_h0(module: GModule) -> LatticeQuotient:
    """Fixed lattice modulo norms: M^G / N(M).

    Both lattices are presented by their Hermite normal forms, so the
    quotient depends only on them.  M^G and the norms are read off the
    cached norm map, which ``tate_h_minus1`` builds too.
    """
    norm = norm_induced_map(module)
    return LatticeQuotient(module.rank, norm.target.basis, hnf_basis(norm.matrix))


# -- transfer ------------------------------------------------------------


def transfer_matrix(module: GModule, sub: Subgroup) -> IntMatrix:
    """Sum of the action over a right transversal of the subgroup."""
    if sub.parent != module.group:
        raise SubgroupMismatchError("subgroup belongs to a different group")
    total = IntMatrix.zeros(module.rank, module.rank)
    for r in sub.right_reps:
        total = total + module.act(r)
    return total


def transfer(
    module: GModule,
    sub: Subgroup,
    x: AbElement,
    source: LatticeQuotient | None = None,
) -> AbElement:
    """Transfer of a coinvariant class to the coinvariants of the subgroup.

    ``x`` may live in the coinvariant group of ``module`` or in a subquotient
    of it passed as ``source`` (for instance its torsion subgroup).  The
    result is the class of sum_r act(r) m over a right transversal, taken
    in the coinvariants of the restricted module.
    """
    if sub.parent != module.group:
        raise SubgroupMismatchError("subgroup belongs to a different group")
    if source is None:
        source = coinvariants(module)
    if x.group != source.group:
        raise ValueError("class does not belong to the stated source group")
    vec = source.lift(x)
    moved = transfer_matrix(module, sub).mul_vec(vec)
    target = coinvariants(restrict_module(module, sub))
    return target.project(moved)
