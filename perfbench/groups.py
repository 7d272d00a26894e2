"""Small finite groups and lattice modules, built without tatekit.

The benchmark writes its payloads from these tables, so the inputs do not
change when tatekit's own constructors do.  Element 0 is always the
identity.  Index conventions: cyclic i + j mod n; products (x, y) -> x * |B|
+ y; dihedral rotation^a reflection^b -> a + n * b; quaternion axis * 2 +
sign bit over the axes 1, i, j, k.
"""

from __future__ import annotations

import itertools


class Group:
    def __init__(self, name: str, table):
        self.name = name
        self.table = [list(row) for row in table]
        self.order = len(self.table)
        self.inv = [next(b for b in range(self.order) if self.table[a][b] == 0) for a in range(self.order)]

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def closure(self, gens) -> frozenset:
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = self.table[a][g]
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return frozenset(seen)

    def generators(self, members=None) -> list[int]:
        """Greedy generators of the group, or of the subgroup with these members."""
        gens: list[int] = []
        span = frozenset({0})
        for g in range(self.order) if members is None else members:
            if g not in span:
                gens.append(g)
                span = self.closure(gens)
        return gens

    def subgroups(self) -> list[tuple[int, ...]]:
        """Every subgroup, by closing all element subsets of size <= 4.

        Every group of order <= 16 is generated by at most four elements.
        """
        found = set()
        for k in range(5):
            for gens in itertools.combinations(range(1, self.order), k):
                found.add(self.closure(gens))
        return sorted((tuple(sorted(h)) for h in found), key=lambda h: (len(h), h))

    def is_normal(self, members) -> bool:
        mset = set(members)
        return all(
            self.mul(self.mul(g, h), self.inv[g]) in mset for g in range(self.order) for h in members
        )

    def payload(self) -> dict:
        return {"mul_table": self.table}


def cyclic(n: int) -> Group:
    return Group(f"Z{n}", [[(i + j) % n for j in range(n)] for i in range(n)])


def product(a: Group, b: Group, name: str) -> Group:
    nb = b.order
    table = [
        [a.mul(x1, x2) * nb + b.mul(y1, y2) for x2 in range(a.order) for y2 in range(nb)]
        for x1 in range(a.order)
        for y1 in range(nb)
    ]
    return Group(name, table)


def dihedral(n: int) -> Group:
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for a1, b1, a2, b2 in itertools.product(range(n), range(2), range(n), range(2)):
        a = (a1 + (a2 if b1 == 0 else -a2)) % n
        table[a1 + n * b1][a2 + n * b2] = a + n * ((b1 + b2) % 2)
    return Group("S3" if n == 3 else f"D{n}", table)


def quaternion() -> Group:
    # unit quaternions as (sign, axis); axis products with their signs
    prod = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
        (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
    }
    table = [[0] * 8 for _ in range(8)]
    for x, y in itertools.product(range(8), repeat=2):
        s1, a1 = (-1 if x % 2 else 1), x // 2
        s2, a2 = (-1 if y % 2 else 1), y // 2
        s, a = prod[(a1, a2)]
        table[x][y] = a * 2 + (0 if s1 * s2 * s == 1 else 1)
    return Group("Q8", table)


def named_groups() -> dict[str, Group]:
    """The order <= 16 corpus the subgroup-bound jobs draw from."""
    z2, z3, z4 = cyclic(2), cyclic(3), cyclic(4)
    v4 = product(z2, z2, "V4")
    out = [
        cyclic(1), z2, z3, z4, v4, cyclic(5), cyclic(6), dihedral(3), cyclic(7), cyclic(8),
        product(z2, z4, "Z2xZ4"), product(z2, v4, "Z2^3"), dihedral(4), quaternion(),
        cyclic(9), product(z3, z3, "Z3xZ3"), cyclic(12), dihedral(6), cyclic(15), cyclic(16),
        product(z4, z4, "Z4xZ4"), dihedral(8), product(z2, quaternion(), "Z2xQ8"),
    ]
    return {g.name: g for g in out}


# -- modules, as {element index: matrix} on a generating set ----------------


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def module_payload(group: Group, rank: int, action) -> dict:
    """``action(g)`` gives the matrix of generator g."""
    return {
        "rank": rank,
        "generators": [{"element_index": g, "matrix": action(g)} for g in group.generators()],
    }


def trivial_module(group: Group, rank: int) -> dict:
    return module_payload(group, rank, lambda g: identity(rank))


def sign_module(group: Group, kernel) -> dict:
    """Rank one, acting by -1 off an index-two subgroup."""
    kset = set(kernel)
    return module_payload(group, 1, lambda g: [[1 if g in kset else -1]])


def quarter_turn(group: Group) -> dict:
    """Z4 rotating the plane by a quarter turn."""
    assert group.name == "Z4"
    return {"rank": 2, "generators": [{"element_index": 1, "matrix": [[0, -1], [1, 0]]}]}


def augmentation_kernel(group: Group) -> dict:
    """Kernel of the coefficient sum on Z[G], basis e_g - e_1 for g != 1."""
    n = group.order

    def act(h):
        rows = [[0] * (n - 1) for _ in range(n - 1)]
        for g in range(1, n):
            hg = group.mul(h, g)
            if hg:
                rows[hg - 1][g - 1] += 1
            if h:
                rows[h - 1][g - 1] -= 1
        return rows

    return module_payload(group, n - 1, act)


def index_two_subgroups(group: Group) -> list[tuple[int, ...]]:
    return [h for h in group.subgroups() if 2 * len(h) == group.order and group.is_normal(h)]


def small_modules(group: Group) -> dict[str, dict]:
    """The module catalogue of the small tate, transfer and sha1 jobs."""
    mods = {"triv1": trivial_module(group, 1), "triv2": trivial_module(group, 2)}
    for i, h in enumerate(index_two_subgroups(group)):
        mods[f"sign{i}"] = sign_module(group, h)
    if group.name == "Z4":
        mods["quarter"] = quarter_turn(group)
    return mods
