"""Exact integer linear algebra: matrices, Smith normal form, lattices.

Everything runs on Python ints, so intermediate coefficient growth is safe
and no value is ever rounded.  The Smith normal form is fully deterministic:
rows that are +-1 times a unit vector, as the unit pivots of a Hermite
presentation are, are taken as pivots first, in row order and one per column;
after them pivots are chosen by smallest absolute value, ties broken by
lowest row then column index, and the diagonal is normalized to be
nonnegative with each entry dividing the next.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import repeat

from .errors import Frozen, MembershipError

__all__ = [
    "IntMatrix",
    "SmithForm",
    "smith_normal_form",
    "kernel_basis",
    "solve_vector",
    "solve_matrix",
    "hnf_basis",
    "block_diagonal",
]


class IntMatrix(Frozen):
    """Immutable integer matrix with row-major entries; matrices of equal
    shape and entries are equal and hash alike."""

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows:
            raise ValueError("row count does not match entries")
        if not all(map(cols.__eq__, map(len, entries))):
            raise ValueError("column count does not match entries")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)
        return NotImplemented

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the hash of the field tuple, once: lru caches keyed by modules rehash on each lookup
        return hash((self.rows, self.cols, self.entries))

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        return IntMatrix(nrows, ncols, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))

    def is_identity(self) -> bool:
        """Whether this is the identity, read from the rows: each has its 1
        on the diagonal and zeros elsewhere."""
        n = self.cols
        return self.rows == n and all(row[i] == 1 and row.count(0) == n - 1 for i, row in enumerate(self.entries))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        # row i of the product sums a * (row k of other) over the nonzero
        # entries a of row i: the action matrices, bases and transforms
        # multiplied here are mostly zeros and units
        zero = (0,) * other.cols
        data = []
        for row in self.entries:
            acc = zero
            for a, brow in zip(row, other.entries):
                if a:
                    acc = _axpy(acc, a, brow)
            data.append(tuple(acc))
        return IntMatrix(self.rows, other.cols, tuple(data))

    def mul_vec(self, vec) -> tuple[int, ...]:
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match columns")
        mul = operator.mul
        return tuple(sum(map(mul, row, vec)) for row in self.entries)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(tuple(map(operator.add, r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(tuple(map(operator.sub, r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "IntMatrix":
        return self.scaled(-1)

    def scaled(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(c * x for x in row) for row in self.entries))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def _same_shape(self, other: "IntMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shapes do not match")


def block_diagonal(mats) -> IntMatrix:
    mats = list(mats)
    total_r = sum(m.rows for m in mats)
    total_c = sum(m.cols for m in mats)
    data = [[0] * total_c for _ in range(total_r)]
    r0 = c0 = 0
    for m in mats:
        for i, row in enumerate(m.entries):
            data[r0 + i][c0 : c0 + m.cols] = row
        r0 += m.rows
        c0 += m.cols
    return IntMatrix(total_r, total_c, tuple(map(tuple, data)))


class SmithForm(Frozen):
    """Decomposition u @ a @ v == s with u, v unimodular; immutable.

    The inverses of the transforms are tracked during elimination so that
    lattice computations (saturation, lifts) never need a separate matrix
    inversion step.  A transform its caller does not read is not tracked
    and is an empty 0 x 0 matrix here (see ``smith_normal_form``).
    """

    _fields = ("u", "s", "v", "u_inv", "v_inv")

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.s.rows, self.s.cols)
        return tuple(self.s.entries[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _identity_rows(n: int) -> list[list[int]]:
    """Rows of the n x n identity, as lists."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _axpy(x, q: int, y) -> list[int]:
    """x + q * y, entrywise; the unit multipliers skip the products."""
    if q == 1:
        return list(map(operator.add, x, y))
    if q == -1:
        return list(map(operator.sub, x, y))
    return list(map(operator.add, x, map(operator.mul, repeat(q), y)))


def smith_normal_form(a: IntMatrix, *, cols: bool = True, inverses: bool = True) -> SmithForm:
    """Smith normal form over the integers.

    Returns u, s, v, u_inv, v_inv with u @ a @ v == s, s diagonal with
    nonnegative entries d1 | d2 | ... and trailing zeros.  Total on every
    input shape including empty matrices.

    Every row of a that is +-1 times a unit vector e_j, the first such row
    for each column j, is a pivot as it stands: its column, read once, is
    cleared in one entry per row (unless the pivot is its only nonzero
    entry), and these pivots come first on the diagonal, in row order.  The
    rest of the matrix is then eliminated in place: the pivot is an entry of
    smallest absolute value in the trailing block, first in row-major order,
    and entries it does not divide are pulled into its row.

    Only the transforms a caller reads need be tracked; the elimination, its
    pivots and every tracked transform are the same whatever is left out,
    and an untracked one is returned as a 0 x 0 matrix:

    - ``cols=False`` drops v and v_inv (lattice quotients read u and u_inv);
    - ``inverses=False`` drops u_inv and v_inv (solves read u and v).
    """
    m, n = a.rows, a.cols
    track_uinv = inverses
    track_v = cols
    track_vinv = cols and inverses
    s = [list(row) for row in a.entries]
    u = _identity_rows(m)
    # u_inv and v are kept transposed, so their column operations are row
    # operations on these lists
    uinv_t = _identity_rows(m) if track_uinv else None
    v_t = _identity_rows(n) if track_v else None
    vinv = _identity_rows(n) if track_vinv else None

    def swap_rows(i, j):
        if i == j:
            return
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        if track_uinv:
            uinv_t[i], uinv_t[j] = uinv_t[j], uinv_t[i]

    def swap_cols(i, j):
        if i == j:
            return
        for row in s:
            row[i], row[j] = row[j], row[i]
        if track_v:
            v_t[i], v_t[j] = v_t[j], v_t[i]
        if track_vinv:
            vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        s[i] = _axpy(s[i], q, s[j])
        u[i] = _axpy(u[i], q, u[j])
        if track_uinv:
            uinv_t[j] = _axpy(uinv_t[j], -q, uinv_t[i])

    def add_col(j, i, q):
        # col_j += q * col_i; only ever called with column i of s zero off
        # row i, so in s the update touches row i alone
        s[i][j] += q * s[i][i]
        if track_v:
            v_t[j] = _axpy(v_t[j], q, v_t[i])
        if track_vinv:
            vinv[i] = _axpy(vinv[i], -q, vinv[j])

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]
        if track_uinv:
            uinv_t[i] = [-x for x in uinv_t[i]]

    def find_pivot(t):
        # smallest |entry| in the trailing block, first in row-major order;
        # no entry beats a unit, so the scan stops at the first one
        best = None
        best_abs = 0
        for i in range(t, m):
            row = s[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best_abs):
                    best = (i, j)
                    best_abs = abs(x)
                    if best_abs == 1:
                        return best
        return best

    # a row that is +-1 times a unit vector e_j, the first such row for its
    # column j, is a pivot already: clearing column j in another row changes
    # one entry of s, and as no peeled row is ever a target nor another row a
    # source, the peeled row's u row and u_inv column are still identity
    # ones, so u and u_inv change by one entry too
    peeled: dict[int, int] = {}  # column -> row
    for i, row in enumerate(s):
        if row.count(0) == n - 1:
            j = next(filter(row.__getitem__, range(n)))
            if row[j] in (1, -1):
                peeled.setdefault(j, i)
    if peeled:
        # clearing one peeled column changes no other column, so each is read
        # from one snapshot of the columns; one whose only nonzero entry is
        # its pivot is already clear
        columns = list(zip(*s))
        for j, i in peeled.items():
            col = columns[j]
            if col.count(0) == m - 1:
                continue
            e = s[i][j]
            for k, c in enumerate(col):
                if c and k != i:
                    s[k][j] = 0
                    u[k][i] -= c * e
                    if track_uinv:
                        uinv_t[i][k] += c * e
        # the peeled rows and columns go to the front in row order, the rest
        # keep their order; a single row or column stays where it is (an
        # itemgetter of one index would return the item, not a tuple)
        row_order = list(peeled.values())
        row_order += sorted(set(range(m)).difference(row_order))
        col_order = list(peeled)
        col_order += sorted(set(range(n)).difference(col_order))
        if m > 1:
            rows_of = operator.itemgetter(*row_order)
            for x in filter(None, (s, u, uinv_t)):
                x[:] = rows_of(x)
        if n > 1:
            cols_of = operator.itemgetter(*col_order)
            s[:] = [list(cols_of(row)) for row in s]
            for x in filter(None, (v_t, vinv)):
                x[:] = cols_of(x)

    t = len(peeled)
    bound = min(m, n)
    while t < bound:
        piv = find_pivot(t)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            dirty = False
            for i in range(m):
                if i != t and s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    if q:
                        add_row(i, t, -q)
                    if s[i][t] != 0:
                        dirty = True
            if dirty:
                piv = find_pivot(t)
                swap_rows(t, piv[0])
                swap_cols(t, piv[1])
                continue
            for j in range(n):
                if j != t and s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    if q:
                        add_col(j, t, -q)
                    if s[t][j] != 0:
                        dirty = True
            if dirty:
                piv = find_pivot(t)
                swap_rows(t, piv[0])
                swap_cols(t, piv[1])
                continue
            break
        # force the divisibility chain: any entry not divisible by the pivot
        # is pulled into row t and reduced on the next pass
        d = s[t][t]
        offender = None
        if abs(d) != 1:  # a unit divides everything
            for i in range(t + 1, m):
                row = s[i]
                for j in range(t + 1, n):
                    if row[j] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    for i in range(bound):
        if s[i][i] < 0:
            negate_row(i)

    skipped = IntMatrix.zeros(0, 0)
    return SmithForm(
        IntMatrix(m, m, tuple(map(tuple, u))),
        IntMatrix(m, n, tuple(map(tuple, s))),
        IntMatrix(n, n, tuple(zip(*v_t))) if track_v else skipped,
        IntMatrix(m, m, tuple(zip(*uinv_t))) if track_uinv else skipped,
        IntMatrix(n, n, tuple(map(tuple, vinv))) if track_vinv else skipped,
    )


def kernel_basis(a: IntMatrix, rows: int | None = None) -> IntMatrix:
    """Hermite normal form basis (as columns) of the integer kernel
    { x : a @ x == 0 }, or with ``rows=l`` of its projection to the first l
    coordinates.

    It is read off the Hermite normal form h of [first l rows of the
    identity; a] (Cohen, §2.4.3).  Pivot rows rise from left to right, so
    the columns of h zero in the rows of a come first, and since an echelon
    basis spans every lattice vector that is zero below its pivot rows,
    their top l rows are a basis of that projection, already in normal form.
    """
    n = a.cols
    l = n if rows is None else rows
    if not 0 <= l <= n:
        raise ValueError("rows must lie between 0 and the column count")
    top = tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(l))
    h = hnf_basis(IntMatrix(l + a.rows, n, top + a.entries))
    k = next((j for j, c in enumerate(zip(*h.entries[l:])) if any(c)), h.cols)
    return IntMatrix(l, k, tuple(row[:k] for row in h.entries[:l]))


def solve_vector(a: IntMatrix, y, sf: SmithForm | None = None):
    """One integral solution x of a @ x == y, or None when insolvable."""
    y = tuple(int(t) for t in y)
    if len(y) != a.rows:
        raise ValueError("right-hand side has the wrong length")
    if sf is None:
        sf = smith_normal_form(a, inverses=False)
    w = sf.u.mul_vec(y)
    k = sf.rank
    z = [0] * a.cols
    for i in range(k):
        d = sf.s.entries[i][i]
        if w[i] % d != 0:
            return None
        z[i] = w[i] // d
    for i in range(k, a.rows):
        if w[i] != 0:
            return None
    return sf.v.mul_vec(z)


def solve_matrix(a: IntMatrix, y: IntMatrix, sf: SmithForm | None = None):
    """Integral X with a @ X == y, or None when some column is insolvable.

    All columns are solved at once: X = v @ Z with Z = (u @ y) divided row
    by row by the invariant factors, which is the column-by-column
    ``solve_vector`` result.
    """
    if y.rows != a.rows:
        raise ValueError("right-hand side has the wrong number of rows")
    if sf is None:
        sf = smith_normal_form(a, inverses=False)
    w = (sf.u @ y).entries
    k = sf.rank
    z = []
    for d, row in zip(sf.diagonal[:k], w):
        if any(x % d for x in row):
            return None
        z.append(tuple(x // d for x in row))
    if any(any(row) for row in w[k:]):
        return None
    z.extend(repeat((0,) * y.cols, a.cols - k))
    return sf.v @ IntMatrix(a.cols, y.cols, tuple(z))


def solve_matrix_strict(a: IntMatrix, y: IntMatrix, sf: SmithForm | None = None) -> IntMatrix:
    x = solve_matrix(a, y, sf)
    if x is None:
        raise MembershipError("columns are not in the integer column span")
    return x


def hnf_basis(a: IntMatrix) -> IntMatrix:
    """Column Hermite normal form of the lattice a's columns span, as a basis.

    The convention is Cohen's (*A Course in Computational Algebraic Number
    Theory*, Def. 2.4.2), which sympy's ``hermite_normal_form`` shares: each
    column's pivot is its lowest nonzero entry and is positive, pivot rows
    rise from left to right, and in each pivot row the entries right of the
    pivot lie in [0, pivot).  Zero columns are dropped, so the result
    depends only on the lattice.  Total on every input shape.  Each column
    still to place is filed under the row of its lowest nonzero entry and
    cut off below it, so row i's Euclid reads only the columns filed there;
    a column it reduces to zero in row i is filed again under its new lowest
    row.  The columns already placed are reduced in each pivot row as soon
    as its pivot is found (Cohen, Alg. 2.4.5).
    """
    m = a.rows
    levels: list[list[list[int]]] = [[] for _ in range(m)]
    for c in zip(*a.entries):
        _file(levels, list(c), m - 1)
    found: list[list[int]] = []  # the placed pivot columns, lowest pivot row last
    for i in range(m - 1, -1, -1):
        # Euclid on row i: reduce by the smallest entry until one column is left
        live = levels[i]
        if not live:
            continue
        while len(live) > 1:
            piv = min(live, key=lambda c: abs(c[i]))
            p = piv[i]
            rest = [piv]
            for c in live:
                if c is not piv:
                    c = _axpy(c, -(c[i] // p), piv)
                    if c[i]:
                        rest.append(c)
                    else:
                        _file(levels, c, i - 1)
            live = rest
        piv = live[0]
        if piv[i] < 0:
            piv = [-x for x in piv]
        p = piv[i]
        for c in found:
            q = c[i] // p
            if q:
                c[: i + 1] = _axpy(c[: i + 1], -q, piv)
        found.insert(0, piv + [0] * (m - 1 - i))
    return IntMatrix(m, len(found), tuple(zip(*found)) if found else ((),) * m)


def _file(levels: list[list[list[int]]], c: list[int], i: int) -> None:
    """File c, zero below row i, under its lowest nonzero row, cut off below
    it; a zero column is dropped."""
    while i >= 0 and not c[i]:
        i -= 1
    if i >= 0:
        del c[i + 1 :]
        levels[i].append(c)
