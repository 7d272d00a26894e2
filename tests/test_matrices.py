import itertools
import math
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatekit import IntMatrix, hnf_basis, kernel_basis, smith_normal_form
from tatekit.errors import MembershipError
from tatekit.matrices import (
    block_diagonal,
    solve_matrix,
    solve_matrix_strict,
    solve_vector,
)

entries = st.integers(min_value=-9, max_value=9)


def _det(a):
    """Exact determinant via fraction-free Bareiss elimination, an SNF oracle
    that shares no code with the library."""
    assert a.rows == a.cols, "determinant requires a square matrix"
    n = a.rows
    if n == 0:
        return 1
    a = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _transpose(a):
    return IntMatrix(a.cols, a.rows, tuple(zip(*a.entries)) if a.entries else ((),) * a.cols)


def hstack(mats, rows=None):
    """The matrices side by side; the dense oracle for relation matrices
    that the library writes from their blocks."""
    mats = list(mats)
    if not mats:
        if rows is None:
            raise ValueError("hstack of nothing needs an explicit row count")
        return IntMatrix.zeros(rows, 0)
    nrows = mats[0].rows
    if any(m.rows != nrows for m in mats):
        raise ValueError("row counts differ")
    data = tuple(tuple(chain.from_iterable(parts)) for parts in zip(*(m.entries for m in mats)))
    return IntMatrix(nrows, sum(m.cols for m in mats), data)


def vstack(mats, cols=None):
    """The matrices one above the other."""
    mats = list(mats)
    if not mats:
        if cols is None:
            raise ValueError("vstack of nothing needs an explicit column count")
        return IntMatrix.zeros(0, cols)
    ncols = mats[0].cols
    if any(m.cols != ncols for m in mats):
        raise ValueError("column counts differ")
    data = tuple(row for m in mats for row in m.entries)
    return IntMatrix(sum(m.rows for m in mats), ncols, data)


def matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m
            ).map(IntMatrix.from_rows)
        )
    )


def test_matrix_shape_checks():
    with pytest.raises(ValueError, match="row count"):
        IntMatrix(3, 2, ((1, 2), (3, 4)))
    with pytest.raises(ValueError, match="column count"):
        IntMatrix(2, 2, ((1, 2), (3,)))  # ragged
    with pytest.raises(ValueError, match="column count"):
        IntMatrix(2, 1, ((1,), (2, 3)))


def test_equal_matrices_built_apart_hash_equal_and_the_hash_is_stable():
    rows = [[1, -2, 0], [3, 4, 5]]
    a, b = IntMatrix.from_rows(rows), IntMatrix.from_rows(rows) @ IntMatrix.identity(3)
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash((2, 3, ((1, -2, 0), (3, 4, 5))))
    assert hash(a) == hash(a) and len({a, b}) == 1


def test_snf_golden_against_gcd_det_oracle():
    # d1 = gcd of entries, d1*d2 = |det| for a 2x2 with nonzero determinant
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    sf = smith_normal_form(a)
    g = math.gcd(2, 4, 6, 8)
    d = abs(_det(a))
    assert sf.diagonal == (g, d // g) == (2, 4)


def test_snf_transforms_golden():
    a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    sf = smith_normal_form(a)
    assert sf.diagonal == (2, 2, 156)
    assert sf.u @ a @ sf.v == sf.s
    assert sf.u @ sf.u_inv == IntMatrix.identity(3)
    assert sf.v @ sf.v_inv == IntMatrix.identity(3)


def test_snf_empty_and_zero():
    z = IntMatrix.zeros(0, 0)
    sf = smith_normal_form(z)
    assert sf.rank == 0
    sf = smith_normal_form(IntMatrix.zeros(2, 3))
    assert sf.diagonal == (0, 0)
    assert sf.rank == 0


@given(matrices())
def test_snf_properties(a):
    sf = smith_normal_form(a)
    assert sf.u @ a @ sf.v == sf.s
    assert sf.u @ sf.u_inv == IntMatrix.identity(a.rows)
    assert sf.u_inv @ sf.u == IntMatrix.identity(a.rows)
    assert sf.v @ sf.v_inv == IntMatrix.identity(a.cols)
    diag = sf.diagonal
    assert all(d >= 0 for d in diag)
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert sf.s.entry(i, j) == 0
    nonzero = [d for d in diag if d]
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    # rank equals the count of nonzero diagonal entries
    assert sf.rank == len(nonzero)


@given(matrices())
def test_kernel_basis_spans_kernel(a):
    k = kernel_basis(a)
    assert (a @ k).is_zero()
    assert k.cols == a.cols - smith_normal_form(a).rank


@given(matrices(4), st.lists(entries, min_size=1, max_size=4))
def test_solve_round_trip(a, x):
    x = x[: a.cols] + [0] * max(0, a.cols - len(x))
    y = a.mul_vec(tuple(x))
    sol = solve_vector(a, y)
    assert sol is not None
    assert a.mul_vec(sol) == y


def test_solve_unsolvable():
    a = IntMatrix.from_rows([[2]])
    assert solve_vector(a, (1,)) is None
    with pytest.raises(MembershipError):
        solve_matrix_strict(a, IntMatrix.from_rows([[1]]))


@given(matrices(4))
def test_lattice_basis_spans_same_lattice(a):
    b = hnf_basis(a)
    # every original column solves over the basis and vice versa
    for col in a.columns():
        assert solve_vector(b, col) is not None
    for col in b.columns():
        assert solve_vector(a, col) is not None
    assert b.cols == smith_normal_form(a).rank


def test_is_identity_reads_the_rows():
    assert all(IntMatrix.identity(n).is_identity() for n in range(5))
    others = [
        [[0, 1], [1, 0]],
        [[1, 0], [0, -1]],
        [[1, 1], [0, 1]],
        [[1, 0], [0, 2]],
        [[1, 0], [0, 0]],
        [[1, 0, 0], [0, 1, 0]],
        [[1, 0], [0, 1], [0, 0]],
    ]
    assert not any(IntMatrix.from_rows(rows).is_identity() for rows in others)
    assert not IntMatrix(0, 2, ()).is_identity() and not IntMatrix(2, 0, ((), ())).is_identity()


def test_stack_and_block():
    a = IntMatrix.from_rows([[1, 2]])
    b = IntMatrix.from_rows([[3, 4], [5, 6]])
    assert vstack([a, b]).rows == 3
    assert hstack([_transpose(a), b]).cols == 3
    blk = block_diagonal([IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]])])
    assert _det(blk) == 6


def test_block_diagonal_of_zero_size_blocks_has_the_summed_shape():
    wide, tall, empty = IntMatrix.zeros(0, 2), IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 0)
    five = IntMatrix.from_rows([[5]])
    for mats in ([], [wide], [tall], [empty], [wide, tall], [tall, empty, wide], [empty, empty]):
        shape = (sum(m.rows for m in mats), sum(m.cols for m in mats))
        assert block_diagonal(mats) == IntMatrix.zeros(*shape)
    # a 0 x 2 block shifts the next block two columns right, a 3 x 0 block adds three rows
    blk = block_diagonal([wide, five, tall])
    assert blk == IntMatrix.from_rows([[0, 0, 5], [0, 0, 0], [0, 0, 0], [0, 0, 0]])


def test_det_matches_snf_product():
    a = IntMatrix.from_rows([[4, 2, 1], [0, 3, 5], [7, 1, 2]])
    sf = smith_normal_form(a)
    prod = 1
    for d in sf.diagonal:
        prod *= d
    assert abs(_det(a)) == prod


@given(matrices(12))
def test_snf_without_column_transforms_matches_full(a):
    full = smith_normal_form(a)
    rows_only = smith_normal_form(a, cols=False)
    assert (rows_only.s, rows_only.u, rows_only.u_inv) == (full.s, full.u, full.u_inv)
    assert rows_only.v == rows_only.v_inv == IntMatrix.zeros(0, 0)


def _solve_by_columns(a, y):
    cols = [solve_vector(a, c) for c in y.columns()]
    if any(c is None for c in cols):
        return None
    return IntMatrix(a.cols, y.cols, tuple(zip(*cols)))


@given(st.data())
def test_batched_solve_matches_column_solves(data):
    a = data.draw(matrices(5))
    x = data.draw(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=a.cols, max_size=a.cols))
    y = a @ IntMatrix.from_rows(x)
    # an arbitrary extra column is often outside the column span
    extra = data.draw(st.lists(entries, min_size=a.rows, max_size=a.rows))
    for rhs in (y, hstack([y, IntMatrix.from_rows([[e] for e in extra])])):
        expected = _solve_by_columns(a, rhs)
        assert solve_matrix(a, rhs) == expected
        if expected is not None:
            assert a @ expected == rhs
    assert solve_matrix(a, IntMatrix.zeros(a.rows, 0)) == IntMatrix.zeros(a.cols, 0)


def test_batched_solve_rejects_wrong_row_count():
    with pytest.raises(ValueError):
        solve_matrix(IntMatrix.identity(2), IntMatrix.zeros(3, 1))


def _determinantal_divisors(a):
    """D_k = gcd of all k x k minors, by Bareiss determinants only."""
    out = []
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rows in itertools.combinations(range(a.rows), k):
            for cols in itertools.combinations(range(a.cols), k):
                minor = IntMatrix.from_rows([[a.entry(i, j) for j in cols] for i in rows])
                g = math.gcd(g, _det(minor))
        out.append(g)
    return out


@given(matrices(6))
def test_snf_diagonal_matches_determinantal_divisors(a):
    # d_k = D_k / D_(k-1) while D_k != 0, and d_k = 0 once the minors vanish
    expected = []
    prev = 1
    for dk in _determinantal_divisors(a):
        expected.append(dk // prev if dk else 0)
        prev = dk or prev
    assert list(smith_normal_form(a).diagonal) == expected


# -- transforms tracked only for the callers that read them --------------------


def _full_kernel_top(a, l):
    """First l rows of the kernel basis read off a fully tracked Smith form."""
    full = smith_normal_form(a)
    k = full.rank
    return IntMatrix(l, a.cols - k, tuple(row[k:] for row in full.v.entries[:l]))


def sha_blocks(max_rows=8, max_left=6, max_right=30):
    """[M @ P | R] as the kernel of an induced map stacks it: a dense left
    block of basis images and a wide right block of sparse (g - 1) columns."""

    def build(shape):
        m, left, right = shape
        return st.tuples(
            st.lists(st.lists(entries, min_size=left, max_size=left), min_size=m, max_size=m),
            st.lists(st.lists(st.sampled_from([-1, 0, 0, 0, 1]), min_size=right, max_size=right), min_size=m, max_size=m),
        ).map(lambda lr: (IntMatrix.from_rows([x + y for x, y in zip(*lr)]), left))

    return st.tuples(st.integers(1, max_rows), st.integers(0, max_left), st.integers(0, max_right)).flatmap(build)


@given(st.data())
def test_kernel_of_truncated_v_is_the_top_of_the_full_kernel(data):
    # the fully tracked Smith form is the oracle: the top rows of its kernel
    # span the projection, whose Hermite normal form is unique
    a = data.draw(matrices(12))
    l = data.draw(st.integers(0, a.cols))
    assert kernel_basis(a, rows=l) == hnf_basis(_full_kernel_top(a, l))
    assert kernel_basis(a) == hnf_basis(_full_kernel_top(a, a.cols))


@given(sha_blocks())
def test_kernel_of_truncated_v_on_wide_sha_shaped_blocks(block):
    a, l = block
    top = kernel_basis(a, rows=l)
    assert top == hnf_basis(_full_kernel_top(a, l))
    assert top.rows == l


@given(st.data())
def test_every_tracking_mode_matches_the_full_form(data):
    a = data.draw(matrices(12))
    full = smith_normal_form(a)
    empty = IntMatrix.zeros(0, 0)
    solve = smith_normal_form(a, inverses=False)
    assert (solve.s, solve.u, solve.v) == (full.s, full.u, full.v)
    assert solve.u_inv == solve.v_inv == empty
    rows_only = smith_normal_form(a, cols=False)
    assert (rows_only.s, rows_only.u, rows_only.u_inv) == (full.s, full.u, full.u_inv)
    assert rows_only.v == rows_only.v_inv == empty


# -- unit-vector rows taken as ready pivots ------------------------------------


@st.composite
def planted(draw, max_dim=7):
    """Random matrices, empty shapes included, with rows replaced by +-e_j (a
    column may be planted in several rows), by zero rows, or by copies of
    other rows, which makes rank-deficient forms; in about one draw in four
    every row is a planted unit vector."""
    m, n = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    all_units = draw(st.integers(0, 3)) == 0
    for i in range(m):
        kind = "unit" if all_units else draw(st.sampled_from(("keep", "unit", "unit", "zero", "copy")))
        if kind == "unit" and n:
            rows[i] = [0] * n
            rows[i][draw(st.integers(0, n - 1))] = draw(st.sampled_from((1, -1)))
        elif kind == "zero":
            rows[i] = [0] * n
        elif kind == "copy":
            rows[i] = list(rows[draw(st.integers(0, m - 1))])
    return IntMatrix(m, n, tuple(map(tuple, rows)))


def _first_unit_rows(a):
    """The first +-e_j row of each column j, in row order."""
    first = {}
    for i, row in enumerate(a.entries):
        support = [j for j, x in enumerate(row) if x]
        if len(support) == 1 and abs(row[support[0]]) == 1:
            first.setdefault(support[0], i)
    return sorted(first.values())


@settings(max_examples=200)
@given(planted())
def test_planted_unit_rows_are_the_first_pivots_in_every_tracking_mode(a):
    m, n = a.rows, a.cols
    full = smith_normal_form(a)
    empty = IntMatrix.zeros(0, 0)
    for cols, inverses in itertools.product((True, False), repeat=2):
        sf = smith_normal_form(a, cols=cols, inverses=inverses)
        assert (sf.u, sf.s) == (full.u, full.s)
        assert sf.v == (full.v if cols else empty)
        assert sf.u_inv == (full.u_inv if inverses else empty)
        assert sf.v_inv == (full.v_inv if cols and inverses else empty)
        if cols:
            assert sf.u @ a @ sf.v == sf.s
        if inverses:
            assert sf.u @ sf.u_inv == sf.u_inv @ sf.u == IntMatrix.identity(m)
        if cols and inverses:
            assert sf.v @ sf.v_inv == sf.v_inv @ sf.v == IntMatrix.identity(n)
    diag = full.diagonal
    assert full.s == IntMatrix(m, n, tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(m)))
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero) and nonzero == list(diag[: len(nonzero)])
    assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
    # each peeled pivot costs one entry of u: its row of u is +-1 times the
    # unit vector of its row of a, and the peeled pivots lead the diagonal
    peeled = _first_unit_rows(a)
    assert diag[: len(peeled)] == (1,) * len(peeled)
    for t, i in enumerate(peeled):
        row = full.u.entries[t]
        assert abs(row[i]) == 1 and not any(row[:i] + row[i + 1 :])


def test_truncated_v_on_zero_size_shapes():
    for rows, cols, l in ((0, 0, 0), (3, 0, 0), (0, 4, 2), (2, 3, 3)):
        assert kernel_basis(IntMatrix.zeros(rows, cols), rows=l) == IntMatrix.identity(l)
    for l in (4, -1):
        with pytest.raises(ValueError):
            kernel_basis(IntMatrix.zeros(2, 3), rows=l)


def _kernel_basis_dense(a, l):
    """kernel_basis from [the first l rows of the n x n identity; a], stacked
    densely: the construction the library writes row by row."""
    n = a.cols
    h = hnf_basis(vstack([IntMatrix(l, n, IntMatrix.identity(n).entries[:l]), a]))
    k = next((j for j, c in enumerate(zip(*h.entries[l:])) if any(c)), h.cols)
    return IntMatrix(l, k, tuple(row[:k] for row in h.entries[:l]))


@given(st.data())
def test_kernel_basis_equals_the_dense_construction(data):
    # zero-row and zero-column inputs, then random ones of every shape up to 5 x 5
    shapes = [IntMatrix.zeros(0, n) for n in range(5)] + [IntMatrix.zeros(m, 0) for m in range(4)]
    shapes.append(data.draw(planted(5)))
    for a in shapes:
        for l in range(a.cols + 1):
            assert kernel_basis(a, rows=l) == _kernel_basis_dense(a, l), (a, l)
        assert kernel_basis(a) == _kernel_basis_dense(a, a.cols), a


@given(matrices(8))
def test_kernel_basis_is_in_hermite_normal_form(a):
    k = kernel_basis(a)
    assert (a @ k).is_zero()
    assert hnf_basis(k) == k


big_entries = st.integers(-10**6, 10**6) | st.just(0)


def test_snf_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    @settings(max_examples=40)
    @given(st.data())
    def check(data):
        m, n = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        rows = data.draw(st.lists(st.lists(big_entries, min_size=n, max_size=n), min_size=m, max_size=m))
        if m > 1 and data.draw(st.booleans()):
            # a dependent row, the sum of two others, so rank-deficient forms occur
            rows[0] = [x + y for x, y in zip(rows[1], rows[-1])]
        ours = [d for d in smith_normal_form(IntMatrix.from_rows(rows), cols=False).diagonal if d]
        theirs = [abs(int(d)) for d in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)]
        assert ours == [d for d in theirs if d]

    check()


def test_snf_diagonal_matches_sympy_on_hermite_presentations(corpus):
    # the coinvariant presentations every lattice quotient takes the Smith
    # form of: the augmentation kernels of the corpus, and the sha1 domains
    # M[S]_0 of the groups of order <= 4 (the V4 one with three places is
    # 33 x 24, with 23 unit pivots)
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    from tatekit.gmodule import augmentation_kernel_module, coinvariants, generated_subgroup, subgroup
    from tatekit.sha import GlobalData, PlaceDatum, build_place_module

    presentations = []
    for g in corpus.values():
        aug = augmentation_kernel_module(g)
        presentations.append(coinvariants(aug).relations)
        if g.order <= 4:
            one = subgroup(g, [g.identity])
            cyc = generated_subgroup(g, g.generating_set()[:1])
            for subs in ((one, one, one), (cyc, one)):
                places = tuple(PlaceDatum(f"v{i}", h) for i, h in enumerate(subs))
                presentations.append(coinvariants(build_place_module(GlobalData(g, aug, places)).sub).relations)
    peeled = 0
    for rel in presentations:
        ours = [d for d in smith_normal_form(rel, cols=False).diagonal if d]
        flat = list(itertools.chain(*rel.entries))
        theirs = invariant_factors(sympy.Matrix(rel.rows, rel.cols, flat), domain=sympy.ZZ)
        assert ours == [abs(int(d)) for d in theirs if d], rel
        peeled += len(_first_unit_rows(rel))
    assert max(rel.rows for rel in presentations) == 33 and peeled > 100


# -- Hermite normal form ---------------------------------------------------------


def _is_hnf(h):
    """Cohen's column form: each column's lowest nonzero entry is a positive
    pivot, pivot rows rise left to right, and pivot rows are reduced into
    [0, pivot) right of the pivot."""
    pivots = []
    for j, col in enumerate(h.columns()):
        p = max((i for i, x in enumerate(col) if x), default=None)
        if p is None or col[p] <= 0 or (pivots and p <= pivots[-1]):
            return False
        pivots.append(p)
    return all(0 <= h.entry(p, k) < h.entry(p, j) for j, p in enumerate(pivots) for k in range(j + 1, h.cols))


def _same_lattice(a, b):
    return solve_matrix(a, b) is not None and solve_matrix(b, a) is not None


hnf_entries = st.integers(-12, 12) | st.just(0)


def hnf_inputs():
    """Matrices up to 6 x 8, empty shapes included."""
    return st.integers(0, 6).flatmap(
        lambda m: st.integers(0, 8).flatmap(
            lambda n: st.lists(st.lists(hnf_entries, min_size=n, max_size=n), min_size=m, max_size=m).map(
                lambda rows: IntMatrix(m, n, tuple(map(tuple, rows)))
            )
        )
    )


def _sympy_hnf(rows):
    """sympy's Hermite normal form of a nonempty list of rows, as an IntMatrix."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    # sympy keeps Cohen's convention and drops the zero columns too; only
    # the empty result needs its row count back
    h = hermite_normal_form(sympy.Matrix(rows))
    return IntMatrix(len(rows), h.cols, tuple(tuple(int(x) for x in h.row(i)) for i in range(h.rows)))


def test_hnf_matches_sympy():
    pytest.importorskip("sympy")

    @settings(max_examples=60)
    @given(st.data())
    def check(data):
        m, n = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 14))
        rows = data.draw(st.lists(st.lists(hnf_entries, min_size=n, max_size=n), min_size=m, max_size=m))
        if m > 1 and data.draw(st.booleans()):
            rows[0] = [x - 2 * y for x, y in zip(rows[1], rows[-1])]  # rank-deficient forms too
        a = IntMatrix.from_rows(rows)
        h = _sympy_hnf(rows)
        assert hnf_basis(a) == h

    check()


def test_hnf_matches_sympy_on_coinvariant_shaped_inputs():
    # relation matrices of coinvariants, (g - 1) applied to basis vectors, are
    # sparse with entries in {-1, 0, 1} and two to three times as wide as tall
    pytest.importorskip("sympy")

    @settings(max_examples=40)
    @given(st.data())
    def check(data):
        r = data.draw(st.integers(1, 20))
        n = data.draw(st.integers(2 * r, 3 * r))
        sparse = st.sampled_from((-1, 0, 0, 0, 0, 0, 1))
        rows = data.draw(st.lists(st.lists(sparse, min_size=n, max_size=n), min_size=r, max_size=r))
        assert hnf_basis(IntMatrix.from_rows(rows)) == _sympy_hnf(rows)

    check()


@given(hnf_inputs(), st.data())
def test_hnf_depends_only_on_the_lattice(a, data):
    h = hnf_basis(a)
    assert _is_hnf(h)
    n = a.cols
    # a @ U for a product of elementary unimodular column operations
    u = [list(r) for r in IntMatrix.identity(n).entries]
    for _ in range(data.draw(st.integers(0, 3 * n))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        q = data.draw(st.integers(-3, 3))
        if i != j:
            for row in u:
                row[j] += q * row[i]
        elif q < 0:
            for row in u:
                row[i] = -row[i]
    same = [a @ IntMatrix(n, n, tuple(map(tuple, u)))] if n else []
    order = data.draw(st.permutations(range(n)))
    cols = a.columns()
    same.append(hstack([IntMatrix(a.rows, 1, tuple((x,) for x in cols[j])) for j in order], rows=a.rows))
    same.append(hstack([a, a, IntMatrix.zeros(a.rows, 2)]))
    for b in same:
        assert hnf_basis(b) == h


@given(hnf_inputs())
def test_hnf_and_its_input_span_each_other(a):
    h = hnf_basis(a)
    assert _same_lattice(h, a)
    assert h.cols == smith_normal_form(a, cols=False).rank


def test_hnf_golden_and_bounded_entries():
    a = IntMatrix.from_rows([[2, 3, 6, 2], [5, 6, 1, 6], [8, 3, 1, 1]])
    assert hnf_basis(a) == IntMatrix.identity(3)
    a = IntMatrix.from_rows([[4, 6, 10], [0, 8, 2], [0, 0, 12]])
    h = hnf_basis(a)
    assert h == IntMatrix.from_rows([[4, 2, 2], [0, 8, 2], [0, 0, 12]])
    assert _is_hnf(h) and _same_lattice(h, a)
    assert hnf_basis(IntMatrix.from_rows([[2, 4], [1, 2]])) == IntMatrix.from_rows([[2], [1]])
    # row 1 reduces (0, 2) by (1, 2) to (-1, 0): that column leaves row 1 for
    # row 0, where it becomes the pivot
    assert hnf_basis(IntMatrix.from_rows([[1, 0], [2, 2]])) == IntMatrix.from_rows([[1, 0], [0, 2]])
    # the same, but row 0 already holds (1, 0), which reduces the moved
    # column to zero; (3, 6) = 3 * (1, 2) reduces to zero in row 1 at once
    a = IntMatrix.from_rows([[1, 0, 1, 3], [2, 2, 0, 6]])
    assert hnf_basis(a) == IntMatrix.from_rows([[1, 0], [0, 2]])
    # a column that moves up past an empty row, to a pivot of -1
    a = IntMatrix.from_rows([[2, 1], [0, 0], [3, 3]])
    assert hnf_basis(a) == IntMatrix.from_rows([[1, 0], [0, 0], [0, 3]])


def test_hnf_on_zero_size_shapes():
    for rows, cols in ((0, 0), (3, 0), (0, 4), (2, 3)):
        z = IntMatrix.zeros(rows, cols)
        assert hnf_basis(z) == IntMatrix.zeros(rows, 0)

