import importlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tatekit import (
    INFINITE,
    FinAbGroup,
    InducedMap,
    IntMatrix,
    LatticeQuotient,
    cokernel,
    common_kernel,
    element_order,
)
from tatekit.errors import MembershipError
from tatekit.gmodule import (
    augmentation_kernel_module,
    coinvariants,
    direct_sum_modules,
    invariants,
    norm_matrix,
    permutation_module,
    trivial_module,
)
from tatekit.matrices import (
    block_diagonal,
    hnf_basis,
    kernel_basis,
    smith_normal_form,
    solve_matrix,
)
from tatekit.sha import build_place_module, sha1_S, sha1_shapiro

from test_gmodule import tate_corpus
from test_matrices import hstack, vstack
from test_sha import klein_data, quarter_turn_data


def _torsion_part(g):
    """The torsion subgroup of a group in invariant-factor form."""
    return FinAbGroup(g.invariant_factors, 0)


def _contains_vector(q, vec):
    """Whether an ambient vector lies in q's presented sublattice."""
    return q._basis_coords(vec) is not None


def test_group_basics():
    g = FinAbGroup((2, 4), 1)
    assert g.ncoords == 3
    assert not g.is_finite
    assert g.exponent() == INFINITE
    t = _torsion_part(g)
    assert t.invariant_factors == (2, 4) and t.is_finite
    assert t.size() == 8
    assert sorted(x.coords for x in t.elements()) == sorted(
        (a, b) for a in range(2) for b in range(4)
    )


def test_group_validation():
    with pytest.raises(ValueError):
        FinAbGroup((1,), 0)
    with pytest.raises(ValueError):
        FinAbGroup((4, 2), 0)
    with pytest.raises(ValueError):
        FinAbGroup((), -1)


def test_element_arithmetic_and_order():
    g = FinAbGroup((2, 4), 0)
    x = g.element((1, 1))
    assert (x + x).coords == (0, 2)
    assert (-x).coords == (1, 3)
    assert (4 * x).is_zero()
    assert element_order(x) == 4
    assert element_order(g.element((1, 0))) == 2
    free = FinAbGroup((), 1)
    assert element_order(free.element((3,))) == INFINITE


def test_cokernel_invariants():
    a = IntMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 0]])
    q = cokernel(a)
    assert q.group.invariant_factors == (2,)
    assert q.group.free_rank == 1


def test_project_lift_round_trip():
    rel = IntMatrix.from_rows([[2, 0], [0, 6]])
    q = cokernel(rel)
    for x in q.group.elements():
        assert q.project(q.lift(x)) == x


def test_membership_error_outside_sublattice():
    basis = IntMatrix.from_rows([[2, 0], [0, 2]])
    q = LatticeQuotient(2, basis, IntMatrix.zeros(2, 0))
    with pytest.raises(MembershipError):
        q.project((1, 0))
    assert _contains_vector(q, (4, 2))
    assert not _contains_vector(q, (1, 1))


def test_torsion_subquotient():
    rel = IntMatrix.from_rows([[3, 0], [0, 0]])
    q = cokernel(rel)  # Z/3 + Z
    t = q.torsion()
    assert t.group.invariant_factors == (3,)
    assert t.group.free_rank == 0
    assert t.group.is_finite
    # torsion vectors project into the torsion quotient
    for x in t.group.elements():
        v = t.lift(x)
        assert t.project(v) == x


def test_torsion_on_generators_presents_the_torsion_on_its_generator_vectors(corpus):
    for name, mname, module in _corpus_modules(corpus):
        co = coinvariants(module)
        red = co.torsion_on_generators()
        nt = len(co.group.invariant_factors)
        assert red.group == co.torsion().group == _torsion_part(co.group), (name, mname)
        assert red.basis.columns() == co.generator_vectors()[:nt], (name, mname)
        assert red.relations == red.basis @ red.rel_in_basis
        for i, (g, d) in enumerate(zip(red.basis.columns(), red.group.invariant_factors)):
            unit = tuple(int(j == i) for j in range(nt))
            assert red.rel_in_basis.column(i) == tuple(d * x for x in unit)
            assert red.project(g).coords == unit
            assert co.project(g).coords == unit + (0,) * co.group.free_rank


def test_torsion_keeps_the_torsion_coordinates_of_its_quotient(corpus):
    # every corpus coinvariant group and random cokernels: a torsion
    # generator has the same torsion coordinates in q.torsion() as in q
    rng = random.Random(0x7075)
    quotients = [coinvariants(m) for _, m in tate_corpus(corpus)]
    for _ in range(3000):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        entries = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        quotients.append(cokernel(IntMatrix.from_rows(entries)))
    for q in quotients:
        t, nt = q.torsion(), len(q.group.invariant_factors)
        for v in q.generator_vectors()[:nt]:
            assert t.project(v).coords == q.project(v).coords[:nt], q.relations


def test_induced_map_identity_and_kernel():
    rel = IntMatrix.from_rows([[4]])
    q = cokernel(rel)  # Z/4
    ident = InducedMap(q, q, IntMatrix.identity(1))
    assert ident.is_identity_on(q)
    # 4 = 1 mod 3 fixes Z/3 but not Z/3 + Z
    z3, z3_z = cokernel(IntMatrix.from_rows([[3]])), cokernel(IntMatrix.from_rows([[3], [0]]))
    assert InducedMap(z3, z3, IntMatrix.from_rows([[4]])).is_identity_on(z3)
    assert not InducedMap(z3_z, z3_z, IntMatrix.identity(2).scaled(4)).is_identity_on(z3_z)
    doubling = InducedMap(q, q, IntMatrix.from_rows([[2]]))
    ker = doubling.kernel()
    assert ker.group.invariant_factors == (2,)
    # kernel classes really die
    for x in ker.group.elements():
        v = ker.lift(x)
        assert doubling(q.project(v)).is_zero()


def test_induced_map_rejects_non_maps():
    q4 = cokernel(IntMatrix.from_rows([[4]]))
    q3 = cokernel(IntMatrix.from_rows([[3]]))
    with pytest.raises(ValueError):
        InducedMap(q4, q3, IntMatrix.from_rows([[1]]))  # 4 does not map to 0 mod 3
    with pytest.raises(ValueError):
        InducedMap(q4, cokernel(IntMatrix.zeros(1, 0)), IntMatrix.from_rows([[1]]))  # Z/4 -> Z


def test_compose():
    q = cokernel(IntMatrix.from_rows([[8]]))
    double = InducedMap(q, q, IntMatrix.from_rows([[2]]))
    quad = InducedMap.compose(double, double)
    x = q.group.element((1,))
    assert quad(x) == q.group.element((4,))


def test_compose_through_equal_quotients_built_apart():
    def z_mod(n):
        return cokernel(IntMatrix.from_rows([[n]]))

    # 3 * 3 = 9 = 1 mod 8; every quotient below is a separately built Z/8
    triple = InducedMap(z_mod(8), z_mod(8), IntMatrix.from_rows([[3]]))
    back = InducedMap(z_mod(8), z_mod(8), IntMatrix.from_rows([[3]]))
    assert InducedMap.compose(back, triple).is_identity_on(z_mod(8))
    assert not triple.is_identity_on(z_mod(8))
    with pytest.raises(ValueError):
        InducedMap.compose(back, InducedMap(z_mod(8), z_mod(4), IntMatrix.from_rows([[1]])))


def test_induced_map_rejects_basis_images_outside_target_lattice():
    z4 = cokernel(IntMatrix.from_rows([[4]]))
    evens = LatticeQuotient(1, IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[8]]))  # 2Z / 8Z
    with pytest.raises(MembershipError):
        InducedMap(z4, evens, IntMatrix.from_rows([[1]]))
    doubling = InducedMap(z4, evens, IntMatrix.from_rows([[2]]))
    assert doubling(z4.group.element((1,))) == evens.group.element((1,))


def test_building_a_map_that_does_not_send_relations_to_relations_raises():
    # the basis images lie in the target lattice, but a relation image is a
    # nonzero class: Z/2 -> Z/4 and 2Z/8Z -> Z/16, each x -> x
    z2, z4, z16 = (cokernel(IntMatrix.from_rows([[n]])) for n in (2, 4, 16))
    evens = LatticeQuotient(1, IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[8]]))
    for source, target in ((z2, z4), (evens, z16)):
        with pytest.raises(ValueError):
            InducedMap(source, target, IntMatrix.from_rows([[1]]))


small = st.integers(min_value=-6, max_value=6)


@given(st.data())
def test_identity_basis_quotient_agrees_with_general_path(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(0, 4))
    rel = IntMatrix.from_rows(data.draw(st.lists(st.lists(small, min_size=m, max_size=m), min_size=n, max_size=n)))
    # a triangular basis of Z^n with diagonal -1, 1, ..., 1 is never the
    # identity, so the same quotient Z^n / span(rel) takes the general path
    above = data.draw(st.lists(small, min_size=n * n, max_size=n * n))
    unimodular = IntMatrix.from_rows(
        [[(-1 if i == 0 else 1) if i == j else (above[i * n + j] if j > i else 0) for j in range(n)] for i in range(n)]
    )
    fast = cokernel(rel)
    general = LatticeQuotient(n, unimodular, rel)
    assert fast.rel_in_basis == rel
    assert fast.group == general.group
    same = InducedMap(fast, general, IntMatrix.identity(n))
    assert same.kernel().group.is_trivial
    assert InducedMap(general, fast, IntMatrix.identity(n)).kernel().group.is_trivial
    for v in data.draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=1, max_size=4)):
        assert general.project(v) == same(fast.project(v))
        assert _contains_vector(fast, v) and _contains_vector(general, v)
    k = fast.group.ncoords
    for i in range(k):
        x = fast.group.element(tuple(int(i == j) for j in range(k)))
        assert fast.project(fast.lift(x)) == x
        assert general.project(fast.lift(x)) == same(x)
    for q in (fast, general):
        with pytest.raises(ValueError):
            q.project((0,) * (n + 1))
        with pytest.raises(ValueError):
            _contains_vector(q, (0,) * (n + 1))


def test_only_the_identity_basis_is_recognized_as_the_identity():
    # recognized from its rows: then no Smith form of the basis is taken
    for n in range(5):
        eye = IntMatrix.identity(n)
        q = LatticeQuotient(n, eye, IntMatrix.zeros(n, 0))
        assert q._full_basis and q._basis_sf is None, n
        assert q.rel_in_basis is q.relations
    swap = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    cycle = IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    flip = IntMatrix.from_rows([[1, 0], [0, -1]])
    for basis in (swap, cycle, flip, IntMatrix.from_rows([[1, 1], [0, 1]])):
        n = basis.rows
        q = LatticeQuotient(n, basis, IntMatrix.zeros(n, 0))
        assert not q._full_basis and q._basis_sf is not None, basis
        # the class of e_j is the class of basis column j's coordinates
        for j, col in enumerate(basis.columns()):
            assert q.project(col) == cokernel(IntMatrix.zeros(n, 0)).project(tuple(int(i == j) for i in range(n)))


def test_torsion_on_generators_over_an_identity_and_another_basis(corpus):
    # the lifts are the basis when the basis is the identity, and basis @ lifts
    # otherwise; the relations are the basis columns times their factors
    seen = set()
    for name, mname, module in _corpus_modules(corpus):
        co = coinvariants(module)
        for q in (co, co.torsion()):
            seen.add(q._full_basis)
            red = q.torsion_on_generators()
            units, k = q._units, q._rank_rel
            lifts = IntMatrix(q.basis.cols, k - units, tuple(row[units:k] for row in q.snf.u_inv.entries))
            assert red.basis == q.basis @ lifts, (name, mname)
            assert red.relations == red.basis @ red.rel_in_basis, (name, mname)
            assert red.group == co.torsion().group, (name, mname)
    assert seen == {True, False}


def test_common_kernel_of_the_empty_family_and_of_maps_into_rank_zero_targets():
    a = cokernel(IntMatrix.from_rows([[2, 0], [0, 0]]))  # Z/2 x Z
    assert common_kernel(a, ()).group == a.group
    # maps into rank-zero targets kill everything
    zero = InducedMap(a, cokernel(IntMatrix.zeros(0, 0)), IntMatrix.zeros(0, 2))
    zero_rels = InducedMap(a, cokernel(IntMatrix.zeros(0, 2)), IntMatrix.zeros(0, 2))
    assert common_kernel(a, (zero, zero_rels)).group == a.group
    first = InducedMap(a, cokernel(IntMatrix.from_rows([[2]])), IntMatrix.from_rows([[1, 0]]))
    ker = common_kernel(a, (zero, first, zero_rels))
    assert (ker.group.invariant_factors, ker.group.free_rank) == ((), 1)


def test_common_kernel_of_reductions_mod_2_and_mod_3():
    # x -> (x mod 2, x mod 3)
    for n, factors in ((6, ()), (12, (2,))):
        q = cokernel(IntMatrix.from_rows([[n]]))
        maps = [InducedMap(q, cokernel(IntMatrix.from_rows([[d]])), IntMatrix.identity(1)) for d in (2, 3)]
        ker = common_kernel(q, maps)
        assert ker.group.invariant_factors == factors and ker.group.is_finite
        for x in ker.group.elements():
            assert all(f(q.project(ker.lift(x))).is_zero() for f in maps)


def test_common_kernel_rejects_a_map_from_another_source():
    z4, z6 = cokernel(IntMatrix.from_rows([[4]])), cokernel(IntMatrix.from_rows([[6]]))
    with pytest.raises(ValueError):
        common_kernel(z4, (InducedMap(z6, z6, IntMatrix.identity(1)),))


@given(st.data())
def test_common_kernel_of_two_maps_is_the_kernel_of_their_stack(data):
    s = data.draw(st.integers(1, 4))
    r_src = _small_matrix(data, s, data.draw(st.integers(0, s + 1)))
    source = cokernel(r_src)
    if data.draw(st.booleans()):
        source = source.torsion()
    mats, rels = [], []
    for _ in range(2):
        t = data.draw(st.integers(0, 3))
        m = _small_matrix(data, t, s)
        mats.append(m)
        rels.append(hstack([m @ r_src, _small_matrix(data, t, data.draw(st.integers(0, t)))], rows=t))
    ker = common_kernel(source, [InducedMap(source, cokernel(r), m) for m, r in zip(mats, rels)])
    whole = InducedMap(source, cokernel(block_diagonal(rels)), vstack(mats, cols=s)).kernel()
    assert (ker.basis, ker.relations, ker.rel_in_basis) == (whole.basis, whole.relations, whole.rel_in_basis)


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=2, max_size=2))
def test_quotient_group_law(v):
    rel = IntMatrix.from_rows([[4, 1], [0, 6]])
    q = cokernel(rel)
    x = q.project(tuple(v))
    y = q.project((1, 2))
    # projection is additive
    assert q.project((v[0] + 1, v[1] + 2)) == x + y


# -- sub-quotients built from the coordinates their parents already know ------


def _corpus_modules(corpus):
    for name, g in corpus.items():
        aug = augmentation_kernel_module(g)
        yield name, "triv2", trivial_module(g, 2)
        yield name, "aug", aug
        yield name, "aug+triv1", direct_sum_modules([aug, trivial_module(g, 1)])


@pytest.fixture(scope="module")
def derived(corpus):
    return list(_derived_quotients(corpus))


def _derived_quotients(corpus):
    """Every torsion() and kernel() sub-quotient the tate ops build, per corpus module."""
    for name, mname, module in _corpus_modules(corpus):
        co = coinvariants(module)
        yield f"{name}/{mname}/torsion", co.torsion()
        fixed = LatticeQuotient(module.rank, invariants(module), IntMatrix.zeros(module.rank, 0))
        yield f"{name}/{mname}/h-1", InducedMap(co, fixed, norm_matrix(module)).kernel()
        doubling = InducedMap(co, co, IntMatrix.identity(module.rank).scaled(2))
        yield f"{name}/{mname}/ker(2)", doubling.kernel()
    for name, data in (("klein", klein_data()), ("quarter", quarter_turn_data())):
        for form in (sha1_S, sha1_shapiro):
            res = form(data)
            yield f"{name}/{form.__name__}/domain", res.domain
            yield f"{name}/{form.__name__}/kernel", res.kernel


def _in_lattice(basis, vec):
    """Membership oracle by invariant factors alone: adding a vector of the
    lattice to its basis leaves the nonzero invariant factors unchanged."""
    def factors(m):
        return [d for d in smith_normal_form(m, cols=False).diagonal if d]

    col = IntMatrix(len(vec), 1, tuple((x,) for x in vec))
    return factors(hstack([basis, col])) == factors(basis)


def test_derived_quotients_equal_the_quotients_built_from_scratch(derived):
    for label, q in derived:
        scratch = LatticeQuotient(q.ambient_rank, q.basis, q.relations)
        assert q.rel_in_basis == scratch.rel_in_basis, label
        assert q.basis @ q.rel_in_basis == q.relations, label
        assert (q.snf.s, q.snf.u, q.snf.u_inv) == (scratch.snf.s, scratch.snf.u, scratch.snf.u_inv), label
        assert q.group == scratch.group, label
        assert q.generator_vectors() == scratch.generator_vectors(), label


def test_derived_quotients_accept_members_and_reject_the_rest(derived):
    for label, q in derived:
        n = q.ambient_rank
        members = q.generator_vectors() + q.basis.columns() + q.relations.columns()[:4]
        for vec in members:
            assert _contains_vector(q, vec), label
            q.project(vec)
        for x in q.group.elements() if q.group.is_finite and q.group.size() <= 16 else ():
            assert q.project(q.lift(x)) == x, label
        units = [tuple(int(i == j) for j in range(n)) for i in range(min(n, 3))]
        for vec in units + [tuple(range(1, n + 1))]:
            inside = _in_lattice(q.basis, vec)
            assert _contains_vector(q, vec) == inside, (label, vec)
            if not inside:
                with pytest.raises(MembershipError):
                    q.project(vec)
        # a map into a derived quotient checks its images with that quotient's solves
        assert InducedMap(q, q, IntMatrix.identity(n)).is_identity_on(q), label


def _fixes_every_generator(f, q):
    """The definition of the identity test: f fixes the class of every generator."""
    return all(f(q.project(v)) == q.project(v) for v in q.generator_vectors())


@given(st.data())
def test_is_identity_on_agrees_with_its_per_generator_definition(derived, data):
    label, q = data.draw(st.sampled_from(derived))
    exponent = q.group.exponent()
    scalars = st.integers(-3, 3) | st.just(1 + exponent if exponent is not INFINITE else 1)
    c = data.draw(scalars)
    f = InducedMap(q, q, IntMatrix.identity(q.ambient_rank).scaled(c))
    assert f.is_identity_on(q) == _fixes_every_generator(f, q), (label, c)


def test_a_quotient_built_from_outside_checks_its_basis_at_once():
    dependent = IntMatrix.from_rows([[1, 2], [1, 2]])
    with pytest.raises(ValueError):
        LatticeQuotient(2, dependent, IntMatrix.zeros(2, 0))


def test_a_derived_quotient_takes_its_basis_smith_form_on_first_solve():
    q = cokernel(IntMatrix.from_rows([[3, 0], [0, 0], [0, 5]]))  # Z/15 + Z on a 3-dim ambient
    for sub in (q.torsion(), InducedMap(q, q, IntMatrix.identity(3).scaled(3)).kernel()):
        assert "_basis_sf" not in vars(sub)
        assert _contains_vector(sub, sub.basis.column(0))
        assert "_basis_sf" in vars(sub)


# -- presentations that depend only on the lattices ---------------------------------


def _presentation(q):
    return (q.basis, q.relations, q.rel_in_basis, q.snf.s, q.snf.u, q.snf.u_inv, q.generator_vectors())


def _unimodular(n):
    """Upper unitriangular, so unimodular, and far from the identity."""
    rows = (tuple(int(i == j) + (i < j) * (j - i + 1) * (-1) ** j for j in range(n)) for i in range(n))
    return IntMatrix(n, n, tuple(rows))


def _other_generating_sets(rel):
    """Other column sets spanning the lattice rel's columns span."""
    return (rel @ _unimodular(rel.cols), hstack([rel, rel]), hstack([rel.scaled(-1), IntMatrix.zeros(rel.rows, 1)]))


def test_kernels_do_not_depend_on_the_generators_of_either_relation_lattice(corpus):
    cases = []
    for name, data in (("klein", klein_data()), ("quarter", quarter_turn_data())):
        res = sha1_S(data)
        pm = build_place_module(data)
        big = permutation_module(pm.action, data.module)
        every = hstack([m - IntMatrix.identity(big.rank) for m in map(big.act, data.theta.elements())], rows=big.rank)
        cases.append((name, res.domain, pm.basis, every))
    for name, mname, module in _corpus_modules(corpus):
        if module.rank <= 8:
            co = coinvariants(module)
            cases.append((f"{name}/{mname}", co, IntMatrix.identity(module.rank).scaled(2), co.relations))
    for label, source, matrix, rel in cases:
        ref = InducedMap(source, cokernel(rel), matrix).kernel()
        for other in _other_generating_sets(rel):
            assert _presentation(InducedMap(source, cokernel(other), matrix).kernel()) == _presentation(ref), label
        if source.basis == IntMatrix.identity(source.ambient_rank):
            # and on the source side: other generators of its relation lattice
            for other in _other_generating_sets(source.relations):
                kernel = InducedMap(cokernel(other), cokernel(rel), matrix).kernel()
                assert _presentation(kernel) == _presentation(ref), label


def _small_matrix(data, rows, cols):
    entry = st.integers(-4, 4)
    return IntMatrix(rows, cols, tuple(tuple(data.draw(entry) for _ in range(cols)) for _ in range(rows)))


@given(st.data())
def test_kernel_lattice_equals_the_ambient_block_route(data):
    # the kernel in the target's class coordinates against the lattice of the
    # top rows of ker [M P_src | R_tgt], solved in the ambient space
    s, t = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    m = _small_matrix(data, t, s)
    r_src = _small_matrix(data, s, data.draw(st.integers(0, s + 1)))
    r_tgt = hstack([m @ r_src, _small_matrix(data, t, data.draw(st.integers(0, t)))])
    source = cokernel(r_src)
    if data.draw(st.booleans()):
        source = source.torsion()
    target = cokernel(r_tgt)
    if data.draw(st.booleans()):  # a target basis other than the identity
        gens = hstack([m, r_tgt, _small_matrix(data, t, 1)])
        target = LatticeQuotient(t, hnf_basis(gens), r_tgt)
    ker = InducedMap(source, target, m).kernel()
    l = source.basis.cols
    block = kernel_basis(hstack([m @ source.basis, r_tgt]))
    old = source.basis @ IntMatrix(l, block.cols, block.entries[:l])
    assert solve_matrix(ker.basis, old) is not None and solve_matrix(old, ker.basis) is not None
    assert ker.basis.cols == smith_normal_form(old, cols=False).rank
    assert ker.basis @ ker.rel_in_basis == ker.relations
    assert solve_matrix(ker.relations, source.relations) is not None
    assert solve_matrix(source.relations, ker.relations) is not None


def test_kernel_solves_only_the_targets_torsion_and_free_rows(monkeypatch):
    abgroup = importlib.import_module("tatekit.abgroup")
    shapes = []
    real = abgroup.kernel_basis

    def spy(a, rows=None):
        shapes.append((a.rows, a.cols, rows))
        return real(a, rows)

    for data in (klein_data(), quarter_turn_data()):
        monkeypatch.setattr(abgroup, "kernel_basis", spy)
        res = sha1_S(data)
        monkeypatch.undo()
        target = coinvariants(permutation_module(build_place_module(data).action, data.module)).group
        ntor, l = len(target.invariant_factors), res.domain.basis.cols
        assert shapes.pop() == (ntor + target.free_rank, l + ntor, l)
        assert not shapes
