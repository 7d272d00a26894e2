"""Finite groups, subgroups, integral representations, and transfer."""

import importlib
import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from tatekit.abgroup import cokernel
from tatekit.errors import SubgroupMismatchError
from tatekit.gmodule import (
    _cayley_walk,
    _multiply_out,
    augmentation_kernel_module,
    coinvariants,
    coset_action,
    cyclic,
    degree_zero_map,
    degree_zero_submodule,
    direct_sum_modules,
    disjoint_union_action,
    dihedral,
    direct_product,
    finite_group,
    from_permutations,
    full_subgroup,
    generated_subgroup,
    invariants,
    klein_four,
    module_from_generators,
    norm_induced_map,
    norm_matrix,
    permutation_module,
    pullback_module,
    quaternion,
    quotient_group,
    restrict_module,
    subgroup,
    tate_h0,
    tate_h_minus1,
    transfer,
    transfer_matrix,
    trivial_module,
    PermAction,
    Subgroup,
)
from tatekit.matrices import (
    IntMatrix,
    block_diagonal,
    hnf_basis,
    kernel_basis,
    smith_normal_form,
    solve_matrix_strict,
)
from tatekit.tower import enumerate_subgroups

from test_matrices import hstack, vstack


def _is_abelian(g):
    """Whether the multiplication table of g is symmetric."""
    return all(g.table[a][b] == g.table[b][a] for a in range(g.order) for b in range(a + 1, g.order))


# -- group construction ----------------------------------------------------


def test_finite_group_rejects_bad_tables():
    with pytest.raises(ValueError):
        finite_group([[0, 1], [1]])  # ragged
    with pytest.raises(ValueError):
        finite_group([[0, 1], [1, 2]])  # entry out of range
    with pytest.raises(ValueError):
        finite_group([[1, 1], [1, 1]])  # no identity
    with pytest.raises(ValueError):
        # identity at 0 but rows 1 and 2 never reach it
        finite_group([[0, 1, 2], [1, 1, 1], [2, 2, 2]])


def test_cyclic_structure():
    g = cyclic(6)
    assert g.order == 6
    assert _is_abelian(g)
    assert g.exponent() == 6
    assert sorted(g.element_order(x) for x in g.elements()) == [1, 2, 3, 3, 6, 6]


def test_dihedral_and_quaternion_structure():
    s3 = dihedral(3)
    assert s3.order == 6 and not _is_abelian(s3)
    assert sum(1 for x in s3.elements() if s3.element_order(x) == 2) == 3

    q8 = quaternion()
    assert q8.order == 8 and not _is_abelian(q8)
    # the defining property used downstream: a unique involution
    assert sum(1 for x in q8.elements() if q8.element_order(x) == 2) == 1
    assert q8.exponent() == 4


def test_from_permutations_closes_generators():
    g, perms = from_permutations([(1, 0, 2), (0, 2, 1)])
    assert g.order == 6
    assert not _is_abelian(g)
    assert len(perms) == 6
    assert perms[g.identity] == (0, 1, 2)
    # breadth-first order: element indices, and so reports, are pinned
    assert perms == [(0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    assert g.table[1] == (1, 0, 3, 2, 5, 4)


def test_permutation_groups_equal_their_validated_tables():
    # the table is built, not validated; finite_group's checks are the oracle
    s4 = [(1, 2, 3, 0), (1, 0, 2, 3)]
    s5 = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]
    for gens, order in ((s4, 24), (s5, 120)):
        g, perms = from_permutations(gens)
        assert g.order == len(perms) == order
        assert g == finite_group(g.table)
        for a, b in itertools.product(g.elements(), repeat=2):
            assert perms[g.mul(a, b)] == tuple(perms[a][x] for x in perms[b])


@pytest.mark.parametrize(
    "perms, says",
    [
        ([(0, 5, 1)], "map range(3) onto itself"),
        ([(0, 0, 1)], "map range(3) onto itself"),
        ([(0, -1, 1)], "map range(3) onto itself"),
        ([(1, 0), (0, 2, 1)], "same degree"),
        ([], "at least one"),
    ],
)
def test_from_permutations_rejects_what_is_not_a_permutation(perms, says):
    with pytest.raises(ValueError, match=re.escape(says)):
        from_permutations(perms)


def test_cayley_walk_meets_each_vertex_and_generator_once(corpus):
    for name, g in corpus.items():
        gens = g.generating_set()
        order, tree, others = _cayley_walk(g.identity, gens, g.mul)
        assert order[0] == g.identity and sorted(order) == list(g.elements()), name
        assert list(tree) == order[1:], name
        edges = [(a, i, b) for b, (a, i) in tree.items()] + others
        assert all(g.mul(a, gens[i]) == b for a, i, b in edges), name
        pairs = [(a, i) for a, i, _ in edges]
        assert sorted(pairs) == [(a, i) for a in g.elements() for i in range(len(gens))], name


def test_corpus_groups_satisfy_lagrange(corpus):
    for g in corpus.values():
        for x in g.elements():
            assert g.order % g.element_order(x) == 0


# -- subgroups and cosets --------------------------------------------------


def test_subgroup_requires_closure():
    g = cyclic(4)
    with pytest.raises(ValueError):
        subgroup(g, [1, 2])  # no identity
    with pytest.raises(ValueError):
        subgroup(g, [0, 1])  # 1+1=2 missing


def test_transversals_partition_the_group(corpus):
    for g in corpus.values():
        if g.order > 12:
            continue
        for x in g.elements():
            h = generated_subgroup(g, [x])
            left = [g.mul(r, m) for r in h.left_reps for m in h.members]
            right = [g.mul(m, r) for r in h.right_reps for m in h.members]
            assert sorted(left) == list(g.elements())
            assert sorted(right) == list(g.elements())
            for y in g.elements():
                r = h.left_coset_of(y)
                assert h.contains(g.mul(g.inv(r), y))


def test_subgroup_as_group_is_isomorphic_copy():
    g = dihedral(4)
    rot = generated_subgroup(g, [next(x for x in g.elements() if g.element_order(x) == 4)])
    inner, members = rot.as_group()
    assert inner.order == 4
    for a in inner.elements():
        for b in inner.elements():
            assert members[inner.mul(a, b)] == g.mul(members[a], members[b])


def test_quotient_of_klein_four_is_order_two():
    v4 = klein_four()
    h = generated_subgroup(v4, [1])
    q, proj = quotient_group(v4, h)
    assert q.order == 2
    assert all(proj[m] == q.identity for m in h.members)
    kernel = [x for x in v4.elements() if proj[x] == q.identity]
    assert sorted(kernel) == list(h.members)


def test_quotient_rejects_non_normal_subgroup():
    s3 = dihedral(3)
    refl = next(x for x in s3.elements() if s3.element_order(x) == 2)
    h = generated_subgroup(s3, [refl])
    assert not h.is_normal()
    with pytest.raises(ValueError):
        quotient_group(s3, h)


def test_is_normal_matches_the_coset_partition_oracle(corpus):
    seen = set()
    for name, g in corpus.items():
        for h in enumerate_subgroups(g):
            # H is normal exactly when its left cosets xH are its right cosets Hx
            left = {frozenset(g.table[x][m] for m in h.members) for x in g.elements()}
            right = {frozenset(g.table[m][x] for m in h.members) for x in g.elements()}
            normal = left == right
            assert h.is_normal() == normal, (name, h.members)
            seen.add(normal)
            for x in g.elements():
                # t lies in x H x^-1 exactly when x^-1 t x lies in H
                expected = {t for t in g.elements() if g.table[g.table[g.inverses[x]][t]][x] in h.members}
                assert g.conjugate(x, h.members) == expected, (name, h.members, x)
    assert seen == {True, False}


def _coset_by_search(h, x):
    """The first stored left representative r with x in r * H, found by
    scanning them: the oracle for the coset index."""
    p = h.parent
    return next(r for r in h.left_reps if h.contains(p.mul(p.inv(r), x)))


def test_coset_index_agrees_with_the_representative_search(corpus):
    s4, _ = from_permutations([(1, 2, 3, 0), (1, 0, 2, 3)])
    seen_normal = set()
    for name, g in {**corpus, "S4": s4}.items():
        for h in enumerate_subgroups(g):
            reps = h.left_reps
            pos = {r: i for i, r in enumerate(reps)}
            search = [_coset_by_search(h, x) for x in g.elements()]
            assert [h.left_coset_of(x) for x in g.elements()] == search, (name, h.members)
            images = tuple(tuple(pos[search[g.mul(x, r)]] for r in reps) for x in g.elements())
            assert coset_action(g, h).images == images, (name, h.members)
            normal = h.is_normal()
            seen_normal.add(normal)
            if normal:
                q, proj = quotient_group(g, h)
                assert proj == tuple(pos[r] for r in search), (name, h.members)
                assert q.table == tuple(tuple(proj[g.mul(a, b)] for b in reps) for a in reps), (name, h.members)
    assert seen_normal == {True, False}


def test_coset_index_keeps_the_first_representative_and_needs_every_coset():
    g = dihedral(3)
    h = generated_subgroup(g, [next(x for x in g.elements() if g.element_order(x) == 2)])
    every = Subgroup(g, h.members, tuple(g.elements()), h.right_reps)
    assert [every.left_coset_of(x) for x in g.elements()] == [_coset_by_search(every, x) for x in g.elements()]
    short = Subgroup(g, h.members, h.left_reps[:-1], h.right_reps)
    with pytest.raises(ValueError, match="coset representative not found"):
        short.left_coset_of(g.identity)


# -- permutation actions ---------------------------------------------------


def test_perm_action_validation():
    z2 = cyclic(2)
    PermAction(z2, 2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        PermAction(z2, 2, ((1, 0), (0, 1)))  # identity must fix points
    with pytest.raises(ValueError):
        PermAction(z2, 2, ((0, 1), (0, 0)))  # not a bijection
    z4 = cyclic(4)
    with pytest.raises(ValueError):
        # squaring the swap should give the identity, table says otherwise
        PermAction(z4, 2, ((0, 1), (1, 0), (1, 0), (0, 1)))


def test_coset_action_is_transitive(corpus):
    g = corpus["D4"]
    for x in g.elements():
        h = generated_subgroup(g, [x])
        act = coset_action(g, h)
        assert act.degree == h.index
        assert {act.act(y, 0) for y in g.elements()} == set(range(act.degree))


def test_degree_zero_action_intertwines_with_basis(corpus):
    for name, g in corpus.items():
        coeffs = [trivial_module(g, 1)]
        if g.order <= 8:
            coeffs.append(augmentation_kernel_module(g))
        gens = g.generating_set()
        subs = [subgroup(g, [g.identity]), generated_subgroup(g, gens[:1])]
        action = disjoint_union_action([coset_action(g, h) for h in subs])
        for coeff in coeffs:
            sub, basis = degree_zero_submodule(action, coeff)
            big = permutation_module(action, coeff)
            assert basis.cols == sub.rank == (action.degree - 1) * coeff.rank
            for e in g.elements():
                assert basis @ sub.act(e) == big.act(e) @ basis, (name, e)


def test_degree_zero_submodule_of_one_point_or_rank_zero_coefficients(corpus):
    for name in ("Z1", "Z2", "V4", "S3"):
        g = corpus[name]
        one_point = coset_action(g, full_subgroup(g))
        regular = coset_action(g, subgroup(g, [g.identity]))
        cases = [
            (one_point, trivial_module(g, 2)),
            (one_point, trivial_module(g, 0)),
            (regular, trivial_module(g, 0)),
            (disjoint_union_action([one_point, regular]), trivial_module(g, 0)),
        ]
        for action, coeff in cases:
            sub, basis = degree_zero_submodule(action, coeff)
            big = permutation_module(action, coeff)
            assert sub.rank == basis.cols == (action.degree - 1) * coeff.rank == 0
            assert basis.rows == big.rank == action.degree * coeff.rank
            assert all(m == IntMatrix.zeros(0, 0) for m in map(sub.act, g.elements()))
            assert all((m.rows, m.cols) == (big.rank, big.rank) for m in map(big.act, g.elements()))
            for e in g.elements():
                assert basis @ sub.act(e) == big.act(e) @ basis, (name, e)


def _degree_zero_map_by_solve(images, target_degree, block):
    """The reference route: the block transport on M[S], solved on the bases."""
    r = block.rows

    def basis(degree):
        one = cyclic(1)
        points = PermAction(one, degree, (tuple(range(degree)),))
        return degree_zero_submodule(points, trivial_module(one, r))[1]

    source_basis, target_basis = basis(len(images)), basis(target_degree)
    data = [[0] * (len(images) * r) for _ in range(target_degree * r)]
    for w, p in enumerate(images):
        for j in range(r):
            data[p * r + j][w * r : (w + 1) * r] = block.entries[j]
    transport = IntMatrix(target_degree * r, len(images) * r, tuple(map(tuple, data)))
    return solve_matrix_strict(target_basis, transport @ source_basis)


def test_degree_zero_map_equals_the_solved_transport():
    rng = random.Random(20240605)
    cases = [
        ([], 0, 2),  # zero points on both sides
        ([], 3, 2),  # zero-point source
        ([0, 0, 0], 1, 2),  # one-point target
        ([1, 0, 1], 2, 1),  # images[0] == images[last]
        ([2, 0, 1], 3, 0),  # rank zero
    ]
    for _ in range(3000):
        source, target = rng.randint(1, 6), rng.randint(1, 6)
        cases.append(([rng.randrange(target) for _ in range(source)], target, rng.randint(0, 3)))
    seen = set()
    for images, target, r in cases:
        blocks = [IntMatrix.identity(r)]
        blocks.append(IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]))
        if r == 0:
            blocks = [IntMatrix.zeros(0, 0)]
        for block in blocks:
            expected = _degree_zero_map_by_solve(images, target, block)
            assert degree_zero_map(images, target, block) == expected, (images, target, block)
        if len(set(images)) < len(images):
            seen.add("not injective")
        if len(images) > 1 and images[0] == images[-1]:
            seen.add("first and last collide")
        if target == 1:
            seen.add("one-point target")
    assert seen == {"not injective", "first and last collide", "one-point target"}


# -- module construction ---------------------------------------------------


def test_gmodule_check_rejects_bad_actions():
    # every element's matrix is listed, so each one is also a generator
    z2 = cyclic(2)
    eye = IntMatrix.identity(1)
    with pytest.raises(ValueError):
        module_from_generators(z2, 1, dict(enumerate([eye, IntMatrix.from_rows([[2]])])))  # not unimodular
    z4 = cyclic(4)
    minus = IntMatrix.from_rows([[-1]])
    with pytest.raises(ValueError):
        # 1 acts trivially but 2 does not: no homomorphism does that
        module_from_generators(z4, 1, dict(enumerate([eye, eye, minus, eye])))


def test_module_from_generators_completion_and_errors():
    z4 = cyclic(4)
    rot = IntMatrix.from_rows([[0, -1], [1, 0]])
    m = module_from_generators(z4, 2, {1: rot})
    assert m.act(2) == rot @ rot
    assert m.act(3) == rot @ rot @ rot
    with pytest.raises(ValueError):
        module_from_generators(cyclic(2), 1, {1: IntMatrix.from_rows([[2]])})
    with pytest.raises(ValueError):
        module_from_generators(z4, 1, {2: IntMatrix.identity(1)})
    with pytest.raises(ValueError, match="inconsistent with the group law"):
        module_from_generators(z4, 2, {1: rot, 3: rot})
    # the tree edges define the matrices, so only the other edges can disagree
    _, tree, _ = _cayley_walk(z4.identity, (1, 3), z4.mul)
    action, others = _multiply_out(z4, (1, 3), (rot, rot), 2)
    assert all(action[b] == action[a] @ rot for b, (a, _) in tree.items())
    assert any(action[b] != action[a] @ rot for a, _, b in others)
    with pytest.raises(ValueError, match="inconsistent generator assignment"):
        module_from_generators(z4, 2, {0: rot, 1: rot})
    # a matrix given for the identity element is tested by its rows
    assert module_from_generators(z4, 2, {0: IntMatrix.identity(2), 1: rot}) == module_from_generators(z4, 2, {1: rot})
    assert module_from_generators(z4, 0, {0: IntMatrix.identity(0), 1: IntMatrix.identity(0)}).rank == 0
    for wrong in ([[1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1, 0], [0, 2]], [[0, 0], [0, 0]]):
        with pytest.raises(ValueError, match="inconsistent generator assignment"):
            module_from_generators(z4, 2, {0: IntMatrix.from_rows(wrong), 1: rot})


def test_restrict_module_rejects_foreign_subgroup():
    z4 = cyclic(4)
    m = trivial_module(z4, 1)
    alien = generated_subgroup(klein_four(), [1])
    with pytest.raises(SubgroupMismatchError):
        restrict_module(m, alien)


def test_pullback_through_quotient_projection():
    z4 = cyclic(4)
    q, proj = quotient_group(z4, generated_subgroup(z4, [2]))
    sign = module_from_generators(q, 1, {1: IntMatrix.from_rows([[-1]])})
    lifted = pullback_module(sign, z4, proj)
    assert lifted.act(1) == IntMatrix.from_rows([[-1]])
    assert lifted.act(2) == IntMatrix.identity(1)


def _regular_representation(g, h):
    """The permutation matrix of h on Z[G], e_x -> e_(hx)."""
    return IntMatrix.from_rows([[int(y == g.mul(h, x)) for x in g.elements()] for y in g.elements()])


def test_every_builder_acts_by_its_definition_on_every_element(corpus):
    # each builder stores its generators' matrices only; every other
    # element's matrix is their product, which must match the definition
    for name, g in corpus.items():
        aug = augmentation_kernel_module(g)
        triv = trivial_module(g, 2)
        # e_x - e_1 for x != 1, as columns of Z[G]
        others = [x for x in g.elements() if x != g.identity]
        embed = IntMatrix.from_rows(
            [[int(y == x) - int(y == g.identity) for x in others] for y in g.elements()]
        )
        total = direct_sum_modules([aug, triv])
        for e in g.elements():
            assert embed @ aug.act(e) == _regular_representation(g, e) @ embed, (name, e)
            assert triv.act(e) == IntMatrix.identity(2), (name, e)
            assert total.act(e) == block_diagonal([aug.act(e), triv.act(e)]), (name, e)
        for x in g.elements():
            sub = generated_subgroup(g, [x])
            inner, members = sub.as_group()
            res = restrict_module(aug, sub)
            assert all(res.act(i) == aug.act(members[i]) for i in inner.elements()), (name, x)
        # the tower's effective group Theta x Z/e acts through its first factor
        e = 3
        geff = direct_product(g, cyclic(e))
        hom = tuple(y // e for y in geff.elements())
        pulled = pullback_module(aug, geff, hom)
        assert all(pulled.act(y) == aug.act(hom[y]) for y in geff.elements()), name


# -- coinvariants, invariants, Tate groups ---------------------------------


def quarter_turn():
    return module_from_generators(
        cyclic(4), 2, {1: IntMatrix.from_rows([[0, -1], [1, 0]])}
    )


def test_quarter_turn_coinvariants_and_norm():
    m = quarter_turn()
    assert coinvariants(m).group.invariant_factors == (2,)
    assert coinvariants(m).group.free_rank == 0
    assert invariants(m).cols == 0
    assert norm_matrix(m) == IntMatrix.zeros(2, 2)
    assert tate_h_minus1(m).group.invariant_factors == (2,)


def test_trivial_module_tate_groups():
    for n in (2, 3, 6):
        m = trivial_module(cyclic(n), 1)
        assert tate_h0(m).group.invariant_factors == (n,)
        assert tate_h_minus1(m).group.is_trivial


def test_augmentation_kernel_of_cyclic_group():
    z4 = cyclic(4)
    m = augmentation_kernel_module(z4)
    assert m.rank == 3
    assert tate_h_minus1(m).group.invariant_factors == (4,)


def test_regular_module_is_cohomologically_trivial(corpus):
    for g in corpus.values():
        if g.order > 8:
            continue
        act = coset_action(g, subgroup(g, [g.identity]))
        m = permutation_module(act, trivial_module(g, 1))
        c = coinvariants(m)
        assert c.group.free_rank == 1 and not c.group.invariant_factors
        assert tate_h_minus1(m).group.is_trivial
        assert tate_h0(m).group.is_trivial


@given(st.data())
def test_order_annihilates_h_minus1(corpus, data):
    name = data.draw(st.sampled_from(sorted(corpus)))
    g = corpus[name]
    gen = data.draw(st.sampled_from(list(g.elements())))
    act = coset_action(g, generated_subgroup(g, [gen]))
    m = permutation_module(act, trivial_module(g, 1))
    hm = tate_h_minus1(m)
    for vec in hm.generator_vectors():
        assert (g.order * hm.project(vec)).is_zero()


# -- transfer --------------------------------------------------------------


def test_quarter_turn_transfer_golden():
    m = quarter_turn()
    half = generated_subgroup(m.group, [2])
    src = coinvariants(m)
    target = coinvariants(restrict_module(m, half))
    assert target.group.invariant_factors == (2, 2)

    x = src.project((1, 0))
    assert not x.is_zero()
    t = transfer(m, half, x)
    assert t == target.project((1, 1))
    assert not t.is_zero()


def test_transfer_is_transversal_independent():
    m = quarter_turn()
    half = generated_subgroup(m.group, [2])
    src = coinvariants(m)
    target = coinvariants(restrict_module(m, half))
    x = src.project((1, 0))
    # {0, 3} is another right transversal of the subgroup {0, 2}
    assert half.right_reps != (0, 3)
    other = (m.act(0) + m.act(3)).mul_vec(src.lift(x))
    assert transfer(m, half, x) == target.project(other)


def test_transfer_to_full_subgroup_is_norm():
    m = quarter_turn()
    whole = subgroup(m.group, list(m.group.elements()))
    assert transfer_matrix(m, whole) == m.act(m.group.identity)


def test_transfer_rejects_foreign_subgroup():
    m = quarter_turn()
    alien = generated_subgroup(klein_four(), [1])
    with pytest.raises(SubgroupMismatchError):
        transfer_matrix(m, alien)


def test_coinvariants_over_generators_equal_those_over_every_element(corpus):
    # (gs - 1) m = (g - 1)(s m) + (s - 1) m, so both relation sets span one
    # lattice, and its Hermite normal form makes the presentations equal too
    for name, g in corpus.items():
        aug = augmentation_kernel_module(g)
        for module in (trivial_module(g, 2), aug, direct_sum_modules([aug, trivial_module(g, 1)])):
            r = module.rank
            every = hstack([module.act(e) - IntMatrix.identity(r) for e in g.elements()], rows=r)
            # listing every element's matrix presents the same module
            listed = module_from_generators(g, r, {e: module.act(e) for e in g.elements()})
            assert listed == module and hash(listed) == hash(module), (name, r)
            q, ref = coinvariants(module), cokernel(hnf_basis(every))
            assert (q.basis, q.relations, q.snf.s, q.snf.u, q.snf.u_inv) == (
                ref.basis, ref.relations, ref.snf.s, ref.snf.u, ref.snf.u_inv
            ), (name, r)
            assert q.generator_vectors() == ref.generator_vectors(), (name, r)
            assert q.group == cokernel(every).group, (name, r)


def _edge_modules(corpus):
    """Corpus modules, and the edge shapes: rank 0, degree-zero submodules of
    actions of degree 0, 1 and more, and the trivial group, which has no
    generators."""
    for name, g in corpus.items():
        if g.order > 8:
            continue
        aug = augmentation_kernel_module(g)
        yield name, "triv0", trivial_module(g, 0)
        yield name, "triv2", trivial_module(g, 2)
        yield name, "aug", aug
        yield name, "aug+triv1", direct_sum_modules([aug, trivial_module(g, 1)])
        actions = {
            "deg0": PermAction(g, 0, tuple(() for _ in g.elements())),
            "deg1": coset_action(g, full_subgroup(g)),
            "deg2": disjoint_union_action([coset_action(g, full_subgroup(g))] * 2),
            "cosets": coset_action(g, generated_subgroup(g, g.generating_set()[:1])),
        }
        for aname, action in actions.items():
            for cname, coeff in (("triv1", trivial_module(g, 1)), ("aug", aug)):
                yield name, f"{aname}/{cname}", degree_zero_submodule(action, coeff)[0]


def _degree_zero_basis_by_columns(degree, r):
    """The degree-zero basis built column by column, e_(w,i) - e_(last,i)."""
    cols = []
    for w in range(degree - 1):
        for i in range(r):
            col = [0] * (degree * r)
            col[w * r + i] = 1
            col[(degree - 1) * r + i] = -1
            cols.append(col)
    return IntMatrix(degree * r, len(cols), tuple(tuple(c[t] for c in cols) for t in range(degree * r)))


def test_relation_matrices_written_from_the_generators_equal_the_dense_ones(corpus):
    shapes = set()
    for name, mname, module in _edge_modules(corpus):
        r = module.rank
        shapes.add((r == 0, len(module.gens) == 0))
        moves = [m - IntMatrix.identity(r) for m in module.gens]
        assert coinvariants(module).relations == hnf_basis(hstack(moves, rows=r)), (name, mname)
        assert invariants(module) == kernel_basis(vstack(moves, cols=r)), (name, mname)
    assert shapes == {(False, False), (True, False), (False, True), (True, True)}


def test_degree_zero_basis_equals_the_column_built_basis(corpus):
    for name in ("Z1", "Z2", "S3"):
        g = corpus[name]
        for degree in range(5):
            action = PermAction(g, degree, tuple(tuple(range(degree)) for _ in g.elements()))
            for r in range(4):
                basis = degree_zero_submodule(action, trivial_module(g, r))[1]
                assert basis == _degree_zero_basis_by_columns(degree, r), (name, degree, r)


def test_invariants_and_tate_h0_are_presented_by_hermite_normal_forms(corpus):
    # M^G and N(M) are presented by their Hermite normal forms, so tate_h0
    # depends only on the two lattices
    for name, g in corpus.items():
        aug = augmentation_kernel_module(g)
        for module in (trivial_module(g, 2), aug, direct_sum_modules([aug, trivial_module(g, 1)])):
            r = module.rank
            moves = [module.act(e) - IntMatrix.identity(r) for e in g.generating_set()]
            fixed = invariants(module)
            assert hnf_basis(fixed) == fixed, (name, r)
            assert all((m @ fixed).is_zero() for m in moves), (name, r)
            assert fixed.cols == r - smith_normal_form(vstack(moves, cols=r), cols=False).rank, (name, r)
            rel = tate_h0(module).relations
            assert hnf_basis(rel) == rel, (name, r)


def test_tate_h0_reuses_the_invariants_tate_h_minus1_computed(monkeypatch):
    gmodule = importlib.import_module("tatekit.gmodule")
    shapes = []
    real = gmodule.kernel_basis

    def spy(a, rows=None):
        shapes.append((a.rows, a.cols))
        return real(a, rows)

    module = augmentation_kernel_module(klein_four())
    for cached in (norm_induced_map, tate_h_minus1):
        cached.cache_clear()
    monkeypatch.setattr(gmodule, "kernel_basis", spy)
    tate_h_minus1(module)
    tate_h0(module)
    assert shapes == [(6, 3)]  # M^G of a rank-3 module under two generators, once
