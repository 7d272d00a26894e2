"""Localization kernels, the global-class obstruction, and the collapse map."""

import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

from tatekit import cli, gmodule, serial, sha
from tatekit.abgroup import InducedMap, cokernel
from tatekit.errors import CoordinateLengthError, DomainError, HypothesisFailError, TooLargeError, UnknownPlaceError
from tatekit.gmodule import (
    augmentation_kernel_module,
    coinvariants,
    coset_action,
    cyclic,
    dihedral,
    full_subgroup,
    generated_subgroup,
    klein_four,
    module_from_generators,
    permutation_module,
    pullback_module,
    quotient_group,
    restrict_module,
    subgroup,
    torsion_coinvariants,
    trivial_module,
)
from tatekit.matrices import IntMatrix, block_diagonal, hnf_basis
from tatekit.sha import (
    GlobalData,
    PlaceDatum,
    build_place_module,
    lemma_pushforward,
    local_torsion_quotient,
    pushforward_counter_instance,
    sha1_S,
    sha1_shapiro,
    tate_obstruction,
)

from test_matrices import vstack


def klein_data() -> GlobalData:
    """The biquadratic norm-one configuration: three ramified-looking places."""
    v4 = klein_four()
    module = augmentation_kernel_module(v4)
    places = tuple(
        PlaceDatum(f"v{g}", generated_subgroup(v4, [g])) for g in (1, 2, 3)
    )
    return GlobalData(v4, module, places)


def quarter_turn_data() -> GlobalData:
    g = cyclic(4)
    rot = IntMatrix.from_rows([[0, -1], [1, 0]])
    module = module_from_generators(g, 2, {1: rot})
    places = (PlaceDatum("v", full_subgroup(g)), PlaceDatum("u", full_subgroup(g)))
    return GlobalData(g, module, places)


# -- place modules -----------------------------------------------------------


def test_place_module_geometry():
    data = klein_data()
    pm = build_place_module(data)
    assert len(pm.points) == 6  # three fibers of two points
    assert [f.degree for f in pm.fibers] == [2, 2, 2]
    assert permutation_module(pm.action, data.module).rank == 6 * 3
    assert pm.sub.rank == 5 * 3
    for lab in ("v1", "v2", "v3"):
        assert len(pm.fiber(lab)) == 2


def _small_scenarios(corpus):
    """Groups of order <= 8 with the augmentation kernel or a trivial rank-1
    module, and one or two places with trivial, cyclic or full decomposition."""
    for g in (g for g in corpus.values() if g.order <= 8):
        subs = (subgroup(g, [g.identity]), generated_subgroup(g, g.generating_set()[:1]), full_subgroup(g))
        for module in (augmentation_kernel_module(g), trivial_module(g, 1)):
            for n in (1, 2):
                for decs in itertools.combinations_with_replacement(subs, n):
                    places = tuple(PlaceDatum(f"v{i}", d) for i, d in enumerate(decs))
                    yield GlobalData(g, module, places)


def test_sha1_kernels_equal_the_kernels_into_the_whole_direct_sums(corpus):
    # each form takes the classes that every place's map kills; that must be
    # the kernel of one map into the coinvariants of the dense M[S], and into
    # the direct sum of the local coinvariants
    for data in _small_scenarios(corpus):
        pm = build_place_module(data)
        domain = coinvariants(pm.sub).torsion_on_generators()
        whole = coinvariants(permutation_module(pm.action, data.module))
        local = [coinvariants(restrict_module(data.module, p.decomposition)) for p in data.places]
        shapiro = cokernel(block_diagonal([q.relations for q in local]))
        stacked = vstack([sha._shapiro_matrix(pm, p.label) for p in data.places], cols=pm.sub.rank)
        for got, ker in (
            (sha1_S(data).kernel, InducedMap(domain, whole, pm.basis).kernel()),
            (sha1_shapiro(data).kernel, InducedMap(domain, shapiro, stacked).kernel()),
        ):
            assert (got.basis, got.relations) == (ker.basis, ker.relations), data


def test_sha1_kernels_over_the_saturation_domain_are_the_same(corpus, monkeypatch):
    # the saturation basis of torsion() stays a reference route: the kernel
    # of each form has the same group and generators over either domain
    scenarios = list(_small_scenarios(corpus))
    for form in (sha1_S, sha1_shapiro):
        reduced = [form(data) for data in scenarios]
        with monkeypatch.context() as m:
            m.setattr(sha, "_sha_domain", torsion_coinvariants)
            full = [form(data) for data in scenarios]
        for data, a, b in zip(scenarios, reduced, full):
            assert b.domain is torsion_coinvariants(build_place_module(data).sub)
            assert (a.group_invariants, a.generators) == (b.group_invariants, b.generators), data


def test_sha1_domain_is_the_torsion_coinvariant_group(corpus):
    for data in itertools.chain([klein_data(), quarter_turn_data()], _small_scenarios(corpus)):
        pm = build_place_module(data)
        group = torsion_coinvariants(pm.sub).group
        assert sha1_S(data).domain.group == sha1_shapiro(data).domain.group == group, data


def test_sha1_domain_has_one_generator_per_invariant_factor(corpus):
    data = klein_data()
    pm = build_place_module(data)
    domain = sha1_S(data).domain
    assert pm.sub.rank == 15 and torsion_coinvariants(pm.sub).basis.cols == 12
    assert domain.group.invariant_factors == (4,) and domain.basis.cols == 1
    assert sha1_shapiro(data).domain is domain
    for data in _small_scenarios(corpus):
        domain = sha1_S(data).domain
        assert domain.basis.cols == len(domain.group.invariant_factors), data


def _sha1_payload(data: GlobalData) -> dict:
    theta, module = data.theta, data.module
    return {
        "scenario": {
            "theta": {"mul_table": [list(row) for row in theta.table]},
            "module": {
                "rank": module.rank,
                "generators": [
                    {"element_index": g, "matrix": [list(row) for row in module.act(g).entries]}
                    for g in theta.elements()
                ],
            },
            "places": [
                {"label": p.label, "decomposition_members": list(p.decomposition.members)} for p in data.places
            ],
        }
    }


# sha256 of the 252 canonical sha1 results below, one line each, as emitted
# since the op reads group homology and the cone of corestriction instead of
# M[S]_0 (54 results moved then, in their generators only: the same kernels,
# generated by delta and Phi images); a change to any generator, sign or
# order shows here
SHA1_RESULTS_DIGEST = "8e036912579b93e69cb4a3c97de3e5b4a4e5e870b61ffc3dd809c9b173a4d5a9"


def test_sha1_report_bytes_are_pinned(corpus):
    digest = hashlib.sha256()
    count = 0
    for data in _small_scenarios(corpus):
        result = cli.run_job(cli.Job("sha1", _sha1_payload(data)))["result"]
        digest.update(serial.canonical_dumps(result).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == (252, SHA1_RESULTS_DIGEST)


# sha256 of the same 252 results with every ``generators`` list removed, as
# emitted at commit ed86f1e: Smith transforms are not unique, so a new pivot
# order may move lift representatives, but never an invariant, order or verdict
SHA1_INVARIANTS_DIGEST = "10f7ce8d3b815bacac4be634adc444a83d3fb481f099576fdac93d7e871337f5"


def _without_generators(x):
    if isinstance(x, dict):
        return {k: _without_generators(v) for k, v in x.items() if k != "generators"}
    if isinstance(x, list):
        return [_without_generators(v) for v in x]
    return x


def test_sha1_report_invariants_are_pinned(corpus):
    digest = hashlib.sha256()
    count = 0
    for data in _small_scenarios(corpus):
        result = cli.run_job(cli.Job("sha1", _sha1_payload(data)))["result"]
        digest.update(serial.canonical_dumps(_without_generators(result)).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == (252, SHA1_INVARIANTS_DIGEST)


def test_sha1_never_builds_the_whole_permutation_module(corpus, monkeypatch):
    degrees = []
    real = permutation_module

    def spy(action, coeff):
        degrees.append(action.degree)
        return real(action, coeff)

    g = corpus["D4"]
    two = GlobalData(
        g,
        augmentation_kernel_module(g),
        (PlaceDatum("one", subgroup(g, [g.identity])), PlaceDatum("gen", generated_subgroup(g, [1]))),
    )
    monkeypatch.setattr(sha, "permutation_module", spy)
    for data in (klein_data(), quarter_turn_data(), two):
        pm = build_place_module(data)
        sha1_S(data)
        assert degrees == [f.degree for f in pm.fibers] and max(degrees) < pm.action.degree
        degrees.clear()
        sha1_shapiro(data)
        assert not degrees


def test_a_trivial_domain_builds_no_target(corpus, monkeypatch):
    calls = []

    def spy(name):
        real = getattr(sha, name)

        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    g = corpus["Z3"]
    ladder_rung = GlobalData(  # the sha-ladder's Z3 rung, rank(M[S]_0) 10
        g,
        augmentation_kernel_module(g),
        (PlaceDatum("a", subgroup(g, [g.identity])), PlaceDatum("b", subgroup(g, [g.identity]))),
    )
    v4 = klein_four()
    no_places = GlobalData(v4, augmentation_kernel_module(v4), ())
    rank_zero = GlobalData(v4, trivial_module(v4, 0), (PlaceDatum("v", full_subgroup(v4)),))
    # the quarter turn has a trivial kernel but not a trivial domain, Z/2:
    # the targets are built there
    targets = ((sha1_S, {"coinvariants", "permutation_module"}), (sha1_shapiro, {"coinvariants", "_shapiro_matrix"}))
    for data, trivial in ((ladder_rung, True), (no_places, True), (rank_zero, True), (quarter_turn_data(), False)):
        domain = sha._sha_domain(build_place_module(data).sub)
        assert domain.group.is_trivial == trivial
        with monkeypatch.context() as m:
            for name in ("coinvariants", "permutation_module", "_shapiro_matrix"):
                m.setattr(sha, name, spy(name))
            for form, built in targets:
                res = form(data)
                assert res.group_invariants == () and res.domain is domain
                assert (res.kernel is domain) == trivial
                assert set(calls) == (set() if trivial else built), (data, form)
                calls.clear()


def test_trivial_decomposition_fiber_is_the_whole_group():
    v4 = klein_four()
    data = GlobalData(
        v4, augmentation_kernel_module(v4), (PlaceDatum("v", subgroup(v4, [0])),)
    )
    pm = build_place_module(data)
    assert len(pm.points) == 4
    assert pm.sub.rank == 3 * 3


def test_global_data_guards():
    v4 = klein_four()
    module = augmentation_kernel_module(v4)
    place = PlaceDatum("v", generated_subgroup(v4, [1]))
    with pytest.raises(DomainError):
        GlobalData(v4, module, (place, place))  # duplicate label
    with pytest.raises(DomainError):
        GlobalData(v4, trivial_module(cyclic(2), 1), (place,))
    with pytest.raises(DomainError):
        GlobalData(v4, module, (PlaceDatum("u", generated_subgroup(cyclic(4), [2])),))
    with pytest.raises(UnknownPlaceError):
        klein_data().place("nowhere")
    with pytest.raises(UnknownPlaceError):
        local_torsion_quotient(klein_data(), "nowhere")


# -- the two kernel descriptions ----------------------------------------------


def test_klein_kernel_golden_both_forms():
    data = klein_data()
    s_form = sha1_S(data)
    shapiro = sha1_shapiro(data)
    assert s_form.group_invariants == (2,)
    assert shapiro.group_invariants == (2,)
    assert s_form.order == shapiro.order == 2


def test_klein_kernel_matches_enumeration_oracle():
    # independent count: walk every torsion class of the degree-zero part and
    # test directly whether it dies under the inclusion into the full module
    data = klein_data()
    pm = build_place_module(data)
    domain = coinvariants(pm.sub).torsion()
    target = coinvariants(permutation_module(pm.action, data.module))
    dying = sum(
        1
        for x in domain.group.elements()
        if target.project(pm.basis.mul_vec(domain.lift(x))).is_zero()
    )
    assert dying == sha1_S(data).order


def _dying_classes(data, res):
    """The enumeration oracle of the Klein test, as a set: every torsion
    class of the degree-zero part that dies in the full module."""
    pm, domain = build_place_module(data), res.domain
    target = coinvariants(permutation_module(pm.action, pm.data.module))
    return {x for x in domain.group.elements() if target.project(pm.basis.mul_vec(domain.lift(x))).is_zero()}


@pytest.mark.parametrize("name", ["D4", "Z2^3", "Q8"])
def test_order_eight_rungs_agree_across_forms_and_with_enumeration(corpus, name):
    g = corpus[name]
    places = (
        PlaceDatum("one", subgroup(g, [g.identity])),
        PlaceDatum("gen", generated_subgroup(g, g.generating_set()[:1])),
    )
    data = GlobalData(g, augmentation_kernel_module(g), places)
    s_form, shapiro = sha1_S(data), sha1_shapiro(data)
    assert s_form.group_invariants == shapiro.group_invariants
    assert s_form.generators == shapiro.generators  # both kernels are presented by their lattices alone
    assert s_form.domain.group.size() <= 64
    dying = _dying_classes(data, s_form)
    assert len(dying) == s_form.order
    assert all(s_form.domain.project(v) in dying for v in s_form.generators)


def test_cyclic_configuration_has_trivial_kernel():
    data = quarter_turn_data()
    assert sha1_S(data).group_invariants == ()
    assert sha1_shapiro(data).group_invariants == ()


def test_no_places_means_no_kernel():
    v4 = klein_four()
    data = GlobalData(v4, augmentation_kernel_module(v4), ())
    assert sha1_S(data).order == 1
    assert sha1_shapiro(data).order == 1


def test_rank_zero_module_has_trivial_kernel_both_ways():
    for g in (cyclic(1), cyclic(2), klein_four(), dihedral(3)):
        places = (
            PlaceDatum("v", subgroup(g, [g.identity])),
            PlaceDatum("u", full_subgroup(g)),
        )
        data = GlobalData(g, trivial_module(g, 0), places)
        a, b = sha1_S(data), sha1_shapiro(data)
        assert a.group_invariants == b.group_invariants == ()
        assert a.order == b.order == 1
        assert a.generators == b.generators == ()
        assert a.domain.group.is_trivial and b.domain.group.is_trivial
        assert local_torsion_quotient(data, "v").group.is_trivial
        assert tate_obstruction(data, {"u": ()}).exists


@given(st.data())
def test_both_descriptions_agree(data):
    groups = {
        "Z2": cyclic(2),
        "Z4": cyclic(4),
        "V4": klein_four(),
        "S3": dihedral(3),
    }
    g = groups[data.draw(st.sampled_from(sorted(groups)))]
    if g.order <= 4 and data.draw(st.booleans()):
        module = augmentation_kernel_module(g)
    else:
        module = trivial_module(g, data.draw(st.integers(1, 2)))
    n_places = data.draw(st.integers(1, 3))
    places = tuple(
        PlaceDatum(
            f"p{i}",
            generated_subgroup(g, [data.draw(st.sampled_from(list(g.elements())))]),
        )
        for i in range(n_places)
    )
    gd = GlobalData(g, module, places)
    assert sha1_S(gd).group_invariants == sha1_shapiro(gd).group_invariants


# -- the two forms without M[S]: group homology and the cone ------------------


def _subgroup_of(quotient, vecs):
    """The subgroup of ``quotient``'s finite classes that vecs generate, as
    the Hermite normal form of their torsion coordinates beside diag(d): one
    lattice, so equal subgroups give equal matrices."""
    factors = quotient.group.invariant_factors
    t = len(factors)
    cols = [quotient.project(v).coords for v in vecs]
    assert all(not any(c[t:]) for c in cols)
    rows = tuple(tuple(c[i] for c in cols) + (0,) * i + (d,) + (0,) * (t - 1 - i) for i, d in enumerate(factors))
    return hnf_basis(IntMatrix(t, len(cols) + t, rows))


def assert_the_forms_without_place_modules_match(data: GlobalData):
    """``sha1_homology``, ``sha1_cone`` and ``sha1_forms`` against the dense
    forms: the same invariants, ``agree``, and delta and Phi generators
    that generate the same subgroup of (M[S]_0)_Theta as ``sha1_S``'s."""
    dense = sha1_S(data)
    want = dense.group_invariants
    assert sha1_shapiro(data).group_invariants == want, data
    inclusion, localization, agree = sha.sha1_forms(data)
    homology, cone = sha.sha1_homology(data), sha.sha1_cone(data)
    assert agree, data
    for res in (inclusion, localization, homology, cone):
        assert res.group_invariants == want, data
    assert (inclusion.generators, localization.generators) == (homology.generators, cone.generators), data
    whole = coinvariants(build_place_module(data).sub)
    ref = _subgroup_of(whole, dense.generators)
    for res in (homology, cone):
        assert all(len(v) == whole.ambient_rank for v in res.generators), data
        assert _subgroup_of(whole, res.generators) == ref, data


def test_the_forms_without_place_modules_match_the_dense_forms(corpus):
    scenarios = [klein_data(), quarter_turn_data(), *_small_scenarios(corpus)]
    for data in scenarios:
        assert_the_forms_without_place_modules_match(data)
    assert len(scenarios) == 254


def _one_and_a_cyclic_place(g):
    return GlobalData(
        g,
        augmentation_kernel_module(g),
        (PlaceDatum("one", subgroup(g, [g.identity])), PlaceDatum("gen", generated_subgroup(g, g.generating_set()[:1]))),
    )


def test_the_sha1_op_builds_no_place_module(corpus, monkeypatch):
    def refuse(*args):
        raise AssertionError("the sha1 op built M[S] or M[S]_0")

    scenarios = [klein_data(), _one_and_a_cyclic_place(corpus["Z4xZ4"])]
    want = [list(sha1_S(data).group_invariants) for data in scenarios]
    assert want == [[2], [4]]
    with monkeypatch.context() as m:
        for module in (sha, gmodule):
            for name in ("build_place_module", "permutation_module", "degree_zero_submodule"):
                if hasattr(module, name):
                    m.setattr(module, name, refuse)
        for data, factors in zip(scenarios, want):
            result = cli.run_job(cli.Job("sha1", _sha1_payload(data)))["result"]
            assert result["agree"] is True
            assert result["s_form"]["invariant_factors"] == result["shapiro_form"]["invariant_factors"] == list(map(str, factors))


def test_dropping_a_places_corestriction_breaks_the_agreement(monkeypatch):
    # V4 with places <g1> and V4: the full group's corestriction is onto, so
    # without it the homology form keeps all of H_1(V4, M) = Z/2
    v4 = klein_four()
    full = full_subgroup(v4)
    data = GlobalData(v4, augmentation_kernel_module(v4), (PlaceDatum("a", generated_subgroup(v4, [1])), PlaceDatum("b", full)))
    inclusion, localization, agree = sha.sha1_forms(data)
    assert agree and inclusion.group_invariants == localization.group_invariants == ()
    real = sha._corestriction

    def without_the_full_group(cx, sub):
        m = real(cx, sub)
        return m if sub != full else IntMatrix(m.rows, 0, ((),) * m.rows)

    monkeypatch.setattr(sha, "_corestriction", without_the_full_group)
    inclusion, localization, agree = sha.sha1_forms(data)
    assert (inclusion.group_invariants, localization.group_invariants, agree) == ((2,), (), False)


def test_the_agreement_compares_subgroups_not_only_invariants(corpus):
    # a doctored homology form with the right invariants whose generators
    # repeat its first one: it spans Z/2 of the kernel Z/2 x Z/2
    g = corpus["Z2^3"]
    data = GlobalData(g, trivial_module(g, 1), (PlaceDatum("v", generated_subgroup(g, [1])),))
    inclusion, localization, agree = sha.sha1_forms(data)
    assert agree and inclusion.group_invariants == (2, 2)
    cycles = inclusion.kernel.generator_vectors()

    class FirstCycleTwice:
        ambient_rank = inclusion.kernel.ambient_rank

        def generator_vectors(self):
            return [cycles[0]] * len(cycles)

    cx = sha._cayley_complex(data.module)
    domain = sha._cone_domain(data, cx)
    doctored = sha.ShaResult(inclusion.group_invariants, FirstCycleTwice(), None, ())
    assert sha._same_kernel(inclusion, localization, domain)
    assert not sha._same_kernel(doctored, localization, domain)


def test_forms_without_place_modules_on_degenerate_data():
    # M[S]_0 = 0: no place, a rank-0 module, one place with the whole group
    v4, one = klein_four(), cyclic(1)
    for data in (
        GlobalData(v4, augmentation_kernel_module(v4), ()),
        GlobalData(v4, trivial_module(v4, 0), (PlaceDatum("v", subgroup(v4, [0])), PlaceDatum("u", full_subgroup(v4)))),
        GlobalData(v4, augmentation_kernel_module(v4), (PlaceDatum("v", full_subgroup(v4)),)),
        GlobalData(one, trivial_module(one, 2), (PlaceDatum("v", full_subgroup(one)),)),
    ):
        inclusion, localization, agree = sha.sha1_forms(data)
        assert agree and inclusion.order == localization.order == 1
        assert inclusion.generators == localization.generators == ()
        assert sha.sha1_homology(data).order == sha.sha1_cone(data).order == 1
    three = GlobalData(one, trivial_module(one, 2), tuple(PlaceDatum(f"v{i}", full_subgroup(one)) for i in range(3)))
    assert_the_forms_without_place_modules_match(three)  # no generator, a free cone domain


def test_every_cone_route_refuses_a_cone_past_the_budget(monkeypatch):
    # Z2, a trivial rank-200 module and two places: the cone has rank
    # 200 * (2 - 1 + 1) = 400, and no route builds its Cayley complex
    def refuse(module):
        raise AssertionError("the Cayley complex of an over-budget cone was built")

    monkeypatch.setattr(sha, "_cayley_complex", refuse)
    z2 = cyclic(2)
    places = (PlaceDatum("v", subgroup(z2, [0])), PlaceDatum("u", full_subgroup(z2)))
    data = GlobalData(z2, trivial_module(z2, 200), places)
    for route in (sha.sha1_homology, sha.sha1_cone, sha.sha1_forms):
        with pytest.raises(TooLargeError, match=f"rank 400, over the bound of {sha.MAX_CONE_RANK}$"):
            route(data)


# -- obstruction to gluing local classes --------------------------------------


def test_matching_local_classes_glue():
    data = quarter_turn_data()
    res = tate_obstruction(data, {"v": (1,), "u": (1,)})
    assert res.exists and res.verdict == "EXISTS"
    assert res.obstruction.is_zero()
    assert res.target_invariants == (2,)
    assert res.contributions == (("u", (1,)), ("v", (1,)))


def test_lonely_local_class_is_obstructed():
    data = quarter_turn_data()
    res = tate_obstruction(data, {"v": (1,)})
    assert not res.exists and res.verdict == "OBSTRUCTED"
    assert res.obstruction.coords == (1,)
    assert res.target_invariants == (2,)


def test_obstruction_input_guards():
    data = quarter_turn_data()
    with pytest.raises(UnknownPlaceError):
        tate_obstruction(data, {"w": (1,)})
    foreign = coinvariants(augmentation_kernel_module(klein_four())).torsion()
    with pytest.raises(DomainError):
        tate_obstruction(data, {"v": foreign.group.zero()})
    for coords in ((1, 0), ()):  # each local torsion group is Z/2
        with pytest.raises(CoordinateLengthError, match=f"^local_classes.v: expected 1 coordinates, got {len(coords)}$"):
            tate_obstruction(data, {"u": (1,), "v": coords})


# -- collapse of place fibers --------------------------------------------------


def test_pushforward_certifies_iso_when_places_are_fixed():
    g = cyclic(4)
    sub = generated_subgroup(g, [2])
    q, proj = quotient_group(g, sub)
    sign = module_from_generators(q, 1, {1: IntMatrix.from_rows([[-1]])})
    module = pullback_module(sign, g, proj)
    action = coset_action(g, sub)  # two points, the subgroup fixes both
    res = lemma_pushforward(g, sub, module, action)
    assert res.hypothesis_holds
    assert res.iso_certified
    assert res.kernel.group.is_trivial
    assert res.orbit_count == 2
    assert all(pt is not None for _, pt in res.fixed_points)
    assert res.source_invariants == res.target_invariants


def test_pushforward_computes_its_kernel_when_it_is_read(monkeypatch):
    calls = []
    kernel = InducedMap.kernel

    def spy(self):
        calls.append(self)
        return kernel(self)

    monkeypatch.setattr(InducedMap, "kernel", spy)
    g = cyclic(4)
    sub = generated_subgroup(g, [2])
    module = trivial_module(g, 1)
    res = lemma_pushforward(g, sub, module, coset_action(g, sub))
    assert res.iso_certified and calls == []
    ker = res.kernel
    assert calls == [res.beta]
    assert res.kernel is ker and len(calls) == 1
    expected = kernel(res.beta)
    assert (ker.basis, ker.relations, ker.group) == (expected.basis, expected.relations, expected.group)


def test_pushforward_counter_instance_fails_loudly():
    g, sub, module, action = pushforward_counter_instance()
    with pytest.raises(HypothesisFailError) as exc:
        lemma_pushforward(g, sub, module, action)
    err = exc.value
    assert action.fixed_point(err.violating) is None
    assert err.kernel_group.invariant_factors == (2,)
    assert err.witness is not None
    partial = err.result
    assert partial.beta_after_section_id
    assert not partial.section_after_beta_id
    assert not partial.iso_certified


def test_pushforward_guards():
    g = cyclic(4)
    sub = generated_subgroup(g, [2])
    rot = IntMatrix.from_rows([[0, -1], [1, 0]])
    twisting = module_from_generators(g, 2, {1: rot})
    action = coset_action(g, sub)
    with pytest.raises(DomainError):
        lemma_pushforward(g, sub, twisting, action)  # subgroup moves the lattice
    s3 = dihedral(3)
    refl = generated_subgroup(s3, [next(x for x in s3.elements() if s3.element_order(x) == 2)])
    with pytest.raises(DomainError):
        lemma_pushforward(s3, refl, trivial_module(s3, 1), coset_action(s3, refl))
    with pytest.raises(DomainError):
        lemma_pushforward(g, generated_subgroup(klein_four(), [1]), trivial_module(g, 1), action)
    with pytest.raises(DomainError):
        lemma_pushforward(
            g, sub, trivial_module(cyclic(2), 1), action
        )

