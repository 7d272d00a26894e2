"""Subgroup counting, degree exponents, place selection, and the tower run."""

import itertools
import math
import signal
import time

import pytest

from tatekit import cli, gmodule, sha, tower
from tatekit.errors import (
    CoordinateLengthError,
    DomainError,
    TheoremViolationError,
    TooLargeError,
)
from tatekit.gmodule import (
    augmentation_kernel_module,
    coinvariants,
    cyclic,
    degree_zero_map,
    dihedral,
    direct_product,
    full_subgroup,
    generated_subgroup,
    klein_four,
    pullback_module,
    subgroup,
    torsion_coinvariants,
    trivial_module,
)
from tatekit.matrices import IntMatrix
from tatekit.sha import GlobalData, PlaceDatum, build_place_module, lemma_pushforward, sha1_S
from tatekit.tower import (
    MAX_RHO_BITS,
    TowerConfig,
    default_tower_config,
    degree_exponents,
    enumerate_subgroups,
    product_subgroup,
    select_dominating_places,
    simulate_splitting_tower,
    subgroup_bound_check,
)

from test_cli import klein_tower, run_cli, write
from test_sha import klein_data, quarter_turn_data


# -- subgroup enumeration ----------------------------------------------------


def brute_force_subgroup_count(g) -> int:
    """Count closed subsets directly; only sane for order <= 8."""
    rest = [x for x in g.elements() if x != g.identity]
    count = 0
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            members = {g.identity, *extra}
            if all(g.mul(a, b) in members for a in members for b in members):
                count += 1
    return count


@pytest.mark.parametrize(
    "name,expected",
    [("Z4", 3), ("V4", 5), ("S3", 6), ("Z6", 4), ("Q8", 6), ("D4", 10), ("Z8", 4)],
)
def test_subgroup_counts(corpus, name, expected):
    g = corpus[name]
    subs = enumerate_subgroups(g)
    assert len(subs) == expected
    assert len(subs) == brute_force_subgroup_count(g)
    assert subs[0].order == 1 and subs[-1].order == g.order
    orders = [s.order for s in subs]
    assert orders == sorted(orders)


def _closure_by_products(g, elements) -> frozenset[int]:
    """Products with ``elements`` until nothing new appears; in a finite
    group that set is the subgroup they generate."""
    members = {g.identity}
    while True:
        bigger = members | {g.mul(a, x) for a in members for x in elements}
        if bigger == members:
            return frozenset(members)
        members = bigger


def test_subgroups_are_the_closures_of_at_most_three_elements(corpus):
    # every corpus subgroup has at most three generators; Z2^3 needs three
    for name, g in corpus.items():
        closures = {
            _closure_by_products(g, xs)
            for k in range(4)
            for xs in itertools.combinations(g.elements(), k)
        }
        assert {frozenset(h.members) for h in enumerate_subgroups(g)} == closures, name


def test_enumeration_cap():
    with pytest.raises(TooLargeError):
        enumerate_subgroups(cyclic(65))


def test_counting_bound_on_the_corpus(corpus):
    for name, g in corpus.items():
        rep = subgroup_bound_check(g)
        assert rep.holds, name
        assert rep.subgroup_count <= rep.bound == g.order**rep.lam
        assert rep.lam == g.order.bit_length() - 1


# -- degree exponents ----------------------------------------------------------


@pytest.mark.parametrize(
    "order,lam,rho,d",
    [(1, 0, 1, 2), (2, 1, 3, 5), (4, 2, 49, 52), (3, 1, 7, 9), (8, 3, 3585, 3589)],
)
def test_degree_exponents(order, lam, rho, d):
    triple = degree_exponents(order)
    assert (triple.lam, triple.rho, triple.d) == (lam, rho, d)


def test_degree_exponents_rejects_nonpositive():
    for bad in (0, -3):
        with pytest.raises(DomainError):
            degree_exponents(bad)


def _closed_form(order):
    lam = order.bit_length() - 1
    rho = (order - 1) * order**lam + 1
    return lam, rho, rho + lam + 1


def test_degree_exponents_unchanged_up_to_64():
    for order in range(1, 65):
        triple = degree_exponents(order)
        assert (triple.lam, triple.rho, triple.d) == _closed_form(order)


def test_degree_exponents_bound_on_rho():
    # orders below 2^64 have rho of at most 64 * 64 bits and pass
    largest = 2**64 - 1
    triple = degree_exponents(largest)
    assert (triple.lam, triple.rho, triple.d) == _closed_form(largest)
    assert triple.rho.bit_length() <= MAX_RHO_BITS
    for order in (2**64, 10**200):
        with pytest.raises(TooLargeError, match=str(MAX_RHO_BITS)):
            degree_exponents(order)


# -- dominating places -----------------------------------------------------------


def test_klein_places_are_pairwise_incomparable():
    sel = select_dominating_places(klein_data())
    assert sel.selected == ("v1", "v2", "v3")
    assert sel.certificate == (("v1", "v1", 0), ("v2", "v2", 0), ("v3", "v3", 0))
    assert sel.maximal_class_count == 3
    assert sel.maximal_class_count <= sel.all_class_count <= sel.subgroup_count <= sel.bound


def test_nested_places_collapse_to_the_top():
    g = cyclic(4)
    data = GlobalData(
        g,
        quarter_turn_data().module,
        (
            PlaceDatum("deep", full_subgroup(g)),
            PlaceDatum("mid", generated_subgroup(g, [2])),
            PlaceDatum("shallow", subgroup(g, [0])),
        ),
    )
    sel = select_dominating_places(data)
    assert sel.selected == ("deep",)
    assert all(slab == "deep" for _, slab, _ in sel.certificate)
    assert sel.present_class_count == 3


def test_conjugate_places_share_a_dominator():
    s3 = dihedral(3)
    refls = [x for x in s3.elements() if s3.element_order(x) == 2]
    data = GlobalData(
        s3,
        trivial_module(s3, 1),
        tuple(PlaceDatum(f"r{i}", generated_subgroup(s3, [x])) for i, x in enumerate(refls)),
    )
    sel = select_dominating_places(data)
    assert len(sel.selected) == 1  # all three reflections are conjugate
    assert len(sel.certificate) == 3


def test_selection_requires_places():
    v4 = klein_four()
    bare = GlobalData(v4, klein_data().module, ())
    with pytest.raises(DomainError):
        select_dominating_places(bare)


# -- product subgroups, lazily ---------------------------------------------------


@pytest.mark.parametrize(
    "theta_factory,gens",
    [
        (lambda: cyclic(2), [(1, 1)]),
        (lambda: cyclic(2), [(1, 0)]),
        (lambda: cyclic(2), [(1, 2)]),
        (lambda: cyclic(4), [(1, 1)]),
        (lambda: cyclic(4), [(2, 1)]),
        (lambda: cyclic(4), [(1, 3), (2, 2)]),
        (lambda: klein_four(), [(1, 1), (2, 1)]),
        (lambda: klein_four(), [(1, 2), (2, 3)]),
        (lambda: klein_four(), [(0, 1)]),
        (lambda: dihedral(3), [(1, 1), (3, 0)]),
    ],
)
def test_product_subgroup_matches_materialized_group(theta_factory, gens):
    theta = theta_factory()
    ps = product_subgroup(theta, gens)
    for m in (1, 2, 3, 4, 6, 8, 12):
        big = direct_product(theta, cyclic(m))
        mat = generated_subgroup(big, [t * m + c % m for t, c in gens])
        assert ps.members_at(m) == list(mat.members), m
        assert ps.fiber_size(m) == big.order // mat.order
        full = {idx % m for idx in mat.members} == set(range(m))
        # full projection at every n-power level collapses to a gcd statement
        if m > 1:
            assert ps.full_second_projection(m) <= full


def test_full_second_projection_levels():
    theta = cyclic(2)
    assert product_subgroup(theta, [(1, 1)]).full_second_projection(2)
    assert not product_subgroup(theta, [(1, 0)]).full_second_projection(2)
    assert not product_subgroup(theta, [(1, 2)]).full_second_projection(2)
    assert product_subgroup(theta, [(1, 2)]).full_second_projection(3)
    assert product_subgroup(theta, [(1, 0)]).full_second_projection(1)


def test_product_subgroup_rejects_foreign_generator():
    with pytest.raises(DomainError):
        product_subgroup(cyclic(2), [(5, 1)])


# -- tower configuration -----------------------------------------------------------


def test_default_config_covers_every_place():
    cfg = default_tower_config(klein_data(), 2)
    assert sorted(lab for lab, _ in cfg.sigma) == ["v1", "v2", "v3"]
    assert all(exp == 1 for _, gens in cfg.sigma for _, exp in gens)


def test_config_validation():
    data = klein_data()
    good = default_tower_config(data, 2).sigma
    with pytest.raises(DomainError):
        TowerConfig(data, 0, good)
    with pytest.raises(DomainError):
        TowerConfig(data, 2, good[:2])  # one place missing
    with pytest.raises(DomainError):
        TowerConfig(data, 2, good + good[:1])
    with pytest.raises(DomainError):
        TowerConfig(data, 2, good, extra_label="v1")
    bare = GlobalData(data.theta, data.module, ())
    with pytest.raises(DomainError):
        TowerConfig(bare, 2, ())


# -- the simulation ------------------------------------------------------------------


def test_klein_tower_golden_run():
    data = klein_data()
    cfg = default_tower_config(data, 2)
    rep = simulate_splitting_tower(cfg, (1,))
    assert rep.theta_order == 4 and rep.n == 2
    assert rep.tower_length == 50
    assert rep.cardinality_sequence == (7, 13, 13)
    assert rep.set_sizes == (10, 16, 16)
    assert rep.chosen_s == 3
    assert rep.effective_exponent == 2
    assert rep.effective_group_order == 8
    assert rep.alpha1 == (2,) and rep.alpha1_nonzero
    assert rep.alpha_top == (0,) * len(rep.alpha_top)
    assert rep.transfer_vanished
    assert rep.action_images_coincide
    assert rep.mid_transfer_is_mult_n
    assert rep.iso_certified
    assert rep.splitting_degree == (2, 2)
    assert rep.bound == (2, 49)
    assert rep.splitting_degree[1] <= rep.bound[1]
    levels = [label for label, _ in rep.alpha_trace]
    assert levels == ["level_1", "level_2", "level_3"]


def test_degenerate_tower_accepts_only_the_zero_class():
    data = quarter_turn_data()
    cfg = default_tower_config(data, 1)
    sha = sha1_S(data)
    rep = simulate_splitting_tower(cfg, sha.kernel.group.zero())
    assert rep.chosen_s == 2
    assert not rep.alpha1_nonzero
    assert rep.transfer_vanished
    assert rep.splitting_degree == (1, 1)


def test_simulation_input_guards():
    data = klein_data()
    cfg = default_tower_config(data, 1)
    with pytest.raises(DomainError):
        simulate_splitting_tower(cfg, (1,))  # order-2 class not killed by n=1

    wrong_proj = (
        ("v1", ((2, 1),)),  # projects onto <2>, not the decomposition group <1>
        ("v2", ((2, 1),)),
        ("v3", ((3, 1),)),
    )
    with pytest.raises(DomainError):
        simulate_splitting_tower(TowerConfig(data, 2, wrong_proj), (1,))

    lame = (
        ("v1", ((1, 2),)),  # even cyclic part: local degree never reaches 2-power levels
        ("v2", ((2, 1),)),
        ("v3", ((3, 1),)),
    )
    with pytest.raises(DomainError):
        simulate_splitting_tower(TowerConfig(data, 2, lame), (1,))

    alien = sha1_S(quarter_turn_data()).kernel.group.zero()
    with pytest.raises(DomainError):
        simulate_splitting_tower(default_tower_config(data, 2), alien)

    for coords in ((1, 0), ()):  # the kernel group is Z/2
        with pytest.raises(CoordinateLengthError, match=f"^alpha: expected 1 coordinates, got {len(coords)}$"):
            simulate_splitting_tower(default_tower_config(data, 2), coords)


# -- the level comparison against the point-by-point route it replaced ----------


def _level_data(cfg, e) -> GlobalData:
    """Theta x Z/e acting on the places of ``cfg`` and the auxiliary place,
    as the simulation builds its effective level."""
    theta = cfg.data.theta
    geff = direct_product(theta, cyclic(e))
    meff = pullback_module(cfg.data.module, geff, tuple(g // e for g in range(geff.order)))
    sigma = dict(cfg.sigma)
    gens = [(p.label, sigma[p.label]) for p in cfg.data.places]
    gens.append((cfg.extra_label, ((theta.identity, 1),)))
    places = [PlaceDatum(label, subgroup(geff, product_subgroup(theta, g).members_at(e))) for label, g in gens]
    return GlobalData(geff, meff, tuple(places))


def _point_by_point(cfg, data_s, e):
    """The base level with one auxiliary point per element of Theta, and the
    section (rho -> rho * e) and collapse (g -> g // e) built point by point."""
    theta = cfg.data.theta
    data_f = GlobalData(
        theta, cfg.data.module, cfg.data.places + (PlaceDatum(cfg.extra_label, subgroup(theta, [theta.identity])),)
    )
    pm_f, pm_s = build_place_module(data_f), build_place_module(data_s)
    eye = IntMatrix.identity(cfg.data.module.rank)

    def transport(target, source, coset_of):
        index = {pt: i for i, pt in enumerate(target.points)}
        images = [index[(label, coset_of(label, g))] for label, g in source.points]
        return degree_zero_map(images, len(target.points), eye)

    section = transport(pm_s, pm_f, lambda label, rho: data_s.place(label).decomposition.left_coset_of(rho * e))
    collapse = transport(pm_f, pm_s, lambda label, g: data_f.place(label).decomposition.left_coset_of(g // e))
    return pm_f, section, collapse


def _last_point_first(action, members, rank):
    """Section and collapse of a comparison that numbers each orbit by its
    last point, scanning the points from the last one down."""
    orbit_of, reps = [-1] * action.degree, []
    for x in reversed(range(action.degree)):
        if orbit_of[x] < 0:
            for h in members:
                orbit_of[action.act(h, x)] = len(reps)
            reps.append(x)
    eye = IntMatrix.identity(rank)
    return degree_zero_map(reps, action.degree, eye), degree_zero_map(orbit_of, len(reps), eye)


def _trivial_and_full_data(g) -> GlobalData:
    places = (PlaceDatum("t", subgroup(g, [g.identity])), PlaceDatum("f", full_subgroup(g)))
    return GlobalData(g, augmentation_kernel_module(g), places)


@pytest.mark.parametrize(
    "data_factory,n",
    [
        (klein_data, 2),
        (klein_data, 4),
        (quarter_turn_data, 1),
        (lambda: _trivial_and_full_data(cyclic(2)), 2),
        (lambda: _trivial_and_full_data(cyclic(3)), 3),
        (lambda: _trivial_and_full_data(klein_four()), 4),
    ],
)
def test_the_pushforward_orbits_are_the_base_places_in_order(data_factory, n):
    cfg = default_tower_config(data_factory(), n)
    e = simulate_splitting_tower(cfg, sha1_S(cfg.data).kernel.group.zero()).effective_exponent
    data_s = _level_data(cfg, e)
    pm_s = build_place_module(data_s)
    geff = data_s.theta
    ident = cfg.data.theta.identity * e
    cyclic_factor = subgroup(geff, range(ident, ident + e))
    comparison = lemma_pushforward(geff, cyclic_factor, data_s.module, pm_s.action)
    pm_f, section, collapse = _point_by_point(cfg, data_s, e)

    assert comparison.iso_certified
    assert comparison.orbit_count == len(pm_f.points)
    assert comparison.section.matrix == section
    assert comparison.beta.matrix == collapse
    base = coinvariants(pm_f.sub)
    assert comparison.section.source.basis == base.basis
    assert comparison.section.source.relations == base.relations
    # numbering the orbits by their last points gives other matrices
    mutant = _last_point_first(pm_s.action, cyclic_factor.members, cfg.data.module.rank)
    assert mutant != (section, collapse)


def _alpha_corpus(corpus):
    """Klein, and every group of order <= 8 with the trivial rank-1 module (the
    augmentation kernel up to order 4) and one or two places from {1, <g1>,
    Theta}, as (data, n) with n the exponent of a nontrivial kernel."""
    cases = [klein_data()]
    for g in (g for g in corpus.values() if g.order <= 8):
        subs = {"one": subgroup(g, [g.identity]), "gen": generated_subgroup(g, g.generating_set()[:1]), "all": full_subgroup(g)}
        modules = [trivial_module(g, 1)] + ([augmentation_kernel_module(g)] if g.order <= 4 else [])
        for module in modules:
            for k in (1, 2):
                for labels in itertools.combinations(subs, k):
                    cases.append(GlobalData(g, module, tuple(PlaceDatum(label, subs[label]) for label in labels)))
    for data in cases:
        factors = sha1_S(data).group_invariants
        if factors:
            yield data, math.lcm(*factors)


def test_alpha_names_the_generators_the_sha1_op_prints(corpus):
    # alpha = e_i transports generators[i] of the sha1 op's shapiro_form; its
    # level_1 class is computed here on the dense route: M[S]_0 of the base
    # level plus the auxiliary orbit, and the section built point by point
    count = 0
    for data, n in _alpha_corpus(corpus):
        cfg = default_tower_config(data, n)
        gens = sha.sha1_forms(data)[1].generators
        eye = IntMatrix.identity(data.module.rank)
        for i, g in enumerate(gens):
            rep = simulate_splitting_tower(cfg, tuple(int(j == i) for j in range(len(gens))))
            data_s = _level_data(cfg, rep.effective_exponent)
            pm_f, section, _ = _point_by_point(cfg, data_s, rep.effective_exponent)
            inc0 = degree_zero_map(range(len(build_place_module(data).points)), len(pm_f.points), eye)
            want = torsion_coinvariants(build_place_module(data_s).sub).project(section.mul_vec(inc0.mul_vec(g)))
            assert rep.alpha1 == want.coords, (data, i)
            count += 1
    assert count == 39


def test_alpha_names_the_printed_generator_of_z3(tmp_path, capsys):
    # Z3, the trivial rank-1 module, one place with trivial decomposition group
    z3 = cyclic(3)
    scenario = {
        "theta": {"mul_table": [[z3.mul(a, b) for b in z3.elements()] for a in z3.elements()]},
        "module": {"rank": 1, "generators": [{"element_index": 1, "matrix": [[1]]}]},
        "places": [{"label": "v", "decomposition_members": [0]}],
    }
    code, body, _ = run_cli(capsys, ["sha1", write(tmp_path, "sha1.json", {"scenario": scenario})])
    assert code == 0 and body["result"]["shapiro_form"]["generators"] == [["-1", "0"]]
    tower_input = {"scenario": scenario, "n": 3, "sigma": [{"label": "v", "generators": [[0, 1]]}], "alpha": [1]}
    code, body, _ = run_cli(capsys, ["split-sim", write(tmp_path, "tower.json", tower_input)])
    assert code == 0 and body["result"]["alpha_trace"][0] == ["level_1", ["2"]]


def test_a_tower_degree_of_any_size_answers_at_once(tmp_path, capsys):
    # the top two levels' subgroups are read off e residues, not n of them
    def too_slow(signum, frame):
        raise TimeoutError("split-sim with n = 10^20 is still running")

    payload = klein_tower([1])
    payload["n"] = 10**20
    path = write(tmp_path, "tower.json", payload)
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        start = time.perf_counter()
        code, body, _ = run_cli(capsys, ["split-sim", path])
        elapsed = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0 and elapsed < 1.0
    assert body["result"]["n"] == str(10**20) and body["result"]["effective_exponent"] == "2"


def test_the_pushforward_reads_the_level_module_from_the_cache(monkeypatch):
    # the level's M[S]_0 is built once, by build_place_module; the lemma's
    # call for the same action is a hit, and only its lower level is built
    seen = []

    def spy(*args):
        before = gmodule.degree_zero_submodule.cache_info()
        result = lemma_pushforward(*args)
        after = gmodule.degree_zero_submodule.cache_info()
        seen.append((after.hits - before.hits, after.misses - before.misses))
        return result

    monkeypatch.setattr(tower, "lemma_pushforward", spy)
    gmodule.degree_zero_submodule.cache_clear()
    sha.build_place_module.cache_clear()
    assert cli.run_job(cli.Job("split-sim", klein_tower([1])))["result"]["iso_certified"] is True
    assert seen == [(1, 1)]


# -- a failing comparison ------------------------------------------------------------


def test_a_corrupted_comparison_is_a_theorem_violation(monkeypatch, tmp_path, capsys):
    cfg = default_tower_config(klein_data(), 2)
    assert simulate_splitting_tower(cfg, (1,)).iso_certified
    # the lemma's section and collapse come out doubled, so collapse after
    # section is four times the identity
    monkeypatch.setattr(
        sha, "degree_zero_map", lambda images, degree, block: degree_zero_map(images, degree, block.scaled(2))
    )
    with pytest.raises(TheoremViolationError):
        simulate_splitting_tower(cfg, (1,))

    path = write(tmp_path, "tower.json", klein_tower([1]))
    code, body, _ = run_cli(capsys, ["split-sim", path])
    assert code == 2
    assert body["error"]["code"] == "THEOREM_VIOLATION"
