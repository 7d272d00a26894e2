"""Acceptance gate: one test per shipped claim.

Each criterion is a single test function; the ``pytest -v`` line for it is
the pass/fail record.  Golden values asserted here were first computed by the
independent oracles that appear inline (enumeration, brute-force subsets,
direct iteration) and then frozen.
"""

import collections
import itertools
import random
import time

import pytest

from tatekit import tower
from tatekit.errors import HypothesisFailError
from tatekit.gmodule import (
    coinvariants,
    coset_action,
    cyclic,
    direct_sum_modules,
    generated_subgroup,
    klein_four,
    module_from_generators,
    pullback_module,
    quotient_group,
    restrict_module,
    subgroup,
    tate_h_minus1,
    transfer,
    transfer_matrix,
    trivial_module,
)
from tatekit.local import (
    SquareClass,
    TameExtDescriptor,
    is_square_in_extension,
    quadratic_subextension,
    residue_field,
    square_class,
    teichmuller_lift,
)
from tatekit.matrices import IntMatrix, smith_normal_form
from tatekit.periodindex import verify_counterexample_local
from tatekit.sha import (
    GlobalData,
    PlaceDatum,
    lemma_pushforward,
    pushforward_counter_instance,
    sha1_S,
    sha1_shapiro,
    tate_obstruction,
)
from tatekit.tower import (
    default_tower_config,
    degree_exponents,
    enumerate_subgroups,
    simulate_splitting_tower,
    subgroup_bound_check,
)

from conftest import group_corpus
from test_cli import klein_scenario, run_cli, write
from test_sha import assert_the_forms_without_place_modules_match, klein_data, quarter_turn_data
from test_tower import LEVEL_CASES, alpha_corpus, brute_force_subgroup_count


def quarter_turn():
    return module_from_generators(
        cyclic(4), 2, {1: IntMatrix.from_rows([[0, -1], [1, 0]])}
    )


def sign_characters(g):
    """All rank-1 modules pulled back through an index-2 quotient."""
    out = []
    for h in enumerate_subgroups(g):
        if h.index == 2 and h.is_normal():
            q, proj = quotient_group(g, h)
            sign = module_from_generators(q, 1, {1: IntMatrix.from_rows([[-1]])})
            out.append(pullback_module(sign, g, proj))
    return out


def test_criterion_01_quarter_turn_tate_group_is_z2_restricting_to_z2_squared():
    m = quarter_turn()
    assert tate_h_minus1(m).group.invariant_factors == (2,)
    half = restrict_module(m, generated_subgroup(m.group, [2]))
    assert tate_h_minus1(half).group.invariant_factors == (2, 2)


def test_criterion_02_transfer_lands_on_class_of_one_one_and_is_injective():
    m = quarter_turn()
    half = generated_subgroup(m.group, [2])
    source = tate_h_minus1(m)
    target = coinvariants(restrict_module(m, half))
    assert source.group.size() == 2

    images = {
        x.coords: transfer(m, half, x, source=source) for x in source.group.elements()
    }
    nonzero = images[(1,)]
    assert nonzero == target.project((1, 1))
    assert not nonzero.is_zero()
    assert images[(0,)].is_zero()
    assert len(set(i.coords for i in images.values())) == 2  # injective on the domain


def test_criterion_03_local_counterexample_has_period_two_and_index_divisible_by_four(
    tmp_path, capsys
):
    path = write(tmp_path, "c.json", {"p": 5, "q": 5})
    code, body, _ = run_cli(capsys, ["counterexample-local", path])
    assert code == 0
    res = body["result"]
    assert res["period"] == "2"
    assert res["index_divisibility"] == "4"
    assert sorted(b["square_class"] for b in res["branches"]) == ["eps", "eps*pi", "pi"]
    assert all(b["restriction_nonzero"] is True for b in res["branches"])

    rerun = verify_counterexample_local(13)
    assert rerun.period == 2
    assert rerun.index_divisibility == 4
    assert all(b.restriction_nonzero and b.splits_over_quartic for b in rerun.branches)


def test_criterion_04_quadratic_subextension_sweep_never_returns_the_trivial_class():
    checked = 0
    for p in (3, 5, 7):
        fld = residue_field(p)
        for f in range(1, 4):
            for e in range(1, 7):
                if e % p == 0 or (f * e) % 2:
                    continue  # wild or odd total degree: out of scope here
                for alpha in range(1, p):
                    got = quadratic_subextension(TameExtDescriptor(f, e, alpha), fld)
                    assert got != SquareClass.ONE
                    if f % 2 == 0:
                        assert got == SquareClass.EPS
                    checked += 1
    assert checked > 50


def test_criterion_05_multiplicative_lift_exhaustive_with_pinned_value():
    # independent oracle: iterate the Frobenius by hand before trusting the library
    x = 2
    for _ in range(20):
        nxt = x**5 % 125
        if nxt == x:
            break
        x = nxt
    assert x == 57
    assert teichmuller_lift(2, residue_field(5), 3).value == 57

    for p in (2, 3, 5, 7, 11, 13):
        fld = residue_field(p)
        for prec in range(1, 7):
            mod = p**prec
            for a in range(1, p):
                t = teichmuller_lift(a, fld, prec)
                assert pow(t.value, p, mod) == t.value
                assert t.value % p == a


def test_criterion_06_both_kernel_descriptions_agree_on_sweep_and_random_instances():
    # exhaustive part: every multiset of <= 3 decomposition subgroups, small modules
    z2, z4, v4 = cyclic(2), cyclic(4), klein_four()
    quarter = quarter_turn()
    catalogs = [
        (z2, [trivial_module(z2, 1), trivial_module(z2, 2)] + sign_characters(z2)),
        (z4, [trivial_module(z4, 1), trivial_module(z4, 2), quarter] + sign_characters(z4)),
        (v4, [trivial_module(v4, 1), trivial_module(v4, 2)] + sign_characters(v4)),
    ]
    exhaustive = 0
    for g, modules in catalogs:
        subs = enumerate_subgroups(g)
        for module in modules:
            for k in (1, 2, 3):
                for chosen in itertools.combinations_with_replacement(subs, k):
                    places = tuple(
                        PlaceDatum(f"p{i}", s) for i, s in enumerate(chosen)
                    )
                    data = GlobalData(g, module, places)
                    assert sha1_S(data).group_invariants == sha1_shapiro(data).group_invariants
                    exhaustive += 1
    assert exhaustive >= 300

    rng = random.Random(0x5A4D)
    groups = [g for g in group_corpus().values() if 2 <= g.order <= 8]
    randomized = 0
    while randomized < 200:
        g = rng.choice(groups)
        signs = sign_characters(g)
        modules = [trivial_module(g, 1), trivial_module(g, 2)] + signs
        if len(signs) >= 2:
            modules.append(direct_sum_modules(rng.sample(signs, 2)))
        module = rng.choice(modules)
        places = tuple(
            PlaceDatum(
                f"p{i}",
                generated_subgroup(
                    g, [rng.randrange(g.order) for _ in range(rng.randint(1, 2))]
                ),
            )
            for i in range(rng.randint(1, 3))
        )
        data = GlobalData(g, module, places)
        assert sha1_S(data).group_invariants == sha1_shapiro(data).group_invariants
        randomized += 1
    assert randomized == 200


def _criterion_06_sweep():
    """The exhaustive part of criterion 06: every multiset of <= 3
    decomposition subgroups over the small modules of Z/2, Z/4 and V4."""
    z2, z4, v4 = cyclic(2), cyclic(4), klein_four()
    catalogs = [
        (z2, [trivial_module(z2, 1), trivial_module(z2, 2)] + sign_characters(z2)),
        (z4, [trivial_module(z4, 1), trivial_module(z4, 2), quarter_turn()] + sign_characters(z4)),
        (v4, [trivial_module(v4, 1), trivial_module(v4, 2)] + sign_characters(v4)),
    ]
    for g, modules in catalogs:
        subs = enumerate_subgroups(g)
        for module in modules:
            for k in (1, 2, 3):
                for chosen in itertools.combinations_with_replacement(subs, k):
                    yield GlobalData(g, module, tuple(PlaceDatum(f"p{i}", s) for i, s in enumerate(chosen)))


def test_criterion_06_sweep_without_place_modules_gives_the_same_kernels():
    # group homology and the cone of corestriction against both dense forms
    count = 0
    for data in _criterion_06_sweep():
        assert_the_forms_without_place_modules_match(data)
        count += 1
    assert count == 378


def _criterion_07_instances():
    """100 random collapses on which the fixed-place hypothesis holds."""
    rng = random.Random(0xC0FE)
    groups = [g for g in group_corpus().values() if 2 <= g.order <= 8]
    for _ in range(100):
        g = rng.choice(groups)
        normals = [h for h in enumerate_subgroups(g) if h.is_normal()]
        sub = rng.choice(normals)
        over = generated_subgroup(g, list(sub.members) + [rng.randrange(g.order)])
        q, proj = quotient_group(g, sub)
        quotient_modules = [trivial_module(q, 1), trivial_module(q, 2)] + sign_characters(q)
        module = pullback_module(rng.choice(quotient_modules), g, proj)
        # the subgroup fixes the base coset of any overgroup, so the
        # fixed-place hypothesis holds by construction
        yield g, sub, module, coset_action(g, over)


def test_criterion_07_collapse_iso_certified_and_counter_instance_fails():
    certified = 0
    for args in _criterion_07_instances():
        res = lemma_pushforward(*args)
        assert res.hypothesis_holds
        assert res.iso_certified
        certified += 1
    assert certified == 100

    with pytest.raises(HypothesisFailError) as exc:
        lemma_pushforward(*pushforward_counter_instance())
    assert exc.value.witness is not None and any(exc.value.witness)
    assert exc.value.kernel_group.invariant_factors == (2,)


def _level_comparisons(corpus):
    """The arguments of the level comparison of each tower in the tower tests."""
    calls = []

    def spy(*args):
        calls.append(args)
        return lemma_pushforward(*args)

    cases = [(factory(), n) for factory, n in LEVEL_CASES] + list(alpha_corpus(corpus))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tower, "lemma_pushforward", spy)
        for data, n in cases:
            simulate_splitting_tower(default_tower_config(data, n), sha1_S(data).kernel.group.zero())
    assert len(calls) == len(cases)
    return calls


def _all_collapses():
    """Every collapse by a normal subgroup of a group of order <= 8, on the
    cosets of every subgroup, with the trivial rank-1 module; most break the
    fixed-place hypothesis."""
    for g in (g for g in group_corpus().values() if g.order <= 8):
        subgroups = enumerate_subgroups(g)
        for sub in (h for h in subgroups if h.is_normal()):
            for over in subgroups:
                yield g, sub, trivial_module(g, 1), coset_action(g, over)


def test_criterion_07_a_counted_isomorphism_has_a_trivial_kernel(corpus):
    # lemma_pushforward certifies beta by counting: onto, with the invariants
    # of its source and target equal.  Here beta's kernel, which
    # common_kernel solves for from the map itself, is the second route.
    instances = list(_criterion_07_instances()) + [pushforward_counter_instance()]
    instances += _level_comparisons(corpus) + list(_all_collapses())
    seen = collections.Counter()
    for args in instances:
        try:
            res = lemma_pushforward(*args)
        except HypothesisFailError as exc:
            res = exc.result
        except ValueError:  # the section is no map; the hypothesis rules this out
            seen["no section"] += 1
            continue
        assert res.beta_after_section_id
        assert res.iso_certified == res.beta.kernel().group.is_trivial, args
        seen[res.hypothesis_holds, res.iso_certified] += 1
    # without the hypothesis beta is still an isomorphism 17 times
    assert seen == {(True, True): 326, (False, True): 17, (False, False): 295, "no section": 15}


def test_criterion_08_two_place_gluing_exists_and_perturbation_obstructs():
    data = quarter_turn_data()
    # classes of order 2: negation is the identity, so (1,) matches -(1,)
    glued = tate_obstruction(data, {"v": (1,), "u": (1,)})
    assert glued.verdict == "EXISTS"
    assert glued.obstruction.is_zero()

    broken = tate_obstruction(data, {"v": (1,), "u": (0,)})
    assert broken.verdict == "OBSTRUCTED"
    assert broken.obstruction.coords == (1,)


def test_criterion_09_subgroup_count_bound_holds_on_the_whole_corpus(corpus):
    for name, g in corpus.items():
        rep = subgroup_bound_check(g)
        assert rep.holds, name
    assert len(enumerate_subgroups(corpus["Z4"])) == 3 == brute_force_subgroup_count(corpus["Z4"])
    assert len(enumerate_subgroups(corpus["V4"])) == 5 == brute_force_subgroup_count(corpus["V4"])


def test_criterion_10_degree_exponents_of_the_order_four_group():
    triple = degree_exponents(4)
    assert (triple.lam, triple.rho, triple.d) == (2, 49, 52)
    assert triple.rho == (4 - 1) * 4**triple.lam + 1
    assert triple.d == (triple.lam + 1) + triple.rho


def test_criterion_11_tower_run_vanishes_and_cli_exits_zero(tmp_path, capsys):
    rep = simulate_splitting_tower(default_tower_config(klein_data(), 2), (1,))
    assert rep.chosen_s == 3  # the pigeonhole scan found a level
    assert rep.action_images_coincide
    assert rep.mid_transfer_is_mult_n
    assert rep.alpha1_nonzero
    assert rep.alpha_top == (0,) * len(rep.alpha_top)
    assert rep.transfer_vanished

    payload = {
        "scenario": klein_scenario(),
        "n": 2,
        "sigma": [
            {"label": "v1", "generators": [[1, 1]]},
            {"label": "v2", "generators": [[2, 1]]},
            {"label": "v3", "generators": [[3, 1]]},
        ],
        "alpha": [1],
    }
    path = write(tmp_path, "tower.json", payload)
    code, body, _ = run_cli(capsys, ["split-sim", path])
    assert code == 0
    assert body["result"]["transfer_vanished"] is True


def test_criterion_12_property_suites_run_1000_randomized_cases_quickly():
    rng = random.Random(0x7A7E)
    started = time.monotonic()
    cases = 0

    # exact normal-form round trip on random integer matrices
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        sf = smith_normal_form(a)
        assert sf.u @ a @ sf.v == sf.s
        assert sf.u_inv @ sf.s @ sf.v_inv == a
        cases += 1

    groups = [g for g in group_corpus().values() if 2 <= g.order <= 8]

    def small_modules(g):
        return [trivial_module(g, 1), trivial_module(g, 2)] + sign_characters(g)

    # transfer is independent of the chosen lattice representative
    for _ in range(250):
        g = rng.choice(groups)
        module = rng.choice(small_modules(g))
        sub = generated_subgroup(g, [rng.randrange(g.order)])
        co = coinvariants(module)
        x = co.group.element(
            tuple(rng.randint(-4, 4) for _ in range(co.group.ncoords))
        )
        vec = co.lift(x)
        shift = co.relations.mul_vec(
            [rng.randint(-2, 2) for _ in range(co.relations.cols)]
        )
        moved = [a + b for a, b in zip(vec, shift)]
        target = coinvariants(restrict_module(module, sub))
        direct = transfer(module, sub, x)
        assert target.project(transfer_matrix(module, sub).mul_vec(moved)) == direct
        cases += 1

    # transfer through a chain of subgroups composes
    for _ in range(150):
        g = rng.choice(groups)
        module = rng.choice(small_modules(g))
        h = generated_subgroup(g, [rng.randrange(g.order)])
        k = generated_subgroup(g, [rng.choice(h.members)])
        co = coinvariants(module)
        x = co.group.element(
            tuple(rng.randint(-4, 4) for _ in range(co.group.ncoords))
        )
        direct = transfer(module, k, x)
        mid = transfer(module, h, x)
        mh = restrict_module(module, h)
        hg, hmem = h.as_group()
        pos = {m: i for i, m in enumerate(hmem)}
        k_in_h = subgroup(hg, [pos[m] for m in k.members])
        assert transfer(mh, k_in_h, mid) == direct
        cases += 1

    # valuation/residue class map is a homomorphism into the four-group
    for _ in range(150):
        p = rng.choice((3, 5, 7, 11, 13))
        fld = residue_field(p, rng.randint(1, 2))
        u1 = fld.element(tuple(rng.randrange(p) for _ in range(fld.r)))
        u2 = fld.element(tuple(rng.randrange(p) for _ in range(fld.r)))
        if fld.is_zero(u1) or fld.is_zero(u2):
            continue
        v1, v2 = rng.randint(-3, 3), rng.randint(-3, 3)
        assert square_class(v1 + v2, fld.mul(u1, u2), fld) == square_class(
            v1, u1, fld
        ) * square_class(v2, u2, fld)
        cases += 1

    # odd-degree extensions neither create nor destroy squares
    while cases < 1000:
        p = rng.choice((3, 5, 7, 11, 13))
        r = rng.choice((1, 2)) if p <= 13 else 1
        if p**r > 169:
            continue
        fld = residue_field(p, r)
        a = fld.element(tuple(rng.randrange(p) for _ in range(r)))
        if fld.is_zero(a):
            continue
        f = rng.choice((1, 3, 5))
        assert is_square_in_extension(fld, a, f) == fld.is_square(a)
        cases += 1

    elapsed = time.monotonic() - started
    assert cases >= 1000
    assert elapsed < 60.0, f"{cases} cases took {elapsed:.1f}s"
