"""Value semantics of the types used as cache keys, immutability of the
frozen value types, and the shared initializer of the records.

Eight types compare and hash by their fields, because lru caches are keyed
by them; every other type compares by identity.  The frozen types refuse
assignment and deletion of any attribute.  Every other frozen type declares
its fields once, in ``_fields``, and is built by ``Frozen.__init__``.
"""

import pytest

from tatekit import cli
from tatekit.abgroup import AbElement, FinAbGroup
from tatekit.errors import Frozen
from tatekit.gmodule import (
    FiniteGroup,
    GModule,
    Subgroup,
    coinvariants,
    coset_action,
    cyclic,
    generated_subgroup,
    module_from_generators,
    subgroup,
    trivial_module,
)
from tatekit.local import TameExtDescriptor, residue_field, teichmuller_lift
from tatekit.matrices import IntMatrix, smith_normal_form
from tatekit.periodindex import verify_counterexample_local
from tatekit.sha import GlobalData, PlaceDatum, build_place_module, lemma_pushforward, sha1_cone, tate_obstruction
from tatekit.tower import (
    default_tower_config,
    degree_exponents,
    product_subgroup,
    simulate_splitting_tower,
    subgroup_bound_check,
)


def z4():
    """Z/4 built from fresh tuples, so two calls share no field object."""
    return FiniteGroup(4, tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4)), 0, (0, 3, 2, 1))


def z2():
    return FiniteGroup(2, ((0, 1), (1, 0)), 0, (0, 1))


def rot():
    return IntMatrix.from_rows([[0, -1], [1, 0]])


def quarter_turn():
    return GModule(z4(), 2, (rot(),))


def half_subgroup():
    return Subgroup(z4(), (0, 2), (0, 1), (0, 1))


def place():
    return PlaceDatum("v", half_subgroup())


# class -> (a builder of its fields, one changed value per field); each
# builder makes new objects on every call
VALUE_TYPES = {
    IntMatrix: (
        lambda: {"rows": 2, "cols": 2, "entries": ((1, 2), (3, 4))},
        {"entries": ((1, 2), (3, 5))},  # the shape checks tie rows and cols to entries
    ),
    FinAbGroup: (
        lambda: {"invariant_factors": (2, 4), "free_rank": 1},
        {"invariant_factors": (2, 8), "free_rank": 0},
    ),
    AbElement: (
        lambda: {"group": FinAbGroup((2, 4), 0), "coords": (1, 3)},
        {"group": FinAbGroup((4, 4), 0), "coords": (1, 2)},
    ),
    FiniteGroup: (
        lambda: {"order": 4, "table": z4().table, "identity": 0, "inverses": (0, 3, 2, 1)},
        {"order": 5, "table": cyclic(4).table[::-1], "identity": 1, "inverses": (0, 1, 2, 3)},
    ),
    Subgroup: (
        lambda: {"parent": z4(), "members": (0, 2), "left_reps": (0, 1), "right_reps": (0, 1)},
        {"parent": z2(), "members": (0,), "left_reps": (0, 3), "right_reps": (0, 3)},
    ),
    GModule: (
        lambda: {"group": z4(), "rank": 2, "gens": (rot(),)},
        {"group": z2(), "rank": 3, "gens": (IntMatrix.from_rows([[0, 1], [-1, 0]]),)},
    ),
    PlaceDatum: (
        lambda: {"label": "v", "decomposition": half_subgroup()},
        {"label": "u", "decomposition": Subgroup(z4(), (0,), (0, 1, 2, 3), (0, 1, 2, 3))},
    ),
    # theta alone cannot change: the module and places must act through it
    GlobalData: (
        lambda: {"theta": z4(), "module": quarter_turn(), "places": (place(),)},
        {"module": GModule(z4(), 1, (IntMatrix.from_rows([[-1]]),)), "places": (PlaceDatum("u", half_subgroup()),)},
    ),
}


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
def test_separately_built_equal_values_are_equal_and_hash_alike(cls):
    fields, _ = VALUE_TYPES[cls]
    a, b = cls(**fields()), cls(**fields())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
def test_changing_one_field_makes_values_unequal(cls):
    fields, changed = VALUE_TYPES[cls]
    base = cls(**fields())
    for name, value in changed.items():
        other = cls(**{**fields(), name: value})
        assert base != other and not base == other, name


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__name__)
def test_a_value_equals_no_tuple_and_no_instance_of_another_class(cls):
    fields, _ = VALUE_TYPES[cls]
    value = cls(**fields())
    assert value != tuple(fields().values())
    assert value.__eq__(tuple(fields().values())) is NotImplemented
    for other_cls, (other_fields, _) in VALUE_TYPES.items():
        if other_cls is not cls:
            assert value != other_cls(**other_fields())


def test_a_rebuilt_equal_module_is_a_coinvariants_cache_hit():
    first = coinvariants(quarter_turn())
    hits = coinvariants.cache_info().hits
    again = coinvariants(quarter_turn())
    assert coinvariants.cache_info().hits == hits + 1
    assert again is first


def _frozen_instances():
    g = cyclic(4)
    sub = subgroup(g, [0, 2])
    data = GlobalData(z4(), quarter_turn(), (place(),))
    report = verify_counterexample_local(5)
    half = generated_subgroup(g, [2])
    places = (PlaceDatum("v", subgroup(g, [0])), PlaceDatum("u", subgroup(g, [0])))
    tower = default_tower_config(GlobalData(g, trivial_module(g, 1), places), 2)
    return [
        IntMatrix.from_rows([[1, 2]]),
        smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])),
        FinAbGroup((2,), 0),
        FinAbGroup((2,), 0).element((1,)),
        g,
        sub,
        coset_action(g, sub),
        module_from_generators(g, 2, {1: rot()}),
        residue_field(5),
        teichmuller_lift(2, residue_field(5)),
        TameExtDescriptor(1, 2),
        report.branches[0],
        report,
        place(),
        data,
        build_place_module(data),
        subgroup_bound_check(g),
        degree_exponents(4),
        product_subgroup(g, [(1, 1)]),
        default_tower_config(data, 2),
        cli.Job("exponents", {"theta_order": 4}),
        sha1_cone(data),
        tate_obstruction(data, {}),
        lemma_pushforward(g, half, trivial_module(g, 1), coset_action(g, half)),
        simulate_splitting_tower(tower, (0,)),
    ]


FROZEN = _frozen_instances()


def test_every_frozen_value_type_is_covered_once():
    types = [type(x) for x in FROZEN]
    assert len(set(types)) == len(types) == 25
    assert all(issubclass(t, Frozen) for t in types)


@pytest.mark.parametrize("obj", FROZEN, ids=lambda x: type(x).__name__)
def test_a_frozen_value_refuses_assignment_and_deletion(obj):
    names = list(vars(obj))
    assert names
    for name in names:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.no_such_field = 1
    assert not hasattr(obj, "no_such_field")


RECORDS = [x for x in FROZEN if x.__class__._fields]


def test_every_frozen_type_but_the_cache_keys_is_a_record():
    assert {type(x) for x in FROZEN} - {type(x) for x in RECORDS} == set(VALUE_TYPES)
    assert len(RECORDS) == 17


@pytest.mark.parametrize("obj", RECORDS, ids=lambda x: type(x).__name__)
def test_a_record_is_built_from_its_fields_by_position_or_keyword(obj):
    cls = type(obj)
    fields = {name: getattr(obj, name) for name in cls._fields}
    values = list(fields.values())
    by_position, by_keyword = cls(*values), cls(**fields)
    # only the declared fields, until a cached property is read
    assert vars(by_position) == vars(by_keyword) == fields
    assert list(vars(by_keyword)) == list(cls._fields)
    first = cls._fields[0]
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=None)
    with pytest.raises(TypeError):
        cls(**{name: value for name, value in fields.items() if name != first})
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError):
        cls(*values, None)


def test_a_record_field_left_out_takes_its_class_default():
    assert vars(TameExtDescriptor(1, 2)) == {"f": 1, "e": 2, "alpha": 1, "wild_exponent": 0}
    assert vars(TameExtDescriptor(3, 2, wild_exponent=1)) == {"f": 3, "e": 2, "alpha": 1, "wild_exponent": 1}
    with pytest.raises(TypeError):
        TameExtDescriptor(1)


def test_a_cached_property_is_written_beside_the_fields():
    g = cyclic(4)
    half = generated_subgroup(g, [2])
    res = lemma_pushforward(g, half, trivial_module(g, 1), coset_action(g, half))
    assert list(vars(res)) == list(res._fields)
    kernel = res.kernel
    assert list(vars(res)) == [*res._fields, "kernel"]
    assert res.kernel is kernel
