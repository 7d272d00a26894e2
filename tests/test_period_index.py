"""Period/index certificates for the quartic local counterexample."""

import importlib

import pytest

from tatekit.errors import BadResidueError, TheoremViolationError
from tatekit.gmodule import coinvariants, generated_subgroup, subgroup
from tatekit.local import SquareClass
from tatekit.periodindex import (
    BranchWitness,
    CounterexampleReport,
    counterexample_torus,
    h1_local,
    local_torus_class,
    mult_by_i_module,
    period,
    restriction_nontrivial,
    validate_report,
    verify_counterexample_local,
)

NONTRIVIAL = {SquareClass.EPS, SquareClass.PI, SquareClass.EPS_PI}


def test_quarter_turn_class_api():
    m = mult_by_i_module()
    assert h1_local(m).group.invariant_factors == (2,)
    c = local_torus_class(m, (1,))
    assert period(c) == 2
    half = generated_subgroup(m.group, [2])
    assert restriction_nontrivial(c, half)
    assert not restriction_nontrivial(c, subgroup(m.group, [0]))
    with pytest.raises(ValueError):
        local_torus_class(m, coinvariants(counterexample_torus()).group.zero())


def test_product_torus_shape():
    t = counterexample_torus()
    assert t.rank == 6
    assert h1_local(t).group.invariant_factors == (2, 2, 2)


@pytest.mark.parametrize("p,q", [(5, None), (13, None), (5, 25)])
def test_counterexample_golden(p, q):
    rep = verify_counterexample_local(p, q)
    assert rep.period == 2
    assert rep.index_divisibility == 4
    assert rep.component_orders == (2, 2, 2)
    assert rep.h1_invariant_factors == (2,)
    assert rep.product_invariant_factors == (2, 2, 2)
    assert {b.square_class for b in rep.branches} == NONTRIVIAL
    for b in rep.branches:
        assert b.restriction_nonzero
        assert b.splits_over_quartic
        assert b.restriction_order == 2
        assert "coprime" in b.conclusion
    assert len(rep.imported_rules) == 2
    assert rep.q == (q or p)


def test_trivial_class_control():
    rep = verify_counterexample_local(5, trivial_class=True)
    assert rep.period == 1
    assert rep.index_divisibility == 1
    assert rep.component_orders == (1, 1, 1)
    for b in rep.branches:
        assert not b.restriction_nonzero
        assert "nothing is ruled out" in b.conclusion


@pytest.mark.parametrize("p,q", [(2, None), (7, None), (5, 10), (9, None), (5, 1), (3, None)])
def test_bad_residue_inputs(p, q):
    # even characteristic, q not 1 mod 4, q not a power of p, p composite
    with pytest.raises(BadResidueError):
        verify_counterexample_local(p, q)


def test_validate_report_accepts_the_real_thing():
    rep = verify_counterexample_local(5)
    validate_report(rep)  # must not raise


REPORT_FIELDS = (
    "p", "q", "period", "index_divisibility", "component_orders",
    "h1_invariant_factors", "product_invariant_factors", "branches", "imported_rules",
)
BRANCH_FIELDS = (
    "square_class", "valuation", "unit_residue", "restriction_nonzero",
    "transfer_vector", "restriction_order", "splits_over_quartic", "conclusion",
)


def _rebuilt(cls, fields, old, changes):
    """A new ``cls`` through its constructor: ``old``'s fields with ``changes``."""
    assert set(changes) <= set(fields)
    return cls(**{f: changes[f] if f in changes else getattr(old, f) for f in fields})


def _report(r, **changes):
    return _rebuilt(CounterexampleReport, REPORT_FIELDS, r, changes)


def _branch(b, **changes):
    return _rebuilt(BranchWitness, BRANCH_FIELDS, b, changes)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: _report(r, period=4),
        lambda r: _report(r, period=3),
        lambda r: _report(r, index_divisibility=2),
        lambda r: _report(r, index_divisibility=8),
        lambda r: _report(r, index_divisibility=1),
        lambda r: _report(r, branches=r.branches[:2]),
        lambda r: _report(r, branches=r.branches + r.branches[:1]),
        lambda r: _report(r, branches=(_branch(r.branches[0], restriction_nonzero=False),) + r.branches[1:]),
        lambda r: _report(r, branches=(_branch(r.branches[0], splits_over_quartic=False),) + r.branches[1:]),
        lambda r: _report(r, branches=(_branch(r.branches[0], restriction_order=3),) + r.branches[1:]),
    ],
)
def test_validate_report_rejects_mutations(mutate):
    rep = verify_counterexample_local(5)
    validate_report(_report(rep, branches=tuple(_branch(b) for b in rep.branches)))  # the rebuild alone passes
    with pytest.raises(TheoremViolationError):
        validate_report(mutate(rep))


def test_verification_transfers_once_for_all_three_branches(monkeypatch):
    periodindex = importlib.import_module("tatekit.periodindex")
    calls = []
    real = periodindex.transfer

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(periodindex, "transfer", spy)
    rep = verify_counterexample_local(5)
    assert len(rep.branches) == 3
    assert len(calls) == 1
