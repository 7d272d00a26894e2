"""Period and index-divisibility of local torus classes.

A class lives in the torsion part of the coinvariants of a cocharacter
lattice.  The verifier below certifies the order-4 quartic counterexample:
a product of three rank-2 tori, one per nontrivial square class of the base
field, carrying a class of period 2 whose index is divisible by 4.  The
index bound is not computed by searching extensions; the case analysis over
hypothetical splitting degrees 2d (d odd) is replayed branch by branch.
"""

from __future__ import annotations

from functools import lru_cache

from .abgroup import AbElement, element_order
from .errors import BadResidueError, Frozen, TheoremViolationError
from .gmodule import (
    GModule,
    Subgroup,
    coinvariants,
    cyclic,
    direct_sum_modules,
    module_from_generators,
    restrict_module,
    subgroup,
    torsion_coinvariants,
    transfer,
    transfer_matrix,
)
from .local import ResidueField, SquareClass, is_prime, residue_field, square_class
from .matrices import IntMatrix

__all__ = [
    "h1_local",
    "LocalTorusClass",
    "local_torus_class",
    "period",
    "restriction_nontrivial",
    "mult_by_i_module",
    "counterexample_torus",
    "BranchWitness",
    "CounterexampleReport",
    "verify_counterexample_local",
    "validate_report",
]

COPRIME_RULE = (
    "imported rule: a class split by two extensions of coprime degrees is trivial"
)
QUADRATIC_LAYER_RULE = (
    "any degree-2d extension with d odd contains a quadratic layer; d stays symbolic"
)


#: The local cohomology of the torus whose cocharacter lattice is the given
#: module: the torsion part of its coinvariants.
h1_local = torsion_coinvariants


class LocalTorusClass(Frozen):
    """A torsion coinvariant class of a cocharacter module; immutable."""

    def __init__(self, module: GModule, cls: AbElement):
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "cls", cls)


def local_torus_class(module: GModule, coords) -> LocalTorusClass:
    group = h1_local(module).group
    cls = coords if isinstance(coords, AbElement) else group.element(coords)
    if cls.group != group:
        raise ValueError("class does not live in the torsion coinvariants")
    return LocalTorusClass(module, cls)


def period(c: LocalTorusClass) -> int:
    n = element_order(c.cls)
    assert isinstance(n, int)  # torsion groups only
    return n


def restriction_nontrivial(c: LocalTorusClass, sub: Subgroup) -> bool:
    """Whether the class survives restriction to the fixed field of ``sub``.

    Restriction on these groups is realized by the transfer sum over coset
    representatives.
    """
    res = transfer(c.module, sub, c.cls, source=h1_local(c.module))
    return not res.is_zero()


@lru_cache(maxsize=1)
def mult_by_i_module() -> GModule:
    """Order-4 cyclic group rotating the square lattice by a quarter turn."""
    rot = IntMatrix.from_rows([[0, -1], [1, 0]])
    return module_from_generators(cyclic(4), 2, {1: rot})


def counterexample_torus() -> GModule:
    """Three independent quarter-turn planes over one order-4 group."""
    m = mult_by_i_module()
    return direct_sum_modules([m, m, m])


class BranchWitness(Frozen):
    """Outcome of one branch of the splitting-degree case analysis; immutable.

    Each branch corresponds to one nontrivial square class, hence to one
    quadratic extension the hypothetical splitting field could contain.
    """

    def __init__(
        self,
        square_class: SquareClass,
        valuation: int,
        unit_residue: tuple[int, ...],
        restriction_nonzero: bool,
        transfer_vector: tuple[int, ...],
        restriction_order: int,
        splits_over_quartic: bool,
        conclusion: str,
    ):
        object.__setattr__(self, "square_class", square_class)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "unit_residue", unit_residue)
        object.__setattr__(self, "restriction_nonzero", restriction_nonzero)
        object.__setattr__(self, "transfer_vector", transfer_vector)
        object.__setattr__(self, "restriction_order", restriction_order)
        object.__setattr__(self, "splits_over_quartic", splits_over_quartic)
        object.__setattr__(self, "conclusion", conclusion)


class CounterexampleReport(Frozen):
    """What ``verify_counterexample_local`` certifies; immutable."""

    def __init__(
        self,
        p: int,
        q: int,
        period: int,
        index_divisibility: int,
        component_orders: tuple[int, ...],
        h1_invariant_factors: tuple[int, ...],
        product_invariant_factors: tuple[int, ...],
        branches: tuple[BranchWitness, ...],
        imported_rules: tuple[str, ...],
    ):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "index_divisibility", index_divisibility)
        object.__setattr__(self, "component_orders", component_orders)
        object.__setattr__(self, "h1_invariant_factors", h1_invariant_factors)
        object.__setattr__(self, "product_invariant_factors", product_invariant_factors)
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "imported_rules", imported_rules)


def _branch_data(field: ResidueField) -> list[tuple[SquareClass, int, tuple[int, ...]]]:
    """One (class, valuation, unit residue) triple per nontrivial square class."""
    eps = field.nonsquare()
    one = field.one()
    data = [
        (SquareClass.EPS, 0, eps),
        (SquareClass.PI, 1, one),
        (SquareClass.EPS_PI, 1, eps),
    ]
    for tag, v, res in data:
        computed = square_class(v, res, field)
        if computed != tag:
            raise TheoremViolationError(
                f"square-class bookkeeping is broken: expected {tag}, got {computed}"
            )
    return data


def verify_counterexample_local(
    p: int, q: int | None = None, trivial_class: bool = False
) -> CounterexampleReport:
    """Certify period 2 and index divisibility 4 for the quartic example.

    The residue size q must be a power of p with q = 1 mod 4, so the base
    field contains a fourth root of unity and all three quartic towers are
    cyclic.  With ``trivial_class`` the zero class is run through the same
    machinery as a control: period 1 and no divisibility claim.
    """
    if q is None:
        q = p
    if p == 2 or not is_prime(p):
        raise BadResidueError("residue characteristic must be an odd prime")
    r, t = 0, q
    while t > 1 and t % p == 0:
        t //= p
        r += 1
    if t != 1 or r < 1:
        raise BadResidueError("residue size must be a positive power of p")
    if q % 4 != 1:
        raise BadResidueError("need a square root of -1: residue size must be 1 mod 4")
    field = residue_field(p, r)

    factor = mult_by_i_module()
    gamma = factor.group
    delta = subgroup(gamma, [0, 2])
    triv = subgroup(gamma, [0])
    h1 = h1_local(factor)
    if h1.group.invariant_factors != (2,):
        raise TheoremViolationError("the quarter-turn plane must have a 2-torsion class group")

    product = counterexample_torus()
    h1_product = h1_local(product)
    xi_component = h1.group.zero() if trivial_class else h1.group.element((1,))
    component_order = element_order(xi_component)
    assert isinstance(component_order, int)
    per = component_order  # all three components are equal copies

    # the restriction and the quartic transfer do not depend on the branch
    lift = h1.lift(xi_component)
    summed = transfer_matrix(factor, delta).mul_vec(lift)
    res_class = coinvariants(restrict_module(factor, delta)).project(summed)
    res_order = element_order(res_class)
    assert isinstance(res_order, int)
    over_quartic = transfer(factor, triv, xi_component, source=h1)
    branches = []
    for tag, v, res in _branch_data(field):
        if trivial_class:
            conclusion = "zero class: every restriction is trivial, nothing is ruled out"
        else:
            conclusion = (
                f"a splitting field of degree 2d (d odd) whose quadratic layer has class "
                f"{tag.label()} would split the component over both a degree-2 and a "
                f"degree-d extension; coprime degrees would force the restricted class "
                f"to vanish, but it has order {res_order}"
            )
        branches.append(
            BranchWitness(
                square_class=tag,
                valuation=v,
                unit_residue=res,
                restriction_nonzero=not res_class.is_zero(),
                transfer_vector=summed,
                restriction_order=res_order,
                splits_over_quartic=over_quartic.is_zero(),
                conclusion=conclusion,
            )
        )

    if trivial_class:
        divisibility = 1
    else:
        if not all(b.restriction_nonzero and b.splits_over_quartic for b in branches):
            raise TheoremViolationError("a branch witness failed; the divisibility claim is unsupported")
        divisibility = 4

    report = CounterexampleReport(
        p=p,
        q=q,
        period=per,
        index_divisibility=divisibility,
        component_orders=(component_order,) * 3,
        h1_invariant_factors=h1.group.invariant_factors,
        product_invariant_factors=h1_product.group.invariant_factors,
        branches=tuple(branches),
        imported_rules=(COPRIME_RULE, QUADRATIC_LAYER_RULE),
    )
    validate_report(report)
    return report


def validate_report(report: CounterexampleReport) -> None:
    """Re-check the internal consistency of a report.

    Raises on any report whose stated divisibility is not supported by its
    own witness trail; used by the mutation tests.
    """
    if report.period < 1 or report.index_divisibility % report.period != 0:
        raise TheoremViolationError("period must divide the certified index divisibility")
    if report.index_divisibility == 1:
        if report.period != 1:
            raise TheoremViolationError("a nontrivial class cannot have divisibility 1")
        return
    if report.index_divisibility != 4 or report.period != 2:
        raise TheoremViolationError("the only supported claim is period 2 with divisibility 4")
    tags = sorted(b.square_class.value for b in report.branches)
    if tags != [SquareClass.EPS.value, SquareClass.PI.value, SquareClass.EPS_PI.value]:
        raise TheoremViolationError(
            "witness trail must cover the three nontrivial square classes exactly once"
        )
    for b in report.branches:
        if not b.restriction_nonzero:
            raise TheoremViolationError(
                f"branch {b.square_class.label()}: restriction witness is trivial"
            )
        if not b.splits_over_quartic:
            raise TheoremViolationError(
                f"branch {b.square_class.label()}: the quartic tower fails to split the component"
            )
        if b.restriction_order % report.period != 0:
            raise TheoremViolationError(
                f"branch {b.square_class.label()}: restriction order is inconsistent with the period"
            )
