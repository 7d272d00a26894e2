"""Tate-Shafarevich kernels over abstract place data.

A global scenario is a finite group Theta acting on a lattice, plus a list
of labeled places, each carrying a decomposition subgroup.  The places above
a base place form the coset space Theta / Theta_v; summing over places gives
the permutation-tensor module M[S], its degree-zero part M[S]_0, and the two
kernel descriptions implemented here: the inclusion form (degree-zero classes
dying in the full module) and the localization form (classes dying in every
local group M_{Theta_v}).  Both take one ``common_kernel`` out of one domain,
(M[S]_0)_{Theta,Tors} on a generator g per invariant factor d with relation
d*g, and differ only in their targets.  When that domain is 0 it is its own
kernel, and neither form builds a target.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .abgroup import AbElement, InducedMap, LatticeQuotient, class_in, common_kernel
from .errors import DomainError, Frozen, HypothesisFailError, TheoremViolationError, UnknownPlaceError
from .gmodule import (
    FiniteGroup,
    GModule,
    PermAction,
    Subgroup,
    coinvariants,
    coset_action,
    degree_zero_map,
    degree_zero_submodule,
    disjoint_union_action,
    permutation_module,
    quotient_group,
    restrict_module,
    torsion_coinvariants,
)
from .matrices import IntMatrix

__all__ = [
    "PlaceDatum",
    "GlobalData",
    "PlaceModule",
    "build_place_module",
    "ShaResult",
    "sha1_S",
    "sha1_shapiro",
    "local_torsion_quotient",
    "GlobalClassResult",
    "tate_obstruction",
    "PushforwardResult",
    "lemma_pushforward",
    "pushforward_counter_instance",
]


class PlaceDatum(Frozen):
    """A labeled place of the base field with a chosen decomposition subgroup.

    Immutable; equal label and subgroup make equal, hash-equal places.
    """

    def __init__(self, label: str, decomposition: Subgroup):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "decomposition", decomposition)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.label, self.decomposition) == (other.label, other.decomposition)
        return NotImplemented

    def __hash__(self):
        return hash((self.label, self.decomposition))


class GlobalData(Frozen):
    """Theta, its module and the places; immutable, and a cache key, so
    equality and hash read all three fields."""

    def __init__(self, theta: FiniteGroup, module: GModule, places: tuple[PlaceDatum, ...]):
        if module.group != theta:
            raise DomainError("module must be an action of theta")
        labels = [p.label for p in places]
        if len(set(labels)) != len(labels):
            raise DomainError("place labels must be unique")
        for p in places:
            if p.decomposition.parent != theta:
                raise DomainError(f"decomposition group of {p.label} is not a subgroup of theta")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "places", places)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.theta, self.module, self.places) == (other.theta, other.module, other.places)
        return NotImplemented

    def __hash__(self):
        return hash((self.theta, self.module, self.places))

    def place(self, label: str) -> PlaceDatum:
        for p in self.places:
            if p.label == label:
                return p
        raise UnknownPlaceError(f"no place labeled {label!r}")


class PlaceModule(Frozen):
    """M[S] with its degree-zero sublattice, over the fiber permutation action.

    ``fibers`` holds the coset action of each place, in place order; ``action``
    is their disjoint union.  ``points`` lists the fiber points as (place
    label, coset representative); point w carries the block of coordinates
    [w*rank, (w+1)*rank).  Immutable.
    """

    def __init__(
        self,
        data: GlobalData,
        action: PermAction,
        fibers: tuple[PermAction, ...],
        points: tuple[tuple[str, int], ...],
        sub: GModule,
        basis: IntMatrix,
    ):
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "basis", basis)

    def fiber(self, label: str) -> tuple[int, ...]:
        return tuple(i for i, (lab, _) in enumerate(self.points) if lab == label)


def _empty_action(group: FiniteGroup) -> PermAction:
    return PermAction(group, 0, tuple(() for _ in group.elements()))


@lru_cache(maxsize=128)
def build_place_module(data: GlobalData) -> PlaceModule:
    points: list[tuple[str, int]] = []
    fibers = []
    for p in data.places:
        fibers.append(coset_action(data.theta, p.decomposition))
        points.extend((p.label, rep) for rep in p.decomposition.left_reps)
    action = disjoint_union_action(fibers) if fibers else _empty_action(data.theta)
    sub, basis = degree_zero_submodule(action, data.module)
    return PlaceModule(data, action, tuple(fibers), tuple(points), sub, basis)


class ShaResult:
    """Kernel of a localization-style map out of (M[S]_0)_{Theta,Tors}."""

    def __init__(
        self,
        group_invariants: tuple[int, ...],
        kernel: LatticeQuotient,
        domain: LatticeQuotient,
        generators: tuple[tuple[int, ...], ...],
        place_module: PlaceModule,
    ):
        self.group_invariants = group_invariants
        self.kernel = kernel
        self.domain = domain
        self.generators = generators
        self.place_module = place_module

    @property
    def order(self) -> int:
        size = self.kernel.group.size()
        assert isinstance(size, int)
        return size


@lru_cache(maxsize=128)
def _sha_domain(module: GModule) -> LatticeQuotient:
    """(M[S]_0)_{Theta,Tors} on one generator per invariant factor, without
    the unit factors that ``torsion_coinvariants`` carries: both forms' domain."""
    return coinvariants(module).torsion_on_generators()


def _sha_result(pm: PlaceModule, components) -> ShaResult:
    """The kernel of the map out of the ``_sha_domain`` of pm.sub into the
    direct sum of the targets of ``components()``, (target, matrix) pairs:
    the classes that every component map sends to zero, presented inside the
    span of the domain's generators.  A trivial domain is its own kernel and
    builds no target: ``components`` is not called, since a map out of 0 has
    no basis image or relation image to verify."""
    domain = _sha_domain(pm.sub)
    ker = domain
    if not domain.group.is_trivial:
        ker = common_kernel(domain, [InducedMap(domain, target, matrix) for target, matrix in components()])
    return ShaResult(
        group_invariants=ker.group.invariant_factors,
        kernel=ker,
        domain=domain,
        generators=tuple(tuple(v) for v in ker.generator_vectors()),
        place_module=pm,
    )


def sha1_S(data: GlobalData) -> ShaResult:
    """Kernel of (M[S]_0)_{Theta,Tors} -> M[S]_{Theta,Tors} via the inclusion.

    The domain is presented on one generator per invariant factor
    (``_sha_domain``).  The target is taken as the full coinvariant group; a
    torsion class dies in the torsion part exactly when it dies there.  M[S]
    is the direct sum of its fibers' modules, so a class dies in M[S]_Theta
    exactly when it dies in each fiber's coinvariants, which it reaches
    through that fiber's block of rows of the degree-zero basis.
    """
    pm = build_place_module(data)

    def components():
        r = data.module.rank
        rows = pm.basis.entries
        start = 0
        for f in pm.fibers:
            stop = start + f.degree * r
            block = IntMatrix(stop - start, pm.basis.cols, rows[start:stop])
            yield coinvariants(permutation_module(f, data.module)), block
            start = stop

    return _sha_result(pm, components)


def _shapiro_matrix(pm: PlaceModule, label: str) -> IntMatrix:
    """Component map M[S]_0 -> M for one place: m*w -> rep(w)^{-1} m on the
    fiber over the place, zero elsewhere.  Expressed on the degree-zero basis."""
    data = pm.data
    r = data.module.rank
    n_big = len(pm.points) * r
    rows = [[0] * n_big for _ in range(r)]
    for w in pm.fiber(label):
        rep = pm.points[w][1]
        block = data.module.act(data.theta.inv(rep))
        for i in range(r):
            for j in range(r):
                rows[i][w * r + j] = block.entries[i][j]
    return IntMatrix(r, n_big, tuple(map(tuple, rows))) @ pm.basis


def local_torsion_quotient(data: GlobalData, label: str) -> LatticeQuotient:
    """M_{Theta_v,Tors} for the decomposition group at the labeled place."""
    place = data.place(label)
    return torsion_coinvariants(restrict_module(data.module, place.decomposition))


def sha1_shapiro(data: GlobalData) -> ShaResult:
    """The same kernel through the local groups M_{Theta_v} directly.

    Each place contributes the map m*w -> [rep(w)^{-1} m] into the
    coinvariants of its decomposition subgroup; the classes that every place
    sends to zero are returned, out of the domain of ``sha1_S``.
    """
    pm = build_place_module(data)

    def components():
        for p in data.places:
            yield coinvariants(restrict_module(data.module, p.decomposition)), _shapiro_matrix(pm, p.label)

    return _sha_result(pm, components)


# -- obstruction to the existence of a global class ----------------------


class GlobalClassResult:
    """The verdict of ``tate_obstruction``, with the sum it read it from."""

    def __init__(
        self,
        exists: bool,
        obstruction: AbElement,
        target_invariants: tuple[int, ...],
        contributions: tuple[tuple[str, tuple[int, ...]], ...],
        local_classes: tuple[tuple[str, tuple[int, ...]], ...],
    ):
        self.exists = exists
        self.obstruction = obstruction
        self.target_invariants = target_invariants
        self.contributions = contributions
        self.local_classes = local_classes

    @property
    def verdict(self) -> str:
        return "EXISTS" if self.exists else "OBSTRUCTED"


def tate_obstruction(data: GlobalData, local_classes) -> GlobalClassResult:
    """Sum the natural projections of local torsion classes into M_{Theta,Tors}.

    A family of local classes arises from a global one exactly when the sum
    vanishes; the nonzero sum is the obstruction.  Unlisted places are taken
    to carry the zero class.
    """
    tors_theta = torsion_coinvariants(data.module)
    total = tors_theta.group.zero()
    contributions = []
    echo = []
    for label in sorted(local_classes):
        lq = local_torsion_quotient(data, label)
        cls = class_in(lq.group, local_classes[label], f"local_classes.{label}")
        vec = lq.lift(cls)
        img = tors_theta.project(vec)
        contributions.append((label, img.coords))
        echo.append((label, cls.coords))
        total = total + img
    return GlobalClassResult(
        exists=total.is_zero(),
        obstruction=total,
        target_invariants=tors_theta.group.invariant_factors,
        contributions=tuple(contributions),
        local_classes=tuple(echo),
    )


# -- pushforward along a tower level --------------------------------------


class PushforwardResult:
    """Certificate for the comparison map between two levels of place data.

    ``beta`` collapses each orbit of the intermediate subgroup to one place;
    ``section`` is induced by any set-theoretic section and is independent of
    the choice.  beta . section is always the identity; section . beta is the
    identity exactly on the certified instances.
    """

    def __init__(
        self,
        hypothesis_holds: bool,
        fixed_points: tuple[tuple[int, int | None], ...],
        beta: InducedMap,
        section: InducedMap,
        beta_after_section_id: bool,
        section_after_beta_id: bool,
        orbit_count: int,
        source_invariants: tuple[int, ...],
        target_invariants: tuple[int, ...],
    ):
        self.hypothesis_holds = hypothesis_holds
        self.fixed_points = fixed_points
        self.beta = beta
        self.section = section
        self.beta_after_section_id = beta_after_section_id
        self.section_after_beta_id = section_after_beta_id
        self.orbit_count = orbit_count
        self.source_invariants = source_invariants
        self.target_invariants = target_invariants

    @property
    def iso_certified(self) -> bool:
        return self.beta_after_section_id and self.section_after_beta_id

    @cached_property
    def kernel(self) -> LatticeQuotient:
        """The kernel of ``beta``, computed when first read."""
        return self.beta.kernel()


def lemma_pushforward(
    group_ek: FiniteGroup,
    sub_ef: Subgroup,
    module: GModule,
    action_e: PermAction,
) -> PushforwardResult:
    """Compare degree-zero coinvariants across the collapse of place fibers.

    ``group_ek`` acts on the top place set; ``sub_ef`` is the normal subgroup
    fixing the intermediate field, which must act trivially on the lattice.
    If every element of ``sub_ef`` fixes some place, both composites are
    certified to be the identity and the collapse map is an isomorphism.
    When some element is fixed-point-free the comparison can fail and a
    HYPOTHESIS_FAIL error carries the violating element plus a kernel witness.
    """
    if sub_ef.parent != group_ek:
        raise DomainError("intermediate subgroup must live in the top group")
    if action_e.group != group_ek or module.group != group_ek:
        raise DomainError("action and module must be over the top group")
    if not sub_ef.is_normal():
        raise DomainError("intermediate subgroup must be normal")
    eye = IntMatrix.identity(module.rank)
    for h in sub_ef.members:
        if module.act(h) != eye:
            raise DomainError("the lattice action must factor through the quotient group")

    # orbit space of sub_ef = the lower place set, with the quotient action
    orbit_of = [-1] * action_e.degree
    orbit_reps = []
    for x in range(action_e.degree):
        if orbit_of[x] >= 0:
            continue
        idx = len(orbit_reps)
        orbit_reps.append(x)
        for h in sub_ef.members:
            orbit_of[action_e.act(h, x)] = idx
    n_orbits = len(orbit_reps)

    quot, proj = quotient_group(group_ek, sub_ef)
    reps = sub_ef.left_reps
    images_f = tuple(
        tuple(orbit_of[action_e.act(reps[q], orbit_reps[o])] for o in range(n_orbits))
        for q in quot.elements()
    )
    action_f = PermAction(quot, n_orbits, images_f)
    module_f = GModule(quot, module.rank, tuple(module.act(reps[q]) for q in quot.generating_set()))

    deg0_e = degree_zero_submodule(action_e, module)[0]
    deg0_f = degree_zero_submodule(action_f, module_f)[0]

    # collapse each point onto its orbit; the section picks the orbit representatives
    beta_deg0 = degree_zero_map(orbit_of, n_orbits, eye)
    sect_deg0 = degree_zero_map(orbit_reps, action_e.degree, eye)

    coinv_e = coinvariants(deg0_e)
    coinv_f = coinvariants(deg0_f)
    beta = InducedMap(coinv_e, coinv_f, beta_deg0)
    section = InducedMap(coinv_f, coinv_e, sect_deg0)

    bs_id = InducedMap.compose(beta, section).is_identity_on(coinv_f)
    sb_id = InducedMap.compose(section, beta).is_identity_on(coinv_e)

    fixed = tuple((h, action_e.fixed_point(h)) for h in sub_ef.members)
    hypothesis = all(pt is not None for _, pt in fixed)

    if not bs_id:
        raise TheoremViolationError("collapse composed with its section must be the identity")
    if hypothesis and not sb_id:
        raise TheoremViolationError(
            "fixed-place hypothesis holds but the comparison map is not an isomorphism"
        )

    result = PushforwardResult(
        hypothesis_holds=hypothesis,
        fixed_points=fixed,
        beta=beta,
        section=section,
        beta_after_section_id=bs_id,
        section_after_beta_id=sb_id,
        orbit_count=n_orbits,
        source_invariants=coinv_e.group.invariant_factors,
        target_invariants=coinv_f.group.invariant_factors,
    )
    if not hypothesis:
        violating = next(h for h, pt in fixed if pt is None)
        kernel = result.kernel
        witness = None
        if not kernel.group.is_trivial:
            witness = tuple(kernel.generator_vectors()[0])
        raise HypothesisFailError(
            f"element {violating} fixes no place; only the one-sided identity is certified",
            violating=violating,
            kernel_group=kernel.group,
            witness=witness,
            result=result,
        )
    return result


def pushforward_counter_instance() -> tuple[FiniteGroup, Subgroup, GModule, PermAction]:
    """Order-2 group swapping two places, trivial lattice: no fixed place.

    The collapse map has kernel of order 2, witnessing that the fixed-place
    hypothesis cannot be dropped.
    """
    from .gmodule import cyclic, full_subgroup, trivial_module

    g = cyclic(2)
    sub = full_subgroup(g)
    module = trivial_module(g, 1)
    action = PermAction(g, 2, ((0, 1), (1, 0)))
    return g, sub, module, action
