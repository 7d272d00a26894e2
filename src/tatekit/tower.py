"""Subgroup counting bounds, degree-exponent formulas, and a splitting-tower
simulator over abstract place data.

The tower is a chain of levels indexed by s = 1..r where level s carries the
group Theta x Z/n^(s-1).  The top modulus n^(r-1) is astronomically large for
all but toy inputs, so nothing here ever materializes it: a decomposition
subgroup of Theta x Z/n^(r-1) is stored in projection/step/value form
(:class:`ProductSubgroup`) on which fiber sizes, images at lower levels, and
the effective quotient that actually acts are all small gcd computations.
Once its order e divides n^(s-2), the middle transfer is n and the full one
n times the low one, so one transfer gives both classes, and the transported
class dies when n * alpha_mid = 0.  The base level and the effective one are
compared by :func:`tatekit.sha.lemma_pushforward`, which collapses the orbits
of the cyclic factor onto the places below.
"""

from __future__ import annotations

from math import gcd, lcm

from .abgroup import class_in
from .errors import (
    BoundViolationError,
    DomainError,
    Frozen,
    NoPigeonholeError,
    TooLargeError,
    TransferNonzeroError,
)
from .gmodule import (
    FiniteGroup,
    Subgroup,
    _cayley_walk,
    _close,
    cyclic,
    degree_zero_map,
    direct_product,
    pullback_module,
    subgroup,
    torsion_coinvariants,
    transfer,
)
from .matrices import IntMatrix
from .sha import GlobalData, PlaceDatum, build_place_module, lemma_pushforward, sha1_cone

__all__ = [
    "MAX_ENUM_ORDER",
    "MAX_LEVEL_RANK",
    "MAX_RHO_BITS",
    "ExponentTriple",
    "ProductSubgroup",
    "SimulationReport",
    "SubgroupBoundReport",
    "TowerConfig",
    "default_tower_config",
    "degree_exponents",
    "enumerate_subgroups",
    "product_subgroup",
    "simulate_splitting_tower",
    "subgroup_bound_check",
]

MAX_ENUM_ORDER = 64
# bits of rho = (theta - 1) * theta^lam + 1; at most bit_length(theta)^2, so
# theta orders below 2^64 pass and every accepted report encodes
MAX_RHO_BITS = 4096
# the largest level-s place module built, of rank (set_sizes[-1] - 1) * r: about 2 s on a 2-core Xeon
MAX_LEVEL_RANK = 640


# -- subgroup enumeration and the counting bound --------------------------


def enumerate_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """All subgroups, found by closing one added generator at a time.

    Deliberately capped at order ``MAX_ENUM_ORDER``; the lattice of a larger
    group is outside the supported range and the cap keeps worst cases sane.
    """
    if group.order > MAX_ENUM_ORDER:
        raise TooLargeError(
            f"subgroup enumeration supports order <= {MAX_ENUM_ORDER}, got {group.order}"
        )
    base = frozenset({group.identity})
    gens_of = {base: ()}  # each subgroup, by the generators that first reached it
    queue = [base]
    for h in queue:
        for x in group.elements():
            if x in h:
                continue
            gens = gens_of[h] + (x,)
            bigger = frozenset(_close(group, gens))
            if bigger not in gens_of:
                gens_of[bigger] = gens
                queue.append(bigger)
    ordered = sorted(gens_of, key=lambda m: (len(m), tuple(sorted(m))))
    return [subgroup(group, sorted(m)) for m in ordered]


class SubgroupBoundReport(Frozen):
    """sub(G) against |G|^lam for one group; immutable."""

    _fields = ("group_order", "lam", "subgroup_count", "bound", "holds")


def subgroup_bound_check(group: FiniteGroup) -> SubgroupBoundReport:
    """Check sub(G) <= |G|^floor(log2 |G|); a false result is a hard failure."""
    subs = enumerate_subgroups(group)
    lam = group.order.bit_length() - 1
    bound = group.order**lam
    report = SubgroupBoundReport(group.order, lam, len(subs), bound, len(subs) <= bound)
    if not report.holds:
        raise BoundViolationError(
            f"group of order {group.order} has {len(subs)} subgroups, bound {bound}"
        )
    return report


class ExponentTriple(Frozen):
    """Exponents controlling the tower: length, and the total degree budget.

    ``d`` bounds the exponent of the splitting degree reachable through a
    tower of length ``rho + 1`` stacked on one quadratic and one auxiliary
    layer; ``lam`` is the generator bound floor(log2 theta_order).
    Immutable.
    """

    _fields = ("theta_order", "lam", "rho", "d")


def degree_exponents(theta_order: int) -> ExponentTriple:
    if theta_order < 1:
        raise DomainError("group order must be positive")
    lam = theta_order.bit_length() - 1
    bits = theta_order.bit_length() * (lam + 1)  # an upper bound on the bit length of rho
    if bits > MAX_RHO_BITS:
        raise TooLargeError(
            f"rho for a theta order of {lam + 1} bits has up to {bits} bits, over the bound of {MAX_RHO_BITS}"
        )
    rho = (theta_order - 1) * theta_order**lam + 1
    return ExponentTriple(theta_order, lam, rho, rho + lam + 1)


# -- decomposition subgroups of Theta x Z/n^(r-1) --------------------------


class ProductSubgroup(Frozen):
    """Subgroup of Theta x Z/n^(r-1) that never materializes the modulus.

    The subgroup is determined by its projection ``members_theta`` to Theta,
    the gcd of the cycle defects of its generating data (the intersection
    with 1 x Z/n^(r-1) is gcd(defect_gcd, n^(r-1)) * Z; ``defect_gcd == 0``
    encodes a trivial raw intersection), and one transversal value per
    projected element.  Images at a small modulus m dividing the top one are
    then pure gcd arithmetic.  Immutable.
    """

    _fields = ("theta", "members_theta", "defect_gcd", "values")

    def step_at(self, m: int) -> int:
        """Step of the intersection of the image in Theta x Z/m with 1 x Z/m."""
        return gcd(self.defect_gcd, m) if self.defect_gcd else m

    def fiber_size(self, m: int) -> int:
        """Index of the image in Theta x Z/m, i.e. the orbit size over this place."""
        return self.theta.order * self.step_at(m) // len(self.members_theta)

    def full_second_projection(self, n: int) -> bool:
        """Whether the image projects onto the full cyclic factor at every level."""
        g = self.defect_gcd
        for v in self.values:
            g = gcd(g, v)
        if g == 0:
            return n == 1
        return gcd(g, n) == 1

    def members_at(self, e: int) -> list[int]:
        """Members of the image in direct_product(theta, cyclic(e)), by index."""
        step = self.step_at(e)
        out = []
        for t, v in zip(self.members_theta, self.values):
            for c in range(v % step, e, step):
                out.append(t * e + c)
        return sorted(out)


def product_subgroup(theta: FiniteGroup, gens) -> ProductSubgroup:
    """Goursat-style data of the subgroup generated by pairs (t, c).

    ``c`` values are plain integers (arbitrarily large); defects of the cycle
    closures of a spanning tree generate the cyclic-factor intersection, so
    their gcd together with the modulus determines it at every level.
    """
    pairs = []
    for t, c in gens:
        t = int(t)
        if not 0 <= t < theta.order:
            raise DomainError("generator outside the group")
        pairs.append((t, int(c)))
    _, tree, others = _cayley_walk(theta.identity, [t for t, _ in pairs], theta.mul)
    val = {theta.identity: 0}
    for b, (a, i) in tree.items():
        val[b] = val[a] + pairs[i][1]
    d = 0
    for a, i, b in others:
        d = gcd(d, val[a] + pairs[i][1] - val[b])
    members = tuple(sorted(val))
    values = tuple(val[t] % d if d else val[t] for t in members)
    return ProductSubgroup(theta, members, d, values)


# -- tower configuration ----------------------------------------------------


class TowerConfig(Frozen):
    """Input data for the splitting-tower simulation.

    ``sigma`` assigns to every place of ``data`` the generators of its
    decomposition subgroup at the top level, as pairs (theta element, cyclic
    exponent).  An auxiliary place with decomposition 1 x Z/n^(r-1) is
    adjoined internally, under a label no place of ``data`` carries
    (:func:`_auxiliary_label`); intermediate levels are derived by
    reduction, never stored.  Immutable.
    """

    _fields = ("data", "n", "sigma")

    def __init__(self, data: GlobalData, n: int, sigma: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]):
        if n < 1:
            raise DomainError("tower degree must be positive")
        if not data.places:
            raise DomainError("at least one place is required")
        labels = [label for label, _ in sigma]
        expected = [p.label for p in data.places]
        if sorted(labels) != sorted(expected) or len(set(labels)) != len(labels):
            raise DomainError("sigma assignments must cover each place exactly once")
        super().__init__(data, n, sigma)


def default_tower_config(data: GlobalData, n: int) -> TowerConfig:
    """Assign each place the subgroup generated by (h, 1) over its generators.

    A trivial decomposition group gets (identity, 1) so the place still has
    full local degree up the tower.
    """
    sigma = []
    for p in data.places:
        gens = list(p.decomposition.generating_set())
        if not gens:
            gens = [data.theta.identity]
        sigma.append((p.label, tuple((g, 1) for g in gens)))
    return TowerConfig(data, n, tuple(sigma))


def _auxiliary_label(data: GlobalData) -> str:
    """``w``, primed until no place of ``data`` carries it."""
    labels = {p.label for p in data.places}
    label = "w"
    while label in labels:
        label += "'"
    return label


# -- the simulation ---------------------------------------------------------


class SimulationReport(Frozen):
    """Everything the tower run certifies, in one record.

    ``cardinality_sequence`` counts places level by level up to ``chosen_s``
    in the +1 convention: the auxiliary orbit contributes a single
    distinguished point.  ``set_sizes`` counts the honest underlying sets
    where that orbit is closed up to a full one.  Degrees are (base,
    exponent) pairs since the actual numbers can be astronomically large.
    """

    _fields = (
        "theta_order", "n", "tower_length", "chosen_s", "cardinality_sequence", "set_sizes", "effective_exponent",
        "effective_group_order", "alpha1", "alpha1_nonzero", "alpha_mid", "alpha_top", "transfer_vanished",
        "action_images_coincide", "mid_transfer_is_mult_n", "iso_certified", "splitting_degree", "bound"
    )

    @property
    def alpha_trace(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return (
            ("level_1", self.alpha1),
            (f"level_{self.chosen_s - 1}", self.alpha_mid),
            (f"level_{self.chosen_s}", self.alpha_top),
        )


def simulate_splitting_tower(cfg: TowerConfig, alpha) -> SimulationReport:
    """Run the tower: find the pigeonhole level, transport alpha up, transfer down.

    ``alpha`` is a class of the kernel of :func:`sha1_cone` on ``cfg.data``,
    killed by ``cfg.n``: an element of that group, or its coordinates on the
    generators the ``sha1`` op prints (``shapiro_form.generators``), naming
    sum_i alpha_i * generators[i].  Only the place data of level s are built.
    The run certifies, in order: the cardinality scan stays in its window and
    repeats at some level s <= r; collapsing the orbits of the cyclic factor
    and its section are mutually inverse on the full coinvariants
    (:func:`lemma_pushforward`, whose hypothesis holds because the factor
    fixes every auxiliary point); and the full transfer kills the
    transported class.  The gate e | n^(s-2), on the order e of the cyclic
    quotient that acts at level s, makes the action images at levels s-1 and
    s coincide, the middle transfer n and the full transfer n times the low
    one, so ``alpha_mid`` is the one transfer computed and
    ``transfer_vanished`` is checked as n * alpha_mid = 0.  Violations of
    the certified statements raise TheoremViolationError subclasses; bad
    inputs raise DomainError subclasses (coordinates of the wrong length:
    CoordinateLengthError).
    """
    data, n = cfg.data, cfg.n
    theta = data.theta
    vtheta = theta.order
    exps = degree_exponents(vtheta)
    r = exps.rho + 1

    tops: dict[str, ProductSubgroup] = {}
    for label, gens in cfg.sigma:
        place = data.place(label)
        ps = product_subgroup(theta, gens)
        if ps.members_theta != tuple(place.decomposition.members):
            raise DomainError(
                f"sigma assignment at {label!r} does not project onto the decomposition group"
            )
        if not ps.full_second_projection(n):
            raise DomainError(f"place {label!r} does not have full local degree")
        tops[label] = ps
    w_top = product_subgroup(theta, [(theta.identity, 1)])

    # cardinality scan; the window forces a repeat within (theta-1)*places steps
    base_count = len(data.places)
    lo, hi = base_count + 1, vtheta * base_count + 1
    scan_cap = min(r, (vtheta - 1) * base_count + 2)
    counts: list[int] = []
    chosen_s = None
    for s in range(1, scan_cap + 1):
        m = n ** (s - 1)
        count = sum(tops[p.label].fiber_size(m) for p in data.places) + 1
        if not lo <= count <= hi:
            raise NoPigeonholeError("place count escaped the pigeonhole window")
        if counts and count < counts[-1]:
            raise NoPigeonholeError("place counts must be non-decreasing up the tower")
        counts.append(count)
        if len(counts) >= 2 and counts[-1] == counts[-2]:
            chosen_s = s
            break
    if chosen_s is None:
        raise NoPigeonholeError("no consecutive levels with equal place counts")
    s = chosen_s
    ns = n ** (s - 1)
    n_prev = n ** (s - 2)
    set_sizes = tuple(c - 1 + vtheta for c in counts)
    level_rank = (set_sizes[-1] - 1) * data.module.rank
    if level_rank > MAX_LEVEL_RANK:
        raise TooLargeError(f"the level-{s} place module has rank {level_rank}, over the bound of {MAX_LEVEL_RANK}")

    # the effective cyclic quotient that actually acts at level s
    e = 1
    for ps in tops.values():
        e = lcm(e, ps.step_at(ns))
    if n_prev % e != 0:
        raise NoPigeonholeError("effective exponent fails to divide the sublevel degree")

    sha = sha1_cone(data)
    alpha_cls = class_in(sha.kernel.group, alpha, "alpha")
    if not (n * alpha_cls).is_zero():
        raise DomainError("class is not killed by the tower degree")

    ce = cyclic(e)
    geff = direct_product(theta, ce)
    meff = pullback_module(data.module, geff, tuple(g // e for g in range(geff.order)))

    eff_places = [
        PlaceDatum(p.label, subgroup(geff, tops[p.label].members_at(e)))
        for p in data.places
    ]
    eff_places.append(PlaceDatum(_auxiliary_label(data), subgroup(geff, w_top.members_at(e))))
    data_s = GlobalData(geff, meff, tuple(eff_places))
    pm_s = build_place_module(data_s)

    # level comparison: collapse the orbits of the cyclic factor 1 x Z/e, which
    # fixes every auxiliary point.  Numbered by their first points, the orbits
    # are the base places in order, then the auxiliary points.
    ident = theta.identity * e
    comparison = lemma_pushforward(geff, subgroup(geff, range(ident, ident + e)), meff, pm_s.action)
    # alpha on the degree-zero basis of M[S]_0 (sum_i alpha_i * generators[i]),
    # extended by zero onto the auxiliary points, then up by the section
    eye = IntMatrix.identity(data.module.rank)
    inc0 = degree_zero_map(range(sum(p.decomposition.index for p in data.places)), comparison.orbit_count, eye)
    lift = tuple(sum(c * g[i] for c, g in zip(alpha_cls.coords, sha.generators)) for i in range(inc0.cols))
    dom1 = torsion_coinvariants(pm_s.sub)
    alpha1 = dom1.project(comparison.section.matrix.mul_vec(inc0.mul_vec(lift)))

    # Past the gate e | n^(s-2), the top two level groups both map onto
    # theta0 = Theta x 0, and each transfer is a sum over C = 1 x Z/e with
    # integer weights: the low one is (n^(s-2)/e) * N_C, the middle one n * I
    # and the full one n times the low one.  So one transfer into the
    # theta0-coinvariants gives both classes: a right transversal of theta0
    # is C up to theta0-translates, which act trivially there.  alpha is
    # n-torsion, so alpha_top = n * alpha_mid is 0 unless the transport
    # alpha -> alpha1 fails to be a homomorphism.
    theta0 = subgroup(geff, sorted(t * e for t in theta.elements()))
    alpha_mid = (n_prev // e) * transfer(pm_s.sub, theta0, alpha1, source=dom1)
    alpha_top = n * alpha_mid
    if not alpha_top.is_zero():
        raise TransferNonzeroError(
            f"transferred class {alpha_top.coords} is nonzero at the chosen level"
        )

    return SimulationReport(
        theta_order=vtheta,
        n=n,
        tower_length=r,
        chosen_s=s,
        cardinality_sequence=tuple(counts),
        set_sizes=set_sizes,
        effective_exponent=e,
        effective_group_order=geff.order,
        alpha1=tuple(alpha1.coords),
        alpha1_nonzero=not alpha1.is_zero(),
        alpha_mid=tuple(alpha_mid.coords),
        alpha_top=tuple(alpha_top.coords),
        transfer_vanished=True,
        action_images_coincide=True,
        mid_transfer_is_mult_n=True,
        iso_certified=comparison.iso_certified,
        splitting_degree=(n, s - 1),
        bound=(n, exps.rho),
    )
