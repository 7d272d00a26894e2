"""Tate-Shafarevich kernels over abstract place data.

A global scenario is a finite group Theta acting on a lattice, plus a list
of labeled places, each carrying a decomposition subgroup.  The places above
a base place form the coset space Theta / Theta_v; summing over places gives
the permutation-tensor module M[S], its degree-zero part M[S]_0, and two
kernel descriptions: the inclusion form (degree-zero classes dying in the
full module) and the localization form (classes dying in every local group
M_{Theta_v}).

Each is computed twice.  ``sha1_homology`` and ``sha1_cone`` build neither
M[S] nor M[S]_0 and share no domain: the inclusion form is a cokernel of
corestriction on group homology, and the localization form a kernel out of
the cone of corestriction, both over one Cayley complex of Theta.  Their
generators are carried back to the degree-zero basis of M[S]_0, and
``sha1_forms`` checks that the two are the same subgroup.  The ``sha1`` op
reads both, and the splitting tower names its classes on ``sha1_cone``'s
generators.  ``sha1_S`` and ``sha1_shapiro``, which no op reads, are the
dense reference: they build M[S]_0 and take one ``common_kernel`` out of
(M[S]_0)_{Theta,Tors} on a generator g per invariant factor d with relation
d*g, into different targets; when that domain is 0 neither builds a target.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from .abgroup import AbElement, InducedMap, LatticeQuotient, class_in, cokernel, common_kernel
from .errors import (
    DomainError,
    Frozen,
    HypothesisFailError,
    MembershipError,
    TheoremViolationError,
    UnknownPlaceError,
)
from .gmodule import (
    FiniteGroup,
    GModule,
    PermAction,
    Subgroup,
    _cayley_walk,
    _minus_identity,
    _side_by_side,
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
from .matrices import IntMatrix, hnf_basis, kernel_basis, smith_normal_form

__all__ = [
    "PlaceDatum",
    "GlobalData",
    "PlaceModule",
    "build_place_module",
    "ShaResult",
    "sha1_S",
    "sha1_shapiro",
    "sha1_homology",
    "sha1_cone",
    "sha1_forms",
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
    """Kernel of a localization-style map out of (M[S]_0)_{Theta,Tors}.

    ``generators`` are lattice vectors on the degree-zero basis of M[S]_0,
    whichever presentation ``kernel`` and ``domain`` come from.
    """

    def __init__(
        self,
        group_invariants: tuple[int, ...],
        kernel: LatticeQuotient,
        domain: LatticeQuotient,
        generators: tuple[tuple[int, ...], ...],
    ):
        self.group_invariants = group_invariants
        self.kernel = kernel
        self.domain = domain
        self.generators = generators

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


# -- the same kernel without M[S]: group homology and the cone ---------------


class _CayleyComplex:
    """Degrees <= 2 of the free resolution of Z over Z[Theta] that the Cayley
    graph of X = ``generating_set()`` gives, tensored with M (Brown, II.5).

    A 1-chain lives in M^X, one slot of rank r per generator: the term
    c*h*e_x (x) m is c*A(h^-1)*m in slot x.  ``paths[g]`` is the tree path
    T_g from 1 to g, built along the walk's tree edges as T_b = T_a + a*e_x
    for b = a*x, and kept tensored with a basis of M: the r|X| rows of the
    block whose column j is T_g (x) e_j.  ``d1``, with blocks A(x^-1) - I,
    is the boundary into M; ``b1`` holds the 1-boundaries, r columns per
    non-tree edge (g, x, b): the cycle T_g + g*e_x - T_b, whose boundary is
    g*x - b = 0.  ``inv[g]`` holds the rows of A(g^-1).
    """

    def __init__(self, module: GModule):
        theta, r = module.group, module.rank
        gens = theta.generating_set()
        self.gens, self.rank, self.dim = gens, r, r * len(gens)
        self.inv = [module.act(theta.inv(g)).entries for g in theta.elements()]
        _, tree, others = _cayley_walk(theta.identity, gens, theta.mul)
        paths = {theta.identity: ((0,) * r,) * self.dim}
        for b, (a, i) in tree.items():
            paths[b] = self._step(paths[a], a, i)
        self.paths = paths
        self.d1 = _side_by_side(r, [_minus_identity(self.inv[x]) for x in gens])
        self.b1 = _side_by_side(
            self.dim, [tuple(map(_sub, self._step(paths[g], g, i), paths[b])) for g, i, b in others]
        )

    def _step(self, path: tuple, a: int, i: int) -> tuple:
        """The block of path + a*e_x for x the i-th generator."""
        r = self.rank
        rows = list(path)
        rows[i * r : (i + 1) * r] = map(_add, rows[i * r : (i + 1) * r], self.inv[a])
        return tuple(rows)


@lru_cache(maxsize=32)
def _cayley_complex(module: GModule) -> _CayleyComplex:
    return _CayleyComplex(module)


def _add(p: tuple, q: tuple) -> tuple:
    return tuple(map(int.__add__, p, q))


def _sub(p: tuple, q: tuple) -> tuple:
    return tuple(map(int.__sub__, p, q))


def _corestriction(cx: _CayleyComplex, sub: Subgroup) -> IntMatrix:
    """The image of Z_1(Theta_v, M) in Z_1(Theta, M): the cycles of the
    subgroup's own complex, ``kernel_basis`` of [A(y^-1) - I]_y over its
    generators y, with m in slot y sent to T_y (x) m."""
    ys = sub.generating_set()
    cycles = kernel_basis(_side_by_side(cx.rank, [_minus_identity(cx.inv[y]) for y in ys]))
    return _side_by_side(cx.dim, [cx.paths[y] for y in ys]) @ cycles


class _Points:
    """Where Phi puts its terms: the fiber points of ``build_place_module``,
    numbered from each place's coset index, without building the fibers.

    ``home[v]`` is the point of fiber v whose coset is Theta_v itself, and
    ``back[i]`` is x^-1 * w0 for the i-th generator x, where w0 is point 0.
    """

    def __init__(self, data: GlobalData):
        theta, subs = data.theta, [p.decomposition for p in data.places]
        offsets = list(itertools.accumulate((h.index for h in subs), initial=0))
        self.degree = offsets[-1]
        self.home = [off + h._coset_index[theta.identity] for off, h in zip(offsets, subs)]
        first = subs[0]
        rep = first.left_reps[0]
        self.back = [first._coset_index[theta.mul(theta.inv(x), rep)] for x in theta.generating_set()]


def _to_degree_zero(cx: _CayleyComplex, pts: _Points, a, b) -> tuple[int, ...]:
    """Phi(a, b): a cone 1-cycle, a_v in M per place (none: all zero) and
    b in M^X with sum_v a_v + d1 b = 0, carried to M[S]_0 on its
    degree-zero basis.

    Phi(a, b) = sum_v a_v at home[v] + sum_x (A(x^-1) b_x at x^-1 * w0 -
    b_x at w0): Shapiro's lemma on the places, and on b the boundary of its
    lift through m -> m at w0, the connecting map of 0 -> M[S]_0 -> M[S]
    -> M -> 0.  The total has degree zero, so its first (deg - 1) * r
    entries are its coordinates.
    """
    r = cx.rank
    vec = [0] * (pts.degree * r)

    def put(w, m):
        vec[w * r : (w + 1) * r] = map(int.__add__, vec[w * r : (w + 1) * r], m)

    for w, av in zip(pts.home, a):
        put(w, av)
    for i, x in enumerate(cx.gens):
        bx = b[i * r : (i + 1) * r]
        put(pts.back[i], (sum(map(int.__mul__, row, bx)) for row in cx.inv[x]))
        put(0, (-c for c in bx))
    return tuple(vec[: (pts.degree - 1) * r])


def _degree_zero_is_zero(data: GlobalData) -> bool:
    """Whether M[S]_0, of rank (sum_v [Theta:Theta_v] - 1) r, is 0: no place,
    a rank-0 module, or one place whose decomposition group is Theta.  Then
    its coinvariants are 0, and so is the kernel."""
    return (sum(p.decomposition.index for p in data.places) - 1) * data.module.rank <= 0


def _trivial_result() -> ShaResult:
    zero = cokernel(IntMatrix(0, 0, ()))
    return ShaResult(group_invariants=(), kernel=zero, domain=zero, generators=())


def sha1_homology(data: GlobalData) -> ShaResult:
    """The kernel of ``sha1_S``, up to isomorphism, from group homology.

    The sequence 0 -> M[S]_0 -> M[S] -> M -> 0 and Shapiro's lemma make it
    coker(sum_v H_1(Theta_v, M) -> H_1(Theta, M)), the map being
    corestriction (Brown, III.5-III.9); the connecting map delta carries it
    onto the kernel, and H_1 is finite, so that is all of it.  It is
    presented as Z_1 / (B_1 + the corestricted cycles) in M^X, and
    ``domain`` is that same quotient.  The generators are delta of its
    generator cycles z, Phi(0, z), on the degree-zero basis.  Where M[S]_0
    is 0 the kernel is 0, and nothing is built; that covers no place at
    all, where M[S] -> M is not onto and the sequence does not apply.
    """
    if _degree_zero_is_zero(data):
        return _trivial_result()
    cx = _cayley_complex(data.module)
    cor = [_corestriction(cx, p.decomposition) for p in data.places]
    quotient = LatticeQuotient(cx.dim, kernel_basis(cx.d1), _side_by_side(cx.dim, [m.entries for m in [cx.b1, *cor]]))
    pts = _Points(data)
    return ShaResult(
        group_invariants=quotient.group.invariant_factors,
        kernel=quotient,
        domain=quotient,
        generators=tuple(_to_degree_zero(cx, pts, (), z) for z in quotient.generator_vectors()),
    )


def _cone_domain(data: GlobalData, cx: _CayleyComplex) -> LatticeQuotient:
    """H_1 of the cone of corestriction, which is (M[S]_0)_Theta.

    The cone's 1-cycles are (a, b) in M^S + M^X with sum_v a_v + d1 b = 0
    (Weibel, 1.5), free on (a_2, ..., a_s, b) since the condition fixes
    a_1.  Its boundaries are spanned by (0, c) for c in B_1 and, for each
    place v and generator y of Theta_v, by (-(A(y^-1) - I) m at a_v,
    T_y (x) m), with the a_1 rows deleted.
    """
    r, rows_a = cx.rank, cx.rank * (len(data.places) - 1)
    zero_a = (0,) * rows_a
    columns = [zero_a + c for c in zip(*cx.b1.entries)]
    for k, p in enumerate(data.places):
        for y in p.decomposition.generating_set():
            move = _minus_identity(cx.inv[y])
            for j in range(r):
                head = zero_a
                if k:
                    at = (k - 1) * r
                    head = zero_a[:at] + tuple(-row[j] for row in move) + zero_a[at + r :]
                columns.append(head + tuple(row[j] for row in cx.paths[y]))
    n = rows_a + cx.dim
    return cokernel(hnf_basis(IntMatrix(n, len(columns), tuple(zip(*columns)) if columns else ((),) * n)))


def _cone_kernel(data: GlobalData, cx: _CayleyComplex, tors: LatticeQuotient) -> ShaResult:
    """The classes of the cone domain's torsion ``tors`` whose every a_v dies
    in M_{Theta_v}, the coinvariants at v (Shapiro in degree 0): a_v is read
    off its rows, and a_1 = -sum_{v >= 2} a_v - d1 b.  A trivial ``tors``
    is its own kernel, and no map out of it is built."""
    ker, gens = tors, []
    if not tors.group.is_trivial:
        r, s = cx.rank, len(data.places)
        rows_a = r * (s - 1)
        n = rows_a + cx.dim
        maps = []
        for k, p in enumerate(data.places):
            if k:
                at = (k - 1) * r
                rows = tuple((0,) * (at + i) + (1,) + (0,) * (n - at - i - 1) for i in range(r))
            else:
                rows = tuple(
                    tuple(-1 if c % r == i else 0 for c in range(rows_a)) + tuple(-x for x in cx.d1.entries[i])
                    for i in range(r)
                )
            target = coinvariants(restrict_module(data.module, p.decomposition))
            maps.append(InducedMap(tors, target, IntMatrix(r, n, rows)))
        ker = common_kernel(tors, maps)
        pts = _Points(data)
        for vec in ker.generator_vectors():
            b = vec[rows_a:]
            a = [vec[(k - 1) * r : k * r] for k in range(1, s)]
            a_first = tuple(-x - sum(av[i] for av in a) for i, x in enumerate(cx.d1.mul_vec(b)))
            gens.append(_to_degree_zero(cx, pts, [a_first, *a], b))
    return ShaResult(
        group_invariants=ker.group.invariant_factors,
        kernel=ker,
        domain=tors,
        generators=tuple(gens),
    )


def sha1_cone(data: GlobalData) -> ShaResult:
    """The kernel of ``sha1_shapiro``, out of the cone of corestriction.

    C_*(Theta, M[S]_0) is quasi-isomorphic to the shifted cone of
    corestriction sum_v C_*(Theta_v, M) -> C_*(Theta, M), so its H_1 is
    (M[S]_0)_Theta (``_cone_domain``), of rank r(|S| - 1 + |X|) where the
    dense domain has (sum_v [Theta:Theta_v] - 1) r.  The kernel is the
    classes every place sends to zero in M_{Theta_v}, taken out of the
    torsion on one generator per invariant factor, as ``sha1_S`` takes it;
    Phi carries its generators to the degree-zero basis of M[S]_0.  Where
    M[S]_0 is 0 the kernel is 0, and nothing is built.
    """
    if _degree_zero_is_zero(data):
        return _trivial_result()
    cx = _cayley_complex(data.module)
    return _cone_kernel(data, cx, _cone_domain(data, cx).torsion_on_generators())


def _same_kernel(inclusion: ShaResult, localization: ShaResult, domain: LatticeQuotient) -> bool:
    """Whether the homology kernel and the cone kernel are the same subgroup
    of the cone ``domain``: equal invariants, and the classes of (0, z) for
    the homology generator cycles z generate the cone kernel, which holds
    when the Smith form of [their class coordinates | diag(d)] has only unit
    factors.  Each (0, z) is moved onto the torsion generators, whose span
    holds the kernel's lattice, through its class in ``domain``; a class
    outside the cone kernel is a disagreement too."""
    factors = localization.group_invariants
    if inclusion.group_invariants != factors:
        return False
    ker, tors = localization.kernel, localization.domain
    t = len(tors.group.invariant_factors)
    pad = (0,) * (domain.ambient_rank - inclusion.kernel.ambient_rank)
    try:
        cols = [
            ker.project(tors.basis.mul_vec(domain.project(pad + z).coords[:t])).coords
            for z in inclusion.kernel.generator_vectors()
        ]
    except MembershipError:
        return False
    rows = tuple(
        tuple(c[i] for c in cols) + (0,) * i + (d,) + (0,) * (len(factors) - 1 - i) for i, d in enumerate(factors)
    )
    sf = smith_normal_form(IntMatrix(len(factors), len(cols) + len(factors), rows), cols=False, inverses=False)
    return sf.diagonal == (1,) * len(factors)


def sha1_forms(data: GlobalData) -> tuple[ShaResult, ShaResult, bool]:
    """Both descriptions of the kernel without M[S]: the inclusion form by
    ``sha1_homology``, the localization form by ``sha1_cone``, and whether
    they are the same subgroup.  The cone domain comes first: with no
    torsion it makes both forms 0, and the homology is not built."""
    if _degree_zero_is_zero(data):
        zero = _trivial_result()
        return zero, zero, True
    cx = _cayley_complex(data.module)
    domain = _cone_domain(data, cx)
    localization = _cone_kernel(data, cx, domain.torsion_on_generators())
    if localization.domain.group.is_trivial:
        return localization, localization, True
    inclusion = sha1_homology(data)
    return inclusion, localization, _same_kernel(inclusion, localization, domain)


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
