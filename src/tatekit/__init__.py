"""Exact integer linear algebra over finite group actions: coinvariant and
norm-kernel computations for lattice modules, square classes of local fields,
place-indexed kernels with their localization obstructions, and a
splitting-tower simulator whose gate e | n^(s-2) makes the middle transfer n
and the full transfer n times the low one, so it computes one transfer and
checks that the class dies as n * alpha_mid = 0.
"""

__version__ = "0.1.0"

from .abgroup import (
    INFINITE,
    AbElement,
    FinAbGroup,
    InducedMap,
    LatticeQuotient,
    class_in,
    cokernel,
    common_kernel,
    element_order,
)
from .errors import (
    BadResidueError,
    BoundViolationError,
    CoordinateLengthError,
    DomainError,
    HypothesisFailError,
    MembershipError,
    NoPigeonholeError,
    OddDegreeError,
    ParseError,
    SchemaError,
    SubgroupMismatchError,
    TatekitError,
    TheoremViolationError,
    TooLargeError,
    TransferNonzeroError,
    UnknownPlaceError,
    ZeroInputError,
)
from .gmodule import (
    FiniteGroup,
    GModule,
    PermAction,
    Subgroup,
    augmentation_kernel_module,
    coinvariants,
    coset_action,
    cyclic,
    dihedral,
    direct_product,
    direct_sum_modules,
    finite_group,
    from_permutations,
    generated_subgroup,
    invariants,
    klein_four,
    module_from_generators,
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
)
from .local import (
    ResidueField,
    SquareClass,
    TameExtDescriptor,
    TruncatedElement,
    is_prime,
    is_square_in_extension,
    quadratic_subextension,
    quadratic_subextension_with_trace,
    residue_field,
    square_class,
    teichmuller_lift,
)
from .matrices import IntMatrix, SmithForm, hnf_basis, kernel_basis, smith_normal_form
from .periodindex import (
    BranchWitness,
    CounterexampleReport,
    counterexample_torus,
    h1_local,
    mult_by_i_module,
    validate_report,
    verify_counterexample_local,
)
from .sha import (
    GlobalClassResult,
    GlobalData,
    PlaceDatum,
    PushforwardResult,
    ShaResult,
    build_place_module,
    lemma_pushforward,
    local_torsion_quotient,
    pushforward_counter_instance,
    sha1_S,
    sha1_cone,
    sha1_forms,
    sha1_homology,
    sha1_shapiro,
    tate_obstruction,
)
from .tower import (
    ExponentTriple,
    ProductSubgroup,
    SimulationReport,
    SubgroupBoundReport,
    TowerConfig,
    default_tower_config,
    degree_exponents,
    enumerate_subgroups,
    product_subgroup,
    simulate_splitting_tower,
    subgroup_bound_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
