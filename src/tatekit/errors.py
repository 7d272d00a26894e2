"""Exception types shared across the package.

Every exception carries a stable ``code`` string so the command line layer
can map failures to exit codes without string matching: domain errors
(bad input, unsatisfiable request) exit with 1, violations of facts the
library treats as theorems exit with 2.

``Frozen``, the base of the package's immutable value types, lives here
because every module imports this one.
"""


class Frozen:
    """Refuses assignment and deletion of attributes with AttributeError.

    Subclasses write their fields once, in ``__init__``, through
    ``object.__setattr__``; ``functools.cached_property`` still fills its
    slot, since it writes the instance ``__dict__`` directly.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TatekitError(Exception):
    code = "ERROR"


class DomainError(TatekitError):
    """Invalid or out-of-domain input; the computation never started."""

    code = "DOMAIN_ERROR"


class TheoremViolationError(TatekitError):
    """A certified identity failed to hold.  Always a bug somewhere."""

    code = "THEOREM_VIOLATION"


class MembershipError(DomainError):
    code = "NOT_IN_LATTICE"


class CoordinateLengthError(DomainError):
    """Class coordinates of the wrong length for the group they name."""

    code = "COORDINATE_LENGTH"


class SubgroupMismatchError(DomainError):
    code = "SUBGROUP_MISMATCH"


class BadResidueError(DomainError):
    code = "BAD_RESIDUE"


class ZeroInputError(DomainError):
    code = "ZERO_INPUT"


class OddDegreeError(DomainError):
    code = "ODD_DEGREE"


class TooLargeError(DomainError):
    code = "TOO_LARGE"


class UnknownPlaceError(DomainError):
    code = "UNKNOWN_PLACE"


class NoDominatorError(DomainError):
    code = "NO_DOMINATOR"


class HypothesisFailError(DomainError):
    """Fixed-point hypothesis of the pushforward comparison failed.

    Carries the violating group element and, when the kernel of the
    forward map is nonzero, a witness class demonstrating non-injectivity.
    """

    code = "HYPOTHESIS_FAIL"

    def __init__(self, message, violating=None, kernel_group=None, witness=None, result=None):
        super().__init__(message)
        self.violating = violating
        self.kernel_group = kernel_group
        self.witness = witness
        self.result = result


class ParseError(DomainError):
    code = "PARSE_ERROR"


class SchemaError(DomainError):
    code = "SCHEMA_ERROR"


class TransferNonzeroError(TheoremViolationError):
    code = "TRANSFER_NONZERO"


class NoPigeonholeError(TheoremViolationError):
    code = "NO_PIGEONHOLE"


class BoundViolationError(TheoremViolationError):
    code = "BOUND_FAILED"
