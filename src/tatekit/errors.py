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

    A record names its fields once, in ``_fields``, and inherits ``__init__``:
    the fields come by position or keyword, a field left out takes the class
    attribute of its name, and an unknown, repeated or missing field or an
    extra positional argument raises TypeError.  A record that checks its
    input hands its fields on through ``super().__init__``.  The eight types
    that key lru caches write theirs in their own ``__init__``, through
    ``object.__setattr__``, which is faster where inner loops build them.
    ``functools.cached_property`` still fills its slot, since it writes the
    instance ``__dict__`` directly.
    """

    _fields = ()

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} has {len(fields)} fields, got {len(args)} positional arguments")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__} got field {name!r} twice")
            values[name] = value
        for name in fields:
            if name not in values and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
            self.__dict__[name] = values[name] if name in values else getattr(cls, name)

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
