"""Residue-field and square-class arithmetic for local fields of odd residue
characteristic.

Finite fields are represented as F_p[x] modulo the lexicographically least
monic irreducible polynomial of the requested degree, elements as coefficient
tuples (constant term first).  Square classes of a local field K with odd
residue characteristic form a Klein four group generated by a nonsquare unit
and a uniformizer; they are manipulated here as an abstract enum.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache

from .errors import (
    BadResidueError,
    DomainError,
    Frozen,
    OddDegreeError,
    TooLargeError,
    ZeroInputError,
)

__all__ = [
    "SquareClass",
    "ResidueField",
    "residue_field",
    "TruncatedElement",
    "teichmuller_lift",
    "square_class",
    "TameExtDescriptor",
    "quadratic_subextension",
    "quadratic_subextension_with_trace",
    "is_square_in_extension",
    "is_prime",
]

MAX_FIELD_DEGREE = 6
# bits of the lift modulus p^precision; keeps report integers far below the
# interpreter's int/str conversion limit and a lift well under a second
MAX_LIFT_BITS = 4096
# the p-adic precision of a multiplicative lift when no caller names one
DEFAULT_PRECISION = 8


class SquareClass(Enum):
    """K*/K*^2 for a local field with odd residue characteristic.

    Bits: low bit toggles the nonsquare unit, high bit the uniformizer.
    """

    ONE = 0
    EPS = 1
    PI = 2
    EPS_PI = 3

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return SquareClass(self.value ^ other.value)

    @property
    def is_unit(self) -> bool:
        return self.value < 2

    def label(self) -> str:
        return {0: "1", 1: "eps", 2: "pi", 3: "eps*pi"}[self.value]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for anything that fits in 128 bits."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# polynomial helpers: coefficient tuples, constant term first, over F_p


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        coef = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - coef * c) % p
    return _poly_trim(a)


def _poly_powmod(a, e, m, p):
    result = (1,)
    base = _poly_mod(a, m, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a = list(_poly_mod(a, b, p))
        a, b = b, a
    return _poly_trim(a)


def _prime_factors(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _is_irreducible(m, p):
    """Rabin's test: x^(p^r) = x and gcd(x^(p^(r/l)) - x, m) = 1 for prime l | r."""
    r = len(m) - 1
    x = (0, 1)
    if _poly_powmod(x, p**r, m, p) != _poly_mod(x, m, p):
        return False
    for ell in _prime_factors(r):
        xe = _poly_powmod(x, p ** (r // ell), m, p)
        diff = [(xe[i] if i < len(xe) else 0) for i in range(max(len(xe), 2))]
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(m, _poly_trim(diff), p)
        if len(g) - 1 > 0:
            return False
    return True


@lru_cache(maxsize=64)
def _least_irreducible(p: int, r: int) -> tuple[int, ...]:
    if r == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=r):
        m = tuple(tail) + (1,)
        if m[0] == 0:
            continue
        if _is_irreducible(m, p):
            return m
    raise RuntimeError("no irreducible polynomial found")


class ResidueField(Frozen):
    """F_{p^r} with elements as coefficient tuples of length r; immutable."""

    _fields = ("p", "r", "modulus")

    @property
    def size(self) -> int:
        return self.p**self.r

    def _pad(self, c) -> tuple[int, ...]:
        c = tuple(int(x) % self.p for x in c)
        if len(c) > self.r:
            c = _poly_mod(c, self.modulus, self.p)
        return c + (0,) * (self.r - len(c))

    def element(self, c) -> tuple[int, ...]:
        if isinstance(c, int):
            return self._pad((c,))
        return self._pad(c)

    def one(self) -> tuple[int, ...]:
        return self._pad((1,))

    def elements(self):
        for tail in itertools.product(range(self.p), repeat=self.r):
            yield tail

    def mul(self, a, b):
        return self._pad(_poly_mul(self._pad(a), self._pad(b), self.p))

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        return self._pad(_poly_powmod(self._pad(a), e, self.modulus, self.p))

    def inv(self, a):
        a = self._pad(a)
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.size - 2)

    def is_zero(self, a) -> bool:
        return not any(self._pad(a))

    def is_square(self, a) -> bool:
        a = self._pad(a)
        if not any(a):
            return True
        if self.p == 2:
            return True
        return self.pow(a, (self.size - 1) // 2) == self.one()

    def nonsquare(self) -> tuple[int, ...]:
        """Lexicographically least nonsquare element."""
        if self.p == 2:
            raise BadResidueError("every element is a square in characteristic two")
        for c in self.elements():
            e = self._pad(c)
            if any(e) and not self.is_square(e):
                return e
        raise RuntimeError("no nonsquare found")


def residue_field(p: int, r: int = 1) -> ResidueField:
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if r < 1:
        raise DomainError("degree must be positive")
    if r > MAX_FIELD_DEGREE:
        raise TooLargeError(f"field degree {r} exceeds the supported bound {MAX_FIELD_DEGREE}")
    return ResidueField(p, r, _least_irreducible(p, r))


# -- truncated p-adic units ----------------------------------------------


class TruncatedElement(Frozen):
    """Integer approximation of a p-adic number modulo p^precision; immutable."""

    _fields = ("p", "precision", "value")

    def __init__(self, p: int, precision: int, value: int):
        super().__init__(p, precision, value % p**precision)

    @property
    def modulus(self) -> int:
        return self.p**self.precision


def teichmuller_lift(alpha, field: ResidueField, precision: int = DEFAULT_PRECISION) -> TruncatedElement:
    """Multiplicative lift of a nonzero residue, computed by Frobenius iteration.

    The sequence x, x^p, x^(p^2), ... modulo p^precision is eventually
    constant and its limit is the unique (p-1)-st root of unity congruent to
    alpha.  Only prime residue fields are supported.
    """
    if field.r != 1:
        raise DomainError("multiplicative lifts are computed over prime fields only")
    a = field.element(alpha)[0] if not isinstance(alpha, int) else alpha % field.p
    if a % field.p == 0:
        raise ZeroInputError("zero has no multiplicative lift")
    if precision < 1:
        raise DomainError("precision must be positive")
    p = field.p
    bits = precision * p.bit_length()  # an upper bound on the bit length of p^precision
    if bits > MAX_LIFT_BITS:
        raise TooLargeError(
            f"lift modulus {p}^{precision} has up to {bits} bits, over the bound of {MAX_LIFT_BITS}"
        )
    mod = p**precision
    x = a % mod
    while True:
        y = pow(x, p, mod)
        if y == x:
            break
        x = y
    return TruncatedElement(p, precision, x)


# -- square classes ------------------------------------------------------


def square_class(valuation: int, unit_residue, field: ResidueField) -> SquareClass:
    """Class of pi^valuation * u in K*/K*^2, from the residue of the unit u."""
    if field.p == 2:
        raise BadResidueError("square classes require odd residue characteristic")
    res = field.element(unit_residue)
    if field.is_zero(res):
        raise ZeroInputError("unit residue must be nonzero")
    sq = field.is_square(res)
    if valuation % 2 == 0:
        return SquareClass.ONE if sq else SquareClass.EPS
    return SquareClass.PI if sq else SquareClass.EPS_PI


def is_square_in_extension(field: ResidueField, a, f: int) -> bool:
    """Whether a base-field element becomes a square in the degree-f extension.

    Uses a^((q^f - 1)/2) = a^(((q^f - 1)/2) mod (q - 1)), half of (q^f - 1)
    mod 2(q - 1): neither the big field nor q^f is formed, so f may be huge.
    """
    if f < 1:
        raise DomainError("extension degree must be positive")
    a = field.element(a)
    if field.is_zero(a):
        return True
    if field.p == 2:
        return True
    q = field.size
    e = (pow(q, f, 2 * (q - 1)) - 1) % (2 * (q - 1)) // 2
    return field.pow(a, e) == field.one()


class TameExtDescriptor(Frozen):
    """Shape of a local field extension E/K: residue degree f, ramification
    index e, wild part exponent (must be zero here), and the residue of the
    unit alpha for which E's ramified layer is generated by an e-th root of
    alpha times a uniformizer.  ``alpha`` is a residue of the base field.
    Immutable.
    """

    _fields = ("f", "e", "alpha", "wild_exponent")
    alpha = 1
    wild_exponent = 0


def quadratic_subextension(desc: TameExtDescriptor, field: ResidueField) -> SquareClass:
    cls, _ = quadratic_subextension_with_trace(desc, field)
    return cls


def quadratic_subextension_with_trace(
    desc: TameExtDescriptor, field: ResidueField
) -> tuple[SquareClass, list[str]]:
    """Square class delta with K(sqrt(delta)) the quadratic subextension of E/K.

    For even residue degree this is the unramified quadratic extension, class
    eps.  For odd residue degree and even ramification the answer is a ramified
    class beta*pi, where beta is trivial exactly when alpha is a square in the
    residue field of E.  The result is never the trivial class.
    """
    trace: list[str] = []
    if field.p == 2:
        raise BadResidueError("square classes require odd residue characteristic")
    if desc.wild_exponent != 0:
        raise DomainError("wild ramification is not supported")
    if desc.f < 1 or desc.e < 1:
        raise DomainError("degrees must be positive")
    if desc.e % field.p == 0:
        raise DomainError("ramification index must be prime to the residue characteristic")
    trace.append(f"extension shape f={desc.f} e={desc.e} over residue field of size {field.size}")
    if desc.f % 2 == 0:
        trace.append("residue degree even: quadratic layer is unramified, class eps")
        return SquareClass.EPS, trace
    if desc.e % 2 != 0:
        raise OddDegreeError("total degree is odd, no quadratic subextension")
    alpha = field.element(desc.alpha)
    if field.is_zero(alpha):
        raise ZeroInputError("ramified layer needs a nonzero unit residue")
    # e = 2d: the ramified layer contains sqrt(alpha * pi); compare alpha
    # against squares of E's residue field, an extension of degree f.
    sq = is_square_in_extension(field, alpha, desc.f)
    trace.append(
        f"residue degree odd, e={desc.e} even: quadratic layer generated by "
        f"sqrt(alpha*pi), alpha {'square' if sq else 'nonsquare'} in the degree-{desc.f} extension"
    )
    beta = SquareClass.ONE if sq else SquareClass.EPS
    result = beta * SquareClass.PI
    trace.append(f"class {result.label()}")
    return result, trace
