"""Residue fields, multiplicative lifts, and square-class arithmetic."""

import itertools

import pytest

from tatekit.errors import (
    BadResidueError,
    DomainError,
    OddDegreeError,
    TooLargeError,
    ZeroInputError,
)
from tatekit.local import (
    MAX_FIELD_DEGREE,
    SquareClass,
    TameExtDescriptor,
    is_prime,
    is_square_in_extension,
    quadratic_subextension,
    quadratic_subextension_with_trace,
    residue_field,
    square_class,
    teichmuller_lift,
)


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(-3, 600):
        assert is_prime(n) == trial_division(n), n


# -- residue fields --------------------------------------------------------

FIELD_SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]


@pytest.mark.parametrize("p,r", FIELD_SHAPES)
def test_field_axioms(p, r):
    fld = residue_field(p, r)
    assert fld.size == p**r
    one = fld.one()
    frob_fixed = 0
    for c in fld.elements():
        a = fld.element(c)
        assert fld.pow(a, fld.size) == a  # x^q = x
        if fld.pow(a, p) == a:
            frob_fixed += 1
        if not fld.is_zero(a):
            assert fld.mul(a, fld.inv(a)) == one
    # Frobenius fixes exactly the prime subfield
    assert frob_fixed == p


def test_field_constructor_guards():
    with pytest.raises(DomainError):
        residue_field(4)
    with pytest.raises(DomainError):
        residue_field(5, 0)
    with pytest.raises(TooLargeError):
        residue_field(3, MAX_FIELD_DEGREE + 1)


@pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (13, 2)])
def test_is_square_matches_enumeration(p, r):
    fld = residue_field(p, r)
    squares = {fld.mul(x, x) for x in fld.elements()}
    for c in fld.elements():
        assert fld.is_square(c) == (fld.element(c) in squares)


def test_nonsquare_is_lexicographically_least():
    fld = residue_field(7, 2)
    ns = fld.nonsquare()
    assert not fld.is_square(ns)
    for c in itertools.takewhile(lambda c: c < ns, fld.elements()):
        if any(c):
            assert fld.is_square(c)
    with pytest.raises(BadResidueError):
        residue_field(2, 2).nonsquare()


# -- truncated units and multiplicative lifts -------------------------------


def test_teichmuller_golden_value():
    t = teichmuller_lift(2, residue_field(5), precision=3)
    assert t.value == 57
    assert pow(t.value, 2, t.modulus) == 125 - 1  # lift of -1


def test_teichmuller_defining_property_exhaustive():
    for p in (3, 5, 7, 11, 13):
        fld = residue_field(p)
        for prec in range(1, 7):
            mod = p**prec
            for a in range(1, p):
                t = teichmuller_lift(a, fld, prec)
                assert pow(t.value, p, mod) == t.value
                assert t.value % p == a


def test_teichmuller_is_multiplicative():
    fld = residue_field(11)
    prec = 5
    for a in range(1, 11):
        for b in range(1, 11):
            lhs = teichmuller_lift(a * b % 11, fld, prec)
            ta, tb = teichmuller_lift(a, fld, prec), teichmuller_lift(b, fld, prec)
            assert lhs.value == ta.value * tb.value % ta.modulus


def test_teichmuller_guards():
    with pytest.raises(ZeroInputError):
        teichmuller_lift(0, residue_field(5))
    with pytest.raises(DomainError):
        teichmuller_lift(1, residue_field(5), precision=0)
    with pytest.raises(DomainError):
        teichmuller_lift(1, residue_field(5, 2))


# -- square classes ----------------------------------------------------------


def test_square_class_group_law():
    cs = list(SquareClass)
    assert len(cs) == 4
    for c in cs:
        assert c * SquareClass.ONE == c
        assert c * c == SquareClass.ONE
    assert SquareClass.EPS * SquareClass.PI == SquareClass.EPS_PI
    assert SquareClass.EPS_PI * SquareClass.PI == SquareClass.EPS
    assert SquareClass.ONE.is_unit and SquareClass.EPS.is_unit
    assert not SquareClass.PI.is_unit and not SquareClass.EPS_PI.is_unit


def test_square_class_from_valuation_and_residue():
    fld = residue_field(5)
    assert square_class(0, 1, fld) == SquareClass.ONE
    assert square_class(0, 2, fld) == SquareClass.EPS  # 2 is not a square mod 5
    assert square_class(1, 4, fld) == SquareClass.PI
    assert square_class(1, 3, fld) == SquareClass.EPS_PI
    assert square_class(2, 2, fld) == square_class(0, 2, fld)
    assert square_class(-1, 4, fld) == SquareClass.PI
    with pytest.raises(BadResidueError):
        square_class(0, 1, residue_field(2))
    with pytest.raises(ZeroInputError):
        square_class(0, 0, fld)


def test_is_square_in_extension_matches_big_field():
    for p in (3, 5, 7):
        base = residue_field(p)
        for f in range(1, 5):
            big = residue_field(p, f)
            for a in range(p):
                embedded = big.element((a,))
                assert is_square_in_extension(base, a, f) == big.is_square(embedded), (p, f, a)
    with pytest.raises(DomainError):
        is_square_in_extension(residue_field(3), 1, 0)


# -- quadratic subextension ---------------------------------------------------


def test_even_residue_degree_gives_unramified_class():
    fld = residue_field(7)
    for f in (2, 4, 6):
        for e in (1, 2, 3, 5):
            desc = TameExtDescriptor(f=f, e=e, alpha=3)
            assert quadratic_subextension(desc, fld) == SquareClass.EPS


def test_odd_total_degree_has_no_quadratic_layer():
    fld = residue_field(5)
    for f in (1, 3):
        for e in (1, 3, 7):
            with pytest.raises(OddDegreeError):
                quadratic_subextension(TameExtDescriptor(f=f, e=e), fld)


def test_ramified_layer_golden():
    fld = residue_field(5)
    assert quadratic_subextension(TameExtDescriptor(f=1, e=2, alpha=2), fld) == SquareClass.EPS_PI
    assert quadratic_subextension(TameExtDescriptor(f=1, e=2, alpha=1), fld) == SquareClass.PI
    # over the cubic residue extension, squareness of alpha is decided there
    assert quadratic_subextension(TameExtDescriptor(f=3, e=2, alpha=2), fld) == SquareClass.EPS_PI


def test_quadratic_subextension_never_trivial():
    fld = residue_field(11)
    for f in range(1, 5):
        for e in range(1, 7):
            if e % 11 == 0 or (f % 2 and e % 2):
                continue
            for alpha in (1, 2, 6):
                got = quadratic_subextension(TameExtDescriptor(f=f, e=e, alpha=alpha), fld)
                assert got != SquareClass.ONE
                if f % 2:
                    assert not got.is_unit


def test_quadratic_subextension_guards():
    fld = residue_field(3)
    with pytest.raises(BadResidueError):
        quadratic_subextension(TameExtDescriptor(f=2, e=1), residue_field(2))
    with pytest.raises(DomainError):
        quadratic_subextension(TameExtDescriptor(f=1, e=2, wild_exponent=1), fld)
    with pytest.raises(DomainError):
        quadratic_subextension(TameExtDescriptor(f=2, e=6), fld)  # e divisible by p
    with pytest.raises(DomainError):
        quadratic_subextension(TameExtDescriptor(f=0, e=2), fld)
    with pytest.raises(ZeroInputError):
        quadratic_subextension(TameExtDescriptor(f=1, e=2, alpha=0), fld)


def test_trace_narrates_the_decision():
    fld = residue_field(5)
    cls, trace = quadratic_subextension_with_trace(TameExtDescriptor(f=1, e=2, alpha=2), fld)
    assert cls == SquareClass.EPS_PI
    assert any("nonsquare" in line for line in trace)
    assert trace[-1].endswith(cls.label())
