"""Ring behavior of the truncated integer power series."""

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gammashell.errors import DomainError
from gammashell.series import MSeries, dump_series

X = MSeries.monomial(1, 6, (1,))
ONE = MSeries.const(1, 6, 1)


def small_series(num_vars=2, truncation=3, max_coeff=5):
    exponents = st.tuples(
        *[st.integers(0, truncation) for _ in range(num_vars)]
    )
    return st.dictionaries(
        exponents, st.integers(-max_coeff, max_coeff), max_size=6
    ).map(lambda d: MSeries(num_vars, truncation, d))


def unit_series(num_vars=2, truncation=3):
    def set_unit(args):
        series, sign = args
        coeffs = dict(series.coeffs)
        coeffs[(0,) * num_vars] = sign
        return MSeries(num_vars, truncation, coeffs)

    return st.tuples(
        small_series(num_vars, truncation), st.sampled_from([1, -1])
    ).map(set_unit)


def test_geometric_series():
    inv = (ONE - X).invert_unit()
    assert inv.coeffs == {(k,): 1 for k in range(7)}


def test_square_of_a_sum():
    x = MSeries.monomial(2, 2, (1, 0))
    y = MSeries.monomial(2, 2, (0, 1))
    square = (x + y) ** 2
    assert square.coefficient((1, 1)) == 2
    assert square.coefficient((2, 0)) == 1
    assert square.coefficient((0, 2)) == 1


def test_binomial_powers():
    series = (MSeries.const(1, 6, 1) + X) ** 5
    for k in range(6):
        assert series.coefficient((k,)) == math.comb(5, k)
    assert (X ** 0) == ONE
    with pytest.raises(DomainError):
        X ** -1


def test_invert_rejects_nonunits():
    with pytest.raises(DomainError):
        MSeries.zero(2, 3).invert_unit()
    with pytest.raises(DomainError):
        MSeries.const(2, 3, 2).invert_unit()


def test_invert_negative_unit():
    inv = (-ONE + X).invert_unit()
    assert inv.coeffs == {(k,): -1 for k in range(7)}


@given(unit_series())
def test_inverse_is_a_two_sided_inverse(s):
    one = MSeries.const(s.num_vars, s.truncation, 1)
    assert s * s.invert_unit() == one
    assert s.invert_unit() * s == one


@given(small_series(), small_series(), small_series())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    zero = MSeries.zero(a.num_vars, a.truncation)
    assert a + zero == a
    assert a - a == zero


def test_permute_vars():
    m = MSeries.monomial(3, 4, (1, 2, 3))
    assert m.permute_vars((1, 0, 2)).coeffs == {(2, 1, 3): 1}
    assert m.permute_vars((0, 1, 2)) == m
    with pytest.raises(DomainError):
        m.permute_vars((0, 0, 2))


@given(small_series(num_vars=3))
def test_permutation_round_trip(s):
    sub = (2, 0, 1)
    inverse = (1, 2, 0)
    assert s.permute_vars(sub).permute_vars(inverse) == s


@given(small_series(truncation=4), small_series(truncation=4))
def test_truncation_commutes_with_multiplication(a, b):
    def restrict(s):
        kept = {e: c for e, c in s.coeffs.items() if max(e) <= 2}
        return MSeries(s.num_vars, 2, kept)

    assert restrict(a * b) == restrict(a) * restrict(b)


def test_coefficient_domain():
    s = MSeries.monomial(2, 3, (1, 1))
    assert s.coefficient((2, 2)) == 0
    with pytest.raises(DomainError):
        s.coefficient((4, 0))
    with pytest.raises(DomainError):
        s.coefficient((-1, 0))
    with pytest.raises(DomainError):
        s.coefficient((1, 1, 1))


def test_operands_must_share_the_box():
    with pytest.raises(DomainError):
        MSeries.zero(2, 3) + MSeries.zero(3, 3)
    with pytest.raises(DomainError):
        MSeries.zero(2, 3) * MSeries.zero(2, 4)


def test_canonical_form():
    s = MSeries(2, 3, {(1, 1): 0, (0, 1): 2})
    assert s.coeffs == {(0, 1): 2}
    with pytest.raises(DomainError):
        MSeries(2, 3, {(4, 0): 1})
    with pytest.raises(DomainError):
        MSeries(2, 3, {(-1, 0): 1})
    with pytest.raises(DomainError):
        MSeries(0, 3)
    with pytest.raises(DomainError):
        MSeries(2, -1)


def test_dump_lists_terms_in_exponent_order():
    s = MSeries(2, 3, {(1, 0): 3, (0, 2): -1, (0, 0): 7})
    text = dump_series(s)
    assert text == "0 0 : 7\n0 2 : -1\n1 0 : 3\n"
    assert dump_series(MSeries.zero(2, 3)) == ""


# -- frozen oracle for the packed-exponent kernels ----------------------------
#
# The seed's tuple-keyed multiplication and inversion, kept verbatim as an
# oracle for the packed kernels in MSeries.__mul__ and __truediv__ (which
# invert_unit calls); they must not be changed with them.


def _reference_mul(self, other):
    t = self.truncation
    out = {}
    a, b = self.coeffs, other.coeffs
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if any(x > t for x in e):
                continue
            out[e] = out.get(e, 0) + ca * cb
    return MSeries(self.num_vars, self.truncation, out)


def _reference_invert_unit(self):
    v, t = self.num_vars, self.truncation
    c0 = self.coeffs.get((0,) * v, 0)
    if c0 not in (1, -1):
        raise DomainError(f"constant term {c0} is not a unit")
    tail = [(d, c) for d, c in self.coeffs.items() if any(d)]
    inv = {(0,) * v: c0}
    exponents = sorted(
        itertools.product(range(t + 1), repeat=v), key=lambda e: (sum(e), e)
    )
    for e in exponents:
        if not any(e):
            continue
        s = 0
        for d, c in tail:
            if all(x <= y for x, y in zip(d, e)):
                prev = inv.get(tuple(y - x for x, y in zip(d, e)), 0)
                if prev:
                    s += c * prev
        if s:
            inv[e] = -c0 * s
    return MSeries(v, t, inv)


# every change of the packed field width: k = T.bit_length() + 1 grows
# between 0 and 1, 1 and 2, 3 and 4, 7 and 8, 15 and 16
ORACLE_TRUNCATIONS = [0, 1, 2, 3, 4, 7, 8, 15, 16]


def edge_series(num_vars, truncation, max_coeff=9):
    """Sparse series whose exponents favour 0, T, and the two halves of T.

    Two halves of T sum to T, on the box edge, or for odd T to T + 1, one
    step outside it.
    """
    t = truncation
    edges = st.sampled_from(sorted({0, t // 2, (t + 1) // 2, t}))
    component = st.one_of(st.integers(0, t), edges)
    exponents = st.tuples(*[component] * num_vars)
    coeffs = st.integers(-max_coeff, max_coeff)
    return st.dictionaries(exponents, coeffs, max_size=8).map(
        lambda d: MSeries(num_vars, t, d)
    )


@st.composite
def operand_pairs(draw, truncation):
    """(a, b) where b also holds the complements T - e of some terms of a,
    so that their products land exactly on the corner of the box."""
    v = draw(st.integers(1, 4))
    a = draw(edge_series(v, truncation))
    b = draw(edge_series(v, truncation))
    corner = {
        tuple(truncation - x for x in e): c
        for e, c in a.coeffs.items()
        if draw(st.booleans())
    }
    return a, b + MSeries(v, truncation, corner)


@st.composite
def edge_units(draw, truncation, max_coeff=9):
    """Units with constant term +-1; the box stays at most 17**3 terms."""
    v = draw(st.integers(1, 4 if truncation <= 7 else 3))
    coeffs = dict(draw(edge_series(v, truncation, max_coeff)).coeffs)
    coeffs[(0,) * v] = draw(st.sampled_from([1, -1]))
    return MSeries(v, truncation, coeffs)


@pytest.mark.parametrize("t", ORACLE_TRUNCATIONS)
@given(data=st.data())
def test_packed_mul_matches_the_tuple_reference(t, data):
    a, b = data.draw(operand_pairs(t))
    assert a * b == _reference_mul(a, b)
    assert b * a == _reference_mul(b, a)
    zero = MSeries.zero(a.num_vars, t)
    assert a * zero == _reference_mul(a, zero) == zero
    assert zero * zero == zero


@pytest.mark.parametrize("t", ORACLE_TRUNCATIONS)
@given(data=st.data())
def test_packed_inverse_matches_the_tuple_reference(t, data):
    s = data.draw(edge_units(t))
    assert s.invert_unit() == _reference_invert_unit(s)


BIG = 2**100


@pytest.mark.parametrize("t", ORACLE_TRUNCATIONS)
@given(data=st.data())
def test_packed_division_matches_the_tuple_reference(t, data):
    b = data.draw(edge_units(t, BIG))
    a = data.draw(edge_series(b.num_vars, t, BIG))
    assert a / b == _reference_mul(a, _reference_invert_unit(b))
    assert b / b == MSeries.const(b.num_vars, t, 1)


def test_division_restarts_with_wider_fields():
    # the coefficients 3^(i+j) C(i+j, i) of 1 / (1 - 3x - 3y) reach 80 bits
    # at T = 16, past the first 64-bit fields of the packed rows
    t = 16
    b = MSeries(2, t, {(0, 0): 1, (1, 0): -3, (0, 1): -3})
    a = MSeries.const(2, t, 1)
    q = a / b
    assert q == _reference_mul(a, _reference_invert_unit(b))
    assert max(abs(c) for c in q.coeffs.values()).bit_length() == 80
    assert q.coefficient((16, 16)) == 3**32 * math.comb(32, 16)


def test_division_resumes_mid_box_at_each_wider_width():
    # the coefficients of 1 / (1 - 7x - 7y - 7z) fit well inside 64-bit
    # fields on the first row and pass 128 bits on the last, so the solve
    # widens its fields twice after solving some rows and resumes from the
    # rows already solved, re-packed at the new width
    t = 12
    b = MSeries(3, t, {(0, 0, 0): 1, (1, 0, 0): -7, (0, 1, 0): -7, (0, 0, 1): -7})
    a = MSeries(3, t, {(0, 0, 0): 1, (0, 1, 2): -5, (3, 0, 1): 2})
    q = a / b
    assert q == _reference_mul(a, _reference_invert_unit(b))
    first_row = [c for e, c in q.coeffs.items() if e[:2] == (0, 0)]
    assert max(map(abs, first_row)).bit_length() < 48
    assert max(map(abs, q.coeffs.values())).bit_length() > 140


def test_univariate_division_solves_within_one_row():
    t = 12
    b = MSeries(1, t, {(0,): 1, (1,): -1, (2,): -1})
    a = MSeries(1, t, {(1,): 1, (3,): 5})
    assert a / b == _reference_mul(a, _reference_invert_unit(b))
    fibonacci = [0, 1]
    while len(fibonacci) <= t:
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
    assert (MSeries.monomial(1, t, (1,)) / b).coeffs == {
        (k,): f for k, f in enumerate(fibonacci) if f
    }


def test_division_by_a_negative_unit():
    t = 5
    b = MSeries(3, t, {(0, 0, 0): -1, (0, 0, 2): 2, (1, 0, 1): -4, (0, 1, 0): 3})
    a = MSeries(3, t, {(0, 0, 0): 7, (2, 1, 0): -2, (0, 3, 5): 1})
    assert a / b == _reference_mul(a, _reference_invert_unit(b))


RING_OPERATIONS = {
    "add": lambda a, b, u: a + b,
    "sub": lambda a, b, u: a - b,
    "neg": lambda a, b, u: -a,
    "mul": lambda a, b, u: a * b,
    "div": lambda a, b, u: a / u,
    "invert": lambda a, b, u: u.invert_unit(),
    "permute": lambda a, b, u: a.permute_vars((2, 0, 1)),
}


@st.composite
def ring_results(draw):
    """The result of one ring operation on small series in one box."""
    operation = RING_OPERATIONS[draw(st.sampled_from(sorted(RING_OPERATIONS)))]
    a = draw(small_series(num_vars=3))
    b = draw(small_series(num_vars=3))
    u = draw(unit_series(num_vars=3))
    return operation(a, b, u)


@given(ring_results())
def test_ring_results_are_canonical(r):
    # the kernels build their results without re-checking exponents; the
    # public constructor, which checks everything, must agree with them
    assert MSeries(r.num_vars, r.truncation, r.coeffs) == r
    assert all(r.coeffs.values())


@given(small_series(), st.integers(-3, 3).filter(lambda c: c not in (1, -1)))
def test_division_rejects_nonunits_and_other_boxes(a, c0):
    v, t = a.num_vars, a.truncation
    x = MSeries.monomial(v, t, (1,) * v)
    with pytest.raises(DomainError, match="not a unit"):
        a / (MSeries.const(v, t, c0) + x)
    with pytest.raises(DomainError, match="arity"):
        a / MSeries.const(v + 1, t, 1)
    with pytest.raises(DomainError, match="truncation"):
        a / MSeries.const(v, t + 1, 1)


def test_non_int_data_is_rejected():
    with pytest.raises(DomainError, match="not an int"):
        MSeries(1, 3, {(0,): 1.0, (1,): 0.5})
    with pytest.raises(DomainError, match="not an int"):
        MSeries(1, 3, {(0,): 1, (1,): 0.5})
    with pytest.raises(DomainError, match="non-int"):
        MSeries(1, 3, {(0.5,): 1})
    with pytest.raises(DomainError, match="non-int"):
        MSeries.const(2, 3, 1).coefficient((0, 1.0))


MALFORMED = {
    "divide by an int": lambda: MSeries.const(1, 3, 1) / 2,
    "multiply by an int": lambda: MSeries.const(1, 3, 1) * 2,
    "add an int": lambda: MSeries.const(1, 3, 1) + 2,
    "subtract a string": lambda: MSeries.const(1, 3, 1) - "x",
    "int exponent key": lambda: MSeries(1, 3, {5: 1}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_operands_and_keys_raise_domain_error(case):
    with pytest.raises(DomainError):
        MALFORMED[case]()
