"""Credit arithmetic: exactness, splits, serialization."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import tcran
from tcran.credit import (
    ONE,
    ZERO,
    Credit,
    credit,
    credit_sum,
    parse_credit,
    render_credit,
    split_credit,
)
from tcran.errors import NegativeCredit, ZeroCredit

# Build values through the public constructor, which rejects negatives.
credits = st.builds(
    credit, st.integers(0, 10**6), st.integers(1, 10**6)
)
positive_credits = st.builds(
    credit, st.integers(1, 10**6), st.integers(1, 10**6)
)


def test_add_tenths_is_exactly_one():
    assert credit(1, 10) + credit(9, 10) == ONE


def test_add_zero_is_identity():
    x = credit(7, 13)
    assert x + ZERO == x


def test_add_thirds_matches_fraction_oracle():
    assert credit(1, 3) + credit(1, 6) == Fraction(1, 2)


def test_sub_retains_tenth():
    assert ONE - credit(9, 10) == credit(1, 10)


def test_sub_self_is_zero():
    x = credit(3, 7)
    assert x - x == ZERO


def test_sub_matches_fraction_oracle():
    assert credit(1, 2) - credit(1, 3) == Fraction(1, 6)


def test_split_zero_recipients_returns_input():
    c = credit(5, 9)
    assert split_credit(c, 0) == [c]


def test_split_equal_one_into_quarters():
    assert split_credit(ONE, 3) == [credit(1, 4)] * 4


def test_split_zero_credit_raises():
    with pytest.raises(ZeroCredit):
        split_credit(ZERO, 2)


@given(positive_credits, st.integers(0, 40))
def test_split_parts_sum_exactly_and_stay_positive(c, q):
    parts = split_credit(c, q)
    assert len(parts) == q + 1
    assert credit_sum(parts) == c
    assert all(p > 0 for p in parts)


@given(credits, credits)
def test_add_then_sub_round_trips(a, b):
    assert (a + b) - b == a


@given(credits, credits)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(credits)
def test_serialization_round_trips(c):
    assert parse_credit(render_credit(c)) == c


def test_render_integer_has_no_denominator():
    assert render_credit(ONE) == "1"
    assert render_credit(credit(9, 10)) == "9/10"
    assert render_credit(ZERO) == "0"


@pytest.mark.parametrize("bad", ["-1/2", "1/-2", "1/0", "0.5", "x", "", "1 / 2"])
def test_parse_rejects_junk(bad):
    with pytest.raises(ValueError):
        parse_credit(bad)


def test_parse_accepts_wire_forms():
    assert parse_credit("9/10") == credit(9, 10)
    assert parse_credit("1") == ONE
    assert parse_credit("0") == ZERO
    assert parse_credit(" 7/20 ") == credit(7, 20)


def test_constructor_rejects_negative():
    with pytest.raises(NegativeCredit):
        credit(-1, 2)


def test_backend_agrees_with_fraction_on_chained_arithmetic():
    # A protocol-shaped computation against a stdlib Fraction oracle.
    ours = ZERO
    ref = Fraction(0)
    for num, den in [(1, 10), (9, 10), (7, 20), (1, 16), (3, 7), (11, 13)]:
        ours = ours + credit(num, den)
        ref += Fraction(num, den)
    ours = ours - credit(1, 7)
    ref -= Fraction(1, 7)
    assert ours == ref


def test_backend_name_is_reported():
    assert tcran.BACKEND == "fractions"


# --- Credit against fractions.Fraction as the reference ----------------------

numerators = st.integers(-(10**9), 10**9)
denominators = st.integers(1, 10**6)


@st.composite
def credit_pairs(draw):
    """Two signed Credits whose reduced denominators are equal, coprime,
    share a factor, or are both 1."""
    na, nb = draw(numerators), draw(numerators)
    kind = draw(st.sampled_from(["equal", "coprime", "shared", "integer"]))
    if kind == "equal":
        da = db = draw(denominators)
        na, nb = na * da + 1, nb * da - 1  # coprime to da, so da survives
    elif kind == "coprime":
        da = draw(denominators)
        db = draw(denominators.filter(lambda d: gcd(d, da) == 1))
    elif kind == "shared":
        g = draw(st.integers(2, 1000))
        da, db = g * draw(st.integers(1, 1000)), g * draw(st.integers(1, 1000))
    else:
        da = db = 1
    return Credit(na, da), Credit(nb, db)


def assert_same(got, ref):
    assert type(got) is Credit
    assert got == ref
    assert (got.numerator, got.denominator) == (ref.numerator, ref.denominator)
    assert hash(got) == hash(ref)


@given(credit_pairs())
@example((Credit(1, 6), Credit(1, 6)))  # the sum reduces by the shared factor
@example((Credit(1, 6), Credit(-1, 6)))  # zero keeps denominator 1
@example((Credit(5, 12), Credit(7, 18)))
@example((Credit(3), Credit(3)))
def test_add_and_sub_match_fraction(pair):
    a, b = pair
    fa, fb = Fraction(a), Fraction(b)
    for op in (operator.add, operator.sub):
        assert_same(op(a, b), op(fa, fb))
        assert_same(op(b, a), op(fb, fa))


@given(credit_pairs())
@example((Credit(2, 7), Credit(2, 7)))
def test_comparisons_match_fraction(pair):
    a, b = pair
    fa, fb = Fraction(a), Fraction(b)
    for x, y, fx, fy in ((a, b, fa, fb), (a, a + ZERO, fa, fa)):
        assert (x == y) is (fx == fy)
        assert (x != y) is (fx != fy)
        assert (x < y) is (fx < fy)
        assert (y < x) is (fy < fx)


@given(st.builds(Credit, numerators, denominators), st.integers(1, 10**4))
@example(Credit(0), 3)
@example(Credit(6, 7), 3)
@example(Credit(-9, 4), 6)
def test_division_by_a_positive_int_matches_fraction(c, q):
    assert_same(c / q, Fraction(c) / q)


def test_mixing_with_int_and_fraction_stays_exact():
    a, f = credit(5, 6), Fraction(1, 4)
    assert a + 1 == 1 + a == Fraction(11, 6)
    assert a - f == Fraction(7, 12)
    assert f - a == Fraction(-7, 12)
    assert a * 2 == 2 * a == Fraction(5, 3)
    assert a / f == Fraction(10, 3)
    assert a / -5 == Fraction(-1, 6)
    assert a == Fraction(5, 6) == a
    assert a != f
    assert credit(3) == 3
    assert credit(3) != 4
    assert ZERO == 0
    assert (a == "5/6") is False
    assert a != "5/6"
    assert hash(credit(3)) == hash(3)
    assert {Fraction(5, 6): 1}[a] == 1
    with pytest.raises(ZeroDivisionError):
        a / 0


def test_constructors_return_credit():
    for c in (ZERO, ONE, credit(3, 9), parse_credit("9/10"), *split_credit(ONE, 2)):
        assert type(c) is Credit
