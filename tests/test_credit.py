"""Credit arithmetic: exactness, splits, serialization."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tcran
from tcran.credit import (
    ONE,
    ZERO,
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
