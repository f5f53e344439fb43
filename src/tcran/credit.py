"""Exact rational credit arithmetic.

Credit is the conserved quantity of the whole protocol: every split,
transfer and merge has to balance to the last digit, so values are
``fractions.Fraction`` rationals and never floats.

Credits serialize as ``"num/den"`` strings (``"9/10"``), or just
``"num"`` when the denominator is 1.  The constructor and the parser
reject negative values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from .errors import NegativeCredit, ZeroCredit

BACKEND = "fractions"

Credit = Fraction

ZERO: Credit = Fraction(0)
ONE: Credit = Fraction(1)


def credit(num: int, den: int = 1) -> Credit:
    """Build an exact credit from an integer numerator/denominator pair."""
    c = Fraction(num, den)
    if c < 0:
        raise NegativeCredit(f"credit {num}/{den} is negative")
    return c


_WIRE_RE = re.compile(r"(\d+)(?:/(\d+))?")


def parse_credit(text: str) -> Credit:
    """Parse the wire form: "9/10", "1", "0".

    Raises ValueError on anything else (including negatives and floats);
    callers with line-number context wrap it into ParseError.
    """
    m = _WIRE_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a credit: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def render_credit(c: Credit) -> str:
    """Wire form of a credit; inverse of parse_credit."""
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def credit_sum(values: Iterable[Credit]) -> Credit:
    it = iter(values)
    total = next(it, ZERO)
    for v in it:
        total = total + v
    return total


def split_credit(c: Credit, q: int) -> list[Credit]:
    """Split c into q+1 equal, strictly positive parts that sum to c.

    Element 0 is the retained share; elements 1..q go to recipients.
    q == 0 returns [c] unchanged.  Splitting zero credit into positive
    shares is impossible and raises ZeroCredit.
    """
    if q < 0:
        raise ValueError(f"negative recipient count: {q}")
    if q == 0:
        return [c]
    if c == ZERO:
        raise ZeroCredit(f"cannot split zero credit among {q} recipients")
    return [c / (q + 1)] * (q + 1)
