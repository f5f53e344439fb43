"""Exact rational credit arithmetic.

Credit is the conserved quantity of the whole protocol: every split,
transfer and merge has to balance to the last digit, so values are
exact rationals and never floats.

``Credit`` is a ``fractions.Fraction`` subclass with no state of its own.
The simulator re-checks conservation after every event, so a few
operations run on every event: ``+``, ``-``, ``==`` and ``!=`` between
two ``Credit`` values, and ``/`` by a positive ``int``.  For those,
``Credit`` reads the two lowest-terms slots, reduces with ``math.gcd``
and builds the result without ``Fraction.__new__`` or the ``numbers``
ABC checks behind Fraction's generic operators.  Any other operand, and
every other operation, goes to the inherited ``Fraction`` method, so
each value is exact and equal, in numerator, denominator and hash, to
what ``Fraction`` gives.  Mixed arithmetic with ``int`` or a plain
``Fraction`` returns a plain ``Fraction``; the engine keeps its credit
books closed under ``Credit``.

Credits serialize as ``"num/den"`` strings (``"9/10"``), or just
``"num"`` when the denominator is 1.  The constructor and the parser
reject negative values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable

from .errors import NegativeCredit, ZeroCredit

BACKEND = "fractions"


_new = object.__new__


def _reduced(num: int, den: int) -> Credit:
    # num/den is already in lowest terms with den > 0.
    c = _new(Credit)
    c._numerator = num
    c._denominator = den
    return c


def _add(na: int, da: int, nb: int, db: int) -> Credit:
    # na/da + nb/db for lowest-terms operands, reduced without a full
    # gcd of the product (Knuth, TAOCP vol. 2, 4.5.1).
    g = gcd(da, db)
    if g == 1:
        return _reduced(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _reduced(t, s * db)
    return _reduced(t // g2, s * (db // g2))


class Credit(Fraction):
    """An exact rational with fast same-type add, subtract, compare and split."""

    __slots__ = ()

    # Defining __eq__ would otherwise set __hash__ to None.
    __hash__ = Fraction.__hash__

    def __add__(a, b):
        if type(b) is Credit:
            return _add(a._numerator, a._denominator, b._numerator, b._denominator)
        return Fraction.__add__(a, b)

    def __sub__(a, b):
        if type(b) is Credit:
            return _add(a._numerator, a._denominator, -b._numerator, b._denominator)
        return Fraction.__sub__(a, b)

    def __eq__(a, b):
        if type(b) is Credit:
            return a._numerator == b._numerator and a._denominator == b._denominator
        return Fraction.__eq__(a, b)

    def __ne__(a, b):
        if type(b) is Credit:
            return a._numerator != b._numerator or a._denominator != b._denominator
        eq = Fraction.__eq__(a, b)
        return eq if eq is NotImplemented else not eq

    def __truediv__(a, b):
        if type(b) is int and b > 0:
            g = gcd(a._numerator, b)
            return _reduced(a._numerator // g, a._denominator * (b // g))
        return Fraction.__truediv__(a, b)


ZERO: Credit = Credit(0)
ONE: Credit = Credit(1)


def credit(num: int, den: int = 1) -> Credit:
    """Build an exact credit from an integer numerator/denominator pair."""
    c = Credit(num, den)
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
    return Credit(num, den)


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
