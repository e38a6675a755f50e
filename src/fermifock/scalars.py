"""Exact scalar arithmetic: arbitrary-precision rationals and binomials.

Every coefficient the package hands out is a `fractions.Fraction` (always
reduced, positive denominator).  Hot paths clear denominators once and
compute with ints: a `RationalFunction` holds integer numerator
coefficients over one common denominator (its `num` view gives the
Fractions), and the series engine and the bracket Pfaffians accumulate
ints and divide once at the end.  Plain ints mix freely with Fractions,
so the integer-valued helpers below return ints.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb


def binom(n: int, m: int) -> int:
    """Binomial coefficient C(n, m) for any integer n and natural m.

    `math.comb` for n >= 0; for n < 0 the reflection
    C(n, m) = (-1)^m C(m - n - 1, m).  C(n, 0) = 1.
    """
    if m < 0:
        raise ValueError("lower argument must be nonnegative")
    if n >= 0:
        return comb(n, m)
    return (-1) ** m * comb(m - n - 1, m)


def parse_rational(text: str) -> Fraction:
    """Parse a rational exactly by `Fraction`'s grammar: 'p', 'p/q', and
    also decimals and exponents such as '1.5' or '1e3' (read as exact
    decimals, never as floats); a zero denominator is a ValueError, like
    any other malformed text."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def format_rational(value: Fraction | int) -> str:
    """Canonical text for a rational: 'p' or 'p/q' with q > 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
