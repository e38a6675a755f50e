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

Rational = Fraction


_binom_cache: dict = {}


def binom(n: int, m: int) -> int:
    """Binomial coefficient C(n, m) for any integer n and natural m.

    Computed as the falling-factorial product n(n-1)...(n-m+1)/m!, which
    is an exact integer for every integer n.  C(n, 0) = 1.
    """
    if m < 0:
        raise ValueError("lower argument must be nonnegative")
    cached = _binom_cache.get((n, m))
    if cached is not None:
        return cached
    num = 1
    for i in range(m):
        num *= n - i
    den = 1
    for i in range(2, m + 1):
        den *= i
    q, r = divmod(num, den)
    assert r == 0
    _binom_cache[(n, m)] = q
    return q


def parse_rational(text: str) -> Fraction:
    """Parse 'p', 'p/q' or a decimal-free signed integer string exactly;
    a zero denominator is a ValueError, like any other malformed text."""
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
