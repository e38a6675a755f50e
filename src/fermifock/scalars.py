"""Exact scalar arithmetic: arbitrary-precision rationals, binomials and
sparse term tables.

Every coefficient the package hands out is a `fractions.Fraction` (always
reduced, positive denominator).  Hot paths clear denominators once and
compute with ints: a `RationalFunction` holds integer numerator
coefficients over one common denominator (its `num` view gives the
Fractions), and the series engine and the bracket Pfaffians accumulate
ints and divide once at the end.  Plain ints mix freely with Fractions,
so the integer-valued helpers below return ints.

The sparse tables of the package (state terms, Laurent cells, numerator
polynomials, grids of rows) are dicts key -> nonzero scalar.  Three
routines keep that rule: `clear_denominators` is the one place a table
is put over its least common denominator, and `add_term` / `add_into`
add into a row in place, dropping every key whose sum cancels.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Dict, Hashable, Mapping, Tuple


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


_EXPONENT = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)e[-+]?\d+", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """Parse a rational exactly: 'p', 'p/q' or a plain decimal such as
    '1.5' (read as an exact decimal, never as a float).  No text with an
    'e' reaches `Fraction`: exponent notation such as '1e3' is refused,
    since '1e-99999999' alone would build a hundred-million-digit
    denominator.  A zero denominator is a ValueError, like any other
    malformed text."""
    text = text.strip()
    if "e" in text.lower():
        what = "exponent notation in" if _EXPONENT.fullmatch(text) else "no rational in"
        raise ValueError(f"{what} {text!r}: write p, p/q or a plain decimal")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(value: Fraction | int, den: int = 1) -> str:
    """Canonical text for the rational value / den, den >= 1: 'p' or 'p/q'
    with q > 1.  An int value is reduced by one gcd, with no Fraction."""
    if type(value) is int:
        g = gcd(value, den)
        p, q = value // g, den // g
    else:
        value = Fraction(value, den)
        p, q = value.numerator, value.denominator
    return str(p) if q == 1 else f"{p}/{q}"


def clear_denominators(values: Mapping) -> Tuple[Dict, int]:
    """(ints, D) with values[key] = ints[key] / D, D >= 1 the least common
    denominator; an empty table gives D = 1 and int values stay ints."""
    D = lcm(*(c.denominator for c in values.values()))
    return {key: c.numerator * (D // c.denominator) for key, c in values.items()}, D


def add_term(row: Dict, key: Hashable, value) -> None:
    """row[key] += value in place, dropping the key where the sum vanishes."""
    s = row.get(key, 0) + value
    if s:
        row[key] = s
    else:
        row.pop(key, None)


def add_into(row: Dict, terms: Mapping, k=1) -> Dict:
    """Add k * terms into row in place, dropping every key whose sum
    vanishes; returns row."""
    one = k == 1  # then c itself is added: 1 * c would build a new Fraction per entry
    for key, c in terms.items():
        s = row.get(key, 0) + (c if one else k * c)
        if s:
            row[key] = s
        else:
            row.pop(key, None)
    return row
