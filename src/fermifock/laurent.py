"""Sparse Laurent polynomials with exact coefficients, and exponent boxes.

A LaurentPoly is a finite table mapping integer exponent tuples to nonzero
Fraction coefficients over a fixed ordered tuple of variables.  Exponents
may be negative.  A LaurentPoly holds no box: a truncated expansion is
certified only on the Box it was computed for, and `table[cell]` returns 0
outside it, so consumers must keep that box themselves.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Dict, Iterable, Tuple

from .scalars import add_into, add_term

Cell = Tuple[int, ...]


class Box:
    """Closed integer exponent box: one [lo, hi] interval per variable."""

    __slots__ = ("vars", "intervals")

    def __init__(self, variables: Iterable[str], intervals: Iterable[Tuple[int, int]]):
        self.vars = tuple(variables)
        self.intervals = tuple((int(lo), int(hi)) for lo, hi in intervals)
        if len(self.vars) != len(self.intervals):
            raise ValueError("one interval per variable required")
        for lo, hi in self.intervals:
            if lo > hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")

    def contains(self, cell: Cell) -> bool:
        return all(lo <= c <= hi for c, (lo, hi) in zip(cell, self.intervals))

    def cells(self):
        """Iterate all cells of the box in lexicographic order."""
        return product(*(range(lo, hi + 1) for lo, hi in self.intervals))

    def __eq__(self, other):
        return isinstance(other, Box) and self.vars == other.vars and self.intervals == other.intervals

    def __repr__(self):
        parts = ", ".join(f"{v}:[{lo},{hi}]" for v, (lo, hi) in zip(self.vars, self.intervals))
        return f"Box({parts})"


class LaurentPoly:
    """Finite exact Laurent table over an ordered variable tuple."""

    __slots__ = ("vars", "coeffs")

    def __init__(self, variables: Iterable[str], coeffs: Dict[Cell, Fraction] | None = None):
        self.vars = tuple(variables)
        table: Dict[Cell, Fraction] = {}
        if coeffs:
            for cell, c in coeffs.items():
                c = Fraction(c)
                if c:
                    table[tuple(cell)] = c
        self.coeffs = table

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.vars == other.vars
            and self.coeffs == other.coeffs
        )

    def __getitem__(self, cell: Cell) -> Fraction:
        return self.coeffs.get(tuple(cell), Fraction(0))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.vars != other.vars:
            raise ValueError("variable mismatch")
        return LaurentPoly(self.vars, add_into(dict(self.coeffs), other.coeffs))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.vars != other.vars:
            raise ValueError("variable mismatch")
        out: Dict[Cell, Fraction] = {}
        for c1, v1 in self.coeffs.items():
            for c2, v2 in other.coeffs.items():
                add_term(out, tuple(a + b for a, b in zip(c1, c2)), v1 * v2)
        return LaurentPoly(self.vars, out)

    def items(self):
        return sorted(self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for cell, c in self.items():
            mono = "*".join(
                f"{v}^{e}" for v, e in zip(self.vars, cell) if e
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)
