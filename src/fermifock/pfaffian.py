"""Signed perfect-matching sums as Pfaffians of sparse skew kernels.

Items 0..n-1 carry weights A[p][q] for p < q; the Pfaffian of the skew
matrix they define is the sum over perfect matchings of the product of
the matched weights, signed by the parity of the edge crossings.
Expanding along the lowest item p of a set S,

  Pf(S) = sum_{q in S, q > p} (-1)^(#S strictly between p and q)
          A[p][q] Pf(S - {p, q}),

and memoising Pf on the bitmask of S makes every visited minor cost one
term per nonzero entry of its first row.  Entries are exact ring
elements (`int`, `Fraction`, `RationalFunction`, or the unnormalized
ring of `ratfun.deferred_pfaffian`); absent entries are zero.

`det` is the one scalar determinant (exact elimination over `Fraction`):
the Gram nondegeneracy check and the Wick closed forms share it.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, TypeVar

T = TypeVar("T")

Kernel = Mapping[int, Mapping[int, T]]  # p -> {q: A[p][q]} for p < q, zeros absent


def pfaffian(kernel: Kernel, masks: Iterable[int], one: T) -> Dict[int, T]:
    """Pfaffians of the principal minors on `masks` (bit p = item p).

    Returns the memo: it holds every requested mask, every minor visited
    on the way, and mask 0 (the empty minor, `one`).  Odd minors are 0.
    """
    zero = one - one
    memo: Dict[int, T] = {0: one}

    def pf(mask: int) -> T:
        got = memo.get(mask)
        if got is not None:
            return got
        total = None
        if mask.bit_count() % 2 == 0:
            p = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << p)
            for q, a in kernel.get(p, {}).items():
                bit = 1 << q
                if not rest & bit:
                    continue
                sub = pf(rest ^ bit)
                if sub is zero:  # a minor with no matching at all
                    continue
                term = a * sub
                if (rest & (bit - 1)).bit_count() & 1:
                    term = -term
                total = term if total is None else total + term
        memo[mask] = zero if total is None else total
        return memo[mask]

    for mask in masks:
        pf(mask)
    return memo


def det(matrix: Sequence[Sequence]) -> Fraction:
    """Exact determinant by Gaussian elimination with division by pivots.

    Entries (`int` or `Fraction`) become `Fraction`s up front, so every
    division is exact and the result is a `Fraction`.
    """
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        i = next((r for r in range(col, n) if m[r][col]), None)
        if i is None:
            return Fraction(0)
        if i != col:
            m[col], m[i] = m[i], m[col]
            result = -result
        pivot = m[col]
        result *= pivot[col]
        for row in m[col + 1:]:
            if row[col]:
                factor = row[col] / pivot[col]
                for c in range(col, n):
                    row[c] -= factor * pivot[c]
    return result
