"""Tensor-algebra straightening onto the normal-form basis.

Tensor words mix modes a (x) t^(n+1/2) of either sign with the central
symbol k.  The rewriting moves negative levels left, positive levels to
the middle and k's to the right:

  (a (x) t^(m+1/2))(b (x) t^(n+1/2))
      -> -(b (x) t^(n+1/2))(a (x) t^(m+1/2)) + m (a,b) [m+n+1 = 0] k
                                            (for m >= 0 > n)
  k (x) (a (x) t^(n+1/2))  ->  (a (x) t^(n+1/2)) (x) k

Each step either lowers the defect (the number of wrong-order pairs) or
shortens the word, so rewriting terminates; the straightening map is
independent of the order in which redexes are picked.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

from .fock import HSpace, check_report
from .scalars import add_term

K = "k"
Entry = Union[str, Tuple[int, int]]  # K or (gen, level)
TensorWord = Tuple[Entry, ...]


def _wrong_order(a: Entry, b: Entry) -> bool:
    """k before a mode, or a nonnegative level before a negative one."""
    return b != K and (a == K or a[1] >= 0 > b[1])


def defect(word: TensorWord) -> int:
    """Number of wrong-order pairs: positive level before negative level,
    or k before any mode."""
    return sum(_wrong_order(a, b) for i, a in enumerate(word) for b in word[i + 1 :])


def redexes(word: TensorWord) -> List[int]:
    """Positions i where (word[i], word[i+1]) is an adjacent wrong-order pair."""
    return [i for i in range(len(word) - 1) if _wrong_order(word[i], word[i + 1])]


def rewrite_at(space: HSpace, word: TensorWord, i: int) -> List[Tuple[Fraction, TensorWord]]:
    """One straightening step at redex position i."""
    a, b = word[i], word[i + 1]
    if a == K:
        return [(Fraction(1), word[:i] + (b, a) + word[i + 2 :])]
    (g1, n1), (g2, n2) = a, b
    out = [(Fraction(-1), word[:i] + (b, a) + word[i + 2 :])]
    if n1 + n2 + 1 == 0:
        coeff = n1 * space.pair(g1, g2)
        if coeff:
            out.append((Fraction(coeff), word[:i] + (K,) + word[i + 2 :]))
    return out


def pbw_normal_form(
    space: HSpace, word: TensorWord, rng: random.Random | None = None
) -> Dict[TensorWord, Fraction]:
    """Straighten a tensor word into the defect-zero basis.

    When an rng is given the redex picked at each step is randomized;
    the result is the same either way (the map is well defined).
    """
    pending: Dict[TensorWord, Fraction] = {tuple(word): Fraction(1)}
    done: Dict[TensorWord, Fraction] = {}
    while pending:
        if rng is None:
            w, c = pending.popitem()
        else:
            # insertion order: deterministic, so a seeded rng repeats its picks
            w = rng.choice(list(pending))
            c = pending.pop(w)
        spots = redexes(w)
        if not spots:
            add_term(done, w, c)
            continue
        spot = spots[0] if rng is None else rng.choice(spots)
        for c2, w2 in rewrite_at(space, w, spot):
            add_term(pending, w2, c * c2)
    return done


def check_confluence(space: HSpace, cases: Sequence[Tuple[TensorWord, int, int]]) -> dict:
    """Straighten each word under two redex orders, randomized by the two
    seeds of its case, and compare the normal forms; a word counts toward
    `nonzero` when either normal form is nonzero."""
    mismatches = []
    nonzero = 0
    for word, seed_a, seed_b in cases:
        a = pbw_normal_form(space, word, random.Random(seed_a))
        b = pbw_normal_form(space, word, random.Random(seed_b))
        nonzero += bool(a or b)
        if a != b:
            mismatches.append(word)
    return check_report("straightening_confluence", mismatches, len(cases), nonzero)
