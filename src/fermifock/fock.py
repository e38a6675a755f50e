"""The polarized inner-product space, its half-integer modes, and the
induced non-anticommutative Fock module.

A mode is a pair (gen, level): `level = n` stands for the operator
h_gen(n + 1/2), of weight -n - 1/2.  Levels < 0 are creation modes, levels
>= 0 are annihilation modes.  A word is a tuple of creation modes; the
module is spanned by words applied to the vacuum (the empty word), with
no relations among creation modes.  The single relation is the mixed
anticommutator {a(m+1/2), b(-n-1/2)} = (a, b) delta_mn.

Weights are half-integers; they are carried around as doubled integers
(`weight2`) so exponent arithmetic stays integral.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .pfaffian import det
from .scalars import add_into, add_term, format_rational

Mode = Tuple[int, int]  # (generator index, level n) for h(n + 1/2)
Word = Tuple[Mode, ...]

VACUUM: Word = ()


class HSpace:
    """2M-dimensional space with a symmetric nondegenerate pairing.

    Generators 0..M-1 are the isotropic basis e_1..e_M, generators
    M..2M-1 their duals f_1..f_M with (e_i, f_j) = delta_ij by default.
    A custom symmetric nondegenerate Gram matrix may be supplied.
    """

    def __init__(self, M: int, gram: Sequence[Sequence[Fraction]] | None = None):
        if M < 0:
            raise ValueError("M must be nonnegative")
        self.M = M
        self.dim = 2 * M
        if gram is None:
            self.gram = [
                [Fraction(1) if abs(i - j) == M else Fraction(0) for j in range(self.dim)]
                for i in range(self.dim)
            ]
        else:
            self.gram = [[Fraction(x) for x in row] for row in gram]
            if len(self.gram) != self.dim or any(len(r) != self.dim for r in self.gram):
                raise ValueError(f"gram must be {self.dim}x{self.dim}")
            for i in range(self.dim):
                for j in range(i):
                    if self.gram[i][j] != self.gram[j][i]:
                        raise ValueError("gram must be symmetric")
            if self.dim and det(self.gram) == 0:
                raise ValueError("gram must be nondegenerate")
        # integer entries stay plain ints so hot loops avoid Fraction churn
        self._pair = [
            [int(x) if x.denominator == 1 else x for x in row] for row in self.gram
        ]

    def pair(self, g1: int, g2: int):
        if not (0 <= g1 < self.dim and 0 <= g2 < self.dim):
            raise IndexError("generator index out of range")
        return self._pair[g1][g2]

    def gen_name(self, g: int) -> str:
        if g < self.M:
            return f"e{g + 1}"
        return f"f{g - self.M + 1}"

    def parse_gen(self, name: str) -> int:
        kind, idx = name[0], name[1:]
        if kind not in "ef" or not idx.isdigit():
            raise ValueError(f"unknown generator {name!r}")
        i = int(idx)
        if not 1 <= i <= self.M:
            raise ValueError(f"generator index out of range in {name!r}")
        return i - 1 if kind == "e" else self.M + i - 1

    def __repr__(self):
        return f"HSpace(M={self.M})"


def weight2(word: Word) -> int:
    """Doubled weight: sum of m_i plus r/2, for levels -m_i - 1."""
    return sum(-2 * level - 1 for _, level in word)


def weight(word: Word) -> Fraction:
    return Fraction(weight2(word), 2)


def parity(word: Word) -> int:
    return len(word) & 1


def word_str(space: HSpace, word: Word) -> str:
    if not word:
        return "|0>"
    parts = []
    for g, level in word:
        num = 2 * level + 1
        parts.append(f"{space.gen_name(g)}({num}/2)")
    return " ".join(parts) + " |0>"


class FockVector:
    """Finite rational linear combination of words; the elements of V."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Word, Fraction] | None = None):
        table: Dict[Word, Fraction] = {}
        if terms:
            for w, c in terms.items():
                c = Fraction(c)
                if c:
                    table[tuple(w)] = c
        self.terms = table

    @classmethod
    def _raw(cls, terms: Dict[Word, Fraction]) -> "FockVector":
        """Wrap a term map that already holds only nonzero tuple keys."""
        vec = cls.__new__(cls)
        vec.terms = terms
        return vec

    @classmethod
    def vacuum(cls, coeff=1) -> "FockVector":
        return cls({VACUUM: Fraction(coeff)})

    @classmethod
    def word(cls, word: Word, coeff=1) -> "FockVector":
        return cls({tuple(word): Fraction(coeff)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, FockVector) and self.terms == other.terms

    def __add__(self, other: "FockVector") -> "FockVector":
        return FockVector._raw(add_into(dict(self.terms), other.terms))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, value) -> "FockVector":
        value = Fraction(value)
        return FockVector._raw({w: c * value for w, c in self.terms.items()} if value else {})

    def items(self):
        """Terms in canonical order: word length first, then (gen, level) lex."""
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def render(self, space: HSpace) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.items():
            if c == 1:
                parts.append(word_str(space, w))
            else:
                parts.append(f"{format_rational(c)} * {word_str(space, w)}")
        return " + ".join(parts)

    def __repr__(self):
        if not self.terms:
            return "FockVector(0)"
        body = " + ".join(f"{c}*{w}" for w, c in self.items())
        return f"FockVector({body})"


def _annihilate_word(space: HSpace, gen: int, n: int, word: Word):
    """Commute h_gen(n + 1/2) through a creation word onto the vacuum.

    Yields (coeff, word-with-one-mode-removed) for each contraction; the
    alternating sign tracks the anticommutations passed on the way.
    """
    sign = 1
    for idx, (g2, level) in enumerate(word):
        if -level - 1 == n:
            p = space.pair(gen, g2)
            if p:
                yield sign * p, word[:idx] + word[idx + 1 :]
        sign = -sign


def apply_mode(space: HSpace, mode: Mode, vec: FockVector) -> FockVector:
    """Act with one mode: creation prepends, annihilation contracts."""
    gen, level = mode
    if level < 0:
        return FockVector._raw({(mode,) + w: c for w, c in vec.terms.items()})
    out: Dict[Word, Fraction] = {}
    for w, c in vec.terms.items():
        for s, w2 in _annihilate_word(space, gen, level, w):
            add_term(out, w2, c * s)
    return FockVector._raw(out)


def apply_modes(space: HSpace, modes: Sequence[Mode], vec: FockVector) -> FockVector:
    """Compose modes as operators: the last mode in the list acts first."""
    for mode in reversed(modes):
        vec = apply_mode(space, mode, vec)
        if not vec.terms:
            break
    return vec


def theta(vec: FockVector) -> FockVector:
    """Parity involution: odd-length words flip sign."""
    return FockVector({w: -c if parity(w) else c for w, c in vec.terms.items()})


def d_terms(terms: Dict[Word, Fraction]) -> Dict[Word, Fraction]:
    """Translation generator on a term map (int terms stay ints): lowers
    each mode level once, weighted m+1."""
    out: Dict[Word, Fraction] = {}
    for w, c in terms.items():
        for i, (g, level) in enumerate(w):
            w2 = w[:i] + ((g, level - 1),) + w[i + 1 :]
            add_term(out, w2, c * -level)  # m + 1 = -level for level = -m-1
    return out


def d_op(vec: FockVector) -> FockVector:
    """Translation generator on a vector (see `d_terms`)."""
    return FockVector(d_terms(vec.terms))


def grading_op(vec: FockVector) -> FockVector:
    """Scale each word by its weight."""
    return FockVector({w: c * Fraction(weight2(w), 2) for w, c in vec.terms.items()})


def wrap_table(table: Dict, D: int) -> Dict:
    """FockVectors of an accumulated table (cell -> int row) over the common
    denominator D; empty rows are left out."""
    out = {}
    fracs: Dict[int, Fraction] = {}  # tables repeat few distinct values
    for cell, row in table.items():
        if row:
            terms = {}
            for w, c in row.items():
                f = fracs.get(c)
                if f is None:
                    f = fracs[c] = Fraction(c, D)
                terms[w] = f
            out[cell] = FockVector._raw(terms)
    return out


def check_report(identity: str, mismatches: Sequence, compared: int, nonzero: int, **extra) -> dict:
    """The report of an identity check, with its one status rule: `fail`
    on any mismatch, else `pass` if some compared value was nonzero, else
    `inconclusive` (the check compared nothing but zeros).  `compared`
    counts the comparisons made and `nonzero` those with a nonzero side;
    `extra` adds check-specific keys."""
    status = "fail" if mismatches else "pass" if nonzero else "inconclusive"
    return {
        "identity": identity,
        "status": status,
        "compared": compared,
        "nonzero": nonzero,
        "mismatches": list(mismatches),
        **extra,
    }


def random_word(rng: random.Random, space: HSpace, max_weight2: int) -> Word:
    """Seeded random word of doubled weight at most max_weight2."""
    modes: List[Mode] = []
    budget = max_weight2
    while budget >= 1 and space.dim:
        if rng.random() < 0.35:
            break
        m_cap = (budget - 1) // 2
        m = rng.randint(0, m_cap)
        gen = rng.randrange(space.dim)
        modes.append((gen, -m - 1))
        budget -= 2 * m + 1
    return tuple(modes)


def random_state(
    rng: random.Random, space: HSpace, max_weight2: int, nterms: int = 2
) -> FockVector:
    """Seeded random rational combination of words of bounded weight."""
    out: Dict[Word, Fraction] = {}
    for _ in range(nterms):
        w = random_word(rng, space, max_weight2)
        add_term(out, w, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    if not out:
        out[VACUUM] = Fraction(1)
    return FockVector(out)
