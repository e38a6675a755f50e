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

A vector and the int tables of the engines (`vertex.series_into`, the
closed-form fold of `wick`, the pair-deletion grids of `delta`) key a word
by its str code: one character per letter, chr(1 + gen + 64 n) for the
creation mode (gen, -n-1).  A str hashes once and concatenates without
building tuples.  The code holds generators below 64 and n below 17,407
(the last code point is 0x10FFFF); a letter past it is a ValueError naming
the limit.  A `FockVector` is an int row by code over one denominator: its
constructor encodes each word once, every route reads the row, and
`wrap_table` hands a table back as vectors that keep its rows.  The tuple
words and Fractions of `terms` are built when it is first read.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

from .pfaffian import det
from .scalars import add_into, add_term, clear_denominators, format_rational

Mode = Tuple[int, int]  # (generator index, level n) for h(n + 1/2)
Word = Tuple[Mode, ...]

VACUUM: Word = ()

CODE_GENS = 64  # generator indices a word code holds: M <= 32
CODE_LEVELS = 17407  # n < 17,407 keeps chr(1 + gen + 64 n) below 0x110000


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
    return " ".join([f"{space.gen_name(g)}({2 * level + 1}/2)" for g, level in word] + ["|0>"])


def letter(gen: int, n: int) -> str:
    """The code of the creation mode (gen, -n-1): chr(1 + gen + 64 n)."""
    if not 0 <= gen < CODE_GENS:
        raise ValueError(f"generator index {gen} is past the word code's limit of {CODE_GENS} generators")
    if not 0 <= n < CODE_LEVELS:
        if n < 0:
            raise ValueError(f"mode level {-n - 1} is not a creation level")
        raise ValueError(f"mode level {-n - 1} is past the word code's limit: n = -level - 1 must be below {CODE_LEVELS}")
    return chr(1 + gen + 64 * n)


def encode(word: Word) -> str:
    """The str code of a word (see the module notes)."""
    return "".join([letter(g, ~level) for g, level in word])


def code_letters(code: str) -> List[Tuple[int, int]]:
    """(gen, n) of each letter of a str code, as for `letter(gen, n)`."""
    return [((o := ord(ch) - 1) & 63, o >> 6) for ch in code]


def decode(code: str) -> Word:
    """The word of a str code."""
    return tuple([((o := ord(ch) - 1) & 63, ~(o >> 6)) for ch in code])


def code_weight2(code: str) -> int:
    """`weight2` of the word of a str code."""
    return sum(2 * n + 1 for _, n in code_letters(code))


class FockVector:
    """Finite rational linear combination of words; the elements of V.

    A vector holds one thing: its int row (str code -> nonzero int; exact
    Fractions under a non-integral Gram matrix) over a positive
    denominator, `row` and `den`.  Every route reads them and none edits
    them.  `terms` (word -> nonzero Fraction) is a read-only view of the
    row, built on its first read.
    """

    __slots__ = ("row", "den", "_terms")

    def __init__(self, terms: Mapping[Word, Fraction] | None = None):
        """Drop the zero terms, clear the denominators and encode each word
        once: a letter past the word code is a ValueError (`letter`)."""
        values = {}
        for w, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                values[encode(w)] = c
        self.row, self.den = clear_denominators(values)
        self._terms = None

    @classmethod
    def _from_row(cls, row: Dict[str, int], den: int) -> "FockVector":
        """Wrap an int row without zeros, by str code, over den."""
        vec = cls.__new__(cls)
        vec.row, vec.den, vec._terms = row, den, None
        return vec

    @property
    def terms(self) -> Mapping[Word, Fraction]:
        """Word -> nonzero Fraction, read only; built on the first read."""
        if self._terms is None:
            den = self.den
            self._terms = MappingProxyType({decode(w): Fraction(c, den) for w, c in self.row.items()})
        return self._terms

    @classmethod
    def vacuum(cls, coeff=1) -> "FockVector":
        return cls({VACUUM: coeff})

    @classmethod
    def word(cls, word: Word, coeff=1) -> "FockVector":
        return cls({tuple(word): coeff})

    def __bool__(self):
        return bool(self.row)

    def __eq__(self, other):
        """Exact equality of the rows: directly over one denominator, else
        by cross-multiplying."""
        if not isinstance(other, FockVector):
            return False
        a, b = self.row, other.row
        if not (a and b):
            return not (a or b)
        da, db = self.den, other.den
        if da == db:
            return a == b
        return a.keys() == b.keys() and all(c * db == b[w] * da for w, c in a.items())

    def __add__(self, other: "FockVector") -> "FockVector":
        """The sum of the rows over the lcm of the denominators."""
        den = lcm(self.den, other.den)
        ka = den // self.den
        row = dict(self.row) if ka == 1 else {w: c * ka for w, c in self.row.items()}
        return FockVector._from_row(add_into(row, other.row, den // other.den), den)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, value) -> "FockVector":
        value = Fraction(value)
        if not value:
            return FockVector()
        p = value.numerator
        return FockVector._from_row({w: c * p for w, c in self.row.items()}, self.den * value.denominator)

    def _sorted_row(self) -> List[Tuple[Word, int]]:
        """(word, row value) in canonical order: word length first, then
        (gen, level) lex; words are decoded only to order and name them."""
        return sorted(((decode(w), c) for w, c in self.row.items()), key=lambda kv: (len(kv[0]), kv[0]))

    def items(self):
        """Terms in canonical order: word length first, then (gen, level) lex."""
        return [(w, Fraction(c, self.den)) for w, c in self._sorted_row()]

    def render(self, space: HSpace) -> str:
        """' + '-joined terms in canonical order, each coefficient row / den
        formatted straight from the row and left out where it is 1."""
        den = self.den
        return " + ".join(
            word_str(space, w) if c == den else f"{format_rational(c, den)} * {word_str(space, w)}"
            for w, c in self._sorted_row()
        ) or "0"

    def __repr__(self):
        return f"FockVector({' + '.join(f'{c}*{w}' for w, c in self.items()) or 0})"


def apply_mode(space: HSpace, mode: Mode, vec: FockVector) -> FockVector:
    """Act with one mode on vec's row: creation prepends its letter;
    annihilation h_gen(n + 1/2) contracts each letter at level -n-1/2,
    signed by the anticommutations passed on the way.  The result is over
    vec's denominator."""
    gen, level = mode
    row, den = vec.row, vec.den
    if level < 0:
        head = letter(gen, ~level)
        return FockVector._from_row({head + w: c for w, c in row.items()}, den)
    out: Dict[str, int] = {}
    for w, c in row.items():
        sign = 1
        for idx, (g2, n) in enumerate(code_letters(w)):
            if n == level:
                p = space.pair(gen, g2)
                if p:
                    add_term(out, w[:idx] + w[idx + 1 :], sign * p * c)
            sign = -sign
    return FockVector._from_row(out, den)


def apply_modes(space: HSpace, modes: Sequence[Mode], vec: FockVector) -> FockVector:
    """Compose modes as operators: the last mode in the list acts first."""
    for mode in reversed(modes):
        vec = apply_mode(space, mode, vec)
        if not vec:
            break
    return vec


def theta(vec: FockVector) -> FockVector:
    """Parity involution: odd-length words (and codes) flip sign."""
    return FockVector._from_row({w: -c if parity(w) else c for w, c in vec.row.items()}, vec.den)


def d_terms(terms: Dict[str, int]) -> Dict[str, int]:
    """Translation generator on a term map by str code (int terms stay
    ints): lowers each mode level once, weighted n+1."""
    out: Dict[str, int] = {}
    for w, c in terms.items():
        for i, (g, n) in enumerate(code_letters(w)):
            add_term(out, w[:i] + letter(g, n + 1) + w[i + 1 :], c * (n + 1))
    return out


def d_op(vec: FockVector) -> FockVector:
    """Translation generator on a vector (see `d_terms`)."""
    return FockVector._from_row(d_terms(vec.row), vec.den)


def grading_op(vec: FockVector) -> FockVector:
    """Scale each word by its weight, `code_weight2` over 2."""
    return FockVector._from_row({w: c * code_weight2(w) for w, c in vec.row.items() if w}, 2 * vec.den)


def wrap_table(table: Dict, D: int) -> Dict:
    """FockVectors of an accumulated table (cell -> int row by str code)
    over the common denominator D, each keeping its row; empty rows are
    left out."""
    return {cell: FockVector._from_row(row, D) for cell, row in table.items() if row}


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
