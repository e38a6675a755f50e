"""Slow routes that only tests read, kept as oracles for the library."""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, List, NamedTuple, Sequence, Tuple

from fermifock.fock import FockVector, HSpace, Mode, wrap_table
from fermifock.vertex import Cell, Factor, series_into, y_series


def _shuffle_sign(left_positions: Sequence[int]) -> int:
    """Permutation parity of the shuffle with 1-based left block positions."""
    inv = sum(p - t for t, p in enumerate(left_positions, start=1))
    return -1 if inv & 1 else 1


def normal_order_modes(modes: Sequence[Mode]) -> Tuple[int, Tuple[Mode, ...]]:
    """Stable split of a mode product: negative levels left, sign attached.

    The sign is the parity of the unique 2-shuffle realizing the split;
    internal orders on each side are preserved.
    """
    neg_positions = [i + 1 for i, m in enumerate(modes) if m[1] < 0]
    sign = _shuffle_sign(neg_positions)
    neg = tuple(m for m in modes if m[1] < 0)
    pos = tuple(m for m in modes if m[1] >= 0)
    return sign, neg + pos


def ordered_factor_series(
    space: HSpace,
    factors: Sequence[Factor],
    vec: FockVector,
    intervals: Sequence[Tuple[int, int]],
) -> Dict[Cell, FockVector]:
    """Windowed grid of a normal-ordered factor product applied to vec: the
    engine on one factor list, which tests compare with a mode-by-mode
    oracle."""
    table: Dict[Cell, Dict[str, int]] = {}
    series_into(space, ((factors, 1),), vec.row, intervals, table)
    return wrap_table(table, vec.den)


def y_coeff(space: HSpace, u, k: int, v) -> FockVector:
    """The exact coefficient of x^k in the vertex operator of u acting on v."""
    return y_series(space, u, v, k, k).coefficient((k,))


class Shuffle(NamedTuple):
    """A 2-shuffle: two complementary increasing sequences in {1..r}."""

    left: Tuple[int, ...]
    right: Tuple[int, ...]
    sign: int


def enumerate_shuffles(r: int, eta: int) -> List[Shuffle]:
    """All C(r, eta) 2-shuffles splitting {1..r} into blocks of size eta,
    r - eta, each signed by `_shuffle_sign`, the closed form that
    `normal_order_modes` uses; the tests check it against the walk rule of
    `series_into`."""
    if not 0 <= eta <= r:
        raise ValueError("block size out of range")
    out = []
    universe = range(1, r + 1)
    for left in combinations(universe, eta):
        right = tuple(p for p in universe if p not in left)
        out.append(Shuffle(left, right, _shuffle_sign(left)))
    return out


# A state as a plain term map, tuple word -> nonzero Fraction, with its
# operations done in Fractions word by word: the reference for the int-row
# operations of `FockVector`.
Terms = Dict[Tuple[Tuple[int, int], ...], Fraction]


def terms_add(a: Terms, b: Terms, k=1) -> Terms:
    """a + k b, without the words whose sum cancels."""
    out = dict(a)
    for w, c in b.items():
        s = out.get(w, 0) + k * c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def terms_scale(a: Terms, x) -> Terms:
    x = Fraction(x)
    return {w: c * x for w, c in a.items()} if x else {}


def terms_theta(a: Terms) -> Terms:
    """Odd-length words flip sign."""
    return {w: -c if len(w) % 2 else c for w, c in a.items()}


def terms_grading(a: Terms) -> Terms:
    """Each word scaled by its weight, the sum of -level - 1/2."""
    out = {w: c * sum(Fraction(-2 * level - 1, 2) for _, level in w) for w, c in a.items()}
    return {w: c for w, c in out.items() if c}


def terms_items(a: Terms) -> List[Tuple[Tuple[Tuple[int, int], ...], Fraction]]:
    """Word length first, then (gen, level) lex."""
    return sorted(a.items(), key=lambda kv: (len(kv[0]), kv[0]))


def terms_render(space, a: Terms) -> str:
    """' + '-joined `coeff * gen((2 level + 1)/2) ... |0>` terms in the
    order of `terms_items`, the coefficient left out where it is 1."""

    def word(w):
        return " ".join([f"{space.gen_name(g)}({2 * level + 1}/2)" for g, level in w] + ["|0>"])

    return " + ".join(word(w) if c == 1 else f"{c} * {word(w)}" for w, c in terms_items(a)) or "0"
