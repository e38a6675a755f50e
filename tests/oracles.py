"""Slow routes that only tests read, kept as oracles for the library."""
from __future__ import annotations

from itertools import combinations
from typing import List, NamedTuple, Tuple

from fermifock.vertex import _shuffle_sign


class Shuffle(NamedTuple):
    """A 2-shuffle: two complementary increasing sequences in {1..r}."""

    left: Tuple[int, ...]
    right: Tuple[int, ...]
    sign: int


def enumerate_shuffles(r: int, eta: int) -> List[Shuffle]:
    """All C(r, eta) 2-shuffles splitting {1..r} into blocks of size eta,
    r - eta, each signed by `vertex._shuffle_sign`, the closed form that
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
