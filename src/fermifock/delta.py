"""The quadratic annihilation series, total contraction numbers, and the
closed form of its exponential.

The operator is sum_{i, m, n} C_mn e_i(m+1/2) fbar_i(n+1/2) x^(-m-n-1)
over the polarized basis; antisymmetry C_mn = -C_nm makes it basis
independent.  Acting on a word it deletes one pair of modes per step, so
its exponential is a finite sum whose coefficients are Pfaffians of the
bracket matrix (two slower routes are kept as oracles).  States and
brackets are cleared to ints over common denominators, with words as str
codes (`fock.encode`): the closed form adds Pfaffian minors, the iterated
oracle is one int walk of pair deletions, and a result is divided by its
denominator when it is read.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, islice
from math import lcm
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .fock import FockVector, HSpace, apply_mode, check_report, code_letters, int_terms, wrap_table
from .pfaffian import pfaffian
from .scalars import add_into, add_term, binom, clear_denominators

ExpGrid = Dict[int, FockVector]  # exponent of the formal variable -> state
IntGrid = Dict[int, Dict[str, int]]  # the same by str code, over a denominator kept aside


class DeltaCoeffs:
    """Finitely supported antisymmetric coefficient table C_mn."""

    def __init__(self, entries: Dict[Tuple[int, int], Fraction] | None = None):
        table: Dict[Tuple[int, int], Fraction] = {}
        for (m, n), val in (entries or {}).items():
            val = Fraction(val)
            if m < 0 or n < 0:
                raise ValueError("levels must be nonnegative")
            if not val:
                continue
            if (m, n) in table and table[(m, n)] != val:
                raise ValueError(f"conflicting values for C[{m},{n}]")
            if m == n:
                raise ValueError("antisymmetry forces zero diagonal")
            table[(m, n)] = val
            mirror = table.setdefault((n, m), -val)
            if mirror != -val:
                raise ValueError(f"antisymmetry violated at ({m}, {n})")
        self.entries = table

    @classmethod
    def from_list(cls, triples: Iterable[Tuple[int, int, Fraction]]) -> "DeltaCoeffs":
        table: Dict[Tuple[int, int], Fraction] = {}
        for m, n, val in triples:
            val = Fraction(val)
            if (m, n) in table and table[(m, n)] != val:
                raise ValueError(f"conflicting values for C[{m},{n}]")
            table[(m, n)] = val
        return cls(table)

    @classmethod
    def default(cls) -> "DeltaCoeffs":
        return cls({(0, 1): Fraction(1)})

    def __call__(self, m: int, n: int) -> Fraction:
        return self.entries.get((m, n), Fraction(0))

    def __bool__(self):
        return bool(self.entries)

    def levels(self) -> List[int]:
        return sorted({m for m, _ in self.entries})

    def __eq__(self, other):
        return isinstance(other, DeltaCoeffs) and self.entries == other.entries


def bracket(space: HSpace, C: DeltaCoeffs, g1: int, m1: int, g2: int, m2: int) -> Fraction:
    """Contraction scalar of two creation slots: (a, b) C_{m1 m2}."""
    c = C(m1, m2)
    return space.pair(g1, g2) * c if c else Fraction(0)


def _delete_pairs(table: Dict[str, Dict[str, Tuple[int, int]]], grid: IntGrid) -> IntGrid:
    """One application of the operator on an int grid: each position pair
    p < q of a word whose letters have a nonzero bracket x in `table`, as
    table[a][b] = (x, n_a + n_b + 1), goes to the word without both, its
    exponent lowered by n_p + n_q + 1, with sign (-1)^(p+q) (positions
    1-based in the sign)."""
    out: IntGrid = {}
    for e, row in grid.items():
        for word, c in row.items():
            r = len(word)
            for p in range(r - 1):
                brackets = table[word[p]]
                for q in range(p + 1, r):
                    pair = brackets.get(word[q])
                    if pair:
                        x, drop = pair
                        reduced = word[:p] + word[p + 1 : q] + word[q + 1 :]
                        add_term(out.setdefault(e - drop, {}), reduced, -c * x if (p + q) & 1 else c * x)
    return out


def delta_apply(space: HSpace, C: DeltaCoeffs, vec: FockVector) -> ExpGrid:
    """One application: sum over position pairs p < q of
    (-1)^(p+q) C_{n_p n_q} (b_p, b_q) x^(-n_p-n_q-1) times the word with
    both modes removed (positions 1-based in the sign); the walk's t = 1."""
    return delta_power_over_factorial(space, C, vec, 1)


def _check_indices(indices: Sequence[int]) -> Tuple[int, ...]:
    idx = tuple(indices)
    if len(idx) % 2:
        raise ValueError("total contraction numbers need an even index count")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError("indices must be strictly increasing")
    return idx


def _bracket_kernel(space: HSpace, C: DeltaCoeffs, slots: Sequence[Tuple[int, int]]):
    """Nonzero brackets of (gen, level) slots p < q as an integer Pfaffian
    kernel: (kernel, D) with kernel[p][q] = D * bracket and D the least
    common denominator.  A minor on 2t slots is then D^t times its value."""
    n = len(slots)
    pairs = ((p, q) for p in range(n) for q in range(p + 1, n))
    brackets = {(p, q): b for p, q in pairs if (b := bracket(space, C, *slots[p], *slots[q]))}
    ints, D = clear_denominators(brackets)
    kernel: Dict[int, Dict[int, int]] = {}
    for (p, q), x in ints.items():
        kernel.setdefault(p, {})[q] = x
    return kernel, D


def t_number(
    space: HSpace,
    C: DeltaCoeffs,
    gens: Sequence[int],
    levels: Sequence[int],
    indices: Sequence[int],
) -> Fraction:
    """Total contraction number: the Pfaffian of the bracket matrix on `indices`."""
    idx = _check_indices(indices)
    kernel, D = _bracket_kernel(space, C, [(gens[i], levels[i]) for i in idx])
    full = (1 << len(idx)) - 1
    return Fraction(pfaffian(kernel, [full], 1)[full], D ** (len(idx) // 2))


def t_number_alt(
    space: HSpace,
    C: DeltaCoeffs,
    gens: Sequence[int],
    levels: Sequence[int],
    indices: Sequence[int],
) -> Fraction:
    """Same value through the all-pairs recursion with the 1/t average; an
    oracle for `t_number`.  The recursion is memoised on the slots left and
    runs on the integer kernel, divided by D^t once."""
    idx = _check_indices(indices)
    kernel, D = _bracket_kernel(space, C, [(gens[i], levels[i]) for i in idx])

    @cache
    def rec(items: Tuple[int, ...]):
        if not items:
            return 1
        total = 0
        for a in range(len(items)):
            row = kernel.get(items[a], {})
            for b_ in range(a + 1, len(items)):
                x = row.get(items[b_])
                if x:
                    sign = 1 if (a + b_) & 1 else -1  # (-1)^(alpha+beta-1), 1-based
                    rest = items[:a] + items[a + 1 : b_] + items[b_ + 1 :]
                    total += sign * x * rec(rest)
        value = Fraction(total, len(items) // 2)
        return value.numerator if value.denominator == 1 else value

    return Fraction(rec(tuple(range(len(idx)))), D ** (len(idx) // 2))


def _matchings(positions: Tuple[int, ...]):
    if not positions:
        yield ()
        return
    first = positions[0]
    for i in range(1, len(positions)):
        rest = positions[1:i] + positions[i + 1 :]
        for m in _matchings(rest):
            yield ((first, positions[i]),) + m


def t_number_pairings(
    space: HSpace,
    C: DeltaCoeffs,
    gens: Sequence[int],
    levels: Sequence[int],
    indices: Sequence[int],
) -> Fraction:
    """Same value as a sum over perfect matchings, -1 per edge crossing; an
    oracle for `t_number`, on the integer kernel divided by D^t once."""
    idx = _check_indices(indices)
    kernel, D = _bracket_kernel(space, C, [(gens[i], levels[i]) for i in idx])
    total = 0
    for matching in _matchings(tuple(range(len(idx)))):
        value = 1
        for a, b_ in matching:  # a < b_: each edge starts at the first free slot
            value *= kernel.get(a, {}).get(b_, 0)
            if not value:
                break
        if not value:
            continue
        crossings = 0
        for i in range(len(matching)):
            a, b_ = matching[i]
            for j in range(i + 1, len(matching)):
                c, d = matching[j]
                if (a < c < b_ < d) or (c < a < d < b_):
                    crossings += 1
        total += value * (-1 if crossings & 1 else 1)
    return Fraction(total, D ** (len(idx) // 2))


def exp_delta(space: HSpace, C: DeltaCoeffs, vec: FockVector) -> ExpGrid:
    """Closed-form exponential: delete 2t positions, weight by the total
    contraction number and (-1)^(sum of 1-based positions).  Values add up
    as ints over Dv * D^top (D the lcm of the word kernels' denominators)."""
    terms, Dv = int_terms(vec)
    slots = {w: code_letters(w) for w in terms}
    kernels = {w: _bracket_kernel(space, C, slots[w]) for w in terms}
    D = lcm(*(Dw for _, Dw in kernels.values()))
    top = max(map(len, terms), default=0) // 2
    rows: IntGrid = {0: {word: c * D**top for word, c in terms.items()}}
    for word, c in terms.items():
        r = len(word)
        ns = [n for _, n in slots[word]]
        kernel, Dw = kernels[word]
        scale = [c * (D // Dw) ** t * D ** (top - t) for t in range(r // 2 + 1)]
        # every deleted set is a principal minor of one bracket Pfaffian
        subsets = [idx for t in range(1, r // 2 + 1) for idx in combinations(range(r), 2 * t)]
        deleted = [(idx, sum(1 << i for i in idx)) for idx in subsets]
        minors = pfaffian(kernel, [mask for _, mask in deleted], 1)
        for idx, mask in deleted:
            if not (x := minors[mask]):
                continue
            sign = -1 if (sum(idx) + len(idx)) & 1 else 1  # 1-based position sum
            exp = -sum(ns[i] for i in idx) - len(idx) // 2  # -sum n_i - t
            keep = "".join([word[i] for i in range(r) if i not in idx])
            add_term(rows.setdefault(exp, {}), keep, sign * x * scale[len(idx) // 2])
    return wrap_table(rows, Dv * D**top)


def _delta_powers(space: HSpace, C: DeltaCoeffs, vec: FockVector) -> Iterator[Tuple[IntGrid, int]]:
    """Yield the operator's powers over t! on `vec`, t = 0, 1, ..., as (int
    grid, Dv * D^t * t!): the state over Dv, one `_delete_pairs` step per
    power with table[a][b] = (D * bracket(a, b), n_a + n_b + 1) on the
    state's letters (and (b, a) the negated bracket by antisymmetry).  The
    walk stops at the first power that vanishes, after at most half the
    longest word."""
    terms, den = int_terms(vec)
    letters = "".join(dict.fromkeys(ch for word in terms for ch in word))
    slots = code_letters(letters)
    kernel, D = _bracket_kernel(space, C, slots)
    table: Dict[str, Dict[str, Tuple[int, int]]] = {a: {} for a in letters}
    for p, row in kernel.items():
        for q, x in row.items():
            drop = slots[p][1] + slots[q][1] + 1
            table[letters[p]][letters[q]], table[letters[q]][letters[p]] = (x, drop), (-x, drop)
    grid, t = {0: terms}, 0
    while any(grid.values()):
        yield grid, den
        t += 1
        den *= D * t
        grid = _delete_pairs(table, grid)


def delta_power_over_factorial(space: HSpace, C: DeltaCoeffs, vec: FockVector, t: int) -> ExpGrid:
    """Iterative oracle: the operator applied t times, divided by t!."""
    return wrap_table(*next(islice(_delta_powers(space, C, vec), t, None), ({}, 1)))


def exp_delta_iterated(space: HSpace, C: DeltaCoeffs, vec: FockVector) -> ExpGrid:
    """Oracle route of `exp_delta`: the sum of the iterated powers over t!,
    accumulated as ints over the last power's denominator."""
    powers = list(_delta_powers(space, C, vec))
    top = powers[-1][1] if powers else 1
    rows: IntGrid = {}
    for grid, den in powers:
        for e, row in grid.items():
            add_into(rows.setdefault(e, {}), row, top // den)
    return wrap_table(rows, top)


def check_contraction_numbers(
    space: HSpace,
    C: DeltaCoeffs,
    gens: Sequence[int],
    levels: Sequence[int],
    index_sets: Sequence[Sequence[int]],
) -> dict:
    """`t_number` against its two oracle routes on each index set; a set
    counts toward `nonzero` when some route gives a nonzero value."""
    mismatches = []
    nonzero = 0
    for idx in index_sets:
        routes = (t_number, t_number_alt, t_number_pairings)
        values = {route(space, C, gens, levels, idx) for route in routes}
        nonzero += any(values)
        if len(values) > 1:
            mismatches.append(tuple(idx))
    return check_report("contraction_number_routes", mismatches, len(index_sets), nonzero)


def check_exp_delta_routes(space: HSpace, C: DeltaCoeffs, samples: Sequence[FockVector]) -> dict:
    """`exp_delta` against `exp_delta_iterated` on each sample.  Every
    deleted pair lowers the exponent below 0, so a sample counts toward
    `nonzero` only when a deletion survives on either side; the t = 0 term
    at exponent 0 agrees by construction."""
    mismatches = []
    nonzero = 0
    for v in samples:
        closed = exp_delta(space, C, v)
        iterated = exp_delta_iterated(space, C, v)
        nonzero += bool((closed.keys() | iterated.keys()) - {0})
        if closed != iterated:
            mismatches.append(v.render(space))
    return check_report("exp_closed_vs_iterative", mismatches, len(samples), nonzero)


def check_exp_delta_neg_comm(
    space: HSpace,
    C: DeltaCoeffs,
    gen: int,
    m: int,
    samples: Sequence[FockVector],
    intervals: Tuple[Tuple[int, int], Tuple[int, int]],
) -> dict:
    """Verify the commutator of the exponential with a regular one-sided
    series: both sides as exact grids over (x, y) on the given box, per
    sample.  `nonzero` counts the cells where either side is nonzero.
    Both sides add the rows of their vectors (`fock.int_terms`), each
    scaled by 1 / its denominator, so the tables stay on ints where every
    denominator is 1."""
    (lox, hix), (loy, hiy) = intervals
    mismatches = []
    nonzero = 0
    for si, v in enumerate(samples):
        lhs, rhs = {}, {}  # (ex, ey) -> {word code: coefficient}

        def add(table, ex, ey, vec, coeff):
            if lox <= ex <= hix and loy <= ey <= hiy:
                row, den = int_terms(vec)
                add_into(table.setdefault((ex, ey), {}), row, coeff if den == 1 else Fraction(coeff, den))

        exp_v = exp_delta(space, C, v)
        # exp(D(y)) a^(m)(x)^- v  minus  a^(m)(x)^- exp(D(y)) v
        for alpha in range(max(0, lox + m), hix + m + 1):
            cb = binom(alpha, m)
            if not cb:
                continue
            hit = apply_mode(space, (gen, -alpha - 1), v)
            for ey, w in exp_delta(space, C, hit).items():
                add(lhs, alpha - m, ey, w, cb)
            for ey, w in exp_v.items():
                add(lhs, alpha - m, ey, apply_mode(space, (gen, -alpha - 1), w), -cb)
        # sum_{alpha, beta} C_{beta alpha} a(beta+1/2) y^(-beta-alpha-1) (x^alpha)^(m) exp(D(y)) v
        for (beta, alpha), cba in C.entries.items():
            cb = binom(alpha, m)
            if not cb:
                continue
            for ey, w in exp_v.items():
                add(rhs, alpha - m, ey - beta - alpha - 1, apply_mode(space, (gen, beta), w), cba * cb)
        cells = {cell for table in (lhs, rhs) for cell, row in table.items() if row}
        nonzero += len(cells)
        for cell in cells:
            if lhs.get(cell, {}) != rhs.get(cell, {}):
                mismatches.append((si, cell))
    compared = len(samples) * (hix - lox + 1) * (hiy - loy + 1)
    return check_report(
        "exp_delta_negative_commutator", mismatches, compared, nonzero, window=intervals
    )
