"""Normal ordering, vertex operators, and the structural identity checks.

A state u = h_1(-m_1-1/2)...h_r(-m_r-1/2)|0> acts through the
normal-ordered product of the divided-derivative generating series
h_i^(m_i)(x).  Coefficient extraction expands each factor into modes,
splits every factor into its creation/annihilation part (a 2-shuffle with
its permutation sign), and delegates the mode action to the Fock module.
All series values are exact inside an explicitly certified exponent box;
nothing is approximated, and comparisons refuse cells outside the box.
"""
from __future__ import annotations

from collections import defaultdict
from operator import gt, le
from typing import Dict, List, Sequence, Tuple

from .fock import FockVector, HSpace, Word, check_report, code_letters, code_weight2, d_terms, encode
from .fock import letter, wrap_table
from .laurent import Box
from .scalars import add_into, binom

Cell = Tuple[int, ...]

# a factor is (generator, divided-derivative order, variable slot)
Factor = Tuple[int, int, int]


def series_into(
    space: HSpace,
    sources: Sequence[Tuple[Sequence[Factor], int]],
    terms: Dict[str, int],
    intervals: Sequence[Tuple[int, int]],
    table: Dict[Cell, Dict[str, int]],
) -> None:
    """Accumulate normal-ordered factor products applied to a target into table.

    `sources` is a sequence of (factors, scale) pairs; the table receives
    the sum of scale * (normal-ordered product of factors) applied to the
    target.  Factor (g, m, var) stands for h_g^(m)(z_var); cells (one
    exponent slot per variable) are complete on the given closed intervals.

    Words are str codes (`fock.encode`), in the target and in the table.
    Integer contract: the target is an integer term map (the `row` of a
    `FockVector`) and every scale an int.  Path coefficients are
    products of binomials, signs and pairings, so the table accumulates
    plain ints; a non-integral Gram matrix makes them exact Fractions on the
    same path.  The caller hands the table to `fock.wrap_table`, whose
    vectors keep its rows over the common denominator.

    Each (source, target word) walks the source's factors from right to
    left.  At each factor a partial state either puts the factor in front
    of its creation suffix or contracts it with a letter of the rest of the
    word; the contraction at word position idx carries (-1)^idx times
    (-1)^(creations already chosen to its right), whose product over the
    annihilators is the 2-shuffle sign of the split.  Splits that agree on
    their right-hand factors share that part of the walk, and a split with
    more annihilators than letters dies when the word runs out.  What is
    left is a partial state: the creation suffix, the modes built so far,
    the rest of the target word, and the exponents charged so far.  The
    creation stage is one layered frontier of such states, from the longest
    remaining suffix down.  A layer is keyed by (suffix, rest of the word,
    exponents) alone, and each key holds a prefix row {modes built so far:
    coefficient}: equal partial states of different sources, words or
    splits sum in one entry, so words that share their tails are walked
    once, and states that differ only in their prefix form one group.  A
    group is expanded once: its budget, window checks and mode list serve
    every prefix, and each exponent runs one loop over the prefixes, into
    the row of the next layer or, at the last creation, straight into the
    table; a prefix whose sum cancels is dropped.  Each suffix node keeps,
    for this call only, its list of (letter, C(n, m)) by exponent, so no
    leaf computes a binomial or encodes a letter.

    Termination: annihilation modes must contract against creation modes
    already present in the target, which pins their levels; creation levels
    are capped by the upper window edges since each contributes exponent
    n - m >= 0 (the divided derivative kills n < m).
    """
    nv = len(intervals)
    los = tuple(lo for lo, _ in intervals)
    his = tuple(hi for _, hi in intervals)
    pair = space.pair
    # creation suffixes are interned as linked nodes, so equal suffixes of
    # different sources share one id: id -> (gen, m, slots, the slot if
    # there is only one, id of the rest, its (mode, C(n, m)) list); id 0 is
    # the empty suffix
    node_ids: Dict[tuple, int] = {}
    nodes: List[tuple] = [()]
    # layers[L]: (suffix id, rest of the target word, exps) -> prefix row
    # {built prefix: coefficient}, for the partial states with L creations left
    layers: List[Dict[tuple, Dict[str, int]]] = [{}]
    zero = (0,) * nv

    for factors, scale in sources:
        # a factor may charge its exponent to several slots at once: the
        # re-centered factors of wick._apply_term charge (w, base)
        norm = tuple(
            (g, m, (var,) if isinstance(var, int) else tuple(var)) for g, m, var in factors
        )
        r = len(norm)
        while len(layers) <= r:
            layers.append({})
        # the factors from right to left, each with the slots no factor
        # further left charges (a total above hi there cannot come back
        # down) and its suffix node by the id of the suffix to its right
        walk = []
        for i in range(r - 1, -1, -1):
            gen, m, slots = norm[i]
            left = {s for f in norm[:i] for s in f[2]}
            walk.append((gen, m, slots, [s for s in slots if s not in left], {}))

        for word_v, cv in terms.items():
            cv = cv * scale
            if not cv:
                continue
            # annihilation stage: (suffix id, creations, rest of the target
            # word, coefficient, exps).  At each factor a state either puts
            # it in front of its creation suffix or contracts it at word
            # position idx, which fixes the mode level and carries (-1)^idx
            # times (-1)^(creations to its right): the 2-shuffle sign
            states = [(0, 0, word_v, cv, zero)]
            for gen, m, slots, closed, cre_ids in walk:
                nxt = []
                for sid, ncre, w, c, exps in states:
                    nid = cre_ids.get(sid)
                    if nid is None:
                        key = (gen, m, slots, sid)
                        nid = node_ids.get(key)
                        if nid is None:
                            nid = node_ids[key] = len(nodes)
                            nodes.append((gen, m, slots, slots[0] if len(slots) == 1 else None, sid, []))
                        cre_ids[sid] = nid
                    nxt.append((nid, ncre + 1, w, c, exps))
                    psign = -1 if ncre & 1 else 1
                    for idx, ch in enumerate(w):
                        n2, g2 = divmod(ord(ch) - 1, 64)  # the letter (g2, -n2-1)
                        p = pair(gen, g2)
                        if p:
                            level = ~n2
                            coeff = binom(level, m)  # C(-n-1, m) with n = -level-1
                            if coeff:
                                delta = level - m  # -n-m-1
                                if len(slots) == 1:
                                    s0 = slots[0]
                                    ev = exps[s0] + delta
                                    if closed and ev > his[s0]:
                                        psign = -psign
                                        continue
                                    e2 = exps[:s0] + (ev,) + exps[s0 + 1 :]
                                else:
                                    es = list(exps)
                                    for s in slots:
                                        es[s] += delta
                                    if any(es[s] > his[s] for s in closed):
                                        psign = -psign
                                        continue
                                    e2 = tuple(es)
                                nxt.append(
                                    (sid, ncre, w[:idx] + w[idx + 1 :], c * p * psign * coeff, e2)
                                )
                        psign = -psign
                states = nxt
            for sid, ncre, w, c, exps in states:
                if any(map(gt, exps, his)):
                    continue
                if ncre:
                    prow = layers[ncre].setdefault((sid, w, exps), {})
                    s = prow.get("", 0) + c
                    if s:
                        prow[""] = s
                    else:
                        prow.pop("", None)
                elif all(map(le, los, exps)):
                    # inline, not scalars.add_term: the engine's hottest writes
                    row = table.setdefault(exps, {})
                    s = row.get(w, 0) + c
                    if s:
                        row[w] = s
                    else:
                        row.pop(w, None)

    # creation stage: levels n = e + m with e >= 0, coefficient C(n, m);
    # modes[e] of a node is the letter (gen, -n-1) and C(n, m), grown on demand
    for left in range(len(layers) - 1, 0, -1):
        below = layers[left - 1]
        for (sid, w, exps), prow in layers[left].items():
            if not prow:
                continue
            gen, m, slots, s0, rest, modes = nodes[sid]
            start = 0
            if s0 is None:
                budget = min(his[s] - exps[s] for s in slots)
            else:
                x = exps[s0]
                head, tail = exps[:s0], exps[s0 + 1 :]
                budget = his[s0] - x
                if left == 1:  # the last creation raises only s0
                    if not (all(map(le, los, head)) and all(map(le, los[s0 + 1 :], tail))):
                        continue
                    start = max(0, los[s0] - x)
            for e in range(len(modes), budget + 1):
                modes.append((letter(gen, e + m), binom(e + m, m)))
            for e in range(start, budget + 1):
                mode, b = modes[e]
                if s0 is None:
                    es = list(exps)
                    for s in slots:
                        es[s] += e
                    e2 = tuple(es)
                    if left == 1 and not all(map(le, los, e2)):
                        continue
                else:
                    e2 = head + (x + e,) + tail
                # one tight loop over the group's prefixes; inline, not
                # scalars.add_into, since the keys grow by the new letter
                if left > 1:
                    row, after = below.setdefault((rest, w, e2), {}), mode
                else:
                    row, after = table.setdefault(e2, {}), mode + w
                for prefix, c in prow.items():
                    word = prefix + after
                    s = row.get(word, 0) + c * b
                    if s:
                        row[word] = s
                    else:
                        row.pop(word, None)


class WindowedSeries:
    """Exact coefficients of a formal series inside a certified box."""

    __slots__ = ("window", "coeffs")

    def __init__(self, window: Box, coeffs: Dict[Cell, FockVector] | None = None):
        self.window = window
        self.coeffs = {}
        if coeffs:
            for cell, v in coeffs.items():
                if v:
                    if not window.contains(cell):
                        raise ValueError(f"cell {cell} outside certified window")
                    self.coeffs[tuple(cell)] = v

    def coefficient(self, cell: Cell) -> FockVector:
        if not self.window.contains(tuple(cell)):
            raise ValueError(f"cell {cell} outside certified window {self.window}")
        return self.coeffs.get(tuple(cell), FockVector())

    def __eq__(self, other):
        return (
            isinstance(other, WindowedSeries)
            and self.window == other.window
            and self.coeffs == other.coeffs
        )


def _sources(u_terms: Dict[str, int]) -> List[Tuple[Tuple[Factor, ...], int]]:
    """The series_into sources of a state: one factor list per word."""
    return [(tuple((g, n, 0) for g, n in code_letters(word)), c) for word, c in u_terms.items()]


def _row(u) -> Tuple[Dict[str, int], int]:
    """(row, den) of a vector, or of a bare word with coefficient 1."""
    if isinstance(u, FockVector):
        return u.row, u.den
    return {encode(u): 1}, 1


def y_series(space: HSpace, u, v, lo: int, hi: int, var: str = "x") -> WindowedSeries:
    """Windowed coefficients of the vertex operator of u acting on v."""
    (u_terms, Du), (v_terms, Dv) = _row(u), _row(v)
    table: Dict[Cell, Dict[str, int]] = {}
    series_into(space, _sources(u_terms), v_terms, ((lo, hi),), table)
    return WindowedSeries(Box((var,), ((lo, hi),)), wrap_table(table, Du * Dv))


def product_series(space: HSpace, u1, u2, v, box: Box) -> WindowedSeries:
    """Coefficients of x^k1 y^k2 in the two-operator product acting on v."""
    (t1, D1), (t2, D2), (tv, Dv) = map(_row, (u1, u2, v))
    outer, inner = box.intervals
    grid = _product_grid(space, t1, t2, tv, inner, lambda k2: outer)
    return WindowedSeries(box, wrap_table(grid, D1 * D2 * Dv))


def iterate_series(space: HSpace, u1, u2, v, box: Box) -> WindowedSeries:
    """Coefficients of x0^k1 x2^k2 of the iterated vertex operator on v."""
    (t1, D1), (t2, D2), (tv, Dv) = map(_row, (u1, u2, v))
    inner, outer = box.intervals
    grid = _iterate_grid(space, t1, t2, tv, inner, lambda k1: outer)
    return WindowedSeries(box, wrap_table(grid, D1 * D2 * Dv))


def _product_grid(
    space: HSpace, u1_terms, u2_terms, v_terms, inner, outer_window
) -> Dict[Cell, Dict[str, int]]:
    """Int grid c[k1, k2] of Y(u1, x) Y(u2, y) v over the denominators of
    the three term maps: u2 acts on v over the inner y interval, then u1
    on each nonzero column k2 over the x interval outer_window(k2)."""
    u1, cols, grid = _sources(u1_terms), {}, {}
    series_into(space, _sources(u2_terms), v_terms, (inner,), cols)
    for (k2,), col in cols.items():
        lo, hi = outer_window(k2)
        if col and lo <= hi:
            rows: Dict[Cell, Dict[str, int]] = {}
            series_into(space, u1, col, ((lo, hi),), rows)
            grid.update(((k1, k2), row) for (k1,), row in rows.items())
    return grid


def _iterate_grid(
    space: HSpace, u1_terms, u2_terms, v_terms, inner, outer_window
) -> Dict[Cell, Dict[str, int]]:
    """Int grid d[k1, k2] of Y(Y(u1, x0) u2, x2) v over the denominators
    of the three term maps: u1 acts on u2 over the inner x0 interval, then
    each nonzero state of row k1 on v over the x2 interval outer_window(k1)."""
    states, grid = {}, {}
    series_into(space, _sources(u1_terms), u2_terms, (inner,), states)
    for (k1,), a in states.items():
        lo, hi = outer_window(k1)
        if a and lo <= hi:
            rows: Dict[Cell, Dict[str, int]] = {}
            series_into(space, _sources(a), v_terms, ((lo, hi),), rows)
            grid.update(((k1, k2), row) for (k2,), row in rows.items())
    return grid


def _binomial_fold(rows) -> Dict[str, int]:
    """The nonzero terms of sum k * row over (row, k) pairs of int tables."""
    acc: Dict[str, int] = {}
    for row, k in rows:
        add_into(acc, row, k)
    return acc


def check_weak_associativity(space: HSpace, u1_word: Word, u2, w, box: Box) -> dict:
    """Compare (x0+x2)^P * product against (x0+x2)^P * iterate on a box.

    The product side substitutes x0+x2 for the first operator variable,
    expanded in nonnegative powers of x2; P clears every pole in x0+x2
    and is independent of u2.  Both grids are int tables over one common
    denominator, so each cell folds into one int dict: the product rows,
    then the iterate rows taken off; the cell is a mismatch when that dict
    is nonempty.  Every window cell is compared; `nonzero` counts those with
    a nonzero side.
    """
    (u2_terms, _), (w_terms, _) = _row(u2), _row(w)
    u1 = {encode(u1_word): 1}
    r = len(u1_word)
    msum = sum(-level - 1 for _, level in u1_word)
    P = (max(map(code_weight2, w_terms), default=0) + 2 * msum + 2 * r) // 2

    t2min = _trunc2(u2_terms, w_terms)  # lower truncation in x2
    (lo1, hi1), (lo2, hi2) = box.intervals
    # only bands are read: the product at c[j1 + j2 - P - k2, k2] for
    # t2min <= k2 <= j2, the iterate at d[j1 - P + i, j2 - i] for 0 <= i <= P,
    # with (j1, j2) in the box
    prod_grid = _product_grid(
        space, u1, u2_terms, w_terms, (t2min, hi2),
        lambda k2: (lo1 + max(lo2, k2) - P - k2, hi1 + hi2 - P - k2),
    )
    iter_grid = _iterate_grid(
        space, u1, u2_terms, w_terms, (lo1 - P, hi1),
        lambda k1: (lo2 - min(P, k1 - lo1 + P), hi2 - max(0, k1 - hi1 + P)),
    )

    mismatches = []
    nonzero = 0
    for j1 in range(lo1, hi1 + 1):
        for j2 in range(lo2, hi2 + 1):
            total = j1 + j2 - P
            cell = _binomial_fold(
                (prod_grid[(total - k2, k2)], binom(total - k2 + P, total - k2 + P - j1))
                for k2 in range(t2min, j2 + 1)
                if (total - k2, k2) in prod_grid
            )
            lhs = bool(cell)
            for i in range(P + 1):
                row = iter_grid.get((j1 - P + i, j2 - i))
                if row:
                    add_into(cell, row, -binom(P, i))
            if lhs or cell:
                nonzero += 1
            if cell:
                mismatches.append((j1, j2))
    compared = (hi1 - lo1 + 1) * (hi2 - lo2 + 1)
    return check_report(
        "weak_associativity", mismatches, compared, nonzero, pole_order=P, window=box.intervals
    )


def _trunc2(u_terms, v_terms) -> int:
    """First exponent at which a coefficient of Y(u, x)v may be nonzero."""
    return -((max(map(code_weight2, u_terms), default=0) + max(map(code_weight2, v_terms), default=0)) // 2)


def check_axioms(space: HSpace, samples: Sequence[FockVector], lo: int, hi: int) -> List[dict]:
    """Coefficientwise checks of the vacuum, creation, grading and
    translation axioms and of lower truncation on the exponent window
    [lo, hi]: one report per axiom, over the sample pairs (u, v).

    Both sides of every equation are int rows over the pair's common
    denominator Du·Dv (exact Fractions under a non-integral Gram matrix);
    the grading equations are doubled, 2·L0 scaling a word by `weight2`
    (`fock.code_weight2` on the str codes of the rows).
    A compared cell counts toward `nonzero` when either side is nonzero.
    `regular_at_zero` and `lower_truncation` claim that a coefficient
    vanishes, so every cell they read counts.
    """
    ints = [s.row for s in samples]
    pairs = [(ints[i], ints[(i + 1) % len(ints)]) for i in range(len(ints))]
    window = range(lo, hi + 1)

    def y(u, v, top=hi):
        """The int rows of Y(u, x)v on [lo, top], by exponent."""
        table: Dict[Cell, Dict[str, int]] = {}
        series_into(space, _sources(u), v, ((lo, top),), table)
        return defaultdict(dict, {k: row for (k,), row in table.items()})

    def doubled(terms):
        return {w: code_weight2(w) * c for w, c in terms.items()}

    # Y(u, x)v once per pair, one cell past the window for the derivative
    bases = [y(u, v, hi + 1) for u, v in pairs]

    def report(name, equations):
        """Check (label, lhs, rhs) equations; rhs None claims lhs == 0."""
        equations = list(equations)
        mismatches = [label for label, lhs, rhs in equations if lhs != (rhs or {})]
        nonzero = sum(rhs is None or bool(lhs or rhs) for _, lhs, rhs in equations)
        return check_report(name, mismatches, len(equations), nonzero)

    def identity():
        for _, v in pairs:
            rows = y({"": 1}, v)
            for k in window:
                yield ("identity", k), rows[k], v if k == 0 else {}

    def creation():
        for u, _ in pairs:
            rows = y(u, {"": 1})
            for k in range(lo, min(0, hi + 1)):
                yield ("regular_at_zero", k), rows[k], None
            if lo <= 0 <= hi:
                yield ("limit_is_state", 0), rows[0], u

    def grading_commutator():
        for (u, v), base in zip(pairs, bases):
            on_dv, of_du = y(u, doubled(v)), y(doubled(u), v)
            for k in window:
                lhs = _binomial_fold(((doubled(base[k]), 1), (on_dv[k], -1)))
                yield (k,), lhs, _binomial_fold(((base[k], 2 * k), (of_du[k], 1)))

    def translation():
        for (u, v), base in zip(pairs, bases):
            via_d, on_dv = y(d_terms(u), v), y(u, d_terms(v))
            for k in window:
                yield ("derivative", k), _binomial_fold(((base[k + 1], k + 1),)), via_d[k]
                rhs = _binomial_fold(((d_terms(base[k]), 1), (on_dv[k], -1)))
                yield ("commutator", k), via_d[k], rhs

    def lower_truncation():
        for (u, v), base in zip(pairs, bases):
            for k in range(lo, min(_trunc2(u, v), hi + 1)):
                yield (k,), base[k], None

    return [
        report("identity", identity()),
        report("creation", creation()),
        report("grading_commutator", grading_commutator()),
        report("translation", translation()),
        report("lower_truncation", lower_truncation()),
    ]
