"""Closed-form products of normal-ordered operators and correlation functions.

A product of two normal-ordered strings of generating-series factors
expands into normal-ordered strings with some factors contracted away,
the contractions weighted by determinants of pairing kernels:

  :A: :B: = sum over rho, I, J of
      (-1)^(sum I + sum J) (-1)^(r rho + rho(rho+1)/2)
      det[ (a_i, b_j) f_{m_i n_j}(x_i, y_j) ]  :A without I, B without J:

with r = len(A).  The rho = 0 term is the plain concatenation.  In the
closed forms each side sits at one variable, so each determinant is a
scalar d = det[(a_i, b_j) C(-n_j-1, m_i)] times one power of degree
k = sum_I m_i + sum_J n_j + rho: d / (x - y)^k for the product, d x^(-k)
for the iterate (whose surviving A factors are re-centered at y+x).  The
distinct-variable route (`wick_fuse`, `contraction_det`, `noexpr_mul`)
is kept as the oracle.

Normal ordering here is a formal mark on an ordered factor list; factors
are never reordered (creation parts have no relations to exploit).

Vacuum correlation functions keep only the fully contracted terms of
the iterated product, so they are Pfaffians of the factor-level kernel;
folding the products (`noexpr_mul`) is kept as the slow oracle.  One
routine (`_kernel_pairs`) lists the kernel's contracting factor pairs,
and the Pfaffian is taken over two rings: `correlation` gives the normal
form, one expanded numerator over prod (z_i - z_j)^k, and
`correlation_terms` gives the Wick sum itself, one term c / prod
(z_i - z_j)^k per distinct product of difference powers.  The sum never
expands a numerator, so `fermifock expand` walks its terms one by one;
the normal form and its `expand_region` are the oracle for that route.
"""
from __future__ import annotations

from itertools import combinations
from math import inf, lcm
from operator import add
from typing import Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .fock import FockVector, HSpace, Word, check_report, code_letters, int_terms, wrap_table
from .laurent import Box, LaurentPoly
from .pfaffian import det, pfaffian
from .ratfun import RationalFunction, deferred_pfaffian, expand_terms, f_mn, region_cells
from .scalars import add_into, binom, clear_denominators
from .vertex import Cell, iterate_series, product_series, series_into


class Factor(NamedTuple):
    """One generating-series factor h_gen^(deriv)(var).

    `var` is a plain variable name, or "b+s" for a factor re-centered at
    the sum of two variables (expanded in nonnegative powers of s).
    """

    gen: int
    deriv: int
    var: str


class NOExpr:
    """Sum of (rational-function coefficient, normal-ordered factor list)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[Tuple[RationalFunction, Tuple[Factor, ...]]] = ()):
        self.terms: List[Tuple[RationalFunction, Tuple[Factor, ...]]] = [
            (c, tuple(fs)) for c, fs in terms if not c.is_zero()
        ]

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "NOExpr(0)"
        rows = []
        for c, fs in self.terms:
            body = " ".join(f"{f.gen}^({f.deriv})({f.var})" for f in fs)
            rows.append(f"{c.render()} :{body}:")
        return "NOExpr(" + " + ".join(rows) + ")"


def word_factors(word: Word, var: str) -> Tuple[Factor, ...]:
    """Factors of the vertex operator attached to a creation word."""
    return tuple(Factor(g, -level - 1, var) for g, level in word)


def _contractions(r: int, s: int) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
    """(I, J, sign) for every rho >= 1 contraction of r left and s right
    factors; 0-based index sums have the parity of the 1-based ones."""
    for rho in range(1, min(r, s) + 1):
        base = r * rho + rho * (rho + 1) // 2
        for I in combinations(range(r), rho):
            for J in combinations(range(s), rho):
                yield I, J, (-1) ** (base + sum(I) + sum(J))


def _survivors(A, B, I, J) -> Tuple[Factor, ...]:
    return tuple(f for i, f in enumerate(A) if i not in I) + tuple(f for j, f in enumerate(B) if j not in J)


def contraction_det(
    space: HSpace,
    rows: Sequence[Tuple[int, int, str]],
    cols: Sequence[Tuple[int, int, str]],
) -> RationalFunction:
    """det[(a_i, b_j) f_{m_i n_j}(x_i, y_j)] for rows (a, m, x), cols (b, n, y):
    (-1)^(n(n-1)/2) times the Pfaffian of the kernel joining item i to n + j.
    Part of the distinct-variable oracle for the closed forms."""
    n = len(rows)
    if n != len(cols) or not n:
        raise ValueError("contraction determinant needs a nonempty square block")
    kernel: Dict[int, Dict[int, RationalFunction]] = {}
    for i, (a, m, x) in enumerate(rows):
        for j, (b, nj, y) in enumerate(cols):
            p = space.pair(a, b)
            if p:
                kernel.setdefault(i, {})[n + j] = f_mn(m, nj, x, y).scale(p)
    full = (1 << 2 * n) - 1
    pf = pfaffian(kernel, [full], RationalFunction.from_scalar(1))[full]
    return -pf if n * (n - 1) // 2 % 2 else pf


def wick_fuse(space: HSpace, A: Sequence[Factor], B: Sequence[Factor]) -> NOExpr:
    """Expand :A: :B: into contracted normal-ordered terms.

    A and B must live on disjoint variable sets; contraction kernels are
    evaluated at the factors' own variables.  Kept as the oracle route.
    """
    A = tuple(A)
    B = tuple(B)
    if {f.var for f in A} & {f.var for f in B}:
        raise ValueError("factor groups must use disjoint variables")
    terms = [(RationalFunction.from_scalar(1), A + B)]
    for I, J, sign in _contractions(len(A), len(B)):
        det_IJ = contraction_det(
            space,
            [(A[i].gen, A[i].deriv, A[i].var) for i in I],
            [(B[j].gen, B[j].deriv, B[j].var) for j in J],
        )
        terms.append((det_IJ.scale(sign), _survivors(A, B, I, J)))
    return NOExpr(terms)


def noexpr_mul(space: HSpace, left: NOExpr, right: NOExpr) -> NOExpr:
    """Bilinear extension of the fuse expansion to sums of terms; the fold
    oracle for `correlation`."""
    out = []
    for c1, f1 in left.terms:
        for c2, f2 in right.terms:
            for c3, f3 in wick_fuse(space, f1, f2).terms:
                out.append((c1 * c2 * c3, f3))
    return NOExpr(out)


def _closed_form(space: HSpace, A, B, one: RationalFunction, power: Callable) -> NOExpr:
    """:A: :B: with each side at one variable: the concatenation weighted by
    `one`, each contraction by power(sign * d, k) (see the module notes)."""
    terms = [(one, A + B)]
    for I, J, sign in _contractions(len(A), len(B)):
        d = det([[space.pair(A[i].gen, B[j].gen) * binom(-B[j].deriv - 1, A[i].deriv) for j in J] for i in I])
        if d:
            k = sum(A[i].deriv for i in I) + sum(B[j].deriv for j in J) + len(I)
            terms.append((power(sign * d, k), _survivors(A, B, I, J)))
    return NOExpr(terms)


def wick_product(space: HSpace, u1: Word, u2: Word) -> NOExpr:
    """Two-operator product in variables (x, y), |x| > |y| on expansion."""
    return _closed_form(
        space,
        word_factors(u1, "x"),
        word_factors(u2, "y"),
        RationalFunction.from_scalar(1),
        lambda d, k: RationalFunction.diff_inverse("x", "y", k, d),
    )


def wick_iterate(space: HSpace, u1: Word, u2: Word) -> NOExpr:
    """Iterate expansion: kernels become pure Laurent coefficients in x and
    surviving first-slot factors sit at y+x (nonnegative powers of x)."""
    return _closed_form(
        space,
        word_factors(u1, "y+x"),
        word_factors(u2, "y"),
        RationalFunction.from_scalar(1, ("x",)),
        lambda d, k: RationalFunction.monomial(("x",), {"x": -k}, d),
    )


def check_closed_forms(space: HSpace, u1: Word, u2: Word, v: FockVector, box: Box) -> List[dict]:
    """The closed product and iterate forms against the series engines on
    every cell of an (x, y) box: the reports `product_closed_form` and
    `iterate_closed_form`, each counting the cells with a nonzero side."""
    reports = []
    for name, series_route, closed_form in (
        ("product_closed_form", product_series, wick_product),
        ("iterate_closed_form", iterate_series, wick_iterate),
    ):
        series = series_route(space, FockVector.word(u1), FockVector.word(u2), v, box)
        closed = noexpr_apply(space, closed_form(space, u1, u2), v, ("x", "y"), box.intervals)
        mismatches = []
        compared = nonzero = 0
        for cell in box.cells():
            want = series.coefficient(cell)
            got = closed.get(cell, FockVector())
            compared += 1
            nonzero += bool(want or got)
            if want != got:
                mismatches.append(cell)
        reports.append(check_report(name, mismatches, compared, nonzero))
    return reports


def vacuum_expectation(expr: NOExpr) -> RationalFunction:
    """Sum of coefficients of fully contracted terms; normal-ordered
    strings with factors left over have zero expectation."""
    total = RationalFunction.from_scalar(0)
    for c, fs in expr.terms:
        if not fs:
            total = total + c
    return total


def correlation(space: HSpace, insertions: Sequence[Tuple[Word, str]]) -> RationalFunction:
    """Vacuum-to-vacuum matrix element of a string of vertex operators,
    as an exact rational function of the insertion variables.

    By Wick's theorem it is the Pfaffian of the factor-level kernel
    A[p][q] = (a_p, a_q) f_{m_p n_q}(z_i, z_j) for factor p of insertion i
    and factor q of a later insertion j; factors of one insertion never
    contract.  The Pfaffian runs over the unnormalized ring of
    `ratfun.deferred_pfaffian` and is normalized once, so the result is the
    normal form of the plain `pfaffian` over RationalFunction.  The Wick
    sum of the same pairs (`_wick_memo`) gives every pole order: its top
    power of each difference and, when its residue there is nonzero, the
    proof that no lower one will do (`ratfun._term_residues`).  The
    `noexpr_mul` fold computes the same value term by term.
    """
    count, pairs = _kernel_pairs(space, insertions)
    names = [v for _, v in insertions]
    kernel: Dict[int, Dict[int, RationalFunction]] = {}
    for p, q, i, j, weight, power in pairs:
        kernel.setdefault(p, {})[q] = RationalFunction.diff_inverse(names[i], names[j], power, weight)
    terms, differences, _ = _wick_memo(count, pairs, names)
    return deferred_pfaffian(kernel, (1 << count) - 1, (terms, differences))


def _kernel_pairs(space: HSpace, insertions: Sequence[Tuple[Word, str]]):
    """(factor count, kernel pairs) of a correlation: a pair (p, q, i, j,
    weight, power) joins factor p of insertion i to factor q of a later
    insertion j, whose kernel entry (a_p, a_q) f_{m_p n_q}(z_i, z_j) is
    weight / (z_i - z_j)^power, with weight (a_p, a_q) C(-n_q-1, m_p) and
    power m_p + n_q + 1.  Pairs that cannot contract are left out."""
    names = [v for _, v in insertions]
    if len(set(names)) != len(names):
        raise ValueError("insertion variables must be distinct")
    factors = [(i, f) for i, (w, v) in enumerate(insertions) for f in word_factors(w, v)]
    pairs = []
    for p, (i, fp) in enumerate(factors):
        for q in range(p + 1, len(factors)):
            j, fq = factors[q]
            pairing = space.pair(fp.gen, fq.gen) if j != i else 0
            if pairing:
                weight = pairing * binom(-fq.deriv - 1, fp.deriv)
                pairs.append((p, q, i, j, weight, fp.deriv + fq.deriv + 1))
    return len(factors), pairs


class WickSum(NamedTuple):
    """A correlation as Wick's theorem writes it: the sum over `terms` of
    c / den / prod (x - y)^b, one term per distinct product of difference
    powers.  A key is the tuple of its ((x, y), b), x the earlier insertion.

    The sum is not canonical (1/((a-b)(b-c)) + 1/((b-c)(c-a)) +
    1/((c-a)(a-b)) = 0), so compare sums by value or expansion, never by
    their terms.
    """

    terms: Dict[Tuple[Tuple[Tuple[str, str], int], ...], int]
    den: int

    def expand_region(self, order: Sequence[str], box_intervals) -> LaurentPoly:
        """The table of `RationalFunction.expand_region` for the same
        function: every term through `ratfun.expand_terms`, its ints added
        over `den`."""
        terms = [RationalFunction.diff_product(dict(key), c) for key, c in self.terms.items()]
        return expand_terms(terms, self.den, order, box_intervals)


class _InversePowers:
    """An element of the ring `correlation_terms` runs the Pfaffian memo
    over: a polynomial in the inverse differences 1/(z_i - z_j) of the
    contracting insertion pairs, {exponent tuple: int}.  The memo's left
    factor is always a kernel entry, one term, so a product shifts the
    exponents of the right factor."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def __add__(self, other):
        return _InversePowers(add_into(dict(self.terms), other.terms))

    def __neg__(self):
        return _InversePowers({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        ((shift, k),) = self.terms.items()
        return _InversePowers({tuple(map(add, shift, key)): k * c for key, c in other.terms.items()})


def correlation_terms(space: HSpace, insertions: Sequence[Tuple[Word, str]]) -> WickSum:
    """The Wick sum of `correlation`: the same Pfaffian of the same kernel
    pairs, run over sums of difference monomials instead of normal forms,
    so no numerator is ever expanded.

    The kernel weights are cleared to ints over one denominator L, as
    `delta` clears its bracket kernel, so every term is an int over
    L^(factors/2).  Expanding the terms one by one (`WickSum.expand_region`)
    gives the table of the normal form at sizes the normal form cannot reach.
    """
    count, pairs = _kernel_pairs(space, insertions)
    names = [v for _, v in insertions]
    value, differences, L = _wick_memo(count, pairs, names)
    terms = {tuple((pair, b) for pair, b in zip(differences, key) if b): c for key, c in value.items()}
    return WickSum(terms, L ** (count // 2))


def _wick_memo(count: int, pairs, names):
    """The Wick sum of the kernel `pairs` of `_kernel_pairs`: ({exponents:
    c}, differences (z_i, z_j) with i < j, L), exponent k at position s the
    power of 1 / (z_i - z_j) for the s-th difference, each c over L^(count/2)."""
    ints, L = clear_denominators({(p, q): weight for p, q, _, _, weight, _ in pairs})
    slots: Dict[Tuple[int, int], int] = {}  # insertion pair -> exponent position
    for _, _, i, j, _, _ in pairs:
        slots.setdefault((i, j), len(slots))
    kernel: Dict[int, Dict[int, _InversePowers]] = {}
    for p, q, i, j, _, power in pairs:
        shift = [0] * len(slots)
        shift[slots[i, j]] = power
        kernel.setdefault(p, {})[q] = _InversePowers({tuple(shift): ints[p, q]})
    full = (1 << count) - 1
    value = pfaffian(kernel, [full], _InversePowers({(0,) * len(slots): 1}))[full]
    return value.terms, [(names[i], names[j]) for i, j in slots], L


# -- windowed evaluation of closed forms ------------------------------------


def _slot_floor(derivs: Sequence[int], words) -> int:
    """Sharp floor for the exponent sum of a factor group against a target
    made of the given words (str codes).

    Annihilators contract distinct creation modes of one word; pairing the
    largest derivative orders with the deepest levels minimizes the sum of
    exponents level - m, and any number of them may fire.
    """
    if not derivs:
        return 0
    ms = sorted(derivs, reverse=True)
    best = 0
    for w in words:
        levels = sorted(~n for _, n in code_letters(w))
        run = 0
        cur = 0
        for q in range(min(len(ms), len(levels))):
            cur += levels[q] - ms[q]
            run = min(run, cur)
        best = min(best, run)
    return best


def _grid_lower_bounds(factors, order_index, nvars, words) -> List[int]:
    """Per-variable floor of the factor-grid exponents against the target's words."""
    groups: Dict[int, List[int]] = {}
    for f in factors:
        groups.setdefault(order_index[f.var], []).append(f.deriv)
    return [_slot_floor(groups.get(var, []), words) for var in range(nvars)]


def noexpr_apply(
    space: HSpace,
    expr: NOExpr,
    v: FockVector,
    order: Sequence[str],
    intervals: Sequence[Tuple[int, int]],
) -> Dict[Cell, FockVector]:
    """Exact windowed coefficients of an NOExpr applied to a state.

    Each term takes one route: floors of its factor exponents against v's
    words; the Laurent cells of its coefficient that can reach the window,
    region-expanded in the order given (|order[0]| > ...); one engine box
    that covers every cell; one `series_into` call; and one pass that adds
    each cell to each engine cell.  A term may hold factors at one shifted
    variable "b+s", re-centered on the grid by the binomial rule for
    (b+s)^c in nonnegative powers of s (see `_apply_term`).

    Every coefficient of the expression and of v is brought over one common
    denominator D, so the grid fold accumulates integers (exact Fractions
    under a non-integral Gram matrix) on the str codes of words, and the
    lazy vectors of `fock.wrap_table` divide by D when they are read.
    """
    order_index = {name: i for i, name in enumerate(order)}
    los = [lo for lo, _ in intervals]
    his = [hi for _, hi in intervals]
    v_terms, D = int_terms(v)
    Dc = lcm(*(rf.int_den for rf, _ in expr.terms))
    acc: Dict[Cell, Dict[str, int]] = {}
    for coeff_rf, factors in expr.terms:
        _apply_term(space, coeff_rf, Dc // coeff_rf.int_den, factors, v_terms, order_index, los, his, acc)
    return wrap_table(acc, D * Dc)


def _apply_term(space, coeff_rf, scale, factors, v_terms, order_index, los, his, acc):
    """Add one term's window to `acc`, as ints over the common denominator.

    A factor at "b+s" charges its exponent to two grid slots: an auxiliary
    slot w, which keeps its total c for the substitution
    w^c -> sum_i C(c, i) s^i b^(c-i), and the base variable's own slot, which
    so holds d_b + c, the base total that the output window constrains.
    Every other factor charges only its own variable's slot.  Expanding the
    total power agrees with expanding factorwise, so this is exact.
    """
    nv = len(los)
    combos = {f.var for f in factors if "+" in f.var}
    if combos and coeff_rf.den_diff:
        raise NotImplementedError("shifted factors with difference kernels")
    if len(combos) > 1:
        raise NotImplementedError("one shifted variable pair per term")
    slots = floor_slots = order_index
    if combos:
        (combo,) = combos
        base, shift = combo.split("+")
        if base not in order_index or shift not in order_index:
            raise ValueError(f"unknown shifted variable {combo!r}")
        b, s = order_index[base], order_index[shift]
        slots = {**order_index, combo: (nv, b)}
        floor_slots = {**order_index, combo: nv}
    # sharp floors of each slot (and of c): the walk never takes a total
    # below its floor, since annihilators run first and creations only add
    floors = _grid_lower_bounds(factors, floor_slots, nv + len(combos), v_terms)
    caps = [hi - lw for hi, lw in zip(his, floors)]
    if combos:
        caps[b] = inf  # for c < 0 the split lowers the base by any power of s
    cells = region_cells(coeff_rf, order_index, caps, scale)
    if not cells:
        return
    box = []
    for var in range(nv):
        es = [cell[var] for cell in cells]
        box.append((los[var] - max(es), his[var] - min(es)))
    if combos:
        imax = box[s][1] - floors[s]  # the largest power of s the split can add
        box[s] = (floors[s], box[s][1])
        box[b] = (box[b][0], box[b][1] + imax)
        box.append((floors[nv], box[b][1] - floors[b]))
    if any(lo > hi for lo, hi in box):
        return
    table: Dict[Cell, Dict[str, int]] = {}
    engine_factors = tuple((f.gen, f.deriv, slots[f.var]) for f in factors)
    series_into(space, ((engine_factors, 1),), v_terms, tuple(box), table)
    # slots the output window bounds directly; the split keeps b and s in it
    direct = [var for var in range(nv) if not combos or var not in (b, s)]
    for ecell, c in cells.items():
        for tcell, row in table.items():
            out = [x + e for x, e in zip(tcell, ecell)]
            if any(not los[var] <= out[var] <= his[var] for var in direct):
                continue
            if not combos:
                add_into(acc.setdefault(tuple(out), {}), row, c)
                continue
            # s^i b^(c-i) moves i from the base to the shift slot
            first = max(0, los[s] - out[s], out[b] - his[b])
            last = min(his[s] - out[s], out[b] - los[b])
            for i in range(first, last + 1):
                cb = binom(tcell[nv], i)
                if cb:
                    out_i = list(out)
                    out_i[s] += i
                    out_i[b] -= i
                    add_into(acc.setdefault(tuple(out_i), {}), row, c * cb)
