"""Closed-form products of normal-ordered operators and correlation functions.

A product of two normal-ordered strings of generating-series factors
expands into normal-ordered strings with some factors contracted away,
the contractions weighted by determinants of pairing kernels:

  :A: :B: = sum over rho, I, J of
      (-1)^(sum I + sum J) (-1)^(r rho + rho(rho+1)/2)
      det[ (a_i, b_j) f_{m_i n_j}(x_i, y_j) ]  :A without I, B without J:

with r = len(A).  The rho = 0 term is the plain concatenation.  Iterating
an operator instead of composing replaces the kernel by the pure Laurent
coefficient (x^(-n-1))^(m) and re-centers surviving A factors at y+x.

Normal ordering here is a formal mark on an ordered factor list; factors
are never reordered (creation parts have no relations to exploit).

Vacuum correlation functions keep only the fully contracted terms of
the iterated product, so they are Pfaffians of the factor-level kernel;
folding the products (`noexpr_mul`) is kept as the slow oracle.
"""
from __future__ import annotations

from itertools import combinations, permutations
from math import lcm
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .fock import FockVector, HSpace, Word
from .pfaffian import pfaffian
from .ratfun import RationalFunction, f_mn, region_cells
from .scalars import binom
from .vertex import Cell, integer_terms, series_into, wrap_table


class Factor(NamedTuple):
    """One generating-series factor h_gen^(deriv)(var), possibly one-sided.

    `var` is a plain variable name, or "b+s" for a factor re-centered at
    the sum of two variables (expanded in nonnegative powers of s).
    """

    gen: int
    deriv: int
    var: str
    part: str = "full"


class NOExpr:
    """Sum of (rational-function coefficient, normal-ordered factor list)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[Tuple[RationalFunction, Tuple[Factor, ...]]] = ()):
        self.terms: List[Tuple[RationalFunction, Tuple[Factor, ...]]] = [
            (c, tuple(fs)) for c, fs in terms if not c.is_zero()
        ]

    def __len__(self):
        return len(self.terms)

    def scale(self, value) -> "NOExpr":
        return NOExpr([(c.scale(value), fs) for c, fs in self.terms])

    def substitute(self, mapping: Dict[str, str]) -> "NOExpr":
        out = []
        for c, fs in self.terms:
            fs2 = tuple(f._replace(var=mapping.get(f.var, f.var)) for f in fs)
            out.append((c.substitute(mapping), fs2))
        return NOExpr(out)

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


def _rf_det(matrix: List[List[RationalFunction]]) -> RationalFunction:
    """Permutation expansion; keeps the arithmetic division-free."""
    n = len(matrix)
    if n == 0:
        return RationalFunction.from_scalar(1)
    total = RationalFunction.from_scalar(0)
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        prod = RationalFunction.from_scalar(-1 if inv & 1 else 1)
        for i in range(n):
            entry = matrix[i][perm[i]]
            if entry.is_zero():
                prod = None
                break
            prod = prod * entry
        if prod is not None:
            total = total + prod
    return total


def contraction_det(
    space: HSpace,
    rows: Sequence[Tuple[int, int, str]],
    cols: Sequence[Tuple[int, int, str]],
) -> RationalFunction:
    """det[(a_i, b_j) f_{m_i n_j}(x_i, y_j)] for rows (a, m, x), cols (b, n, y)."""
    if len(rows) != len(cols) or not rows:
        raise ValueError("contraction determinant needs a nonempty square block")
    matrix = []
    for a, m, x in rows:
        row = []
        for b, n, y in cols:
            p = space.pair(a, b)
            row.append(f_mn(m, n, x, y).scale(p) if p else RationalFunction.from_scalar(0))
        matrix.append(row)
    return _rf_det(matrix)


def wick_fuse(space: HSpace, A: Sequence[Factor], B: Sequence[Factor]) -> NOExpr:
    """Expand :A: :B: into contracted normal-ordered terms.

    A and B must live on disjoint variable sets; contraction kernels are
    evaluated at the factors' own variables.
    """
    A = tuple(A)
    B = tuple(B)
    if {f.var for f in A} & {f.var for f in B}:
        raise ValueError("factor groups must use disjoint variables")
    r, s = len(A), len(B)
    terms = [(RationalFunction.from_scalar(1), A + B)]
    for rho in range(1, min(r, s) + 1):
        base = (-1) ** (r * rho + rho * (rho + 1) // 2)
        for I in combinations(range(r), rho):
            for J in combinations(range(s), rho):
                sign = base * (-1) ** (sum(I) + sum(J) + 2 * rho)  # 1-based index sums
                det = contraction_det(
                    space,
                    [(A[i].gen, A[i].deriv, A[i].var) for i in I],
                    [(B[j].gen, B[j].deriv, B[j].var) for j in J],
                )
                if det.is_zero():
                    continue
                keep = tuple(A[i] for i in range(r) if i not in I) + tuple(
                    B[j] for j in range(s) if j not in J
                )
                terms.append((det.scale(sign), keep))
    return NOExpr(terms)


def noexpr_mul(space: HSpace, left: NOExpr, right: NOExpr) -> NOExpr:
    """Bilinear extension of the fuse expansion to sums of terms."""
    out = []
    for c1, f1 in left.terms:
        for c2, f2 in right.terms:
            for c3, f3 in wick_fuse(space, f1, f2).terms:
                out.append((c1 * c2 * c3, f3))
    return NOExpr(out)


def wick_product(space: HSpace, u1: Word, u2: Word) -> NOExpr:
    """Two-operator product in variables (x, y), |x| > |y| on expansion.

    Built from the distinct-variable expansion by the syntactic
    substitutions x_i -> x, y_j -> y (no difference factor collapses,
    since contractions only ever pair an x-slot with a y-slot).
    """
    A = tuple(Factor(g, -l - 1, f"x{i+1}") for i, (g, l) in enumerate(u1))
    B = tuple(Factor(g, -l - 1, f"y{j+1}") for j, (g, l) in enumerate(u2))
    fused = wick_fuse(space, A, B)
    mapping = {f.var: "x" for f in A}
    mapping.update({f.var: "y" for f in B})
    return fused.substitute(mapping)


def wick_iterate(space: HSpace, u1: Word, u2: Word) -> NOExpr:
    """Iterate expansion: kernels become pure Laurent coefficients in x and
    surviving first-slot factors sit at y+x (nonnegative powers of x)."""
    r, s = len(u1), len(u2)
    ms = [-l - 1 for _, l in u1]
    ns = [-l - 1 for _, l in u2]
    A = tuple(Factor(g, m, "y+x") for (g, _), m in zip(u1, ms))
    B = tuple(Factor(g, n, "y") for (g, _), n in zip(u2, ns))
    terms = [(RationalFunction.from_scalar(1, ("x",)), A + B)]
    for rho in range(1, min(r, s) + 1):
        base = (-1) ** (r * rho + rho * (rho + 1) // 2)
        for I in combinations(range(r), rho):
            for J in combinations(range(s), rho):
                sign = base * (-1) ** (sum(I) + sum(J) + 2 * rho)
                matrix = []
                for i in I:
                    row = []
                    for j in J:
                        p = space.pair(u1[i][0], u2[j][0])
                        c = p * binom(-ns[j] - 1, ms[i]) if p else 0
                        row.append(
                            RationalFunction.monomial(("x",), {"x": -ns[j] - ms[i] - 1}, c)
                            if c
                            else RationalFunction.from_scalar(0, ("x",))
                        )
                    matrix.append(row)
                det = _rf_det(matrix)
                if det.is_zero():
                    continue
                keep = tuple(A[i] for i in range(r) if i not in I) + tuple(
                    B[j] for j in range(s) if j not in J
                )
                terms.append((det.scale(sign), keep))
    return NOExpr(terms)


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
    contract.  The `noexpr_mul` fold computes the same value term by term.
    """
    names = [v for _, v in insertions]
    if len(set(names)) != len(names):
        raise ValueError("insertion variables must be distinct")
    factors = [(i, f) for i, (w, v) in enumerate(insertions) for f in word_factors(w, v)]
    kernel: Dict[int, Dict[int, RationalFunction]] = {}
    for p, (i, fp) in enumerate(factors):
        for q in range(p + 1, len(factors)):
            j, fq = factors[q]
            pairing = space.pair(fp.gen, fq.gen) if j != i else 0
            if pairing:
                kernel.setdefault(p, {})[q] = f_mn(fp.deriv, fq.deriv, fp.var, fq.var).scale(pairing)
    full = (1 << len(factors)) - 1
    return pfaffian(kernel, [full], RationalFunction.from_scalar(1))[full]


# -- windowed evaluation of closed forms ------------------------------------


def _slot_floor(derivs: Sequence[int], words) -> int:
    """Sharp floor for the exponent sum of a factor group against a target
    made of the given words.

    Annihilators contract distinct creation modes of one word; pairing the
    largest derivative orders with the deepest levels minimizes the sum of
    exponents level - m, and any number of them may fire.
    """
    if not derivs:
        return 0
    ms = sorted(derivs, reverse=True)
    best = 0
    for w in words:
        levels = sorted(level for _, level in w)
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


def _table_add(table, cell, vec_terms, coeff):
    row = table.setdefault(cell, {})
    for w, c in vec_terms.items():
        s = row.get(w, 0) + c * coeff
        if s:
            row[w] = s
        else:
            row.pop(w, None)


def noexpr_apply(
    space: HSpace,
    expr: NOExpr,
    v: FockVector,
    order: Sequence[str],
    intervals: Sequence[Tuple[int, int]],
) -> Dict[Cell, FockVector]:
    """Exact windowed coefficients of an NOExpr applied to a state.

    Coefficients with difference factors are region-expanded in the order
    given (|order[0]| > ...); factors at a shifted variable "b+s" are
    re-centered on the grid by the binomial rule for (b+s)^c, expanded in
    nonnegative powers of s within the window budget.

    Every coefficient of the expression and of v is brought over one common
    denominator D, so the grid fold accumulates integers (exact Fractions
    under a non-integral Gram matrix) and divides by D once per entry.
    """
    order = tuple(order)
    order_index = {name: i for i, name in enumerate(order)}
    los = [lo for lo, _ in intervals]
    his = [hi for _, hi in intervals]
    v_terms, D = integer_terms(v)
    Dc = lcm(*(rf.int_den for rf, _ in expr.terms))
    acc: Dict[Cell, Dict[Word, int]] = {}

    for coeff_rf, factors in expr.terms:
        shifted = [f for f in factors if "+" in f.var]
        if shifted and coeff_rf.den_diff:
            raise NotImplementedError("shifted factors with difference kernels")
        scale = Dc // coeff_rf.int_den
        if shifted:
            summands = coeff_rf.integer_summands(scale)
            _apply_shifted_term(space, summands, factors, v_terms, order_index, los, his, acc)
        else:
            _apply_plain_term(space, coeff_rf, scale, factors, v_terms, order_index, los, his, acc)
    return wrap_table(acc, D * Dc)


def _apply_plain_term(space, coeff_rf, scale, factors, v_terms, order_index, los, his, acc):
    nv = len(los)
    engine_factors = tuple((f.gen, f.deriv, order_index[f.var]) for f in factors)
    lows = _grid_lower_bounds(factors, order_index, nv, v_terms)
    # enumerate the Laurent cells of the coefficient that can reach the window
    cell_his = [hi - lw for hi, lw in zip(his, lows)]
    rf_cells = region_cells(coeff_rf, order_index, cell_his, scale)
    if not rf_cells:
        return
    box = []
    for var in range(nv):
        es = [cell[var] for cell in rf_cells]
        lo = los[var] - max(es)
        hi = his[var] - min(es)
        if lo > hi:
            return
        box.append((lo, hi))
    table: Dict[Cell, Dict[Word, int]] = {}
    series_into(space, engine_factors, v_terms, tuple(box), table)
    for ecell, c in rf_cells.items():
        for tcell, row in table.items():
            out = tuple(a + b for a, b in zip(ecell, tcell))
            if all(l <= x <= h for x, l, h in zip(out, los, his)):
                _table_add(acc, out, row, c)


def _apply_shifted_term(space, summands, factors, v_terms, order_index, los, his, acc):
    """Evaluate a term whose re-centered factors sit at one base+shift pair.

    The factors at "b+s" go to an auxiliary grid slot w, and the grid is
    substituted w^c -> sum_i C(c, i) s^i b^(c-i); expanding the total
    power agrees with expanding factorwise, so this is exact.  A second
    auxiliary slot tracks the base total d_b + c jointly, which is what
    the output window actually constrains, keeping the grid small.
    """
    nv = len(los)
    combos = {f.var for f in factors if "+" in f.var}
    if len(combos) != 1:
        raise NotImplementedError("one shifted variable pair per term")
    combo = combos.pop()
    base, shift = combo.split("+")
    if base not in order_index or shift not in order_index:
        raise ValueError(f"unknown shifted variable {combo!r}")
    bidx, sidx = order_index[base], order_index[shift]
    wslot, vslot = nv, nv + 1
    engine_factors = []
    shifted_ms: List[int] = []
    base_ms: List[int] = []
    shift_ms: List[int] = []
    for f in factors:
        if f.var == combo:
            engine_factors.append((f.gen, f.deriv, (wslot, vslot)))
            shifted_ms.append(f.deriv)
        else:
            idx = order_index[f.var]
            slots = (idx, vslot) if idx == bidx else (idx,)
            engine_factors.append((f.gen, f.deriv, slots))
            if idx == bidx:
                base_ms.append(f.deriv)
            elif idx == sidx:
                shift_ms.append(f.deriv)

    lw = _slot_floor(shifted_ms, v_terms)
    lb = _slot_floor(base_ms, v_terms)
    ls = _slot_floor(shift_ms, v_terms)

    for c, fixed, _ in summands:
        fixed_vec = [0] * nv
        for var, e in fixed.items():
            fixed_vec[order_index[var]] = e
        imax = his[sidx] - fixed_vec[sidx] - ls
        if imax < 0:
            continue
        box = []
        dead = False
        for var in range(nv):
            if var == bidx:
                lohi = (lb, his[bidx] - fixed_vec[bidx] - lw + imax)
            elif var == sidx:
                lohi = (ls, his[sidx] - fixed_vec[sidx])
            else:
                lohi = (los[var] - fixed_vec[var], his[var] - fixed_vec[var])
            if lohi[0] > lohi[1]:
                dead = True
                break
            box.append(lohi)
        if dead:
            continue
        cmax = his[bidx] - fixed_vec[bidx] - lb + imax
        if cmax < lw:
            continue
        box.append((lw, cmax))  # w slot
        # joint slot: d_b + c, pinned by the base-variable output window
        box.append((los[bidx] - fixed_vec[bidx], his[bidx] - fixed_vec[bidx] + imax))
        table: Dict[Cell, Dict[Word, int]] = {}
        series_into(space, tuple(engine_factors), v_terms, tuple(box), table)
        for cell, row in table.items():
            cw = cell[wslot]
            joint = cell[vslot]
            for i in range(0, imax - cell[sidx] + 1):
                out_b = fixed_vec[bidx] + joint - i
                if out_b < los[bidx] or out_b > his[bidx]:
                    continue
                cb = binom(cw, i)
                if not cb:
                    continue
                out = list(cell[:nv])
                for var in range(nv):
                    out[var] += fixed_vec[var]
                out[sidx] += i
                out[bidx] = out_b
                out = tuple(out)
                if all(l <= x <= h for x, l, h in zip(out, los, his)):
                    _table_add(acc, out, row, c * cb)
