"""Independent references the benchmark checks fermifock's outputs against.

Nothing here calls into fermifock: the Pfaffian, the binomial, the
evaluation of a rational function at a point and the closed exponential
of the pair-deletion operator are written from their definitions.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def binom(n: int, m: int) -> int:
    """C(n, m) for any integer n and natural m, as a falling factorial."""
    num, den = 1, 1
    for i in range(m):
        num *= n - i
        den *= i + 1
    return num // den


def pfaffian(matrix) -> Fraction:
    """Pfaffian of a skew-symmetric matrix by skew Gaussian elimination.

    With A = [[0, a, u], [-a, 0, v], [-u, -v, C]] and a != 0,
    Pf(A) = a * Pf(C + (v u^T - u v^T) / a); a zero first row gives 0,
    and a pivot taken from another column flips the sign once.
    """
    n = len(matrix)
    if n % 2:
        return Fraction(0)
    a = [[Fraction(x) for x in row] for row in matrix]
    order = list(range(n))
    result = Fraction(1)
    while order:
        i = order[0]
        pos = next((p for p in range(1, len(order)) if a[i][order[p]]), None)
        if pos is None:
            return Fraction(0)
        if pos != 1:
            order[1], order[pos] = order[pos], order[1]
            result = -result
        j = order[1]
        piv = a[i][j]
        result *= piv
        rest = order[2:]
        for x, p in enumerate(rest):
            up, vp = a[i][p], a[j][p]
            if not (up or vp):
                continue
            for q in rest[x + 1 :]:
                d = (vp * a[i][q] - up * a[j][q]) / piv
                if d:
                    a[p][q] += d
                    a[q][p] -= d
        order = rest
    return result


def _matchings(items):
    if not items:
        yield ()
        return
    first = items[0]
    for k in range(1, len(items)):
        rest = items[1:k] + items[k + 1 :]
        for m in _matchings(rest):
            yield ((first, items[k]),) + m


def pfaffian_bruteforce(matrix) -> Fraction:
    """Signed sum over perfect matchings, the sign being the parity of
    the permutation (i1 j1 i2 j2 ...) read off by counting inversions."""
    n = len(matrix)
    if n % 2:
        return Fraction(0)
    total = Fraction(0)
    for matching in _matchings(tuple(range(n))):
        seq = [x for edge in matching for x in edge]
        inv = sum(1 for s in range(n) for t in range(s + 1, n) if seq[s] > seq[t])
        term = Fraction(-1 if inv & 1 else 1)
        for i, j in matching:
            term *= matrix[i][j]
        total += term
    return total


def self_test_pfaffian(rng, trials: int = 40) -> None:
    """Elimination against brute force on small random skew matrices,
    half of them sparse so that zero pivots and row swaps occur."""
    for trial in range(trials):
        n = 2 * rng.randint(0, 4)
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if trial % 2 and rng.random() < 0.6:
                    continue
                x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                a[i][j], a[j][i] = x, -x
        if pfaffian(a) != pfaffian_bruteforce(a):
            raise AssertionError(f"Pfaffian elimination disagrees with brute force on {a}")


def eval_rational(rf, point) -> Fraction:
    """Value of a fermifock RationalFunction at a rational point.

    Reads the normalized representation num / (prod z^a * prod (x-y)^b).
    """
    num = Fraction(0)
    for cell, c in rf.num.items():
        term = Fraction(c)
        for var, e in zip(rf.vars, cell):
            if e:
                term *= point[var] ** e
        num += term
    den = Fraction(1)
    for var, a in rf.den_pow.items():
        den *= point[var] ** a
    for (x, y), b in rf.den_diff.items():
        den *= (point[x] - point[y]) ** b
    return num / den


def correlation_at(gram, insertions, point) -> Fraction:
    """Vacuum correlation of word insertions at a point, as one Pfaffian.

    Factor p of insertion i is (gen g_p, derivative order m_p); for
    factors in insertions i < j the kernel is
    (g_p, g_q) * C(-n_q - 1, m_p) / (z_i - z_j)^(m_p + n_q + 1),
    and factors of one insertion do not contract.
    """
    factors = []
    for i, (word, var) in enumerate(insertions):
        for g, level in word:
            factors.append((i, g, -level - 1, var))
    n = len(factors)
    a = [[Fraction(0)] * n for _ in range(n)]
    for p in range(n):
        ip, gp, mp, xp = factors[p]
        for q in range(p + 1, n):
            iq, gq, nq, xq = factors[q]
            if ip == iq:
                continue
            pair = gram[gp][gq]
            if not pair:
                continue
            value = pair * binom(-nq - 1, mp) / (point[xp] - point[xq]) ** (mp + nq + 1)
            a[p][q], a[q][p] = value, -value
    return pfaffian(a)


def bracket_matrix(gram, coeffs, gens, levels):
    """Skew matrix of contraction scalars (g_a, g_b) * C[m_a][m_b]."""
    n = len(gens)
    a = [[Fraction(0)] * n for _ in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            c = coeffs.get((levels[p], levels[q]), 0)
            if c:
                value = gram[gens[p]][gens[q]] * c
                a[p][q], a[q][p] = value, -value
    return a


def exp_delta_ref(gram, coeffs, terms):
    """Closed exponential of the pair-deletion operator on a state.

    Deleting positions idx (2t of them) from a word weighs the rest by
    (-1)^(sum of 1-based positions) times the Pfaffian of the bracket
    matrix on idx, at exponent -sum(levels on idx) - t.
    Returns {exponent: {word: coeff}} without zero entries.
    """
    out = {}
    for word, cw in terms.items():
        r = len(word)
        gens = [g for g, _ in word]
        levels = [-l - 1 for _, l in word]
        full = bracket_matrix(gram, coeffs, gens, levels)
        for size in range(0, r + 1, 2):
            for idx in combinations(range(r), size):
                sub = [[full[p][q] for q in idx] for p in idx]
                value = pfaffian(sub)
                if not value:
                    continue
                sign = -1 if (sum(idx) + size) & 1 else 1
                exp = -sum(levels[p] for p in idx) - size // 2
                keep = tuple(word[p] for p in range(r) if p not in idx)
                row = out.setdefault(exp, {})
                s = row.get(keep, 0) + cw * value * sign
                if s:
                    row[keep] = s
                else:
                    row.pop(keep, None)
    return {e: row for e, row in out.items() if row}
