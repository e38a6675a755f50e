import random
from fractions import Fraction
from math import comb, prod

import pytest

from fermifock import ratfun
from fermifock.fock import FockVector, HSpace, random_state, random_word
from fermifock.laurent import Box
from fermifock.pfaffian import pfaffian
from fermifock.ratfun import RationalFunction, deferred_pfaffian, f_mn
from fermifock.vertex import iterate_series, ordered_factor_series, product_series, y_series
from fermifock.wick import (
    Factor,
    NOExpr,
    contraction_det,
    correlation,
    correlation_terms,
    noexpr_apply,
    noexpr_mul,
    vacuum_expectation,
    wick_fuse,
    wick_iterate,
    wick_product,
    word_factors,
)

SPACE = HSpace(2)
E1, E2, F1, F2 = 0, 1, 2, 3


def test_contraction_det_rank_one():
    got = contraction_det(SPACE, [(E1, 0, "x")], [(F1, 1, "y")])
    assert got == f_mn(0, 1, "x", "y")
    assert contraction_det(SPACE, [(E1, 2, "x")], [(E2, 1, "y")]).is_zero()


def test_contraction_det_two_by_two():
    rows = [(E1, 0, "x1"), (E2, 1, "x2")]
    cols = [(F1, 0, "y1"), (F2, 2, "y2")]
    got = contraction_det(SPACE, rows, cols)
    ad = f_mn(0, 0, "x1", "y1") * f_mn(1, 2, "x2", "y2")
    bc = f_mn(0, 2, "x1", "y2") * f_mn(1, 0, "x2", "y1")
    assert got == ad * SPACE.pair(E1, F1) * SPACE.pair(E2, F2) - bc * SPACE.pair(E1, F2) * SPACE.pair(E2, F1)


def test_contraction_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        contraction_det(SPACE, [(E1, 0, "x")], [])


def test_wick_fuse_base_case():
    A = (Factor(E1, 0, "x"),)
    B = (Factor(F1, 0, "y"),)
    expr = wick_fuse(SPACE, A, B)
    assert len(expr) == 2
    by_len = {len(fs): (c, fs) for c, fs in expr.terms}
    assert by_len[2][1] == A + B
    assert by_len[0][0] == f_mn(0, 0, "x", "y")


def test_wick_fuse_empty_side_and_term_count():
    B = word_factors(((F1, -1), (E2, -2)), "y")
    expr = wick_fuse(SPACE, (), B)
    assert len(expr) == 1 and expr.terms[0][1] == B
    # full generic pairing: one term per (rho, I, J) triple survives
    sp = HSpace(1, [[1, 1], [1, 2]])
    A = tuple(Factor(g % 2, 0, f"x{i+1}") for i, g in enumerate(range(3)))
    B = tuple(Factor(g % 2, 0, f"y{j+1}") for j, g in enumerate(range(3)))
    expr = wick_fuse(sp, A, B)
    assert len(expr) == sum(comb(3, r) * comb(3, r) for r in range(4))


def test_wick_fuse_rejects_shared_variables():
    with pytest.raises(ValueError):
        wick_fuse(SPACE, (Factor(E1, 0, "x"),), (Factor(F1, 0, "x"),))


def _apply_composed(space, A, B, v, intervals):
    """Oracle: apply :B: to v, then :A:, composing two separate windowed
    normal-ordered applications (never the fused closed form)."""
    nv = len(intervals)
    idx = {}
    for f in A + B:
        idx.setdefault(f.var, len(idx))
    fb = tuple((f.gen, f.deriv, idx[f.var]) for f in B)
    fa = tuple((f.gen, f.deriv, idx[f.var]) for f in A)
    grid_b = ordered_factor_series(space, fb, v, intervals)
    out = {}
    for cell_b, w in grid_b.items():
        grid_a = ordered_factor_series(space, fa, w, intervals)
        for cell_a, vec in grid_a.items():
            cell = tuple(a + b for a, b in zip(cell_a, cell_b))
            if all(lo <= c <= hi for c, (lo, hi) in zip(cell, intervals)):
                cur = out.get(cell)
                s = cur + vec if cur is not None else vec
                if s:
                    out[cell] = s
                else:
                    out.pop(cell, None)
    return out


def test_wick_fuse_matches_composed_series_at_distinct_variables():
    rng = random.Random(31)
    for _ in range(4):
        A = tuple(Factor(rng.randrange(4), rng.randint(0, 1), f"x{i+1}") for i in range(2))
        B = tuple(Factor(rng.randrange(4), rng.randint(0, 1), f"y{j+1}") for j in range(2))
        v = random_state(rng, SPACE, 3)
        order = ("x1", "x2", "y1", "y2")
        intervals = ((-3, 2), (-3, 2), (-3, 2), (-3, 2))
        lhs = _apply_composed(SPACE, A, B, v, intervals)
        # oracle composes within each group too, so compare against the
        # fused expansion of the two groups
        rhs = noexpr_apply(SPACE, wick_fuse(SPACE, A, B), v, order, intervals)
        assert lhs == rhs


def test_wick_product_identity_side():
    expr = wick_product(SPACE, (), ((F1, -1), (E1, -2)))
    assert len(expr) == 1
    c, fs = expr.terms[0]
    assert c == RationalFunction.from_scalar(1)
    assert fs == word_factors(((F1, -1), (E1, -2)), "y")


def test_wick_product_base_case():
    expr = wick_product(SPACE, ((E1, -1),), ((F1, -1),))
    by_len = {len(fs): c for c, fs in expr.terms}
    assert by_len[0] == f_mn(0, 0, "x", "y")


def test_wick_product_matches_product_series():
    rng = random.Random(37)
    box = Box(("x", "y"), ((-4, 3), (-4, 3)))
    for _ in range(6):
        u1 = random_word(rng, SPACE, 5)
        u2 = random_word(rng, SPACE, 5)
        v = random_state(rng, SPACE, 3)
        series = product_series(SPACE, FockVector.word(u1), FockVector.word(u2), v, box)
        closed = noexpr_apply(SPACE, wick_product(SPACE, u1, u2), v, ("x", "y"), box.intervals)
        for cell in box.cells():
            assert series.coefficient(cell) == closed.get(cell, FockVector()), (u1, u2, cell)


def test_closed_forms_match_series_under_rational_gram():
    """The closed-form grid fold clears one common denominator over the
    expression and the target; under a pairing with non-integral entries
    and targets with mixed denominators it must still match both series
    engines exactly and return Fraction coefficients only."""
    gram = [
        [0, Fraction(-5, 7), Fraction(1, 2), 0],
        [Fraction(-5, 7), 0, 0, Fraction(2, 3)],
        [Fraction(1, 2), 0, 0, Fraction(1, 3)],
        [0, Fraction(2, 3), Fraction(1, 3), 0],
    ]
    space = HSpace(2, gram)
    rng = random.Random(43)
    box = Box(("x", "y"), ((-4, 3), (-4, 3)))
    cases = [
        (product_series, wick_product),
        (iterate_series, wick_iterate),
    ]

    def word(length):
        return tuple((rng.randrange(space.dim), -rng.randint(1, 2)) for _ in range(length))

    nonzero = 0
    rational_kernels = 0
    for _ in range(4):
        u1, u2 = word(rng.randint(1, 2)), word(rng.randint(1, 2))
        v = FockVector({word(i): c for i, c in enumerate((Fraction(1, 2), Fraction(2, 3), Fraction(-5, 7)))})
        for series_of, closed_of in cases:
            expr = closed_of(space, u1, u2)
            rational_kernels += any(rf.int_den > 1 for rf, _ in expr.terms)
            series = series_of(space, FockVector.word(u1), FockVector.word(u2), v, box)
            closed = noexpr_apply(space, expr, v, ("x", "y"), box.intervals)
            assert series.coeffs == closed, (series_of.__name__, u1, u2)
            for vec in closed.values():
                assert all(type(c) is Fraction for c in vec.terms.values())
            nonzero += len(closed)
    assert nonzero and rational_kernels


def test_wick_iterate_identity_and_kernel():
    expr = wick_iterate(SPACE, (), ((F1, -1),))
    assert len(expr) == 1 and expr.terms[0][1] == (Factor(F1, 0, "y"),)
    expr = wick_iterate(SPACE, ((E1, -2),), ((F1, -3),))
    scalar = {0: c for c, fs in expr.terms if not fs}[0]
    # kernel (x^(-n-1))^(m) at m = 1, n = 2: C(-3, 1) x^-4
    assert scalar == RationalFunction.monomial(("x",), {"x": -4}, -3)


def test_wick_iterate_matches_iterate_series():
    rng = random.Random(41)
    box = Box(("x", "y"), ((-4, 3), (-4, 3)))
    for _ in range(6):
        u1 = random_word(rng, SPACE, 5)
        u2 = random_word(rng, SPACE, 5)
        v = random_state(rng, SPACE, 3)
        series = iterate_series(SPACE, FockVector.word(u1), FockVector.word(u2), v, box)
        closed = noexpr_apply(SPACE, wick_iterate(SPACE, u1, u2), v, ("x", "y"), box.intervals)
        for cell in box.cells():
            assert series.coefficient(cell) == closed.get(cell, FockVector()), (u1, u2, cell)


def test_vacuum_expectation_cases():
    assert vacuum_expectation(NOExpr([(RationalFunction.from_scalar(1), ())])) == 1
    pair_expr = wick_fuse(SPACE, (Factor(E1, 0, "x"),), (Factor(F1, 0, "y"),))
    assert vacuum_expectation(pair_expr) == f_mn(0, 0, "x", "y")
    no_contract = NOExpr([(RationalFunction.from_scalar(1), (Factor(E1, 0, "x"), Factor(F1, 0, "y")))])
    assert vacuum_expectation(no_contract).is_zero()


def test_correlation_simple_cases():
    assert correlation(SPACE, []) == 1
    assert correlation(SPACE, [(((E1, -1),), "z1")]).is_zero()
    got = correlation(SPACE, [(((E1, -1),), "z1"), (((F1, -1),), "z2")])
    assert got == RationalFunction.diff_inverse("z1", "z2", 1)
    # orthogonal insertions
    assert correlation(SPACE, [(((E1, -1),), "z1"), (((E2, -1),), "z2")]).is_zero()


def test_correlation_rejects_duplicate_variables():
    with pytest.raises(ValueError):
        correlation(SPACE, [(((E1, -1),), "z"), (((F1, -1),), "z")])


def _folded_correlation(space, insertions, right):
    """Vacuum expectation of the left (or right) noexpr_mul fold."""
    groups = [NOExpr([(RationalFunction.from_scalar(1), word_factors(w, v))]) for w, v in insertions]
    if right:
        expr = groups[-1]
        for g in reversed(groups[:-1]):
            expr = noexpr_mul(space, g, expr)
    else:
        expr = groups[0]
        for g in groups[1:]:
            expr = noexpr_mul(space, expr, g)
    return vacuum_expectation(expr)


FULL_GRAM_2 = [[1, 2, 1, 3], [2, 1, 1, 1], [1, 1, 2, 1], [3, 1, 1, 1]]  # no zero entry


def test_correlation_pfaffian_matches_both_folds():
    """The factor-level Pfaffian equals the left and the right fold of the
    pairwise Wick expansion exactly, down to the rendered form."""
    rng = random.Random(61)
    spaces = [HSpace(1), HSpace(1, [[1, 1], [1, 2]]), HSpace(2), HSpace(2, FULL_GRAM_2)]
    nonzero = 0
    for trial in range(80):
        space = spaces[trial % 4]
        while True:
            lengths = [rng.randint(0, 2) for _ in range(rng.randint(2, 5))]
            # an odd factor count is 0 on both routes; the folds grow fast
            # when every factor pair contracts
            if sum(lengths) % 2 == 0 and (space.gram == HSpace(space.M).gram or sum(lengths) <= 6):
                break
        ins = [
            (tuple((rng.randrange(space.dim), -rng.randint(1, 4)) for _ in range(k)), f"z{i + 1}")
            for i, k in enumerate(lengths)
        ]
        got = correlation(space, ins)
        for right in (False, True):
            want = _folded_correlation(space, ins, right)
            assert got == want, (ins, right)
            assert got.render() == want.render(), (ins, right)
        nonzero += not got.is_zero()
    assert nonzero >= 30


def _plain_correlation(space, insertions):
    """The factor-level Pfaffian run over RationalFunction itself, which
    normalizes after every ring operation."""
    kernel, full = _plain_kernel(space, insertions)
    return pfaffian(kernel, [full], RationalFunction.from_scalar(1))[full]


def _plain_kernel(space, insertions):
    """(kernel, full mask) of the factor-level Pfaffian of a correlation,
    its entries f_mn normal forms scaled by their pairings."""
    factors = [(i, f) for i, (w, v) in enumerate(insertions) for f in word_factors(w, v)]
    kernel = {}
    for p, (i, fp) in enumerate(factors):
        for q in range(p + 1, len(factors)):
            j, fq = factors[q]
            pairing = space.pair(fp.gen, fq.gen) if j != i else 0
            if pairing:
                kernel.setdefault(p, {})[q] = f_mn(fp.deriv, fq.deriv, fp.var, fq.var).scale(pairing)
    return kernel, (1 << len(factors)) - 1


def _correlation_cases():
    """Seeded correlation inputs: M = 1 alternating single-mode insertions
    of 2-8 points at derivative orders 0-2, dense and rational Grams with
    multi-letter words, empty words, and zeros; the last six are fixed."""
    rng = random.Random(73)
    rational = [
        [Fraction(1, 2), Fraction(-5, 7), 1, 0],
        [Fraction(-5, 7), 0, Fraction(2, 3), 3],
        [1, Fraction(2, 3), 0, Fraction(1, 3)],
        [0, 3, Fraction(1, 3), -2],
    ]
    cases = []
    # M = 1 alternating single-mode insertions under a seeded pairing scale
    for n, max_order in ((2, 2), (3, 2), (4, 2), (5, 1), (6, 1), (8, 0)):
        for _ in range(4):
            a = rng.choice([-3, 1, 2, 7])
            space = HSpace(1, [[0, a], [a, 0]])
            first = rng.randrange(2)
            ins = [((((first + i) % 2, -rng.randint(1, max_order + 1)),), f"z{i + 1}") for i in range(n)]
            cases.append((space, ins))
    # dense and rational Grams: every factor pair, or most, contracts
    shapes = [(FULL_GRAM_2, (1, 1, 1, 1)), (FULL_GRAM_2, (2, 1, 1)), (FULL_GRAM_2, (2, 1, 2, 1))]
    shapes += [(rational, (1, 2, 1)), (rational, (2, 1, 1, 2)), (rational, (1, 1, 1, 1, 1, 1))]
    for gram, lengths in shapes * 2:
        words = [tuple((rng.randrange(4), -rng.randint(1, 3)) for _ in range(k)) for k in lengths]
        cases.append((HSpace(2, gram), [(w, f"z{i + 1}") for i, w in enumerate(words)]))
    e, f = ((E1, -1),), ((F1, -1),)
    cases += [
        (SPACE, []),
        # empty words: their variables never reach the kernel
        (SPACE, [(e, "z1"), ((), "z2"), (f, "z3")]),
        (SPACE, [((), "z1"), ((), "z2")]),
        # zeros: an odd factor count, no contraction at all, and a sum that cancels
        (SPACE, [(e, "z1"), (f, "z2"), (e, "z3")]),
        (SPACE, [(e, "z1"), (((E2, -1),), "z2")]),
        (HSpace(1), [(((0, -1),), "z1"), (((0, -2),), "z2"), (((1, -2), (1, -2)), "z3")]),
    ]
    return cases


def test_correlation_matches_the_plain_pfaffian_route():
    """`correlation` normalizes once per Pfaffian; the route that normalizes
    at every ring operation gives the same normal form, vars included."""
    cases = _correlation_cases()
    nonzero = 0
    for space, ins in cases:
        got, want = correlation(space, ins), _plain_correlation(space, ins)
        assert got.vars == want.vars, ins
        assert got.num == want.num and got.int_den == want.int_den, ins
        assert got.den_pow == want.den_pow and got.den_diff == want.den_diff, ins
        assert got.render() == want.render(), ins
        nonzero += not got.is_zero()
    # the cancelling sum keeps its variables; a minor with no matching has none
    assert correlation(HSpace(1), cases[-1][1]).vars == ("z1", "z2", "z3")
    assert correlation(SPACE, cases[-2][1]).vars == ()
    assert correlation(SPACE, cases[-5][1]).vars == ("z1", "z3")
    assert nonzero >= 24


# inputs whose normal form needs long divisions, from one up to sixteen:
# in the first four the Pfaffian memo over-lifts a difference power that no
# Wick term reaches; in the last four, Wick terms of distinct difference
# powers reach it and cancel where the two variables meet, so only these
# depend on the orientation of each difference
DIVIDING = [
    (HSpace(2, FULL_GRAM_2), [((1, -1), (3, -2)), ((2, -1),), ((2, -3),), ((0, -2), (2, -3))]),
    (HSpace(2, FULL_GRAM_2), [((3, -3), (0, -2)), ((1, -3),), ((0, -2),), ((1, -3), (0, -3))]),
    (HSpace(2, FULL_GRAM_2), [((1, -2), (2, -2)), ((2, -2),), ((1, -3),), ((0, -2), (2, -1))]),
    (HSpace(2, FULL_GRAM_2), [((0, -3), (0, -1)), ((0, -2),), ((3, -3),), ((3, -3), (2, -3))]),
    (HSpace(2, FULL_GRAM_2), [((2, -2), (3, -3)), ((1, -2), (1, -1)), ((1, -1), (3, -3))]),
    (HSpace(1), [((1, -3), (0, -1)), ((1, -3),), ((0, -1), (0, -3)), ((1, -2),)]),
    (HSpace(1), [((0, -1), (1, -2)), ((1, -3), (1, -2)), ((0, -3), (0, -1))]),
    (HSpace(1, [[1, 1], [1, 2]]), [((1, -1), (1, -3)), ((0, -3), (1, -2)), ((1, -1), (0, -2))]),
]


def test_correlation_certificate_under_renamed_variables(monkeypatch):
    """`correlation` takes the pole order of every difference factor from
    the Wick sum, whose differences run in insertion order, not in the
    canonical order of the normal form.  With the variables renamed out of
    canonical order, all reversed (z10 ... z1) or mixed (b, a, ...: some
    differences reversed, some not), it still equals the plain Pfaffian
    route in every field, through the inputs whose normal form needs long
    divisions and the one whose sum cancels; so does `deferred_pfaffian`
    given no Wick sum, which runs trial division only."""
    divisions = []
    divide = ratfun._divide_by_diff
    monkeypatch.setattr(ratfun, "_divide_by_diff", lambda *args: divisions.append(divide(*args)) or divisions[-1])
    cases = _correlation_cases() + [(space, [(w, "") for w in words]) for space, words in DIVIDING]
    pools = [[f"z{10 - k}" for k in range(10)], ["b", "a", "z2", "z10", "z1", "c", "z11", "w"]]
    divided = 0
    for space, ins in cases:
        for pool in pools:
            renamed = [(w, v) for (w, _), v in zip(ins, pool)]
            divisions.clear()
            got = correlation(space, renamed)
            divided += sum(q is not None for q in divisions)
            want = _plain_correlation(space, renamed)
            trial = deferred_pfaffian(*_plain_kernel(space, renamed))
            for rf in (got, trial):
                assert (rf.vars, rf.int_num, rf.int_den) == (want.vars, want.int_num, want.int_den), renamed
                assert (rf.den_pow, rf.den_diff, rf.render()) == (want.den_pow, want.den_diff, want.render()), renamed
    assert divided >= 50


def test_correlation_pole_orders_come_from_the_wick_sum(monkeypatch):
    """A correlation's pole orders come from its Wick sum: the README's
    dense 6-insertion input runs no long division at all, the `DIVIDING`
    inputs make exactly 28 successful ones, and none fails while the
    memo's power b of a difference exceeds the Wick sum's top power B."""
    runs = []  # per normalization: (vars, den_diff as it enters, poles, [(pair, divided)])
    divide, normalize = ratfun._divide_by_diff, RationalFunction._normalize

    def logged_divide(a, i, j):
        q = divide(a, i, j)
        variables, _, _, log = runs[-1]
        log.append(((variables[i], variables[j]), q is not None))
        return q

    def logged_normalize(rf, poles=None):
        runs.append((rf.vars, dict(rf.den_diff), poles, []))
        normalize(rf, poles)

    monkeypatch.setattr(ratfun, "_divide_by_diff", logged_divide)
    monkeypatch.setattr(RationalFunction, "_normalize", logged_normalize)
    dense = [(((i % 4, -1 - i % 2),), f"z{i + 1}") for i in range(6)]
    assert len(correlation(HSpace(2, FULL_GRAM_2), dense).int_num) == 30567
    assert [log for *_, log in runs] == [[]]
    runs.clear()
    for space, words in DIVIDING:
        correlation(space, [(w, f"z{i + 1}") for i, w in enumerate(words)])
    assert sum(ok for *_, log in runs for _, ok in log) == 28
    for _, den_diff, poles, log in runs:
        for pair, b in den_diff.items():
            exact = [ok for p, ok in log if p == pair][: b - poles[pair][0]]
            assert len(exact) == b - poles[pair][0] and all(exact), pair


def test_correlation_normalizes_once(monkeypatch):
    """A nonzero correlation on the dense M = 2 Gram normalizes exactly
    once: the Pfaffian's ring never does, only the value it returns."""
    ins = [(((g, -1 - i % 2),), f"z{i + 1}") for i, g in enumerate((E1, E2, F1, F2))]
    calls = []
    normalize = RationalFunction._normalize
    monkeypatch.setattr(RationalFunction, "_normalize", lambda rf, poles=None: calls.append(rf) or normalize(rf, poles))
    assert not correlation(HSpace(2, FULL_GRAM_2), ins).is_zero()
    assert len(calls) == 1


def _wick_sum_at(wick_sum, point):
    total = Fraction(0)
    for key, c in wick_sum.terms.items():
        total += Fraction(c, wick_sum.den) / prod((point[x] - point[y]) ** b for (x, y), b in key)
    return total


def _normal_form_at(rf, point):
    num = sum(c * prod(point[v] ** e for v, e in zip(rf.vars, cell)) for cell, c in rf.num.items())
    den = prod(point[v] ** a for v, a in rf.den_pow.items())
    return num / den / prod((point[x] - point[y]) ** b for (x, y), b in rf.den_diff.items())


def test_correlation_terms_match_the_normal_form():
    """The Wick sum and the normal form of `correlation` are one function:
    equal `expand_region` tables under three region orders with seeded
    boxes, and equal values at seeded rational points.  The variables are
    renamed out of canonical order, so the sum's differences (x the earlier
    insertion) are often the reverse of the normal form's.  The sums are
    never compared as dicts: they are not canonical."""
    rng = random.Random(79)
    pool = ["b", "a", "z10", "z2", "w", "z1", "c", "z11"]
    cells = nonzero = 0
    for space, ins in _correlation_cases():
        names = rng.sample(pool, len(ins))
        ins = [(w, v) for (w, _), v in zip(ins, names)]
        wick_sum, rf = correlation_terms(space, ins), correlation(space, ins)
        for _ in range(3):
            d = rng.randint(1, 9)
            point = {v: Fraction(x, d) for v, x in zip(names, rng.sample(range(-50, 50), len(names)))}
            value = _normal_form_at(rf, point)
            assert _wick_sum_at(wick_sum, point) == value, ins
            nonzero += value != 0
        # the normal form's walk is the slow side: its boxes shrink as points are added
        lo, hi = (-5, 2) if len(names) < 6 else (-3, 1) if len(names) < 8 else (-3, 0)
        for order in (names, names[::-1], rng.sample(names, len(names))):
            box = [(rng.randint(lo, -1), rng.randint(0, hi)) for _ in names]
            table = wick_sum.expand_region(order, box)
            assert table == rf.expand_region(order, box), (ins, order, box)
            cells += len(table.coeffs)
    assert cells >= 150 and nonzero >= 72
    assert correlation_terms(SPACE, []) == ({(): 1}, 1)
    with pytest.raises(ValueError, match="distinct"):
        correlation_terms(SPACE, [(((E1, -1),), "z"), (((F1, -1),), "z")])
    # both expansion routes agree on the empty-insertion sum and refuse the same order
    empty = correlation_terms(SPACE, []).expand_region([], [])
    assert empty.coeffs == {(): 1} and empty == correlation(SPACE, []).expand_region([], [])
    ins = [(((E1, -1),), "z1"), (((F1, -1),), "z2")]
    for route in (correlation_terms(SPACE, ins), correlation(SPACE, ins)):
        with pytest.raises(ValueError, match="^region order must cover all variables$"):
            route.expand_region(["z1"], [(0, 0)])


def test_correlation_terms_expand_like_the_nested_series_at_eight_points():
    """Eight alternating e1(-1/2), f1(-1/2) insertions under M = 1: the
    Wick sum's table on [-2, 1]^8 equals the vacuum coefficients of the
    nested vertex-operator series, built as in acceptance criterion 7."""
    space = HSpace(1)
    names = [f"z{i + 1}" for i in range(8)]
    ins = [(((i % 2, -1),), v) for i, v in enumerate(names)]
    box = ((-2, 1),) * 8
    table = correlation_terms(space, ins).expand_region(names, box)
    grid = {(): FockVector.vacuum()}
    for word, _ in reversed(ins):
        nxt = {}
        for cell, v in grid.items():
            for (k,), vec in y_series(space, FockVector.word(word), v, -2, 1).coeffs.items():
                nxt[(k,) + cell] = vec
        grid = nxt
    want = {cell: vec.terms[()] for cell, vec in grid.items() if vec.terms.get(())}
    assert table.coeffs == want
    assert len(want) > 100


def test_correlation_antisymmetry_for_identical_odd_insertions():
    sp = HSpace(1, [[1, 1], [1, 2]])  # all pairings nonzero
    u = ((0, -1), (0, -2), (1, -1))
    fw = correlation(sp, [(u, "z1"), (u, "z2")])
    bw = correlation(sp, [(u, "z2"), (u, "z1")])
    assert fw == RationalFunction.diff_inverse("z1", "z2", 5)
    assert (fw + bw).is_zero()


def test_correlation_matches_series_expansion():
    # the second word holds the duals of the first word's generators, so
    # the two-point function has contractions to make
    rng = random.Random(47)
    box = ((-4, 1), (-4, 1))
    nonzero = 0
    for _ in range(3):
        a = random_word(rng, SPACE, 4)
        b = tuple(((g + 2) % 4, -rng.randint(1, 2)) for g, _ in reversed(a))
        table = correlation(SPACE, [(a, "z1"), (b, "z2")]).expand_region(("z1", "z2"), box)
        series = product_series(
            SPACE, FockVector.word(a), FockVector.word(b), FockVector.vacuum(), Box(("x", "y"), box)
        )
        for cell in Box(("z1", "z2"), box).cells():
            scalar = series.coefficient(cell).terms.get((), Fraction(0))
            assert scalar == table[cell]
            nonzero += scalar != 0
    assert nonzero  # the comparison is not on zeros alone


def _weak_assoc_sides(space, u1, u2, w, window):
    """(x0+x2)^P times the iterate expansion and (x0+x2)^P times the
    re-centered product expansion (the A factors moved from y+x to x+y, the
    B factors left at the shift variable y), on the (x, y) window."""
    msum = sum(-l - 1 for _, l in u1)
    P = (max((len(wd) and max(0, sum(-2 * l - 1 for _, l in wd))) for wd in w.terms) if w.terms else 0)
    P = (P + 2 * msum + 2 * len(u1)) // 2
    it = wick_iterate(space, u1, u2)
    prod = NOExpr(
        [
            (c, tuple(f._replace(var="x+y") if f.var == "y+x" else f for f in fs))
            for c, fs in it.terms
        ]
    )
    intervals = tuple((lo - P, hi) for lo, hi in window)
    (lox, hix), (loy, hiy) = window

    def times_power(grid):
        out = {}
        for (a, b), vec in grid.items():
            for i in range(P + 1):
                cell = (a + P - i, b + i)
                if lox <= cell[0] <= hix and loy <= cell[1] <= hiy:
                    cur = out.get(cell)
                    s = (cur + vec.scale(comb(P, i))) if cur is not None else vec.scale(comb(P, i))
                    if s:
                        out[cell] = s
                    else:
                        out.pop(cell, None)
        return out

    return tuple(times_power(noexpr_apply(space, e, w, ("x", "y"), intervals)) for e in (it, prod))


def test_closed_form_weak_associativity():
    # (x0+x2)^P times the re-centered product expansion equals
    # (x0+x2)^P times the iterate expansion, cellwise
    rng = random.Random(53)
    for _ in range(3):
        u1 = random_word(rng, SPACE, 4)
        u2 = random_word(rng, SPACE, 4)
        w = random_state(rng, SPACE, 2)
        lhs, rhs = _weak_assoc_sides(SPACE, u1, u2, w, ((-4, 4), (-4, 4)))
        assert lhs == rhs


# windows that leave out the origin in one variable or both
OFF_CENTRE = (
    ((2, 5), (-6, -2)),
    ((-7, -3), (1, 4)),
    ((-2, 6), (3, 6)),
    ((0, 0), (-5, 5)),
    ((-2, 1), (-6, -3)),
)
RATIONAL_SPACE = HSpace(
    2,
    [
        [0, Fraction(-5, 7), Fraction(1, 2), 0],
        [Fraction(-5, 7), 0, 0, Fraction(2, 3)],
        [Fraction(1, 2), 0, 0, Fraction(1, 3)],
        [0, Fraction(2, 3), Fraction(1, 3), 0],
    ],
)


@pytest.mark.parametrize("space", [SPACE, RATIONAL_SPACE], ids=["dual", "rational"])
def test_wick_iterate_matches_iterate_series_off_centre(space):
    # the re-centered factors' grid slots (base and shift) against the engine
    rng = random.Random(67)
    nonzero = 0
    for _ in range(6):
        u1 = random_word(rng, space, 4)
        u2 = random_word(rng, space, 4)
        v = random_state(rng, space, 3)
        expr = wick_iterate(space, u1, u2)
        for window in OFF_CENTRE:
            box = Box(("x", "y"), window)
            series = iterate_series(space, FockVector.word(u1), FockVector.word(u2), v, box)
            closed = noexpr_apply(space, expr, v, ("x", "y"), window)
            assert set(closed) <= set(box.cells())
            for cell in box.cells():
                want = series.coefficient(cell)
                assert closed.get(cell, FockVector()) == want, (u1, u2, window, cell)
                nonzero += bool(want)
    assert nonzero


@pytest.mark.parametrize("space", [SPACE, RATIONAL_SPACE], ids=["dual", "rational"])
def test_closed_form_weak_associativity_off_centre(space):
    # the x+y re-centring with B factors at its shift variable y
    rng = random.Random(59)
    nonzero = 0
    for window in OFF_CENTRE:
        for _ in range(2):
            u1 = random_word(rng, space, 4)
            u2 = random_word(rng, space, 4)
            w = random_state(rng, space, 2)
            lhs, rhs = _weak_assoc_sides(space, u1, u2, w, window)
            assert lhs == rhs, (u1, u2, window)
            nonzero += len(lhs) if u2 else 0
    assert nonzero


def test_wick_iterate_below_the_base_floor():
    # Y(e1(-1/2)|0>, y+x) f1(-1/2)|0> has the vacuum term (y+x)^-1, whose
    # x^i y^(-1-i) reach every y below the floor of the factors at y alone
    u1, v = ((E1, -1),), FockVector.word(((F1, -1),))
    window = ((0, 3), (-6, -4))
    closed = noexpr_apply(SPACE, wick_iterate(SPACE, u1, ()), v, ("x", "y"), window)
    assert closed == {(3, -4): FockVector({(): -1})}
    series = iterate_series(SPACE, FockVector.word(u1), FockVector.word(()), v, Box(("x", "y"), window))
    assert series.coeffs == closed


def test_noexpr_apply_shifted_term_with_several_coefficient_cells():
    # one engine box covers both cells of x^-1 + 2 x^-2 y z^-2; the two
    # single-cell terms, each on its own box, are the oracle
    rng = random.Random(71)
    variables = ("x", "y", "z")
    one = RationalFunction.monomial(variables, {"x": -1})
    two = RationalFunction.monomial(variables, {"x": -2, "y": 1, "z": -2}, 2)
    window = ((-3, 2), (-4, 1), (-1, 1))
    nonzero = 0
    for _ in range(4):
        factors = sum(
            (word_factors(random_word(rng, SPACE, 2), var) for var in ("y+x", "y", "z")), ()
        )
        v = random_state(rng, SPACE, 3)
        got = noexpr_apply(SPACE, NOExpr([(one + two, factors)]), v, variables, window)
        want = noexpr_apply(SPACE, NOExpr([(one, factors), (two, factors)]), v, variables, window)
        assert got == want
        assert all(Box(variables, window).contains(cell) for cell in got)
        nonzero += len(got)
    assert nonzero


def test_noexpr_apply_refuses_unsupported_shifted_terms():
    v = FockVector.word(((F1, -1),))
    kernel = RationalFunction.diff_inverse("x", "y", 1)
    unit = RationalFunction.from_scalar(1)
    for coeff, names, error in (
        (kernel, ("y+x",), NotImplementedError),
        (unit, ("y+x", "x+y"), NotImplementedError),
        (unit, ("y+t",), ValueError),
    ):
        expr = NOExpr([(coeff, tuple(Factor(E1, 0, name) for name in names))])
        with pytest.raises(error):
            noexpr_apply(SPACE, expr, v, ("x", "y"), ((0, 1), (0, 1)))


def test_wick_fuse_single_sided_sign_collapse():
    # one left factor: term for column j carries (-1)^(j-1) (a, b_j) f_{m n_j};
    # one right factor: term for row i carries (-1)^(i-r) (a_i, b) f_{m_i n}
    sp = HSpace(1, [[1, 1], [1, 2]])
    A = (Factor(0, 1, "x"),)
    B = tuple(Factor((j + 1) % 2, j % 3, f"y{j+1}") for j in range(3))
    expr = wick_fuse(sp, A, B)
    for c, fs in expr.terms:
        if len(fs) == len(A) + len(B):
            continue
        j = next(i for i in range(3) if B[i] not in fs)
        want = f_mn(A[0].deriv, B[j].deriv, "x", f"y{j+1}").scale(
            (-1) ** j * sp.pair(A[0].gen, B[j].gen)
        )
        assert c == want, j
    A = tuple(Factor(i % 2, i % 3, f"x{i+1}") for i in range(3))
    B = (Factor(1, 0, "y"),)
    expr = wick_fuse(sp, A, B)
    for c, fs in expr.terms:
        if len(fs) == len(A) + len(B):
            continue
        i = next(k for k in range(3) if A[k] not in fs)
        want = f_mn(A[i].deriv, B[0].deriv, f"x{i+1}", "y").scale(
            (-1) ** (i + 1 - 3) * sp.pair(A[i].gen, B[0].gen)
        )
        assert c == want, i


def test_contraction_det_isotropic_block_vanishes():
    # both rows from the isotropic half: every pairing entry is zero
    rows = [(E1, 0, "x1"), (E2, 1, "x2")]
    cols = [(E1, 0, "y1"), (E2, 0, "y2")]
    assert contraction_det(SPACE, rows, cols).is_zero()


def _fused_then_substituted(space, u1, u2):
    """The route `wick_product` replaced: the distinct-variable expansion at
    x1, x2, ... and y1, y2, ..., then x_i -> x and y_j -> y on every term
    (a determinant with equal rows or columns after it vanishes)."""
    A = tuple(Factor(g, -l - 1, f"x{i+1}") for i, (g, l) in enumerate(u1))
    B = tuple(Factor(g, -l - 1, f"y{j+1}") for j, (g, l) in enumerate(u2))
    mapping = {f.var: "x" for f in A} | {f.var: "y" for f in B}
    substituted = [
        (c.substitute(mapping), tuple(f._replace(var=mapping[f.var]) for f in fs))
        for c, fs in wick_fuse(space, A, B).terms
    ]
    return NOExpr(substituted).terms


def test_wick_product_scalar_determinants_match_fused_route():
    """Each contraction of the product is a scalar determinant times one
    power of (x - y); the terms, their order, factor lists, values, rendered
    forms and variable tuples equal those of the substituted fuse route."""
    rational = [
        [Fraction(1, 2), Fraction(-5, 7), 1, 0],
        [Fraction(-5, 7), 0, Fraction(2, 3), 3],
        [1, Fraction(2, 3), 0, Fraction(1, 3)],
        [0, 3, Fraction(1, 3), -2],
    ]
    spaces = [HSpace(2), HSpace(1, [[1, 1], [1, 2]]), HSpace(2, FULL_GRAM_2), HSpace(2, rational)]
    rng = random.Random(67)
    contracted = 0
    for trial in range(120):
        space = spaces[trial % 4]
        u1, u2 = (
            tuple((rng.randrange(space.dim), -rng.randint(1, 3)) for _ in range(rng.randint(0, 3)))
            for _ in range(2)
        )
        got = wick_product(space, u1, u2).terms
        want = _fused_then_substituted(space, u1, u2)
        assert [fs for _, fs in got] == [fs for _, fs in want], (u1, u2)
        for (c, _), (w, _) in zip(got, want):
            assert c == w and c.render() == w.render() and c.vars == w.vars, (u1, u2)
        contracted += sum(1 for _, fs in got if len(fs) < len(u1) + len(u2))
    assert contracted >= 250


def test_dense_wick_product_vacuum_matches_correlation():
    """r = s = 4 under a Gram matrix with no zero entry: every contraction
    block is dense, and the fully contracted term is the two-point function."""
    space = HSpace(2, FULL_GRAM_2)
    rng = random.Random(71)
    for _ in range(20):
        u1, u2 = (tuple((rng.randrange(4), -rng.randint(1, 3)) for _ in range(4)) for _ in range(2))
        got = vacuum_expectation(wick_product(space, u1, u2))
        assert got == correlation(space, [(u1, "x"), (u2, "y")]), (u1, u2)
