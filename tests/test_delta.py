import random
from fractions import Fraction
from math import factorial

import pytest

from fermifock.delta import (
    DeltaCoeffs,
    bracket,
    check_exp_delta_neg_comm,
    delta_apply,
    delta_power_over_factorial,
    exp_delta,
    exp_delta_iterated,
    t_number,
    t_number_alt,
    t_number_pairings,
)
from fermifock.fock import FockVector, HSpace, apply_mode, random_state

SPACE = HSpace(2)
E1, E2, F1, F2 = 0, 1, 2, 3
C01 = DeltaCoeffs.default()


def _random_coeffs(rng, max_level=3, nentries=3):
    entries = {}
    for _ in range(nentries):
        m, n = rng.randint(0, max_level), rng.randint(0, max_level)
        if m == n:
            continue
        val = Fraction(rng.randint(-3, 3))
        if val and (m, n) not in entries and (n, m) not in entries:
            entries[(m, n)] = val
    return DeltaCoeffs(entries)


def _random_gram_space(rng, M=2):
    while True:
        dim = 2 * M
        g = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                g[i][j] = g[j][i] = Fraction(rng.randint(-2, 2))
        try:
            return HSpace(M, g)
        except ValueError:
            continue


def test_delta_coeffs_validation():
    c = DeltaCoeffs({(0, 1): Fraction(1)})
    assert c(0, 1) == 1 and c(1, 0) == -1 and c(2, 2) == 0
    with pytest.raises(ValueError):
        DeltaCoeffs({(1, 1): Fraction(1)})
    with pytest.raises(ValueError):
        DeltaCoeffs({(0, 1): Fraction(1), (1, 0): Fraction(1)})
    assert DeltaCoeffs.from_list([(0, 1, Fraction(2))])(1, 0) == -2


def test_delta_apply_short_words():
    assert delta_apply(SPACE, C01, FockVector.vacuum()) == {}
    assert delta_apply(SPACE, C01, FockVector.word(((E1, -1),))) == {}
    # two-mode word: single pair, sign (-1)^(1+2) = -1
    w = FockVector.word(((E1, -1), (F1, -2)))  # levels n = 0, 1
    got = delta_apply(SPACE, C01, w)
    assert got == {-2: FockVector.vacuum(-C01(0, 1) * SPACE.pair(E1, F1))}


def _delta_via_commutators(space, C, word):
    """Oracle: telescope the quadratic series through the word one slot at
    a time using its commutator with a single creation mode."""
    out = {}
    for p in range(len(word)):
        g, level = word[p]
        n = -level - 1
        suffix = FockVector.word(word[p + 1 :])
        for m in space_levels(C):
            c = C(m, n)
            if not c:
                continue
            hit = apply_mode(space, (g, m), suffix)
            if not hit:
                continue
            exp = -m - n - 1
            vec = FockVector({word[:p] + wd: cc * c for wd, cc in hit.terms.items()})
            cur = out.get(exp, FockVector())
            s = cur + vec
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
    return out


def space_levels(C):
    return C.levels()


def test_delta_apply_matches_commutator_oracle():
    rng = random.Random(61)
    for _ in range(25):
        C = _random_coeffs(rng)
        space = _random_gram_space(rng)
        r = rng.randint(2, 5)
        word = tuple((rng.randrange(space.dim), -rng.randint(1, 4)) for _ in range(r))
        got = delta_apply(space, C, FockVector.word(word))
        want = _delta_via_commutators(space, C, word)
        assert got == want


def test_delta_single_mode_commutator():
    # commuting past one creation mode leaves a one-sided mode series
    rng = random.Random(67)
    for _ in range(20):
        C = _random_coeffs(rng)
        space = _random_gram_space(rng)
        v = random_state(rng, space, 5)
        g = rng.randrange(space.dim)
        n = rng.randint(0, 3)
        mode = (g, -n - 1)
        lhs = {}
        for e, w in delta_apply(space, C, apply_mode(space, mode, v)).items():
            lhs[e] = w
        for e, w in delta_apply(space, C, v).items():
            cur = lhs.get(e, FockVector())
            s = cur - apply_mode(space, mode, w)
            if s:
                lhs[e] = s
            else:
                lhs.pop(e, None)
        rhs = {}
        for m in C.levels():
            c = C(m, n)
            if not c:
                continue
            hit = apply_mode(space, (g, m), v).scale(c)
            if hit:
                rhs[-m - n - 1] = rhs.get(-m - n - 1, FockVector()) + hit
        rhs = {e: w for e, w in rhs.items() if w}
        assert lhs == rhs


def test_t_number_base_and_worked_expansion():
    gens = [E1, F1, E2, F2]
    levels = [0, 1, 2, 3]
    rng = random.Random(71)
    for _ in range(10):
        C = _random_coeffs(rng)
        space = _random_gram_space(rng)
        b = lambda i, j: bracket(space, C, gens[i], levels[i], gens[j], levels[j])
        assert t_number(space, C, gens, levels, (0, 1)) == b(0, 1)
        four = t_number(space, C, gens, levels, (0, 1, 2, 3))
        assert four == b(0, 1) * b(2, 3) - b(0, 2) * b(1, 3) + b(0, 3) * b(1, 2)


def test_t_number_zero_coeffs():
    assert t_number(SPACE, DeltaCoeffs(), [E1, F1], [0, 1], (0, 1)) == 0


def test_t_number_rejects_odd_or_unsorted():
    with pytest.raises(ValueError):
        t_number(SPACE, C01, [E1, F1, E2], [0, 1, 2], (0, 1, 2))
    with pytest.raises(ValueError):
        t_number(SPACE, C01, [E1, F1], [0, 1], (1, 0))


def test_t_number_three_routes_agree():
    rng = random.Random(73)
    for _ in range(12):
        C = _random_coeffs(rng, max_level=4, nentries=5)
        space = _random_gram_space(rng)
        r = 8
        gens = [rng.randrange(space.dim) for _ in range(r)]
        levels = [rng.randint(0, 4) for _ in range(r)]
        for size in (2, 4, 6, 8):
            idx = tuple(sorted(rng.sample(range(r), size)))
            a = t_number(space, C, gens, levels, idx)
            b = t_number_alt(space, C, gens, levels, idx)
            c = t_number_pairings(space, C, gens, levels, idx)
            assert a == b == c


def test_exp_delta_vacuum_and_pair():
    assert exp_delta(SPACE, C01, FockVector.vacuum()) == {0: FockVector.vacuum()}
    word = ((E1, -1), (F1, -2))  # levels 0, 1
    got = exp_delta(SPACE, C01, FockVector.word(word))
    t12 = bracket(SPACE, C01, E1, 0, F1, 1)
    assert got == {
        0: FockVector.word(word),
        -2: FockVector.vacuum(-t12),
    }


def test_exp_delta_closed_form_matches_iterated_powers():
    rng = random.Random(79)
    for _ in range(12):
        C = _random_coeffs(rng)
        space = _random_gram_space(rng)
        r = rng.randint(0, 6)
        word = tuple((rng.randrange(space.dim), -rng.randint(1, 3)) for _ in range(r))
        v = FockVector.word(word)
        assert exp_delta(space, C, v) == exp_delta_iterated(space, C, v)


def test_dense_ten_modes_closed_forms_match_oracles():
    """No bracket vanishes: the memoised Pfaffian route of exp_delta and
    t_number against the iterated powers and the two slow recursions."""
    rng = random.Random(89)
    gram = [[1, 2, 1, 3], [2, 1, 1, 1], [1, 1, 2, 1], [3, 1, 1, 1]]
    space = HSpace(2, gram)
    C = DeltaCoeffs({(m, n): Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                     for m in range(10) for n in range(m + 1, 10)})
    word = tuple((rng.randrange(4), -m - 1) for m in rng.sample(range(10), 10))
    short = tuple((rng.randrange(4), -m - 1) for m in rng.sample(range(10), 7))
    gens = [g for g, _ in word]
    levels = [-l - 1 for _, l in word]
    for idx in ((0, 3, 4, 9), tuple(range(10))):
        a = t_number(space, C, gens, levels, idx)
        assert a and a == t_number_alt(space, C, gens, levels, idx)
        assert a == t_number_pairings(space, C, gens, levels, idx)
    v = FockVector.word(word) + FockVector.word(short, Fraction(-2, 3))
    got = exp_delta(space, C, v)
    assert got == exp_delta_iterated(space, C, v)
    assert () in got[min(got)].terms  # the full contraction survives


def test_delta_nilpotency():
    rng = random.Random(83)
    for _ in range(10):
        C = _random_coeffs(rng)
        space = _random_gram_space(rng)
        r = rng.randint(0, 6)
        word = tuple((rng.randrange(space.dim), -rng.randint(1, 3)) for _ in range(r))
        v = FockVector.word(word)
        assert delta_power_over_factorial(space, C, v, r // 2 + 1) == {}


def _composed_power(space, C, v, t):
    """The operator applied t times by explicit composition, over t!."""
    grid = {0: v}
    for _ in range(t):
        nxt = {}
        for e, w in grid.items():
            for e2, w2 in delta_apply(space, C, w).items():
                nxt[e + e2] = nxt.get(e + e2, FockVector()) + w2
        grid = nxt
    return {e: w.scale(Fraction(1, factorial(t))) for e, w in grid.items() if w}


def test_delta_powers_match_composed_applications():
    rng = random.Random(97)
    cases = []
    for _ in range(8):
        C = _random_coeffs(rng)
        space = _random_gram_space(rng)
        v = FockVector()
        for _ in range(2):
            r = rng.randint(0, 6)
            word = tuple((rng.randrange(space.dim), -rng.randint(1, 3)) for _ in range(r))
            v = v + FockVector.word(word, Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        cases.append((space, C, v))
    # no bracket is nonzero: e1, e2 pair to zero, so every power t >= 1 vanishes
    cases.append((SPACE, C01, FockVector.word(((E1, -1), (E2, -2), (E1, -2), (E2, -1)))))
    # one contractible pair, after which nothing contracts: the square vanishes below r/2 = 2
    cases.append((SPACE, C01, FockVector.word(((E1, -1), (F1, -2), (E2, -1), (E2, -1)))))
    deep = 0
    for space, C, v in cases:
        half = max((len(w) for w in v.terms), default=0) // 2
        total = {}
        for t in range(half + 2):
            expected = _composed_power(space, C, v, t)
            assert delta_power_over_factorial(space, C, v, t) == expected, t
            deep += t >= 2 and bool(expected)
            for e, w in expected.items():
                total[e] = total.get(e, FockVector()) + w
        assert delta_power_over_factorial(space, C, v, half + 1) == {}
        assert exp_delta_iterated(space, C, v) == {e: w for e, w in total.items() if w}
    assert deep
    no_brackets, one_pair = cases[-2][2], cases[-1][2]
    assert exp_delta_iterated(SPACE, C01, no_brackets) == {0: no_brackets}
    assert delta_power_over_factorial(SPACE, C01, one_pair, 1)
    assert delta_power_over_factorial(SPACE, C01, one_pair, 2) == {}


def test_delta_basis_independence():
    # e' = (e1, e1+e2), f' = (f1 - f2, f2) preserves the dual pairing
    C = DeltaCoeffs({(0, 1): Fraction(1), (0, 2): Fraction(-2)})
    prim_e = [[(Fraction(1), E1)], [(Fraction(1), E1), (Fraction(1), E2)]]
    prim_f = [[(Fraction(1), F1), (Fraction(-1), F2)], [(Fraction(1), F2)]]

    def apply_comb(comb, level, v):
        out = FockVector()
        for c, g in comb:
            out = out + apply_mode(SPACE, (g, level), v).scale(c)
        return out

    rng = random.Random(89)
    for _ in range(10):
        v = random_state(rng, SPACE, 6, nterms=3)
        want = delta_apply(SPACE, C, v)
        got = {}
        for i in range(2):
            for (m, n), val in C.entries.items():
                inner = apply_comb(prim_f[i], n, v)
                outer = apply_comb(prim_e[i], m, inner).scale(val)
                if outer:
                    e = -m - n - 1
                    cur = got.get(e, FockVector())
                    s = cur + outer
                    if s:
                        got[e] = s
                    else:
                        got.pop(e, None)
        assert got == want


def test_exp_delta_negative_commutator_check():
    rng = random.Random(97)
    samples = [random_state(rng, SPACE, 4) for _ in range(4)]
    report = check_exp_delta_neg_comm(SPACE, DeltaCoeffs(), E1, 0, samples, ((-4, 4), (-4, 4)))
    assert report["status"] == "inconclusive" and report["nonzero"] == 0
    for m in (0, 1):
        report = check_exp_delta_neg_comm(SPACE, C01, E1, m, samples, ((-4, 4), (-4, 4)))
        assert report["status"] == "pass", report
    for _ in range(5):
        C = _random_coeffs(rng)
        space = _random_gram_space(rng)
        samples = [random_state(rng, space, 4) for _ in range(3)]
        report = check_exp_delta_neg_comm(
            space, C, rng.randrange(space.dim), rng.randint(0, 2), samples, ((-4, 4), (-4, 4))
        )
        # an empty coefficient table makes both sides vanish on every cell
        assert report["status"] == ("pass" if C.entries else "inconclusive"), report


def test_integer_bracket_kernel_under_rational_gram_and_coefficients():
    """Brackets with denominators are cleared to one integer kernel; the
    Pfaffian routes must still agree with both slow routes and the iterated
    powers, and every value must come back as a Fraction."""
    rng = random.Random(107)
    gram = [[Fraction(1, 2), Fraction(2, 3), 1, Fraction(-3, 4)],
            [Fraction(2, 3), Fraction(1, 5), Fraction(1, 3), 1],
            [1, Fraction(1, 3), Fraction(-2, 7), Fraction(1, 2)],
            [Fraction(-3, 4), 1, Fraction(1, 2), Fraction(5, 6)]]
    space = HSpace(2, gram)
    for _ in range(4):
        C = DeltaCoeffs({(m, n): Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([2, 3, 4, 9]))
                         for m in range(6) for n in range(m + 1, 6)})
        r = 8
        gens = [rng.randrange(4) for _ in range(r)]
        levels = [rng.randint(0, 5) for _ in range(r)]
        for size in (2, 4, 6, 8):
            idx = tuple(sorted(rng.sample(range(r), size)))
            a = t_number(space, C, gens, levels, idx)
            assert type(a) is Fraction
            assert a == t_number_alt(space, C, gens, levels, idx) == t_number_pairings(space, C, gens, levels, idx)
        word = tuple((g, -m - 1) for g, m in zip(gens, levels))
        v = FockVector.word(word, Fraction(2, 3)) + FockVector.word(word[:5], Fraction(-1, 4))
        got = exp_delta(space, C, v)
        assert got == exp_delta_iterated(space, C, v)
        assert any(c.denominator > 1 for w in got.values() for c in w.terms.values())
        assert all(type(c) is Fraction for w in got.values() for c in w.terms.values())


# -- the Fraction route that the int walk replaced, kept as a reference --------


def _fraction_grid_add(grid, key, vec):
    s = grid.get(key, FockVector()) + vec
    if s:
        grid[key] = s
    else:
        grid.pop(key, None)


def _fraction_delta_apply(space, C, vec):
    """One application with one FockVector per deleted pair, summed by
    FockVector.__add__."""
    out = {}
    for word, cw in vec.terms.items():
        r = len(word)
        for p in range(r):
            gp, lp = word[p]
            np_ = -lp - 1
            for q in range(p + 1, r):
                gq, lq = word[q]
                nq = -lq - 1
                coeff = bracket(space, C, gp, np_, gq, nq)
                if not coeff:
                    continue
                sign = -1 if (p + q) & 1 else 1
                reduced = word[:p] + word[p + 1 : q] + word[q + 1 :]
                _fraction_grid_add(out, -np_ - nq - 1, FockVector.word(reduced, cw * coeff * sign))
    return out


def _fraction_powers(space, C, vec):
    """The powers over t!: one Fraction application per power, divided by t."""
    grid = {0: vec} if vec else {}
    t = 0
    while grid:
        yield grid
        t += 1
        nxt = {}
        for e, v in grid.items():
            for e2, v2 in _fraction_delta_apply(space, C, v).items():
                _fraction_grid_add(nxt, e + e2, v2)
        grid = {e: v.scale(Fraction(1, t)) for e, v in nxt.items()}


def _rational_gram_space(rng, M=2):
    while True:
        dim = 2 * M
        g = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                g[i][j] = g[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        try:
            return HSpace(M, g)
        except ValueError:
            continue


def _assert_clean(grid):
    """Exact Fractions, no zero coefficient and no empty exponent key."""
    for w in grid.values():
        assert w.terms and all(type(c) is Fraction and c for c in w.terms.values()), grid


def test_int_walk_matches_the_fraction_route():
    """The int walk and the int closed form against the Fraction route on
    multi-word rational states, rational Gram matrices and rational C, and
    on states whose deletions cancel, exponent by exponent."""
    rng = random.Random(131)
    cases = []
    for _ in range(60):
        space = _rational_gram_space(rng, rng.randint(1, 2))
        C = DeltaCoeffs({(m, n): Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5))
                         for m in range(3) for n in range(m + 1, 3) if rng.random() < 0.7})
        v = FockVector()
        for _ in range(rng.randint(1, 3)):
            word = tuple((rng.randrange(space.dim), -rng.randint(1, 3)) for _ in range(rng.randint(0, 7)))
            v = v + FockVector.word(word, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        cases.append((space, C, v))
    # the pair (e1, f1) deleted from two orders of one word: every deletion cancels
    a, b, c = (E1, -1), (F1, -2), (E2, -1)
    cases.append((SPACE, C01, FockVector.word((a, b, c)) - FockVector.word((c, a, b))))
    # the t = 2 deletion of a long word against the t = 1 deletion of a short
    # one, both the vacuum at exponent -4
    C012 = DeltaCoeffs({(0, 1): Fraction(1), (1, 2): Fraction(2, 3)})
    long_, short = ((E1, -1), (F1, -2), (E2, -1), (F2, -2)), ((E1, -2), (F1, -3))
    full = list(_fraction_powers(SPACE, C012, FockVector.word(long_)))[2][-4].terms[()]
    one = list(_fraction_powers(SPACE, C012, FockVector.word(short)))[1][-4].terms[()]
    cases.append((SPACE, C012, FockVector.word(long_, one) - FockVector.word(short, full)))
    deep = 0
    for space, C, v in cases:
        powers = list(_fraction_powers(space, C, v))
        deep += len(powers) > 2
        total = {}
        for grid in powers:
            for e, w in grid.items():
                _fraction_grid_add(total, e, w)
        got = {
            "exp_delta": exp_delta(space, C, v),
            "exp_delta_iterated": exp_delta_iterated(space, C, v),
            "delta_apply": delta_apply(space, C, v),
        }
        assert got["exp_delta"] == got["exp_delta_iterated"] == total
        assert got["delta_apply"] == _fraction_delta_apply(space, C, v)
        for t in range(4):
            got[t] = delta_power_over_factorial(space, C, v, t)
            assert got[t] == (powers[t] if t < len(powers) else {}), t
        for grid in got.values():
            _assert_clean(grid)
    assert deep >= 10, deep
    assert exp_delta(*cases[-2]) == {0: cases[-2][2]} and delta_apply(*cases[-2]) == {}
    assert -4 not in exp_delta(*cases[-1]) and -4 in delta_power_over_factorial(*cases[-1], 2)
