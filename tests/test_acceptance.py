"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single `ACCEPTANCE <n> <name>: PASS` line (visible with
`pytest -s`); a failed assertion marks the criterion red.  Random data is
seeded, so the suite is deterministic.
"""
import itertools
import random
import time
from fractions import Fraction

from fermifock.delta import (
    DeltaCoeffs,
    bracket,
    check_exp_delta_neg_comm,
    exp_delta,
    exp_delta_iterated,
    t_number,
    t_number_alt,
    t_number_pairings,
)
from fermifock.fock import (
    FockVector,
    HSpace,
    apply_mode,
    apply_modes,
    d_op,
    random_state,
    random_word,
)
from fermifock.laurent import Box
from fermifock.straightening import K, defect, pbw_normal_form
from fermifock.vertex import check_axioms, check_weak_associativity, y_series
from fermifock.wick import check_closed_forms, correlation


def _report(num, name, elapsed, extra=""):
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.1f}s{extra})")


def test_criterion_1_wick_oracle_equivalence():
    """Closed-form product/iterate expansions match the series engines on
    [-6, 6]^2 for word shapes up to r = s = 3, orders up to 2, M <= 2."""
    t0 = time.time()
    rng = random.Random(20240810)
    box = Box(("x", "y"), ((-6, 6), (-6, 6)))
    spaces = {1: HSpace(1), 2: HSpace(2)}

    def pick_word(space, r, max_order):
        return tuple(
            (rng.randrange(space.dim), -rng.randint(1, max_order + 1)) for _ in range(r)
        )

    def pick_target(space):
        choice = rng.randrange(3)
        if choice == 0:
            return FockVector.vacuum()
        if choice == 1:
            return FockVector.word(random_word(rng, space, 4))
        return random_state(rng, space, 4)

    configs = []
    for r in range(4):
        for s in range(4):
            # derivative orders up to 2 on small shapes; the largest
            # shapes run at low order to stay inside the time budget
            max_order = 2 if r + s <= 4 else (1 if r + s == 5 else 0)
            M = 1 + (r + s) % 2
            configs.append((r, s, max_order, M))
    configs.append((2, 2, 2, 2))
    configs.append((1, 3, 2, 2))
    configs.append((3, 1, 2, 1))

    checked = 0
    for r, s, max_order, M in configs:
        space = spaces[M]
        u1 = pick_word(space, r, max_order)
        u2 = pick_word(space, s, max_order)
        v = pick_target(space)
        for report in check_closed_forms(space, u1, u2, v, box):
            assert report["status"] == "pass", (u1, u2, report)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"sweep took {elapsed:.1f}s (budget 60s)"
    _report(1, "wick_oracle_equivalence", elapsed, f", {checked} reports")


def test_criterion_2_weak_associativity():
    """(x0+x2)^P-multiplied product equals iterate on 200 seeded triples of
    weight <= 3, with P = wt(w) + sum(m_i) + r."""
    t0 = time.time()
    rng = random.Random(77001)
    space = HSpace(2)
    box = Box(("x0", "x2"), ((-4, 4), (-4, 4)))
    inconclusive = 0
    for trial in range(200):
        u1 = random_word(rng, space, 6)
        u2 = FockVector.word(random_word(rng, space, 6))
        w = random_state(rng, space, 6)
        report = check_weak_associativity(space, u1, u2, w, box)
        assert report["status"] != "fail", (trial, u1, report["mismatches"][:3])
        if report["status"] == "inconclusive":
            inconclusive += 1
    elapsed = time.time() - t0
    assert elapsed < 120, f"200 triples took {elapsed:.1f}s (budget 120s)"
    assert inconclusive < 20
    _report(2, "weak_associativity", elapsed, f", {inconclusive} vacuous windows")


def test_criterion_3_axiom_suite():
    """Identity, creation, grading commutator, translation derivative and
    commutator, and lower truncation on window [-6, 6], 100 seeded states."""
    t0 = time.time()
    rng = random.Random(77002)
    space = HSpace(2)
    samples = [random_state(rng, space, 6) for _ in range(100)]
    reports = check_axioms(space, samples, -6, 6)
    names = ["identity", "creation", "grading_commutator", "translation", "lower_truncation"]
    assert [r["identity"] for r in reports] == names
    for r in reports:
        assert r["status"] == "pass", (r["identity"], r["mismatches"][:3])
    _report(3, "axiom_suite", time.time() - t0)


def test_criterion_4_fock_operator_identities():
    """Positive modes anticommute and [D, h(m+1/2)] = -m h(m-1/2), as
    operator identities on 100 seeded states."""
    t0 = time.time()
    rng = random.Random(77003)
    space = HSpace(2)
    for _ in range(100):
        v = random_state(rng, space, 6)
        a, b = rng.randrange(space.dim), rng.randrange(space.dim)
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        anti = apply_modes(space, [(a, m), (b, n)], v) + apply_modes(space, [(b, n), (a, m)], v)
        assert anti == FockVector(), (v, a, b, m, n)
        g = rng.randrange(space.dim)
        k = rng.randint(-3, 3)
        comm = d_op(apply_mode(space, (g, k), v)) - apply_mode(space, (g, k), d_op(v))
        assert comm == apply_mode(space, (g, k - 1), v).scale(-k), (v, g, k)
    _report(4, "fock_operator_identities", time.time() - t0)


def test_criterion_5_pbw_confluence():
    """500 seeded tensor words of defect <= 4 reach identical normal forms
    under two independently randomized reduction strategies."""
    t0 = time.time()
    rng = random.Random(77004)
    space = HSpace(2)
    for trial in range(500):
        while True:
            n = rng.randint(2, 7)
            entries = []
            for _ in range(n):
                if rng.random() < 0.15:
                    entries.append(K)
                else:
                    entries.append((rng.randrange(space.dim), rng.randint(-3, 2)))
            word = tuple(entries)
            if 0 < defect(word) <= 4:
                break
        a = pbw_normal_form(space, word, random.Random(1_000_000 + trial))
        b = pbw_normal_form(space, word, random.Random(2_000_000 + trial))
        assert a == b, word
        assert all(defect(nf) == 0 for nf in a)
    _report(5, "pbw_confluence", time.time() - t0)


def _random_coeffs(rng, max_level=4, nentries=5):
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


def test_criterion_6_delta_machinery():
    """Total contraction numbers agree along all three routes for every
    index set with 2t <= 8; the closed exponential matches iterated powers
    on all words of length <= 6; the negative-mode commutator holds."""
    t0 = time.time()
    rng = random.Random(77005)

    # three routes on every even subset of an 8-slot configuration
    for _ in range(3):
        C = _random_coeffs(rng)
        space = _random_gram_space(rng)
        gens = [rng.randrange(space.dim) for _ in range(8)]
        levels = [rng.randint(0, 4) for _ in range(8)]
        for size in (2, 4, 6, 8):
            for idx in itertools.combinations(range(8), size):
                a = t_number(space, C, gens, levels, idx)
                assert a == t_number_alt(space, C, gens, levels, idx), idx
                assert a == t_number_pairings(space, C, gens, levels, idx), idx

    # the displayed 4-index expansion
    C = _random_coeffs(rng)
    space = _random_gram_space(rng)
    gens = [rng.randrange(space.dim) for _ in range(4)]
    levels = [0, 1, 2, 3]
    br = lambda i, j: bracket(space, C, gens[i], levels[i], gens[j], levels[j])
    assert t_number(space, C, gens, levels, (0, 1, 2, 3)) == br(0, 1) * br(2, 3) - br(
        0, 2
    ) * br(1, 3) + br(0, 3) * br(1, 2)

    # closed exponential vs iterated powers: every word of length <= 6
    # over two generators and two depths, then seeded wider words
    space = HSpace(1)
    C01 = DeltaCoeffs.default()
    modes = [(0, -1), (0, -2), (1, -1), (1, -2)]
    for r in range(7):
        for combo in itertools.product(modes, repeat=r):
            v = FockVector.word(tuple(combo))
            assert exp_delta(space, C01, v) == exp_delta_iterated(space, C01, v), combo
    for _ in range(25):
        C = _random_coeffs(rng)
        space2 = _random_gram_space(rng)
        r = rng.randint(0, 6)
        word = tuple((rng.randrange(space2.dim), -rng.randint(1, 4)) for _ in range(r))
        v = FockVector.word(word)
        assert exp_delta(space2, C, v) == exp_delta_iterated(space2, C, v), word

    # commutator with the regular one-sided series on window [-4, 4]^2;
    # the fixed two-mode state guarantees a nonvacuous check for m <= 1.
    # C01 lives on levels 0 and 1, where C(alpha, 2) = 0, so at m = 2 both
    # sides vanish on every cell and the check compares nothing.
    space = HSpace(2)
    samples = [FockVector.word(((2, -1), (2, -2)))] + [
        random_state(rng, space, 4) for _ in range(4)
    ]
    for m, want in ((0, "pass"), (1, "pass"), (2, "inconclusive")):
        report = check_exp_delta_neg_comm(space, C01, 0, m, samples, ((-4, 4), (-4, 4)))
        assert report["status"] == want, report
    for _ in range(4):
        C = _random_coeffs(rng)
        space2 = _random_gram_space(rng)
        samples = [random_state(rng, space2, 4) for _ in range(3)]
        report = check_exp_delta_neg_comm(
            space2, C, rng.randrange(space2.dim), rng.randint(0, 2), samples, ((-4, 4), (-4, 4))
        )
        assert report["status"] != "fail", report
    _report(6, "delta_machinery", time.time() - t0)


def test_criterion_7_correlation_rationality():
    """Four weight-1/2 insertions give a rational function with difference
    poles only, whose ordered expansion matches the nested series oracle
    on the [-4, 1]^4 box."""
    t0 = time.time()
    rng = random.Random(77006)
    space = HSpace(2)
    box = ((-4, 1),) * 4
    names = ("z1", "z2", "z3", "z4")
    gen_sets = [(0, 2, 1, 3), (0, 2, 0, 2), (2, 0, 3, 1)] + [
        tuple(rng.randrange(4) for _ in range(4)) for _ in range(3)
    ]
    nonzero_seen = False
    for gens in gen_sets:
        ins = [(((g, -1),), nm) for g, nm in zip(gens, names)]
        rf = correlation(space, ins)
        assert not rf.den_pow, rf.render()
        assert all(x in names and y in names for x, y in rf.den_diff)
        if not rf.is_zero():
            nonzero_seen = True
        table = rf.expand_region(names, box)
        # nested application of the four operators to the vacuum
        grid = {(): FockVector.vacuum()}
        for pos in (3, 2, 1, 0):
            nxt = {}
            for cell, v in grid.items():
                line = y_series(space, FockVector.word(ins[pos][0]), v, -4, 1)
                for (k,), vec in line.coeffs.items():
                    nxt[(k,) + cell] = vec
            grid = nxt
        for cell in Box(names, box).cells():
            vec = grid.get(cell, FockVector())
            assert vec.terms.get((), Fraction(0)) == table[cell], (gens, cell)
    assert nonzero_seen
    _report(7, "correlation_rationality", time.time() - t0)
