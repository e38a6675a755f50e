import random
from fractions import Fraction
from itertools import product
from math import comb

from fermifock import vertex
from fermifock.fock import (
    VACUUM,
    FockVector,
    HSpace,
    apply_mode,
    apply_modes,
    check_report,
    d_op,
    encode,
    grading_op,
    random_state,
    random_word,
    theta,
    weight2,
    wrap_table,
)
from fermifock.laurent import Box
from fermifock.scalars import binom, clear_denominators
from fermifock.vertex import (
    check_axioms,
    check_weak_associativity,
    iterate_series,
    product_series,
    series_into,
    y_series,
)

from oracles import enumerate_shuffles, normal_order_modes, ordered_factor_series, y_coeff

SPACE = HSpace(2)
E1, E2, F1, F2 = 0, 1, 2, 3
# a pairing with non-integral entries: path coefficients become Fractions
RATIONAL_GRAM = [
    [0, Fraction(-5, 7), Fraction(1, 2), 0],
    [Fraction(-5, 7), 0, 0, Fraction(2, 3)],
    [Fraction(1, 2), 0, 0, Fraction(1, 3)],
    [0, Fraction(2, 3), Fraction(1, 3), 0],
]
MIXED_DENOMINATORS = (Fraction(1, 2), Fraction(2, 3), Fraction(-5, 7), Fraction(3))


def test_enumerate_shuffles_counts_and_signs():
    """Also the sign rule of series_into: for every creation subset of
    r <= 6 factors, the product over the annihilators of
    (-1)^(creations to its right) is the sign of the 2-shuffle that puts
    the creations left."""
    two = enumerate_shuffles(2, 1)
    assert [(s.left, s.sign) for s in two] == [((1,), 1), ((2,), -1)]
    for r in range(7):
        for eta in range(r + 1):
            shuffles = enumerate_shuffles(r, eta)
            assert len(shuffles) == comb(r, eta)
            for s in shuffles:
                assert sorted(s.left + s.right) == list(range(1, r + 1))
                walk = 1
                for a in s.right:
                    walk *= (-1) ** sum(c > a for c in s.left)
                assert walk == s.sign, (r, s)
    assert enumerate_shuffles(5, 0) == [((), (1, 2, 3, 4, 5), 1)]
    assert enumerate_shuffles(5, 5)[0].sign == 1


def test_normal_order_six_mode_example():
    # negatives in slots 1, 4, 6; positives in 2, 3, 5: odd shuffle
    modes = [(E1, -1), (E2, 0), (F1, 1), (F2, -2), (E1, 2), (E2, -3)]
    sign, reordered = normal_order_modes(modes)
    assert sign == -1
    assert reordered == ((E1, -1), (F2, -2), (E2, -3), (E2, 0), (F1, 1), (E1, 2))


def test_normal_order_trivial_and_transposition():
    modes = [(E1, -1), (E2, 0)]
    assert normal_order_modes(modes) == (1, ((E1, -1), (E2, 0)))
    sign, reordered = normal_order_modes([(E1, 0), (F1, -1)])
    assert sign == -1
    assert reordered == ((F1, -1), (E1, 0))


def test_y_coeff_identity_operator():
    v = random_state(random.Random(1), SPACE, 5)
    vac = FockVector.vacuum()
    assert y_coeff(SPACE, vac, 0, v) == v
    for k in (-2, -1, 1, 3):
        assert y_coeff(SPACE, vac, k, v) == FockVector()


def test_y_coeff_creation_property():
    u = FockVector.word(((E1, -1),))
    vac = FockVector.vacuum()
    assert y_coeff(SPACE, u, 0, vac) == u
    for k in (-3, -2, -1):
        assert y_coeff(SPACE, u, k, vac) == FockVector()
    rng = random.Random(2)
    for _ in range(10):
        u = FockVector.word(random_word(rng, SPACE, 5))
        assert y_coeff(SPACE, u, 0, vac) == u


def test_y_coeff_single_contraction():
    u = FockVector.word(((E1, -1),))
    v = FockVector.word(((F1, -1),))
    assert y_coeff(SPACE, u, -1, v) == FockVector.vacuum()
    assert y_coeff(SPACE, u, -1, FockVector.word(((E2, -1),))) == FockVector()


def test_y_series_lower_truncation():
    rng = random.Random(3)
    for _ in range(12):
        u = FockVector.word(random_word(rng, SPACE, 5))
        v = FockVector.word(random_word(rng, SPACE, 4))
        bound = -((weight2(next(iter(u.terms))) + weight2(next(iter(v.terms)))) // 2)
        series = y_series(SPACE, u, v, -8, 2)
        for (k,), vec in series.coeffs.items():
            if vec:
                assert k >= bound


def test_y_series_coefficients_are_weight_homogeneous():
    rng = random.Random(4)
    for _ in range(12):
        uw = random_word(rng, SPACE, 5)
        vw = random_word(rng, SPACE, 4)
        series = y_series(SPACE, FockVector.word(uw), FockVector.word(vw), -4, 4)
        for (k,), vec in series.coeffs.items():
            target = Fraction(weight2(uw) + weight2(vw), 2) + k
            assert grading_op(vec) == vec.scale(target)


def test_window_refusal():
    series = y_series(SPACE, FockVector.vacuum(), FockVector.vacuum(), -2, 2)
    try:
        series.coefficient((5,))
    except ValueError as e:
        assert "window" in str(e)
    else:
        raise AssertionError("expected refusal outside certified window")


def test_theta_equivariance_of_coefficients():
    rng = random.Random(5)
    for _ in range(10):
        u = random_state(rng, SPACE, 4)
        v = random_state(rng, SPACE, 4)
        for k in range(-3, 3):
            assert theta(y_coeff(SPACE, u, k, v)) == y_coeff(SPACE, theta(u), k, theta(v))


def test_derivative_matches_translated_state():
    rng = random.Random(6)
    for _ in range(10):
        u = random_state(rng, SPACE, 4)
        v = random_state(rng, SPACE, 4)
        du = d_op(u)
        for k in range(-4, 3):
            assert y_coeff(SPACE, u, k + 1, v).scale(k + 1) == y_coeff(SPACE, du, k, v)


def test_product_series_identity_slot():
    rng = random.Random(7)
    u2 = FockVector.word(random_word(rng, SPACE, 4))
    v = random_state(rng, SPACE, 4)
    box = Box(("x", "y"), ((-3, 3), (-3, 3)))
    grid = product_series(SPACE, FockVector.vacuum(), u2, v, box)
    line = y_series(SPACE, u2, v, -3, 3, var="y")
    for (k1, k2), vec in grid.coeffs.items():
        assert (k1 == 0 and vec == line.coefficient((k2,))) or not vec
    for (k2,), vec in line.coeffs.items():
        assert grid.coefficient((0, k2)) == vec


def test_iterate_series_identity_slot_and_creation():
    rng = random.Random(8)
    u2 = FockVector.word(random_word(rng, SPACE, 4))
    v = random_state(rng, SPACE, 4)
    box = Box(("x0", "x2"), ((-3, 3), (-3, 3)))
    grid = iterate_series(SPACE, FockVector.vacuum(), u2, v, box)
    line = y_series(SPACE, u2, v, -3, 3)
    for (k2,), vec in line.coeffs.items():
        assert grid.coefficient((0, k2)) == vec
    # against the vacuum the iterate has no negative x2 powers
    grid2 = iterate_series(SPACE, u2, FockVector.vacuum(), FockVector.vacuum(), box)
    for (k1, k2), vec in grid2.coeffs.items():
        if vec:
            assert k2 >= 0


def test_recurrence_of_normal_ordered_products():
    # :h1(x1)...hr(xr): = h1(x1)^- :h2...: + (-1)^(r-1) :h2...: h1(x1)^+,
    # checked coefficientwise at distinct variables on random targets.
    rng = random.Random(9)
    for _ in range(8):
        r = rng.randint(1, 4)
        factors = tuple(
            (rng.randrange(SPACE.dim), rng.randint(0, 1), i) for i in range(r)
        )
        v = random_state(rng, SPACE, 4)
        intervals = tuple((-3, 2) for _ in range(r))
        lhs = ordered_factor_series(SPACE, factors, v, intervals)

        g1, m1, _ = factors[0]
        rest = tuple((g, m, var) for g, m, var in factors[1:])
        acc = {}

        def add(cell, vec):
            if not vec:
                return
            cur = acc.get(cell)
            s = cur + vec if cur is not None else vec
            if s:
                acc[cell] = s
            else:
                acc.pop(cell, None)

        # minus part in front: creation levels n = e + m1, exponent e at slot 0
        rest_grid = ordered_factor_series(SPACE, rest, v, intervals)
        lo0, hi0 = intervals[0]
        for cell, vec in rest_grid.items():
            if cell[0] != 0:
                continue
            for e in range(0, hi0 + 1):
                n = e + m1
                coeff = binom(n, m1)
                shifted = (e,) + cell[1:]
                add(shifted, FockVector({((g1, -n - 1),) + w: c * coeff for w, c in vec.terms.items()}))
        # plus part behind: annihilation on v first, exponent -n-m1-1 at slot 0
        sign = -1 if (r - 1) % 2 else 1
        for n in range(0, 8):
            e0 = -n - m1 - 1
            if e0 < lo0:
                break
            hit = apply_mode(SPACE, (g1, n), v)
            if not hit:
                continue
            part = ordered_factor_series(SPACE, rest, hit, intervals)
            coeff = binom(-n - 1, m1) * sign
            for cell, vec in part.items():
                if cell[0] != 0:
                    continue
                add((e0,) + cell[1:], vec.scale(coeff))
        box = Box(tuple(f"x{i}" for i in range(r)), intervals)
        for cell in set(lhs) | set(acc):
            if box.contains(cell):
                assert lhs.get(cell, FockVector()) == acc.get(cell, FockVector())


def test_check_axioms_on_seeded_states():
    rng = random.Random(10)
    samples = [random_state(rng, SPACE, 5) for _ in range(6)]
    reports = check_axioms(SPACE, samples, -4, 4)
    names = ["identity", "creation", "grading_commutator", "translation", "lower_truncation"]
    assert [r["identity"] for r in reports] == names
    for r in reports:
        assert r["status"] == "pass" and 0 < r["nonzero"] <= r["compared"], r


def _axiom_reports_by_vectors(space, samples, lo, hi, d=d_op, grading=grading_op):
    """The FockVector route of check_axioms: y_series on FockVectors, the
    translation generator `d` and the grading `grading` on FockVectors, and
    sums and scales of FockVectors with Fraction coefficients."""
    pairs = [(samples[i], samples[(i + 1) % len(samples)]) for i in range(len(samples))]
    bases = [y_series(space, u, v, lo, hi + 1) for u, v in pairs]
    window = range(lo, hi + 1)
    vac = FockVector.vacuum()

    def report(name, equations):
        mismatches, compared, nonzero = [], 0, 0
        for label, lhs, rhs in equations:
            compared += 1
            if rhs is None:
                nonzero += 1
                rhs = FockVector()
            elif lhs or rhs:
                nonzero += 1
            if lhs != rhs:
                mismatches.append(label)
        return check_report(name, mismatches, compared, nonzero)

    def identity():
        for _, v in pairs:
            series = y_series(space, vac, v, lo, hi)
            for k in window:
                yield ("identity", k), series.coefficient((k,)), v if k == 0 else FockVector()

    def creation():
        for u, _ in pairs:
            series = y_series(space, u, vac, lo, hi)
            for k in range(lo, min(0, hi + 1)):
                yield ("regular_at_zero", k), series.coefficient((k,)), None
            if lo <= 0 <= hi:
                yield ("limit_is_state", 0), series.coefficient((0,)), u

    def grading_commutator():
        for (u, v), base in zip(pairs, bases):
            on_dv = y_series(space, u, grading(v), lo, hi)
            of_du = y_series(space, grading(u), v, lo, hi)
            for k in window:
                yk = base.coefficient((k,))
                lhs = grading(yk) - on_dv.coefficient((k,))
                yield (k,), lhs, yk.scale(k) + of_du.coefficient((k,))

    def translation():
        for (u, v), base in zip(pairs, bases):
            via_d = y_series(space, d(u), v, lo, hi)
            on_dv = y_series(space, u, d(v), lo, hi)
            for k in window:
                dk = via_d.coefficient((k,))
                yield ("derivative", k), base.coefficient((k + 1,)).scale(k + 1), dk
                yield ("commutator", k), dk, d(base.coefficient((k,))) - on_dv.coefficient((k,))

    def lower_truncation():
        for (u, v), base in zip(pairs, bases):
            top = max(map(weight2, u.terms), default=0) + max(map(weight2, v.terms), default=0)
            for k in range(lo, min(-(top // 2), hi + 1)):
                yield (k,), base.coefficient((k,)), None

    return [
        report("identity", identity()),
        report("creation", creation()),
        report("grading_commutator", grading_commutator()),
        report("translation", translation()),
        report("lower_truncation", lower_truncation()),
    ]


def test_integer_axiom_checks_match_fock_vector_route(monkeypatch):
    """check_axioms compares int rows over one denominator per sample pair,
    with the grading sides doubled; the FockVector route it replaced gives
    the same reports on the default config (M = 2, max weight 2), on M = 1
    at max weight 1, and on a rational Gram matrix with mixed-denominator
    states, over windows around 0, entirely below 0 and entirely above 0
    (where identity and creation compare nothing nonzero).  With the translation generator or the
    grading perturbed alike on both routes, the reports fail alike."""
    configs = [
        (SPACE, lambda rng: [random_state(rng, SPACE, 4) for _ in range(8)]),
        (HSpace(1), lambda rng: [random_state(rng, HSpace(1), 2) for _ in range(8)]),
        (HSpace(2, RATIONAL_GRAM), lambda rng: [_mixed_state(rng, 4, 2) for _ in range(4)]),
    ]
    windows = ((-6, 6), (-8, -1), (2, 5), (9, 10))
    d, doubled = vertex.d_terms, vertex.code_weight2
    statuses = {}
    for space, draw in configs:
        for seed in range(4):
            samples = draw(random.Random(seed))
            for lo, hi in windows:
                reports = check_axioms(space, samples, lo, hi)
                assert reports == _axiom_reports_by_vectors(space, samples, lo, hi), (seed, lo, hi)
                for r in reports:
                    statuses[r["status"]] = statuses.get(r["status"], 0) + 1
            with monkeypatch.context() as patch:
                patch.setattr(vertex, "d_terms", lambda t: {w: 2 * c for w, c in d(t).items()})
                patch.setattr(vertex, "code_weight2", lambda code: doubled(code) + 1)
                reports = check_axioms(space, samples, -3, 3)
            want = _axiom_reports_by_vectors(
                space, samples, -3, 3,
                d=lambda vec: d_op(vec).scale(2),
                grading=lambda vec: grading_op(vec) + vec.scale(Fraction(1, 2)),
            )
            # the patched weight2 also moves the lower truncation bound
            assert reports[:4] == want[:4], seed
            assert [r["status"] for r in reports[2:4]] == ["fail", "fail"], reports
    assert statuses["pass"] and statuses["inconclusive"] and not statuses.get("fail"), statuses


def test_check_axioms_makes_seven_engine_calls_per_sample_pair(monkeypatch):
    calls = []
    engine = vertex.series_into

    def counted(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(vertex, "series_into", counted)
    samples = [random_state(random.Random(5), SPACE, 4) for _ in range(5)]
    check_axioms(SPACE, samples, -4, 4)
    assert len(calls) == 7 * len(samples)


def test_weak_associativity_base_case():
    box = Box(("x0", "x2"), ((-4, 4), (-4, 4)))
    report = check_weak_associativity(
        SPACE, ((E1, -1),), FockVector.word(((F1, -1),)), FockVector.vacuum(), box
    )
    assert report["status"] == "pass"
    assert report["pole_order"] == 1


def test_weak_associativity_identity_insertion():
    box = Box(("x0", "x2"), ((-3, 3), (-3, 3)))
    v = random_state(random.Random(11), SPACE, 4)
    report = check_weak_associativity(SPACE, VACUUM, FockVector.word(((E1, -1),)), v, box)
    assert report["status"] == "pass"


def test_weak_associativity_random_triples():
    rng = random.Random(12)
    box = Box(("x0", "x2"), ((-4, 4), (-4, 4)))
    for _ in range(6):
        u1 = random_word(rng, SPACE, 4)
        u2 = FockVector.word(random_word(rng, SPACE, 4))
        w = random_state(rng, SPACE, 4)
        report = check_weak_associativity(SPACE, u1, u2, w, box)
        assert report["status"] == "pass", report


def _band_triples(seed):
    """Seeded criterion-2 triples (box, u1 word, u2, w) whose u1 and u2
    words have length <= 2, which keeps the unbanded oracles cheap."""
    rng = random.Random(seed)
    box = Box(("x0", "x2"), ((-4, 4), (-4, 4)))
    for _ in range(40):
        u1 = random_word(rng, SPACE, 6)
        u2 = FockVector.word(random_word(rng, SPACE, 6))
        w = random_state(rng, SPACE, 6)
        if len(u1) <= 2 and max(map(len, u2.terms)) <= 2:
            yield box, u1, u2, w


def _spy(monkeypatch, name):
    """Record every int grid that the vertex routine `name` returns; the
    last one after a check_weak_associativity call is the check's grid."""
    route, grids = getattr(vertex, name), []

    def spy(*args):
        grids.append(route(*args))
        return grids[-1]

    monkeypatch.setattr(vertex, name, spy)
    return grids


def test_iterate_band_matches_full_window_on_read_cells(monkeypatch):
    """The banded iterate rows that check_weak_associativity builds by
    _iterate_grid equal the rows on the full x2 window [lo2 - P, hi2] on
    every cell the comparison reads, d[j1 - P + i, j2 - i] with 0 <= i <= P;
    criterion-2 triples."""
    grids = _spy(monkeypatch, "_iterate_grid")
    pole_orders = []
    read_nonzero = 0
    for box, u1, u2, w in _band_triples(77001):
        (lo1, hi1), (lo2, hi2) = box.intervals
        P = check_weak_associativity(SPACE, u1, u2, w, box)["pole_order"]
        band = wrap_table(grids.pop(), clear_denominators(u2.terms)[1] * clear_denominators(w.terms)[1])
        pole_orders.append(P)
        full = {}
        for k1 in range(lo1 - P, hi1 + 1):
            a = y_coeff(SPACE, u1, k1, u2)
            for (k2,), vec in y_series(SPACE, a, w, lo2 - P, hi2).coeffs.items():
                full[(k1, k2)] = vec
        for j1 in range(lo1, hi1 + 1):
            for j2 in range(lo2, hi2 + 1):
                for i in range(P + 1):
                    cell = (j1 - P + i, j2 - i)
                    assert band.get(cell, FockVector()) == full.get(cell, FockVector()), (P, cell)
                    read_nonzero += cell in full
    assert max(pole_orders) >= 7 and len(pole_orders) >= 10
    assert read_nonzero


def test_product_band_matches_full_window_on_read_cells(monkeypatch):
    """The banded product columns that check_weak_associativity builds by
    _product_grid equal product_series on the full window [t2min, hi2] in y
    and every x power a read can reach, on every cell the comparison reads,
    c[j1 + j2 - P - k2, k2] with t2min <= k2 <= j2; criterion-2 triples."""
    grids = _spy(monkeypatch, "_product_grid")
    pole_orders = []
    read_nonzero = 0
    for box, u1, u2, w in _band_triples(77002):
        (lo1, hi1), (lo2, hi2) = box.intervals
        P = check_weak_associativity(SPACE, u1, u2, w, box)["pole_order"]
        band = wrap_table(grids.pop(), clear_denominators(u2.terms)[1] * clear_denominators(w.terms)[1])
        pole_orders.append(P)
        t2min = -((max(map(weight2, u2.terms)) + max(map(weight2, w.terms))) // 2)
        x = (lo1 + lo2 - P - hi2, hi1 + hi2 - P - t2min)
        full = product_series(SPACE, u1, u2, w, Box(("x", "y"), (x, (t2min, hi2)))).coeffs
        for j1 in range(lo1, hi1 + 1):
            for j2 in range(lo2, hi2 + 1):
                for k2 in range(t2min, j2 + 1):
                    cell = (j1 + j2 - P - k2, k2)
                    assert band.get(cell, FockVector()) == full.get(cell, FockVector()), (P, cell)
                    read_nonzero += cell in full
    assert max(pole_orders) >= 7 and len(pole_orders) >= 10
    assert read_nonzero


def test_product_series_weight_bookkeeping():
    rng = random.Random(14)
    for _ in range(5):
        uw1, uw2, vw = (random_word(rng, SPACE, 4) for _ in range(3))
        box = Box(("x", "y"), ((-3, 3), (-3, 3)))
        grid = product_series(SPACE, FockVector.word(uw1), FockVector.word(uw2), FockVector.word(vw), box)
        base = Fraction(weight2(uw1) + weight2(uw2) + weight2(vw), 2)
        for (k1, k2), vec in grid.coeffs.items():
            assert grading_op(vec) == vec.scale(base + k1 + k2)


def _mixed_state(rng, max_weight2, nterms):
    """Seeded words with coefficients of mixed denominators."""
    terms = {}
    while len(terms) < nterms:
        terms[random_word(rng, SPACE, max_weight2)] = rng.choice(MIXED_DENOMINATORS)
    return FockVector(terms)


def _max_level(vec):
    """Largest creation depth -level-1 in vec; -1 for multiples of the vacuum."""
    return max((-level - 1 for w in vec.terms for _, level in w), default=-1)


def _mode_oracle(space, factors, vec, intervals):
    """Normal-ordered factor grid, one mode per factor: factor (g, m, var)
    is sum_L C(-L-1, m) h_g(L + 1/2) z_var^(-L-1-m) over all levels L (a
    tuple var charges the exponent to each of its slots); each level tuple
    is normal-ordered by `normal_order_modes` and applied by `apply_modes`.
    Annihilation levels are capped by the deepest mode of vec, creation
    levels by the window plus what annihilators take off."""
    depth = _max_level(vec)
    top = max(hi for _, hi in intervals) + sum(depth + 2 + m for _, m, _ in factors)
    out = {}
    for levels in product(range(-top - 1, depth + 1), repeat=len(factors)):
        cell = [0] * len(intervals)
        coeff = 1
        for (_, m, var), level in zip(factors, levels):
            coeff *= binom(-level - 1, m)
            for slot in (var,) if isinstance(var, int) else var:
                cell[slot] += -level - 1 - m
        cell = tuple(cell)
        if not coeff or not all(lo <= e <= hi for e, (lo, hi) in zip(cell, intervals)):
            continue
        sign, modes = normal_order_modes([(g, level) for (g, _, _), level in zip(factors, levels)])
        hit = apply_modes(space, modes, vec).scale(sign * coeff)
        s = out.get(cell, FockVector()) + hit
        if s:
            out[cell] = s
        else:
            out.pop(cell, None)
    return out


def _assert_fraction_coefficients(grid):
    for vec in grid.values():
        assert vec and all(type(c) is Fraction for c in vec.terms.values())


def test_series_engine_matches_mode_oracle_with_mixed_denominators():
    """y_series and ordered_factor_series clear denominators and accumulate
    integers (Fractions under a non-integral pairing); the mode-by-mode
    oracle never does.  Both must agree exactly, and every returned
    coefficient must be a Fraction."""
    rng = random.Random(4242)
    spaces = (SPACE, HSpace(2, RATIONAL_GRAM))
    nonzero = 0
    for space in spaces:
        for _ in range(5):
            u = _mixed_state(rng, 4, 2)
            v = _mixed_state(rng, 4, 3)
            series = y_series(space, u, v, -4, 3)
            want = {}
            for word, c in u.terms.items():
                for cell, vec in _mode_oracle(
                    space, tuple((g, -level - 1, 0) for g, level in word), v, ((-4, 3),)
                ).items():
                    s = want.get(cell, FockVector()) + vec.scale(c)
                    if s:
                        want[cell] = s
                    else:
                        want.pop(cell, None)
            assert series.coeffs == want
            _assert_fraction_coefficients(series.coeffs)
            nonzero += len(want)
        for _ in range(4):
            r = rng.randint(1, 3)
            factors = tuple((rng.randrange(space.dim), rng.randint(0, 1), rng.randrange(2)) for _ in range(r))
            v = _mixed_state(rng, 4, 3)
            intervals = ((-3, 2), (-2, 2))
            grid = ordered_factor_series(space, factors, v, intervals)
            assert grid == _mode_oracle(space, factors, v, intervals), factors
            _assert_fraction_coefficients(grid)
            nonzero += len(grid)
    assert nonzero


def test_merged_series_walk_matches_one_source_calls_and_mode_oracle():
    """One series_into call over several sources sums equal partial states
    of different sources, words and masks before expanding them.  It must
    equal the sum of one-source calls, which cannot merge across sources,
    and the mode-by-mode oracle.  The factor lists share their tails, one
    source is repeated with the opposite scale so that its partial states
    cancel, and some head factors charge a tuple of slots."""
    rng = random.Random(9090)
    intervals = ((-3, 2), (-2, 3))
    nonzero = 0
    for space in (SPACE, HSpace(2, RATIONAL_GRAM)):
        for _ in range(4):
            tail = tuple(
                (rng.randrange(space.dim), rng.randint(0, 1), rng.randrange(2))
                for _ in range(rng.randint(1, 2))
            )
            sources = []
            for _ in range(3):
                head = ((rng.randrange(space.dim), rng.randint(0, 2), rng.choice((0, 1, (0, 1)))),)
                sources.append((head[: rng.randint(0, 1)] + tail, rng.choice((1, -2, 3))))
            sources.append((sources[0][0], -sources[0][1]))
            v = _mixed_state(rng, 4, 3)
            ints, D = clear_denominators(v.terms)
            terms = {encode(w): c for w, c in ints.items()}  # the engine keys words by str code

            merged = {}
            series_into(space, sources, terms, intervals, merged)
            merged = wrap_table(merged, D)
            separate = {}
            for source in sources:
                series_into(space, (source,), terms, intervals, separate)
            assert merged == wrap_table(separate, D)

            want = {}
            for factors, scale in sources[1:-1]:  # the first and last cancel
                for cell, vec in _mode_oracle(space, factors, v, intervals).items():
                    s = want.get(cell, FockVector()) + vec.scale(scale)
                    if s:
                        want[cell] = s
                    else:
                        want.pop(cell, None)
            assert merged == want, sources
            _assert_fraction_coefficients(merged)
            nonzero += len(want)

            cancelled = {}
            series_into(space, (sources[0], sources[-1]), terms, intervals, cancelled)
            assert not wrap_table(cancelled, D)

            # a state whose words share their tail, against one y_series per word
            tail = random_word(rng, SPACE, 3)
            u = FockVector({random_word(rng, SPACE, 3) + tail: c for c in MIXED_DENOMINATORS})
            want = {}
            for word, c in u.terms.items():
                for cell, vec in y_series(space, FockVector.word(word, c), v, -4, 3).coeffs.items():
                    s = want.get(cell, FockVector()) + vec
                    if s:
                        want[cell] = s
                    else:
                        want.pop(cell, None)
            series = y_series(space, u, v, -4, 3)
            assert series.coeffs == want
            _assert_fraction_coefficients(series.coeffs)
            nonzero += len(want)
    assert nonzero


def test_prefix_rows_match_one_source_calls_and_mode_oracle():
    """The creation frontier keys a partial state by (suffix, rest of the
    word, exps) and keeps the prefixes built so far in one row per key.
    Three- and four-factor sources with many distinct heads over one shared
    two-factor tail put many prefixes into each row, on three-word targets.
    Two heads differ only in the order of their tuple slot (0, 1): they are
    distinct suffixes that build the same prefix at the same exponents, so
    with opposite scales that prefix cancels inside a middle-layer row,
    where the prefix of a third head with the same slots survives.  The
    merged call must equal the sum of one-source calls and the
    mode-by-mode oracle."""
    rng = random.Random(3131)
    intervals = ((-3, 1), (-2, 1))
    heads = [(g, m, var) for g in range(4) for m in (0, 1) for var in (0, 1, (0, 1))]
    nonzero = 0
    for space in (SPACE, HSpace(2, RATIONAL_GRAM)):
        for _ in range(2):
            tail = tuple((rng.randrange(4), 0, rng.choice((0, 1, (0, 1)))) for _ in range(2))
            g, m = rng.randrange(4), rng.randint(0, 1)
            pair = [(((g, m, (0, 1)),) + tail, 2), (((g, m, (1, 0)),) + tail, -2)]
            sources = [((((g + 1) % 4, m, (0, 1)),) + tail, 1)]
            sources += [((head,) + tail, rng.choice((1, -2, 3))) for head in rng.sample(heads, 6)]
            sources += [(tuple(rng.sample(heads, 2)) + tail, rng.choice((1, -1))) for _ in range(2)]
            v = _mixed_state(rng, 4, 3)
            terms, D = v.row, v.den

            merged = {}
            series_into(space, pair + sources, terms, intervals, merged)
            merged = wrap_table(merged, D)
            separate = {}
            for source in pair + sources:
                series_into(space, (source,), terms, intervals, separate)
            assert merged == wrap_table(separate, D)
            cancelled = {}
            series_into(space, pair, terms, intervals, cancelled)
            assert not wrap_table(cancelled, D)

            want = {}
            for factors, scale in sources:
                for cell, vec in _mode_oracle(space, factors, v, intervals).items():
                    s = want.get(cell, FockVector()) + vec.scale(scale)
                    if s:
                        want[cell] = s
                    else:
                        want.pop(cell, None)
            assert merged == want, sources
            _assert_fraction_coefficients(merged)
            nonzero += len(want)
    assert nonzero >= 10


def test_dead_mask_skip_matches_mode_oracle():
    """A mask with more annihilators than the longest target word has no
    term, since each annihilator removes a distinct letter: the walk kills
    it when the word runs out of letters.  Sources of up to 4 factors on a
    vacuum target and on one-letter targets keep every mask with as many
    annihilators as letters; the grid must equal the mode-by-mode oracle."""
    rng = random.Random(2718)
    intervals = ((-2, 2), (-1, 2))
    nonzero = 0
    for space in (SPACE, HSpace(2, RATIONAL_GRAM)):
        targets = [FockVector.word((), Fraction(2, 3))]
        targets += [FockVector.word(((g, -1 - rng.randint(0, 1)),), Fraction(-5, 7)) for g in range(4)]
        for r in range(1, 5):
            for v in targets if r < 4 else targets[:2]:
                factors = tuple(
                    (rng.randrange(space.dim), rng.randint(0, 1), rng.randrange(2)) for _ in range(r)
                )
                grid = ordered_factor_series(space, factors, v, intervals)
                assert grid == _mode_oracle(space, factors, v, intervals), (factors, v)
                nonzero += len(grid)
    assert nonzero


def test_five_factor_walk_matches_mode_oracle():
    """Five-factor sources on two- and three-letter targets whose letters
    pair with some of the factors: splits with more annihilators than
    letters die when the word runs out.  Some factors charge the tuple slot
    (0, 1), and the upper edges sit below 0, so the walk drops a total above
    hi only at the leftmost factor charging its slot, and states with no
    annihilator at a slot at the end of the walk.  The grid must equal the
    mode-by-mode oracle."""
    rng = random.Random(5151)
    intervals = ((-4, -2), (-3, -1))
    nonzero = 0
    for space in (SPACE, HSpace(2, RATIONAL_GRAM)):
        for length in (2, 3):
            for _ in range(2):
                factors = tuple(
                    (rng.randrange(4), rng.randint(0, 1) if i == 0 else 0, rng.choice((0, 1, (0, 1))))
                    for i in range(5)
                )
                duals = tuple(((factors[i][0] + 2) % 4, -1) for i in rng.sample(range(5), length))
                v = FockVector.word(duals, Fraction(-5, 7))
                grid = ordered_factor_series(space, factors, v, intervals)
                assert grid == _mode_oracle(space, factors, v, intervals), (factors, v)
                nonzero += len(grid)
    assert nonzero >= 10


def test_last_creation_window_check_matches_mode_oracle():
    """The last creation charges one slot and checks the other slots against
    the window once per partial state.  Windows whose lower edge sits above
    0 on a slot before or after the charged one, with int and tuple-var
    factors, must give the mode-by-mode oracle's grid."""
    rng = random.Random(1414)
    nonzero = 0
    for space in (SPACE, HSpace(2, RATIONAL_GRAM)):
        for intervals in (((1, 3), (-2, 2)), ((-2, 2), (1, 3))):
            for _ in range(8):
                factors = tuple(
                    (rng.randrange(space.dim), rng.randint(0, 1), rng.choice((0, 1, 1, 0, (0, 1))))
                    for _ in range(rng.randint(1, 3))
                )
                v = _mixed_state(rng, 4, 2)
                grid = ordered_factor_series(space, factors, v, intervals)
                assert grid == _mode_oracle(space, factors, v, intervals), (factors, intervals)
                nonzero += len(grid)
    assert nonzero


def _weak_report_by_vectors(space, u1_word, u2, w, box, poke=None):
    """The FockVector route of the weak-associativity check: one y_coeff
    per x2 column and per x0 row, FockVector rows, and sums and scales of
    FockVectors.  `poke(grid)` may alter the iterate grid before the fold."""
    u1 = FockVector.word(u1_word)
    msum = sum(-level - 1 for _, level in u1_word)
    P = (max(map(weight2, w.terms), default=0) + 2 * msum + 2 * len(u1_word)) // 2
    t2min = -((max(map(weight2, u2.terms), default=0) + max(map(weight2, w.terms), default=0)) // 2)
    (lo1, hi1), (lo2, hi2) = box.intervals
    prod_grid = {}
    for k2 in range(t2min, hi2 + 1):
        col = y_coeff(space, u2, k2, w)
        k1_lo, k1_hi = lo1 + max(lo2, k2) - P - k2, hi1 + hi2 - P - k2
        if col and k1_lo <= k1_hi:
            for (k1,), vec in y_series(space, u1, col, k1_lo, k1_hi).coeffs.items():
                prod_grid[(k1, k2)] = vec
    iter_grid = {}
    for k1 in range(lo1 - P, hi1 + 1):
        a = y_coeff(space, u1, k1, u2)
        if a:
            band = (lo2 - min(P, k1 - lo1 + P), hi2 - max(0, k1 - hi1 + P))
            for (k2,), vec in y_series(space, a, w, *band).coeffs.items():
                iter_grid[(k1, k2)] = vec
    if poke:
        poke(iter_grid)
    mismatches, compared, nonzero = [], 0, 0
    for j1 in range(lo1, hi1 + 1):
        for j2 in range(lo2, hi2 + 1):
            total = j1 + j2 - P
            lhs = rhs = FockVector()
            for k2 in range(t2min, j2 + 1):
                c = prod_grid.get((total - k2, k2))
                if c:
                    lhs = lhs + c.scale(binom(total - k2 + P, total - k2 + P - j1))
            for i in range(P + 1):
                c = iter_grid.get((j1 - P + i, j2 - i))
                if c:
                    rhs = rhs + c.scale(binom(P, i))
            compared += 1
            nonzero += bool(lhs or rhs)
            if lhs != rhs:
                mismatches.append((j1, j2))
    status = "fail" if mismatches else "pass" if nonzero else "inconclusive"
    return {
        "identity": "weak_associativity",
        "status": status,
        "compared": compared,
        "nonzero": nonzero,
        "pole_order": P,
        "window": box.intervals,
        "mismatches": mismatches,
    }


def test_integer_weak_associativity_fold_matches_fock_vector_fold(monkeypatch):
    """check_weak_associativity folds int tables over one denominator; the
    FockVector fold it replaced gives the same report on 60 seeded
    criterion-2 triples, on a window at high powers where some triples
    compare only zeros (inconclusive), and with one iterate cell altered by
    the same amount on both routes (fail, with the same mismatch cells)."""
    rng = random.Random(31337)
    box = Box(("x0", "x2"), ((-4, 4), (-4, 4)))
    far = Box(("x0", "x2"), ((5, 6), (5, 6)))
    statuses = {}
    grid = vertex._iterate_grid
    for trial in range(60):
        u1 = random_word(rng, SPACE, 6)
        u2 = FockVector.word(random_word(rng, SPACE, 6))
        w = random_state(rng, SPACE, 6)
        report = check_weak_associativity(SPACE, u1, u2, w, box)
        assert report == _weak_report_by_vectors(SPACE, u1, u2, w, box), trial
        statuses[report["status"]] = statuses.get(report["status"], 0) + 1
        if trial % 10:
            continue
        report = check_weak_associativity(SPACE, u1, u2, w, far)
        assert report == _weak_report_by_vectors(SPACE, u1, u2, w, far)
        statuses[report["status"]] = statuses.get(report["status"], 0) + 1

        # add (1/D)|word> to the iterate cell (lo1, lo2), D the common denominator
        cell, word = (-4, -4), ((E1, -1),)
        D = clear_denominators(u2.terms)[1] * clear_denominators(w.terms)[1]

        def poke_ints(*args):
            ints = grid(*args)
            row = ints.setdefault(cell, {})
            row[encode(word)] = row.get(encode(word), 0) + 1
            return ints

        def poke_vectors(grid):
            grid[cell] = grid.get(cell, FockVector()) + FockVector.word(word, Fraction(1, D))

        monkeypatch.setattr(vertex, "_iterate_grid", poke_ints)
        report = check_weak_associativity(SPACE, u1, u2, w, box)
        monkeypatch.setattr(vertex, "_iterate_grid", grid)
        assert report == _weak_report_by_vectors(SPACE, u1, u2, w, box, poke_vectors)
        assert report["status"] == "fail" and report["mismatches"]
        statuses["fail"] = statuses.get("fail", 0) + 1
    assert statuses["pass"] >= 40 and statuses["inconclusive"] and statuses["fail"], statuses
