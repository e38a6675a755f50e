"""Integer numerators, the divisibility proof and the regional walker of
`fermifock.ratfun`, against exact trial division and brute force."""
import random
from fractions import Fraction
from itertools import product
from math import gcd, inf

import pytest

from fermifock import ratfun
from fermifock.laurent import Box
from fermifock.ratfun import RationalFunction
from fermifock.scalars import binom

VARS = ("z1", "z2", "z3", "z4")


def _fraction_poly_mul(a, b):
    out = {}
    for c1, v1 in a.items():
        for c2, v2 in b.items():
            cell = tuple(x + y for x, y in zip(c1, c2))
            out[cell] = out.get(cell, 0) + v1 * v2
    return {c: v for c, v in out.items() if v}


def _unit(nv, exps):
    cell = [0] * nv
    for i, e in exps.items():
        cell[i] += e
    return tuple(cell)


def _random_num(rng, nv, terms=4):
    num = {}
    for _ in range(rng.randint(1, terms)):
        cell = tuple(rng.randint(0, 2) for _ in range(nv))
        num[cell] = Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]), rng.choice([1, 1, 2, 3, 6]))
    return num


def _planted_rf(rng):
    """A random function whose numerator carries planted common factors
    (z_i - z_j)^k (either orientation) and z_i^k with the denominator."""
    nv = rng.randint(2, 4)
    variables = VARS[:nv]
    num = _random_num(rng, nv)
    den_pow = {}
    den_diff = {}
    for _ in range(rng.randint(0, 2)):
        i, j = sorted(rng.sample(range(nv), 2))
        den_diff[(variables[i], variables[j])] = den_diff.get((variables[i], variables[j]), 0) + rng.randint(1, 2)
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, 2)
        if rng.random() < 0.6:
            i, j = sorted(rng.sample(range(nv), 2))
            pair = (variables[i], variables[j])
            if rng.random() < 0.5:
                i, j = j, i  # planted as (z_j - z_i)^k: the sign goes upstairs
            factor = {_unit(nv, {i: 1}): Fraction(1), _unit(nv, {j: 1}): Fraction(-1)}
            den_diff[pair] = den_diff.get(pair, 0) + k
        else:
            i = rng.randrange(nv)
            factor = {_unit(nv, {i: 1}): Fraction(1)}
            den_pow[variables[i]] = den_pow.get(variables[i], 0) + k
        for _ in range(k):
            num = _fraction_poly_mul(num, factor)
    return RationalFunction(variables, num, den_pow, den_diff)


def _diff_over(rng, variables, power):
    """(x - y)^power over the variables as a plain numerator, with x, y."""
    nv = len(variables)
    i, j = rng.sample(range(nv), 2)
    num = {_unit(nv, {}): Fraction(1)}
    for _ in range(power):
        num = _fraction_poly_mul(num, {_unit(nv, {i: 1}): Fraction(1), _unit(nv, {j: 1}): Fraction(-1)})
    return RationalFunction(variables, num), variables[i], variables[j]


def _value(rf, point):
    total = Fraction(0)
    for cell, c in rf.num.items():
        term = c
        for v, e in zip(rf.vars, cell):
            term *= point[v] ** e
        total += term
    for v, a in rf.den_pow.items():
        total /= point[v] ** a
    for (x, y), b in rf.den_diff.items():
        total /= (point[x] - point[y]) ** b
    return total


def _state(rf):
    return (rf.vars, rf.int_num, rf.int_den, rf.den_pow, rf.den_diff)


def _run_ops(seed, rounds=60):
    """Seeded sums, products, scalings and substitutions over planted
    functions; returns every result and checks each at a rational point."""
    rng = random.Random(seed)
    pool = [_planted_rf(rng) for _ in range(8)]
    results = list(pool)
    point = {v: Fraction(rng.randint(1, 40), rng.randint(1, 7)) + 50 * k for k, v in enumerate(VARS)}
    for _ in range(rounds):
        a, b = rng.choice(pool), rng.choice(pool)
        op = rng.randrange(6)
        if op == 0:
            out, want = a + b, _value(a, point) + _value(b, point)
        elif op == 1:
            out, want = a - b, _value(a, point) - _value(b, point)
        elif op == 2:
            out, want = a * b, _value(a, point) * _value(b, point)
        elif op == 3:
            s = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            out, want = a.scale(s), s * _value(a, point)
        elif op == 4:
            # multiply by a planted difference power, then divide it out again
            k = rng.randint(1, 3)
            if len(a.vars) < 2:
                continue
            d, x, y = _diff_over(rng, a.vars, k)
            out = a * d * RationalFunction.diff_inverse(x, y, k)
            want = _value(a, point)
        else:
            if len(a.vars) < 2:
                continue
            old = rng.choice(a.vars)
            new = rng.choice([v for v in VARS if v != old])
            try:
                out = a.substitute({old: new})
            except ValueError:
                continue
            moved = dict(point)
            moved[old] = point[new]
            want = _value(a, moved)
        assert _value(out, point) == want
        results.append(out)
        if not out.is_zero() and len(pool) < 16:
            pool.append(out)
    return [_state(rf) for rf in results], results


def _count_divisions(monkeypatch):
    counts = {"ok": 0, "failed": 0}
    divide = ratfun._divide_by_diff

    def counted(a, i, j):
        q = divide(a, i, j)
        counts["ok" if q is not None else "failed"] += 1
        return q

    monkeypatch.setattr(ratfun, "_divide_by_diff", counted)
    return counts


def test_proof_gate_keeps_the_trial_division_normal_form(monkeypatch):
    # outside a correlation every pole order comes from trial division:
    # divide until a division fails
    counts = _count_divisions(monkeypatch)
    for seed in (3, 17, 2024):
        _, results = _run_ops(seed)
        for rf in results:
            assert all(type(c) is Fraction for c in rf.num.values())
            if rf.int_num:
                assert rf.int_den > 0 and gcd(rf.int_den, *rf.int_num.values()) == 1
    # the planted factors were divided out
    assert counts["ok"] > 50


def test_numerator_vanishing_at_the_proof_point_falls_through(monkeypatch):
    # z1 - r1 vanishes at the proof point of (z1 - z2), where z1 = z2 = r1,
    # yet z1 - z2 does not divide it: the long division runs and fails
    r1 = ratfun._proof_value(0)
    num = {(1, 0, 0): Fraction(1, 2), (0, 0, 0): Fraction(-r1, 2)}
    counts = _count_divisions(monkeypatch)
    rf = RationalFunction(VARS[:3], num, {}, {("z1", "z2"): 2})
    assert counts == {"ok": 0, "failed": 1}
    assert rf.den_diff == {("z1", "z2"): 2}
    assert rf.num == num
    # the same numerator times (z1 - z2) loses exactly that factor
    times = RationalFunction(VARS[:3], _fraction_poly_mul(num, {(1, 0, 0): 1, (0, 1, 0): -1}), {}, {("z1", "z2"): 2})
    assert counts == {"ok": 1, "failed": 2}
    assert times.den_diff == {("z1", "z2"): 1} and times.num == num


def test_fraction_view_of_integer_numerator():
    rf = RationalFunction(("x", "y"), {(1, 0): Fraction(1, 2), (0, 1): Fraction(-2, 3)}, {}, {("x", "y"): 1})
    assert rf.int_den == 6 and rf.int_num == {(1, 0): 3, (0, 1): -4}
    assert rf.num == {(1, 0): Fraction(1, 2), (0, 1): Fraction(-2, 3)}
    assert all(type(c) is Fraction for c in rf.num.values())
    assert rf.render() == "(1/2 x - 2/3 y) / (x - y)"
    doubled = rf.scale(6)
    assert doubled.int_den == 1 and doubled.int_num == {(1, 0): 3, (0, 1): -4}
    assert all(type(c) is Fraction for c in doubled.num.values())
    # integral coefficients still read as Fractions
    one = RationalFunction.from_scalar(3, ("x",))
    assert one.num == {(0,): Fraction(3)} and type(one.num[(0,)]) is Fraction


def _brute_expansion(rf, order, intervals):
    """Region expansion by enumerating every series index up to a bound."""
    npos = {v: p for p, v in enumerate(order)}
    factors = []  # (outer, inner, power, sign)
    for (x, y), b in rf.den_diff.items():
        if npos[x] < npos[y]:
            factors.append((npos[x], npos[y], b, 1))
        else:
            factors.append((npos[y], npos[x], b, (-1) ** b))
    table = {}
    for cell, c in rf.num.items():
        fixed = [0] * len(order)
        for v, e in zip(rf.vars, cell):
            fixed[npos[v]] += e
        for v, a in rf.den_pow.items():
            fixed[npos[v]] -= a
        # bound the index of each factor by its inner variable's headroom
        bound = [0] * len(order)
        for p in reversed(range(len(order))):
            bound[p] = max(0, intervals[p][1] - fixed[p] + sum(b + bound[q] for o, q, b, _ in factors if o == p))
        for ks in product(*(range(bound[inner] + 1) for _, inner, _, _ in factors)):
            out = list(fixed)
            value = c
            for (outer, inner, b, sign), k in zip(factors, ks):
                out[inner] += k
                out[outer] -= b + k
                value *= sign * binom(b + k - 1, k)
            if all(lo <= e <= hi for e, (lo, hi) in zip(out, intervals)):
                table[tuple(out)] = table.get(tuple(out), 0) + value
    return {k: v for k, v in table.items() if v}


def test_expand_region_matches_brute_force():
    rng = random.Random(59)
    for _ in range(25):
        rf = _planted_rf(rng)
        for _ in range(rng.randint(0, 2)):
            i, j = rng.sample(range(len(rf.vars)), 2)
            rf = rf * RationalFunction.diff_inverse(rf.vars[i], rf.vars[j], rng.randint(1, 2), Fraction(1, 2))
        order = list(rf.vars)
        rng.shuffle(order)
        intervals = [(rng.randint(-6, -1), rng.randint(0, 3)) for _ in order]
        got = rf.expand_region(order, intervals)
        assert got.coeffs == _brute_expansion(rf, order, intervals)
        assert all(type(c) is Fraction for c in got.coeffs.values())
        assert all(Box(order, intervals).contains(cell) for cell in got.coeffs)


def _random_region_rf(rng):
    """A planted function times up to three more difference powers, with a
    random region order over its variables."""
    rf = _planted_rf(rng)
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(len(rf.vars)), 2)
        rf = rf * RationalFunction.diff_inverse(rf.vars[i], rf.vars[j], rng.randint(1, 3), Fraction(1, 2))
    order = list(rf.vars)
    rng.shuffle(order)
    return rf, order


def test_region_cells_floors_equal_the_unpruned_walk_on_the_box():
    """Floors prune the walk and keep exactly the cells of the box."""
    rng = random.Random(83)
    cut = 0
    for _ in range(60):
        rf, order = _random_region_rf(rng)
        npos = {v: p for p, v in enumerate(order)}
        his = [rng.randint(-2, 4) for _ in order]
        # lo edges from far below to deep inside the reachable cells
        los = [hi - rng.choice([0, 1, 2, 4, 30]) for hi in his]
        scale = rng.choice([1, -3])
        full = ratfun.region_cells(rf, npos, his, scale)
        box = Box(order, list(zip(los, his)))
        want = {cell: c for cell, c in full.items() if box.contains(cell)}
        assert ratfun.region_cells(rf, npos, his, scale, los) == want
        cut += len(want) < len(full)
    assert cut >= 20
    # z3 is in no difference factor: its floor is checked where it is final
    rf = RationalFunction(VARS[:3], {(0, 0, 0): 1, (1, 0, 3): 2}, {"z3": 1}, {("z1", "z2"): 2})
    npos = {"z3": 0, "z1": 1, "z2": 2}
    full = ratfun.region_cells(rf, npos, [3, 1, 3])
    assert ratfun.region_cells(rf, npos, [3, 1, 3], 1, [0, -9, -9]) == {c: v for c, v in full.items() if c[0] >= 0}
    assert any(c[0] < 0 for c in full)
    # no cell of 1/(z1 - z2) in |z1| > |z2| has z1 >= 0
    rf = RationalFunction.diff_inverse("z1", "z2", 1)
    assert ratfun.region_cells(rf, {"z1": 0, "z2": 1}, [3, 3])
    assert ratfun.region_cells(rf, {"z1": 0, "z2": 1}, [3, 3], 1, [0, -3]) == {}


def test_region_cells_caps_only_keep_every_cell_under_an_infinite_cap():
    """The path of `noexpr_apply` (no floors, `math.inf` on a position that
    no factor raises) keeps every cell under the caps: the outermost position
    is never an inner variable, and a finite cap at its largest exponent
    reads the same cells, which agree with the brute-force expansion."""
    rng = random.Random(89)
    for _ in range(40):
        rf, order = _random_region_rf(rng)
        npos = {v: p for p, v in enumerate(order)}
        caps = [rng.randint(-2, 4) for _ in order]
        top = max(cell[rf.vars.index(order[0])] for cell in rf.int_num)
        got = ratfun.region_cells(rf, npos, [inf] + caps[1:])
        assert got == ratfun.region_cells(rf, npos, [top] + caps[1:])
        intervals = [(-10**6, top)] + [(-10**6, hi) for hi in caps[1:]]
        assert {cell: Fraction(c, rf.int_den) for cell, c in got.items()} == _brute_expansion(rf, order, intervals)


def test_constructor_refuses_a_negative_difference_power():
    """A negative power of (x - y) is refused, not dropped: the value
    z1 - z2 once rendered as (1)."""
    with pytest.raises(ValueError, match="nonnegative"):
        RationalFunction(["z1", "z2"], {(0, 0): 1}, {}, {("z1", "z2"): -1})
    with pytest.raises(ValueError, match="distinct"):
        RationalFunction(["z1"], {(0,): 1}, {}, {("z1", "z1"): 1})


def test_constructor_refuses_a_negative_variable_power():
    """A negative power of z once survived in den_pow and rendered as a
    pole: (1) / z1 for the value z1."""
    with pytest.raises(ValueError, match="nonnegative"):
        RationalFunction(["z1"], {(0,): 1}, {"z1": -1})
    zero = RationalFunction(["z1"], {(1,): 2}, {"z1": 0})
    assert zero.den_pow == {} and zero.render() == "(2 z1)"


def test_constructor_canonicalizes_difference_keys():
    """A pair out of canonical order is stored the other way round, with
    the sign of its odd powers absorbed, as diff_product stores it."""
    one = RationalFunction(["z1", "z2"], {(0, 0): 1}, {}, {("z2", "z1"): 1})
    assert one.den_diff == {("z1", "z2"): 1}
    assert one.render() == RationalFunction.diff_inverse("z2", "z1", 1).render() == "(-1) / (z1 - z2)"
    assert one == -RationalFunction.diff_inverse("z1", "z2", 1)
    square = RationalFunction(["z1", "z2"], {(1, 0): 3}, {}, {("z2", "z1"): 2, ("z1", "z2"): 1})
    assert square.den_diff == {("z1", "z2"): 3}
    assert square.render() == "(3 z1) / (z1 - z2)^3"
