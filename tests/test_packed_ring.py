"""The packed ring of `fermifock.ratfun`: exponent cells packed into one
int (32 bits per variable), the guard that keeps every field below 2^32,
`deferred_pfaffian` against the plain `pfaffian` over RationalFunction,
and `correlation` against Cauchy's determinant formula."""
import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from fermifock import ratfun
from fermifock.fock import HSpace
from fermifock.pfaffian import pfaffian
from fermifock.ratfun import RationalFunction, deferred_pfaffian, f_mn
from fermifock.wick import correlation

TOP = 2**32 - 1  # the largest exponent a packed field holds
DENSE_GRAM_2 = [[1, 2, 1, 3], [2, 1, 1, 1], [1, 1, 2, 1], [3, 1, 1, 1]]
RATIONAL_GRAM_2 = [
    [Fraction(1, 2), Fraction(-5, 7), 1, 0],
    [Fraction(-5, 7), 0, Fraction(2, 3), 3],
    [1, Fraction(2, 3), 0, Fraction(1, 3)],
    [0, 3, Fraction(1, 3), -2],
]


def test_pack_unpack_round_trip_at_the_field_edges():
    cells = [(), (0,), (TOP,), (0, TOP), (TOP, 0), (TOP, TOP, TOP), (1, 0, TOP, 2, 0)]
    for cell in cells:
        n = len(cell)
        key = ratfun._pack(cell, range(n))
        assert 0 <= key < 2 ** (32 * n)
        assert ratfun._unpack({key: 7}, n) == {cell: 7}
    # a cell over a subset of the variables lands in its own slots
    key = ratfun._pack((TOP, 5), (3, 1))
    assert ratfun._unpack({key: -1}, 4) == {(0, 5, 0, TOP): -1}
    # field sums: the product of two packed monomials is one int addition
    a, b = ratfun._pack((TOP - 1, 0, 3), range(3)), ratfun._pack((1, TOP, 4), range(3))
    assert ratfun._unpack(ratfun._poly_mul({a: 2}, {b: 3, 0: 1}), 3) == {(TOP, TOP, 7): 6, (TOP - 1, 0, 3): 2}


def test_exponents_of_two_to_the_32_are_refused_and_never_carry():
    def z1(e):
        return RationalFunction.monomial(("z1", "z2"), {"z1": e})

    def z2(e):
        return RationalFunction.monomial(("z1", "z2"), {"z2": e})

    # at the edge of both fields the product is exact: no carry into z2
    got = z1(TOP) * z2(TOP)
    assert got.vars == ("z1", "z2") and got.int_num == {(TOP, TOP): 1}
    assert (z1(TOP) * RationalFunction.from_scalar(3)).int_num == {(TOP, 0): 3}
    # one more in z1 would carry into z2's field: refused, not computed
    with pytest.raises(ValueError, match="2\\^32"):
        z1(TOP) * z1(1)
    with pytest.raises(ValueError, match="2\\^32"):
        z1(2**32) * z2(1)
    # a sum lifts by the other operand's denominator, so the guard counts it
    with pytest.raises(ValueError, match="2\\^32"):
        z1(TOP) + RationalFunction.diff_inverse("z1", "z2", 1)
    # the Pfaffian ring: a kernel entry with a difference power of 2^32
    with pytest.raises(ValueError, match="2\\^32"):
        deferred_pfaffian({0: {1: RationalFunction.diff_inverse("z1", "z2", 2**32)}}, 0b11)
    edge = deferred_pfaffian({0: {1: RationalFunction.diff_inverse("z1", "z2", TOP, 5)}}, 0b11)
    assert edge.int_num == {(0, 0): 5} and edge.den_diff == {("z1", "z2"): TOP}
    # a derivative order of 2^32 - 1 meets order 0 in a power of 2^32
    space = HSpace(1)
    with pytest.raises(ValueError, match="2\\^32"):
        correlation(space, [(((0, -1),), "z1"), (((1, -(2**32)),), "z2")])


def _kernel(space, insertions):
    """The factor-level kernel of a correlation, built here from its
    definition: (a_p, a_q) f_{m_p n_q}(z_i, z_j) for factor p of insertion
    i and factor q of a later insertion j, m = -n - 1 for a mode n."""
    factors = [(i, g, -n - 1, v) for i, (word, v) in enumerate(insertions) for g, n in word]
    kernel = {}
    for p, (i, gp, mp, x) in enumerate(factors):
        for q in range(p + 1, len(factors)):
            j, gq, nq, y = factors[q]
            pairing = space.pair(gp, gq) if j != i else 0
            if pairing:
                kernel.setdefault(p, {})[q] = f_mn(mp, nq, x, y).scale(pairing)
    return kernel, len(factors)


def _assert_same(got, want, label):
    assert got.vars == want.vars, label
    assert got.int_num == want.int_num, label
    assert got.int_den == want.int_den, label
    assert got.den_pow == want.den_pow, label
    assert got.den_diff == want.den_diff, label


def _both_routes(kernel, mask):
    return deferred_pfaffian(kernel, mask), pfaffian(kernel, [mask], RationalFunction.from_scalar(1))[mask]


def test_packed_pfaffian_matches_the_plain_route_on_single_mode_insertions():
    """M = 1 with (e1, f1) = a, single-mode insertions alternating e1/f1
    at seeded derivative orders: all five fields agree exactly."""
    rng = random.Random(211)
    nonzero = 0
    for n, max_order in ((4, 2), (4, 2), (5, 2), (6, 2), (6, 1), (6, 1), (8, 0), (8, 0)):
        a = rng.choice([-4, -1, 2, 3, 9])
        space = HSpace(1, [[0, a], [a, 0]])
        first = rng.randrange(2)
        ins = [((((first + i) % 2, -1 - rng.randint(0, max_order)),), f"z{i + 1}") for i in range(n)]
        kernel, count = _kernel(space, ins)
        got, want = _both_routes(kernel, (1 << count) - 1)
        _assert_same(got, want, ins)
        nonzero += not got.is_zero()
    assert nonzero == 7  # every case but the odd one


@pytest.mark.parametrize("gram", [DENSE_GRAM_2, RATIONAL_GRAM_2], ids=["dense", "rational"])
def test_packed_pfaffian_matches_the_plain_route_on_multi_factor_words(gram):
    """Words of one and two letters under the dense and a rational M = 2
    Gram, where most factor pairs contract; the rational one puts the
    numerator over int_den > 1."""
    rng = random.Random(223)
    space = HSpace(2, gram)
    dens = set()
    for lengths in ((2, 1, 1), (1, 2, 1), (2, 2), (2, 1, 2, 1), (1, 1, 1, 1, 2)):
        words = [tuple((rng.randrange(4), -rng.randint(1, 3)) for _ in range(k)) for k in lengths]
        ins = [(w, f"z{i + 1}") for i, w in enumerate(words)]
        kernel, count = _kernel(space, ins)
        got, want = _both_routes(kernel, (1 << count) - 1)
        _assert_same(got, want, ins)
        assert not got.is_zero(), ins
        dens.add(got.int_den)
    assert (max(dens) > 1) == (gram is RATIONAL_GRAM_2)


def test_packed_pfaffian_keeps_only_the_variables_of_its_value():
    """A mask over part of the kernel: the ring runs over every variable of
    the kernel, and the value drops those its difference factors miss."""
    rng = random.Random(227)
    space = HSpace(1, [[0, 3], [3, 0]])
    ins = [((((i % 2), -1 - rng.randint(0, 1)),), f"z{i + 1}") for i in range(6)]
    kernel, _ = _kernel(space, ins)
    for mask, variables in ((0b001111, ("z1", "z2", "z3", "z4")), (0b110011, ("z1", "z2", "z5", "z6")),
                            (0b000011, ("z1", "z2")), (0b000101, ())):
        got, want = _both_routes(kernel, mask)
        _assert_same(got, want, bin(mask))
        assert got.vars == variables
        assert got.is_zero() == (not variables), bin(mask)


def _value_at(rf, point):
    num = sum(c * prod(point[v] ** e for v, e in zip(rf.vars, cell) if e) for cell, c in rf.num.items())
    den = prod(point[v] ** a for v, a in rf.den_pow.items())
    return num / den / prod((point[x] - point[y]) ** b for (x, y), b in rf.den_diff.items())


def test_alternating_correlation_is_cauchys_determinant():
    """n insertions alternating e1(-1/2), f1(-1/2) under M = 1 with
    (e1, f1) = a, against Cauchy's product formula at seeded rational points.

    With x the e1 points and y the f1 points, every kernel entry
    between an e1 and an f1 is a / (x_i - y_j) in the skew matrix,
    whichever comes first.  Moving the e1 items in front of the f1 items
    permutes the matrix by the interleaving (sign: its inversions), and
    the block matrix [[0, C], [-C^T, 0]] has Pfaffian
    (-1)^(m(m-1)/2) det C, with det [1 / (x_i - y_j)] =
    prod_{i<j} (x_j - x_i)(y_i - y_j) / prod_{i,j} (x_i - y_j).
    An odd n has no perfect matching, so its correlation is 0.
    """
    rng = random.Random(229)
    for n in range(2, 11):
        a = rng.choice([-3, -1, 2, 5])
        names = [f"z{i + 1}" for i in range(n)]
        rf = correlation(HSpace(1, [[0, a], [a, 0]]), [(((i % 2, -1),), v) for i, v in enumerate(names)])
        if n % 2:
            assert rf.is_zero(), n
            continue
        m = n // 2
        to_blocks = list(range(0, n, 2)) + list(range(1, n, 2))  # e1 items, then f1 items
        inversions = sum(s > t for s, t in combinations(to_blocks, 2))
        sign = (-1) ** (inversions + m * (m - 1) // 2)
        for _ in range(2):
            d = rng.randint(1, 9)
            point = {v: Fraction(x, d) for v, x in zip(names, rng.sample(range(-80, 80), n))}
            x, y = [point[v] for v in names[0::2]], [point[v] for v in names[1::2]]
            cauchy = prod((x[j] - x[i]) * (y[i] - y[j]) for i, j in combinations(range(m), 2))
            cauchy /= prod(xi - yj for xi in x for yj in y)
            assert _value_at(rf, point) == sign * a**m * cauchy, (n, point)
