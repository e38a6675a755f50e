from fractions import Fraction
from math import factorial

import pytest

from fermifock.laurent import Box, LaurentPoly
from fermifock.ratfun import RationalFunction, f_mn
from fermifock.scalars import (
    add_into,
    add_term,
    binom,
    clear_denominators,
    format_rational,
    parse_rational,
)


def test_binom_basics():
    assert binom(-1, 2) == 1
    assert binom(3, 0) == 1
    assert binom(-2, 3) == -4  # (-2)(-3)(-4)/6
    assert binom(5, 2) == 10
    assert binom(4, 7) == 0


def test_binom_rejects_negative_lower():
    with pytest.raises(ValueError):
        binom(3, -1)


def _falling_factorial_binom(n, m):
    """C(n, m) as the product n(n-1)...(n-m+1) over m!."""
    num = 1
    for i in range(m):
        num *= n - i
    q, r = divmod(num, factorial(m))
    assert r == 0
    return q


def test_binom_matches_falling_factorial_product():
    for n in range(-40, 41):
        for m in range(21):
            assert binom(n, m) == _falling_factorial_binom(n, m), (n, m)


def test_binom_pascal_identity():
    for n in range(-20, 21):
        for m in range(1, 11):
            assert binom(n, m) == binom(n - 1, m) + binom(n - 1, m - 1)


def test_rational_round_trip():
    assert parse_rational("-3/6") == Fraction(-1, 2)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(4, 2)) == "2"
    # plain decimals are exact; exponent notation is refused
    assert parse_rational(" 1.25 ") == Fraction(5, 4)
    for text in ("1e3", "1E-99999999", "2.5e1"):
        with pytest.raises(ValueError, match="p, p/q or a plain decimal"):
            parse_rational(text)


def test_clear_denominators():
    ints, D = clear_denominators({"a": Fraction(1, 6), "b": Fraction(-3, 4), "c": 2})
    assert (ints, D) == ({"a": 2, "b": -9, "c": 24}, 12)
    assert clear_denominators({}) == ({}, 1)
    ints, D = clear_denominators({(0,): 3, (1,): -5})
    assert D == 1 and all(type(c) is int for c in ints.values())


def test_add_term_drops_a_cancelling_key():
    row = {"a": 1}
    add_term(row, "b", Fraction(1, 2))
    add_term(row, "a", -1)
    add_term(row, "c", 0)
    assert row == {"b": Fraction(1, 2)}


def test_add_into_is_in_place_and_drops_cancelling_keys():
    row = {"a": 2, "b": 1}
    assert add_into(row, {"a": -1, "c": 3}, 2) is row
    assert row == {"b": 1, "c": 6}
    assert add_into(row, {"b": -1, "c": Fraction(1, 2)}) == {"c": Fraction(13, 2)}
    assert add_into(row, {"c": 2}, Fraction(-13, 4)) == {}
    ints = add_into({}, {"x": 3, "y": -2}, 1)
    assert ints == {"x": 3, "y": -2} and all(type(c) is int for c in ints.values())


def _geometric(t, n):
    """(x - y)^(-t) expanded in |x| > |y| up to y^n."""
    rf = RationalFunction.diff_inverse("x", "y", t)
    return rf.expand_region(("x", "y"), ((-t - n, 0), (0, n)))


def test_geometric_expansion_small_tables():
    t1 = _geometric(1, 2)
    assert t1 == LaurentPoly(("x", "y"), {(-1, 0): 1, (-2, 1): 1, (-3, 2): 1})
    t2 = _geometric(2, 1)
    assert t2 == LaurentPoly(("x", "y"), {(-2, 0): 1, (-3, 1): 2})
    assert _geometric(1, 0) == LaurentPoly(("x", "y"), {(-1, 0): 1})


def test_geometric_expansion_is_divided_derivative_of_base_expansion():
    # (x - y)^(-t) coefficientwise equals the (t-1)-th divided y-derivative
    # of the expansion of (x - y)^(-1)
    n = 12
    base = _geometric(1, n)
    for t in range(2, 6):
        derived = {}
        for (a, i), c in base.coeffs.items():
            j = i - (t - 1)
            if j >= 0:
                derived[(a, j)] = c * binom(i, t - 1)
        expected = LaurentPoly(("x", "y"), derived)
        got = _geometric(t, n - (t - 1))
        assert got == expected


def test_f_mn_values():
    one_over = RationalFunction.diff_inverse("x", "y", 1)
    assert f_mn(0, 0, "x", "y") == one_over
    assert f_mn(1, 0, "x", "y") == RationalFunction.diff_inverse("x", "y", 2, -1)
    # binom(-2, 0) = 1, pole order 2: the divided y-derivative of 1/(x-y)
    assert f_mn(0, 1, "x", "y") == RationalFunction.diff_inverse("x", "y", 2, 1)


def test_f_mn_matches_divided_derivatives_of_expansion():
    # divided x- and y-derivatives of the expanded table agree with f_mn expansion
    n = 10
    box = Box(("x", "y"), ((-12, 0), (0, 6)))
    for m in range(3):
        for k in range(3):
            table = f_mn(m, k, "x", "y").expand_region(("x", "y"), box.intervals)
            derived = {}
            for (a, i), c in _geometric(1, n).coeffs.items():
                aa, ii = a - m, i - k
                cc = c * binom(a, m) * binom(i, k)
                if cc and box.contains((aa, ii)):
                    derived[(aa, ii)] = derived.get((aa, ii), 0) + cc
            assert table == LaurentPoly(("x", "y"), derived)


def test_rf_additive_identity_and_cancellation():
    f = RationalFunction.diff_inverse("x", "y", 1)
    zero = RationalFunction.from_scalar(0)
    assert (f + zero) == f
    xy = RationalFunction(("x", "y"), {(1, 0): Fraction(1), (0, 1): Fraction(-1)})
    prod = f * xy
    assert prod == RationalFunction.from_scalar(1, ("x", "y"))
    assert not prod.den_diff and not prod.den_pow


def test_rf_reversed_difference_normalizes_sign():
    f = RationalFunction.diff_inverse("x", "y", 1)
    g = RationalFunction.diff_inverse("y", "x", 1)
    assert (f + g).is_zero()
    # odd/even powers flip/keep sign
    assert RationalFunction.diff_inverse("y", "x", 2) == RationalFunction.diff_inverse("x", "y", 2)


def test_rf_normalization_is_equality_deciding():
    f = RationalFunction.diff_inverse("x", "y", 1)
    a = f * RationalFunction(("x", "y"), {(1, 0): Fraction(1), (0, 1): Fraction(-1)})
    a = a * RationalFunction.diff_inverse("x", "y", 1)
    assert a == f
    x_over = RationalFunction(("x", "y"), {(1, 0): Fraction(1)}, {}, {("x", "y"): 1})
    y_over = RationalFunction(("x", "y"), {(0, 1): Fraction(1)}, {}, {("x", "y"): 1})
    assert x_over != y_over
    assert x_over - y_over == RationalFunction.from_scalar(1, ("x", "y"))


def test_rf_monomial_denominators():
    g = RationalFunction.monomial(("x",), {"x": -3}, 5)
    assert g.den_pow == {"x": 3}
    assert g * RationalFunction.monomial(("x",), {"x": 3}) == RationalFunction.from_scalar(5, ("x",))


def test_expand_region_base_table():
    f = RationalFunction.diff_inverse("x", "y", 1)
    table = f.expand_region(("x", "y"), ((-3, -1), (0, 2)))
    assert table == LaurentPoly(("x", "y"), {(-1, 0): 1, (-2, 1): 1, (-3, 2): 1})


def test_expand_region_constant():
    c = RationalFunction.from_scalar(5, ("x", "y"))
    table = c.expand_region(("y", "x"), ((-2, 2), (-2, 2)))
    assert table == LaurentPoly(("y", "x"), {(0, 0): 5})


def test_expand_region_chain_product():
    # 1/((z1 - z2)(z2 - z3)) in |z1| > |z2| > |z3|: the cell (a, b, c) carries
    # coefficient 1 exactly when a <= -1, c >= 0 and b = -2 - a - c.
    rf = RationalFunction.diff_inverse("z1", "z2", 1) * RationalFunction.diff_inverse("z2", "z3", 1)
    box = (( -4, -1), (-4, 4), (0, 3))
    table = rf.expand_region(("z1", "z2", "z3"), box)
    expected = {}
    for a in range(-4, 0):
        for c in range(0, 4):
            b = -2 - a - c
            if -4 <= b <= 4:
                expected[(a, b, c)] = Fraction(1)
    assert table == LaurentPoly(("z1", "z2", "z3"), expected)


def _crop(poly, box):
    """The cells of a LaurentPoly inside a box."""
    return LaurentPoly(poly.vars, {c: v for c, v in poly.coeffs.items() if box.contains(c)})


def test_expand_region_is_ring_morphism_on_window():
    f = RationalFunction.diff_inverse("x", "y", 1)
    g = RationalFunction.diff_inverse("x", "y", 2, 3)
    order = ("x", "y")
    box = ((-8, 0), (0, 4))
    sum_table = (f + g).expand_region(order, box)
    assert sum_table == f.expand_region(order, box) + g.expand_region(order, box)
    # product: inner degrees are nonnegative, so degree-<=4 cells of the
    # product only need degree-<=4 cells of the factors
    prod_table = (f * g).expand_region(order, box)
    conv = f.expand_region(order, ((-20, 0), (0, 4))) * g.expand_region(order, ((-20, 0), (0, 4)))
    assert prod_table == _crop(conv, Box(order, box))


def test_substitute_merges_variables():
    rf = RationalFunction.diff_inverse("x1", "y1", 2) * RationalFunction.diff_inverse("x2", "y1", 1)
    merged = rf.substitute({"x1": "x", "x2": "x", "y1": "y"})
    assert merged == RationalFunction.diff_inverse("x", "y", 3)
    with pytest.raises(ValueError):
        RationalFunction.diff_inverse("x", "y", 1).substitute({"y": "x"})


def test_render_shapes():
    f = RationalFunction.diff_inverse("z1", "z2", 1)
    assert f.render() == "(1) / (z1 - z2)"
    assert RationalFunction.from_scalar(0).render() == "0"


def test_box_rejects_empty_intervals():
    with pytest.raises(ValueError):
        Box(("x",), ((2, 1),))
    with pytest.raises(ValueError):
        RationalFunction.diff_inverse("x", "y", 1).expand_region(("x", "y"), ((0, -1), (0, 2)))


def test_rf_normalization_is_idempotent():
    rf = RationalFunction.diff_inverse("x", "y", 2, 3) + RationalFunction.from_scalar(5, ("x", "y"))
    again = RationalFunction(rf.vars, rf.num, rf.den_pow, rf.den_diff)
    assert again.num == rf.num
    assert again.den_pow == rf.den_pow and again.den_diff == rf.den_diff
