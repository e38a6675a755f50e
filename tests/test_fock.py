import random
from fractions import Fraction
from itertools import permutations

import pytest

from fermifock import vertex, wick
from fermifock.fock import (
    CODE_GENS,
    CODE_LEVELS,
    VACUUM,
    FockVector,
    HSpace,
    apply_mode,
    apply_modes,
    code_letters,
    code_weight2,
    d_op,
    decode,
    encode,
    grading_op,
    int_terms,
    letter,
    parity,
    random_state,
    random_word,
    theta,
    weight,
    weight2,
    wrap_table,
)
from fermifock.laurent import Box
from fermifock.pfaffian import det

SPACE = HSpace(2)
E1, E2, F1, F2 = 0, 1, 2, 3


def test_pairing_polarized_defaults():
    assert SPACE.pair(E1, F1) == 1
    assert SPACE.pair(E1, E2) == 0
    assert SPACE.pair(F1, F2) == 0
    rng = random.Random(7)
    for _ in range(20):
        a, b = rng.randrange(4), rng.randrange(4)
        assert SPACE.pair(a, b) == SPACE.pair(b, a)


def test_pairing_index_errors_and_bad_gram():
    with pytest.raises(IndexError):
        SPACE.pair(0, 4)
    with pytest.raises(ValueError):
        HSpace(1, [[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(ValueError):
        HSpace(1, [[0, 0], [0, 0]])  # degenerate
    # a a^T + b b^T - c c^T for a, b, c = (1, 1, 1, 2), (1, -1, 2, 0), (2, 1, 1, 3):
    # rank 3, no zero entry
    with pytest.raises(ValueError, match="nondegenerate"):
        HSpace(2, [[-2, -2, 1, -4], [-2, 1, -2, -1], [1, -2, 4, -1], [-4, -1, -1, -5]])


def test_det_exact_on_int_and_rational_matrices():
    """Elimination divides by pivots; on int input every division must stay
    a Fraction, and the value must equal the permutation expansion."""

    def expansion(m):
        total = Fraction(0)
        for perm in permutations(range(len(m))):
            inv = sum(perm[i] > perm[j] for i in range(len(m)) for j in range(i + 1, len(m)))
            term = Fraction((-1) ** inv)
            for i, j in enumerate(perm):
                term *= m[i][j]
            total += term
        return total

    rng = random.Random(19)
    int_entries = [0, 0, 1, -1, 2, 3, -5]
    rational_entries = [0, Fraction(1, 2), Fraction(-2, 3), 1, Fraction(5, 7)]
    for _ in range(30):
        for pool in (int_entries, rational_entries):
            for n in range(1, 5):
                m = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
                got = det(m)
                assert type(got) is Fraction and got == expansion(m), m
    # int pivots that do not divide the entries below them, and a row swap
    got = det([[0, 2, 1], [3, 1, 1], [2, 1, 4]])
    assert type(got) is Fraction and got == -19


def test_custom_gram_and_empty_space():
    sp = HSpace(1, [[2, 1], [1, 0]])
    assert sp.pair(0, 0) == 2
    empty = HSpace(0)
    assert empty.dim == 0


def test_weights_and_parity():
    assert weight(VACUUM) == 0
    assert weight(((E1, -1),)) == Fraction(1, 2)
    assert weight(((E1, -2), (F1, -1))) == 2  # 3/2 + 1/2
    assert weight2(((E1, -2), (F1, -1))) == 4
    assert parity(VACUUM) == 0
    assert parity(((E1, -1),)) == 1


def test_apply_mode_contraction():
    v = FockVector.word(((F1, -1),))
    out = apply_mode(SPACE, (E1, 0), v)
    assert out == FockVector.vacuum()


def test_apply_mode_annihilates_vacuum():
    assert apply_mode(SPACE, (E1, 0), FockVector.vacuum()) == FockVector()


def test_apply_mode_creation_is_unreduced():
    v = FockVector.word(((E1, -1),))
    out = apply_mode(SPACE, (E1, -1), v)
    assert out == FockVector.word(((E1, -1), (E1, -1)))


def test_apply_mode_cancelling_contractions():
    # two equal odd modes: the two contraction routes cancel
    v = FockVector.word(((F1, -1), (F1, -1)))
    assert apply_mode(SPACE, (E1, 0), v) == FockVector()


def test_apply_modes_identity_and_pairing():
    v = random_state(random.Random(3), SPACE, 4)
    assert apply_modes(SPACE, [], v) == v
    for a in range(4):
        for b in range(4):
            got = apply_modes(SPACE, [(a, 0), (b, -1)], FockVector.vacuum())
            assert got == FockVector.vacuum(SPACE.pair(a, b))


def test_apply_modes_matches_single_step_fold():
    rng = random.Random(11)
    for _ in range(25):
        v = random_state(rng, SPACE, 5)
        modes = []
        for _ in range(rng.randint(1, 4)):
            modes.append((rng.randrange(4), rng.randint(-3, 2)))
        folded = v
        for m in reversed(modes):
            folded = apply_mode(SPACE, m, folded)
        assert apply_modes(SPACE, modes, v) == folded


def test_positive_modes_anticommute():
    rng = random.Random(5)
    for _ in range(40):
        v = random_state(rng, SPACE, 8)
        a, b = rng.randrange(4), rng.randrange(4)
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        lhs = apply_modes(SPACE, [(a, m), (b, n)], v) + apply_modes(SPACE, [(b, n), (a, m)], v)
        assert lhs == FockVector()


def test_mixed_anticommutator_is_pairing_scalar():
    rng = random.Random(6)
    for _ in range(40):
        v = random_state(rng, SPACE, 6)
        a, b = rng.randrange(4), rng.randrange(4)
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        lhs = apply_modes(SPACE, [(a, m), (b, -n - 1)], v) + apply_modes(
            SPACE, [(b, -n - 1), (a, m)], v
        )
        expected = v.scale(SPACE.pair(a, b)) if m == n else FockVector()
        assert lhs == expected


def test_weight_shift_of_modes():
    rng = random.Random(9)
    for _ in range(30):
        word = random_word(rng, SPACE, 6)
        v = FockVector.word(word)
        n = rng.randint(-3, 3)
        out = apply_mode(SPACE, (rng.randrange(4), n), v)
        for w in out.terms:
            assert weight2(w) == weight2(word) + (-2 * n - 1)


def test_theta_involution_and_sign_rule():
    assert theta(FockVector.vacuum()) == FockVector.vacuum()
    v1 = FockVector.word(((E1, -1),))
    assert theta(v1) == v1.scale(-1)
    rng = random.Random(2)
    for _ in range(20):
        v = random_state(rng, SPACE, 6, nterms=3)
        assert theta(theta(v)) == v


def test_theta_anticommutes_with_single_modes():
    rng = random.Random(4)
    for _ in range(30):
        v = random_state(rng, SPACE, 6)
        mode = (rng.randrange(4), rng.randint(-3, 2))
        assert theta(apply_mode(SPACE, mode, v)) == apply_mode(SPACE, mode, theta(v)).scale(-1)


def test_d_op_examples():
    assert d_op(FockVector.vacuum()) == FockVector()
    assert d_op(FockVector.word(((E1, -1),))) == FockVector.word(((E1, -2),))
    two = FockVector.word(((E1, -1), (F1, -1)))
    assert d_op(two) == FockVector.word(((E1, -2), (F1, -1))) + FockVector.word(
        ((E1, -1), (F1, -2))
    )


def test_d_commutator_with_modes():
    # [D, h(m+1/2)] = -m h(m-1/2) as operators
    rng = random.Random(8)
    for _ in range(40):
        v = random_state(rng, SPACE, 6)
        g = rng.randrange(4)
        m = rng.randint(-3, 3)
        lhs = d_op(apply_mode(SPACE, (g, m), v)) - apply_mode(SPACE, (g, m), d_op(v))
        rhs = apply_mode(SPACE, (g, m - 1), v).scale(-m)
        assert lhs == rhs


def test_grading_op():
    assert grading_op(FockVector.vacuum()) == FockVector()
    v = FockVector.word(((E1, -1),))
    assert grading_op(v) == v.scale(Fraction(1, 2))
    a = FockVector.word(((E1, -2),), 3)
    b = FockVector.word(((F1, -1),), Fraction(1, 2))
    assert grading_op(a + b) == a.scale(Fraction(3, 2)) + b.scale(Fraction(1, 2))


def test_canonical_term_order():
    v = FockVector(
        {
            ((E2, -1), (E1, -1)): Fraction(1),
            ((E1, -1),): Fraction(1),
            ((E1, -2),): Fraction(1),
        }
    )
    words = [w for w, _ in v.items()]
    assert words == [((E1, -2),), ((E1, -1),), ((E2, -1), (E1, -1))]


def test_empty_space_collapses_to_vacuum_multiples():
    empty = HSpace(0)
    v = FockVector.vacuum(Fraction(3, 2))
    assert apply_modes(empty, [], v) == v
    assert set(random_state(random.Random(0), empty, 4).terms) == {()}
    assert grading_op(v) == FockVector()


def test_word_code_round_trip_and_limits():
    """A word is one character per letter inside the int tables; the code
    holds generators below 64 and levels n = -level - 1 below 17,407."""
    last = (CODE_GENS - 1, -CODE_LEVELS)  # gen 63, n = 17,406
    words = [VACUUM, ((E1, -1),), ((F2, -3), (E1, -1), (F2, -3)), (last,), ((0, -1), last, (5, -200))]
    for word in words:
        code = encode(word)
        assert isinstance(code, str) and len(code) == len(word)
        assert decode(code) == word
        assert code_weight2(code) == weight2(word)
    assert encode(((E1, -1), (E2, -1))) != encode(((E2, -1), (E1, -1)))
    assert code_letters(encode(((F2, -3), last))) == [(F2, 2), (CODE_GENS - 1, CODE_LEVELS - 1)]  # as letter(gen, n)
    assert letter(CODE_GENS - 1, CODE_LEVELS - 1) == encode((last,)) == chr(0x10FFC0)  # n = 17,407 would pass 0x10FFFF
    with pytest.raises(ValueError, match="limit of 64 generators"):
        encode(((CODE_GENS, -1),))
    with pytest.raises(ValueError, match="must be below 17407"):
        encode(((0, -CODE_LEVELS - 1),))
    with pytest.raises(ValueError, match="not a creation level"):
        encode(((0, 0),))
    # the engines raise the same error when a window asks for such a letter
    with pytest.raises(ValueError, match="must be below 17407"):
        vertex.y_series(SPACE, FockVector.word(((E1, -1),)), FockVector.vacuum(), CODE_LEVELS, CODE_LEVELS)


def test_lazy_vectors_compare_exactly():
    """Lazy vectors compare their rows: directly over one denominator, by
    cross-multiplying over two; against an eager vector through `terms`."""
    row = {encode(((E1, -1),)): 3, encode(((F1, -2), (E2, -1))): -4}
    half = FockVector._lazy(row, 2)
    assert half == FockVector._lazy({w: 2 * c for w, c in row.items()}, 4)
    assert half == FockVector._lazy(dict(row), 2)
    assert half != FockVector._lazy({w: 2 * c for w, c in row.items()}, 2)
    assert half != FockVector._lazy({encode(((E1, -1),)): 6}, 4)  # a word fewer
    assert half != FockVector._lazy({encode(((E1, -1),)): 6, encode(((F1, -2),)): -8}, 4)  # another word
    eager = FockVector({((E1, -1),): Fraction(3, 2), ((F1, -2), (E2, -1)): -2})
    assert eager == FockVector._lazy(row, 2) and FockVector._lazy(row, 2) == eager
    assert eager != FockVector._lazy(row, 3)
    empty = FockVector._lazy({}, 5)
    assert not empty and empty == FockVector() and FockVector() == empty
    assert half != FockVector() and FockVector() != half and empty != half
    # terms are built once, as tuple words and Fractions, and left alone after
    lazy = FockVector._lazy(row, 2)
    assert lazy.terms == {((E1, -1),): Fraction(3, 2), ((F1, -2), (E2, -1)): Fraction(-2)}
    assert lazy.terms is lazy.terms
    assert all(type(c) is Fraction for c in lazy.terms.values())
    # the row stays the value: an edit of the built terms raises, not diverges
    with pytest.raises(TypeError):
        lazy.terms[((E1, -1),)] = Fraction(7)
    assert lazy == eager and int_terms(lazy) == (row, 2)
    assert lazy.render(SPACE) == eager.render(SPACE) and lazy.items() == eager.items()
    # a route takes a lazy vector's own row; an eager one is encoded over its lcm
    assert int_terms(lazy) == (row, 2)
    assert int_terms(eager) == (row, 2)
    assert int_terms(FockVector()) == ({}, 1)


def _eager_wrap(table, D):
    """The eager wrap of an int table: tuple words, Fraction values, empty
    rows left out."""
    return {
        cell: {decode(code): Fraction(c, D) for code, c in row.items()}
        for cell, row in table.items()
        if row
    }


def test_lazy_grids_materialize_as_the_eager_wrap(monkeypatch):
    """`terms` of every cell of seeded product_series, iterate_series and
    noexpr_apply grids equals the eager wrap of the same int table: tuple
    words of creation modes and nonzero Fractions."""
    wrapped = []

    def spy(table, D):
        out = wrap_table(table, D)
        wrapped.append((_eager_wrap(table, D), out))
        return out

    monkeypatch.setattr(vertex, "wrap_table", spy)
    monkeypatch.setattr(wick, "wrap_table", spy)
    rng = random.Random(4242)
    box = Box(("x", "y"), ((-3, 3), (-3, 3)))
    cells = 0
    for _ in range(6):
        u1, u2 = random_word(rng, SPACE, 4), random_word(rng, SPACE, 4)
        v = random_state(rng, SPACE, 4, 3)
        for route in (vertex.product_series, vertex.iterate_series):
            route(SPACE, FockVector.word(u1), FockVector.word(u2), v, box)
        for closed in (wick.wick_product, wick.wick_iterate):
            wick.noexpr_apply(SPACE, closed(SPACE, u1, u2), v, ("x", "y"), box.intervals)
    assert len(wrapped) == 6 * 4
    for eager, lazy in wrapped:
        assert eager.keys() == lazy.keys()
        for cell, terms in eager.items():
            got = lazy[cell].terms
            assert got == terms and all(c and type(c) is Fraction for c in got.values())
            assert all(isinstance(w, tuple) and all(level < 0 for _, level in w) for w in got)
            cells += 1
    assert cells > 100
