"""Seeded inputs, timed operations and output checks of each workload.

Round i of a workload is built from two random streams:

- `shape = Random(f"{workload}:shape")`, restarted for every round, draws
  what the cost of an op depends on: word shapes, derivative orders and
  levels, which factors can contract, the size of target states.  It is
  the same in every round and under every seed.
- `seeded = Random(f"{workload}:{seed}:{i}")` draws everything else: a
  relabelling of the generators that preserves the pairing, the rational
  coefficients of target states (the scalar c of a vacuum target c|0>),
  Gram matrices and coefficient tables whose entries are all nonzero, the
  scale a of the M = 1 pairing (e1, f1) = a, evaluation points, and the
  seeds handed to `fermifock check`.

So every timed call of `wick_oracle`, `weak_assoc` and `correlators`, and
every `fermifock check` of `cli_check`, gets seeded inputs at the same
cost in every round.  The `expand`, `expdelta` and M = 0 commands of
`cli_check` are fixed inputs and repeat unchanged.  Runs under different
seeds differ by machine noise rather than by which inputs happened to be
heavy (see bench/README.md).

An op is a `run` callable, which the worker times and which calls only
public fermifock functions, looked up on the module at call time so that
the traced run sees them, and a `check` callable, which the worker does
not time.  `check` returns (ok, nonzero comparisons).
"""
from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import fermifock as ff
from fermifock import cli
from fermifock.fock import random_word

import refs

CONFIG_DIR = "bench/configs"
DENSE = f"{CONFIG_DIR}/dense_delta.json"  # M = 1, C[m][n] nonzero for all m != n <= 3


class Op:
    __slots__ = ("kind", "run", "check", "expect_exit")

    def __init__(self, kind, run, check, expect_exit=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.expect_exit = expect_exit


# -- draws ------------------------------------------------------------------------


def draw_words(rng, space, max_weight2, nterms=2):
    """The distinct words of a criterion-2 state (its coefficients are drawn apart)."""
    words = []
    for _ in range(nterms):
        w = random_word(rng, space, max_weight2)
        if w not in words:
            words.append(w)
    return words


def coefficients(rng, words):
    return {w: Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3)) for w in words}


def nonzero_int(rng):
    return rng.choice((-1, 1)) * rng.randint(1, 30)


def word_of_length(rng, dim, r, max_order):
    return tuple((rng.randrange(dim), -rng.randint(1, max_order + 1)) for _ in range(r))


def pairing_symmetry(rng, M):
    """A relabelling of e1..eM, f1..fM that keeps (e_i, f_j) = delta_ij:
    permute the indices and swap e_i with f_i for some i."""
    perm = list(range(M))
    rng.shuffle(perm)
    flips = [rng.random() < 0.5 for _ in range(M)]
    table = []
    for g in range(2 * M):
        i, dual = (g, False) if g < M else (g - M, True)
        table.append(perm[i] + M if dual ^ flips[i] else perm[i])
    return table


def relabel(table, word):
    return tuple((table[g], level) for g, level in word)


def dense_gram(rng, M):
    """Symmetric nondegenerate Gram matrix with no zero entry."""
    dim = 2 * M
    while True:
        g = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                g[i][j] = g[j][i] = Fraction(rng.choice((-2, -1, 1, 2)))
        try:
            ff.HSpace(M, g)  # refuses a degenerate matrix
        except ValueError:
            continue
        return g


def dense_coeffs(rng, levels=4):
    """Antisymmetric C[m][n] with every off-diagonal entry on 0..levels-1 nonzero."""
    table = {}
    for m in range(levels):
        for n in range(m + 1, levels):
            v = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
            table[(m, n)], table[(n, m)] = v, -v
    return table


def polarized_gram(M, scale=1):
    """(e_i, f_j) = scale * delta_ij; a scale changes the values, not the cost."""
    dim = 2 * M
    return [[Fraction(scale) if abs(i - j) == M else Fraction(0) for j in range(dim)] for i in range(dim)]


# -- shared checks ----------------------------------------------------------------


def _grids_equal(series, closed, box):
    """Closed form against series engine on every cell of the box."""
    empty = ff.FockVector()
    nonzero = 0
    for cell in box.cells():
        a = series.coefficient(cell)
        if a != closed.get(cell, empty):
            return False, nonzero
        nonzero += bool(a)
    return True, nonzero


def nested_vacuum_grid(space, words, intervals):
    """<0| Y(w1, z1) ... Y(wn, zn) |0> cellwise, by nested y_series."""
    grid = {(): ff.FockVector.vacuum()}
    for pos in range(len(words) - 1, -1, -1):
        lo, hi = intervals[pos]
        nxt = {}
        for cell, v in grid.items():
            line = ff.y_series(space, ff.FockVector.word(words[pos]), v, lo, hi)
            for (k,), vec in line.coeffs.items():
                nxt[(k,) + cell] = vec
        grid = nxt
    return {cell: vec.terms.get((), Fraction(0)) for cell, vec in grid.items()}


def _expansion_matches(table, reference, box):
    """LaurentPoly cells against the nested-series reference on the box."""
    nonzero = 0
    for cell in box.cells():
        want = reference.get(cell, Fraction(0))
        if table[cell] != want:
            return False, nonzero
        nonzero += bool(want)
    return True, nonzero


def _exp_grid_matches(grid, reference):
    got = {e: v.terms for e, v in grid.items() if v}
    return got == reference, sum(len(row) for row in reference.values())


# -- wick_oracle --------------------------------------------------------------------

# (r, s, max derivative order, M, target: 0 vacuum, 1 word, 2 two-term state)
WICK_SLOTS = [
    (1, 1, 2, 1, 2),
    (1, 1, 2, 2, 2),
    (1, 1, 2, 1, 1),
    (1, 2, 2, 1, 1),
    (1, 2, 2, 2, 2),
    (1, 2, 1, 2, 0),
    (2, 1, 2, 2, 1),
    (2, 1, 2, 1, 2),
    (2, 1, 1, 1, 0),
    (2, 2, 1, 2, 1),
    (2, 2, 2, 1, 0),
    (3, 1, 1, 2, 0),
    (1, 3, 1, 1, 0),
    (3, 2, 0, 2, 0),
    (2, 3, 0, 1, 0),
]

WICK_BOX = ((-6, 6), (-6, 6))


def wick_oracle_round(shape, seeded):
    box = ff.Box(("x", "y"), WICK_BOX)
    spaces = {1: ff.HSpace(1), 2: ff.HSpace(2)}
    ops = []
    for r, s, max_order, M, target in WICK_SLOTS:
        space = spaces[M]
        u1 = word_of_length(shape, space.dim, r, max_order)
        u2 = word_of_length(shape, space.dim, s, max_order)
        words = [] if target == 0 else draw_words(shape, space, 4, target)
        sym = pairing_symmetry(seeded, M)
        u1, u2 = relabel(sym, u1), relabel(sym, u2)
        terms = {relabel(sym, w): c for w, c in coefficients(seeded, words).items()}
        v = ff.FockVector(terms if target else {(): nonzero_int(seeded)})
        ops.append(_wick_op(space, u1, u2, v, box))
    return ops


def _wick_op(space, u1, u2, v, box):
    order = ("x", "y")

    def run():
        a, b = ff.FockVector.word(u1), ff.FockVector.word(u2)
        return (
            ff.product_series(space, a, b, v, box),
            ff.noexpr_apply(space, ff.wick_product(space, u1, u2), v, order, box.intervals),
            ff.iterate_series(space, a, b, v, box),
            ff.noexpr_apply(space, ff.wick_iterate(space, u1, u2), v, order, box.intervals),
        )

    def check(out):
        ok1, n1 = _grids_equal(out[0], out[1], box)
        ok2, n2 = _grids_equal(out[2], out[3], box)
        return ok1 and ok2, n1 + n2

    return Op(f"wick_r{len(u1)}_s{len(u2)}", run, check)


# -- weak_assoc ---------------------------------------------------------------------

# (len(u1), len(u2), lowest pole order, highest pole order, count per round)
WEAK_SLOTS = [
    (1, 0, 0, 9, 3),
    (1, 1, 0, 9, 3),
    (1, 2, 0, 9, 3),
    (2, 0, 0, 9, 3),
    (2, 1, 0, 9, 3),
    (2, 1, 7, 9, 1),
    (2, 2, 0, 6, 3),
    (2, 2, 7, 9, 2),
    (3, 0, 0, 9, 2),
    (3, 1, 0, 9, 2),
]

WEAK_BOX = ((-4, 4), (-4, 4))


def _wt2_max(words):
    return max((sum(-2 * l - 1 for _, l in w) for w in words), default=0)


def pole_order(u1, w_words):
    msum = sum(-l - 1 for _, l in u1)
    return (_wt2_max(w_words) + 2 * msum + 2 * len(u1)) // 2


def weak_assoc_round(shape, seeded, stats):
    """Criterion-2 triples (weight <= 3, M = 2), kept when they fit a slot."""
    space = ff.HSpace(2)
    box = ff.Box(("x0", "x2"), WEAK_BOX)
    ops = []
    for r, s, p_lo, p_hi, count in WEAK_SLOTS:
        for _ in range(count):
            while True:
                u1 = random_word(shape, space, 6)
                u2 = random_word(shape, space, 6)
                words = draw_words(shape, space, 6)
                if len(u1) == r and len(u2) == s and p_lo <= pole_order(u1, words) <= p_hi:
                    break
            sym = pairing_symmetry(seeded, 2)
            w = {relabel(sym, x): c for x, c in coefficients(seeded, words).items()}
            ops.append(_weak_op(space, relabel(sym, u1), relabel(sym, u2), ff.FockVector(w), box, stats))
    return ops


def _weak_op(space, u1, u2, w, box, stats):
    def run():
        return ff.check_weak_associativity(space, u1, ff.FockVector.word(u2), w, box)

    def check(report):
        status = report["status"]
        if status == "inconclusive":
            stats["inconclusive"] = stats.get("inconclusive", 0) + 1
        return status in ("pass", "inconclusive"), int(status == "pass")

    return Op(f"weak_r{len(u1)}_s{len(u2)}_P{pole_order(u1, w.terms)}", run, check)


# -- correlators --------------------------------------------------------------------

EXPAND_BOX = ((-6, 2),) * 4
NAMES = tuple(f"z{i + 1}" for i in range(8))


def correlators_round(shape, seeded):
    ops = []
    gram = dense_gram(seeded, 2)
    full = ff.HSpace(2, gram)
    coeffs = dense_coeffs(seeded)
    dcoeffs = ff.DeltaCoeffs({k: v for k, v in coeffs.items() if k[0] < k[1]})
    # M = 1 with (e1, f1) = a for a seeded a != 0, single-mode insertions
    # alternating e1/f1 (or f1/e1), so every e/f pair contracts.
    # (insertions, highest derivative order, count): 8 points at order 0
    # already give 576 numerator terms, order 2 there runs for minutes.
    for n, max_order, count in ((8, 0, 1), (6, 1, 4), (4, 2, 6)):
        for _ in range(count):
            first = seeded.randrange(2)
            words = [(((first + i) % 2, -shape.randint(1, max_order + 1)),) for i in range(n)]
            g1 = polarized_gram(1, nonzero_int(seeded))
            ops.append(_correlation_op(seeded, ff.HSpace(1, g1), g1, words))
    # full Gram matrix with no zero entry: every pair of factors contracts
    for lengths in ((1, 1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 1, 2, 1)):
        words = [tuple((seeded.randrange(4), -shape.randint(1, 2)) for _ in range(k)) for k in lengths]
        ops.append(_correlation_op(seeded, full, gram, words))
    # regional expansion of dense 4-point functions on M = 1, scaled as above
    for _ in range(4):
        first = seeded.randrange(2)
        words = [(((first + i) % 2, -shape.randint(1, 3)),) for i in range(4)]
        ops.append(_expand_op(ff.HSpace(1, polarized_gram(1, nonzero_int(seeded))), words))
    # contraction numbers and the closed exponential on dense brackets
    for size in (8, 10, 10, 12):
        gens = [seeded.randrange(4) for _ in range(size)]
        levels = [shape.randint(0, 3) for _ in range(size)]
        ops.append(_t_number_op(full, gram, coeffs, dcoeffs, gens, levels))
    for size in (8, 10):
        word = tuple((seeded.randrange(4), -shape.randint(1, 4)) for _ in range(size))
        ops.append(_exp_delta_op(full, gram, coeffs, dcoeffs, word))
    return ops


def _correlation_op(seeded, space, gram, words):
    insertions = [(w, NAMES[i]) for i, w in enumerate(words)]
    # two distinct rational points per op
    points = []
    for _ in range(2):
        values = seeded.sample(range(1, 60), len(words))
        points.append({NAMES[i]: Fraction(v, seeded.randint(1, 5)) + 60 * i for i, v in enumerate(values)})

    def run():
        return ff.correlation(space, insertions)

    def check(rf):
        nonzero = 0
        for pt in points:
            want = refs.correlation_at(gram, insertions, pt)
            if refs.eval_rational(rf, pt) != want:
                return False, nonzero
            nonzero += bool(want)
        return True, nonzero

    return Op(f"correlation_{len(words)}pt_{sum(map(len, words))}f", run, check)


def _expand_op(space, words):
    insertions = [(w, NAMES[i]) for i, w in enumerate(words)]
    order = NAMES[:4]
    box = ff.Box(order, EXPAND_BOX)

    def run():
        return ff.correlation(space, insertions).expand_region(order, EXPAND_BOX)

    def check(table):
        return _expansion_matches(table, nested_vacuum_grid(space, words, EXPAND_BOX), box)

    return Op("expand_4pt", run, check)


def _t_number_op(space, gram, coeffs, dcoeffs, gens, levels):
    idx = tuple(range(len(gens)))

    def run():
        return ff.t_number(space, dcoeffs, gens, levels, idx)

    def check(value):
        want = refs.pfaffian(refs.bracket_matrix(gram, coeffs, gens, levels))
        return value == want, int(bool(want))

    return Op(f"t_number_{len(gens)}", run, check)


def _exp_delta_op(space, gram, coeffs, dcoeffs, word):
    def run():
        return ff.exp_delta(space, dcoeffs, ff.FockVector.word(word))

    def check(grid):
        return _exp_grid_matches(grid, refs.exp_delta_ref(gram, coeffs, {word: Fraction(1)}))

    return Op(f"exp_delta_{len(word)}", run, check)


# -- cli_check ----------------------------------------------------------------------

# fixed inputs on M = 1 (config DENSE); a word's mirror swaps e1 <-> f1 and
# costs exactly the same
EXPAND_SMALL = ([((0, -1),), ((1, -1),)], ((-3, 1),) * 2)
EXPAND_MID = ([((0, -1),), ((1, -2),), ((0, -3),), ((1, -1),)], ((-6, 2),) * 4)
EXPAND_BIG = ([((0, -1),), ((1, -2),), ((0, -3),), ((1, -1),)], ((-8, 3),) * 4)
EXPDELTA_8 = ((0, -1), (1, -2), (0, -3), (1, -4), (0, -2), (1, -1), (0, -4), (1, -3))
EXPDELTA_9 = EXPDELTA_8 + ((0, -2),)
EXPDELTA_10 = EXPDELTA_9 + ((1, -3),)
MIRROR = (1, 0)


def call_cli(argv):
    """One in-process `fermifock` command: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _records(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _state_text(word):
    return " ".join(f"{'ef'[g]}1({2 * level + 1}/2)" for g, level in word) + " |0>"


class CliReferences:
    """References for the fixed-input commands, computed once per process."""

    def __init__(self):
        self._expand = {}
        self._expdelta = {}

    def expand(self, words, window):
        key = (tuple(words), window)
        if key not in self._expand:
            grid = nested_vacuum_grid(ff.HSpace(1), words, window)
            self._expand[key] = {cell: v for cell, v in grid.items() if v}
        return self._expand[key]

    def expdelta(self, word):
        if word not in self._expdelta:
            with open(DENSE, encoding="utf-8") as fh:
                raw = json.load(fh)
            coeffs = {}
            for m, n, val in raw["delta_coeffs"]:
                coeffs[(m, n)], coeffs[(n, m)] = Fraction(val), -Fraction(val)
            gram = polarized_gram(raw["M"])
            self._expdelta[word] = refs.exp_delta_ref(gram, coeffs, {word: Fraction(1)})
        return self._expdelta[word]


def cli_check_round(shape, seeded, references):
    """Fifteen commands, ordered here by their usual cost.

    Seven are cheap: the three M = 0 refusals, pbw, delta and the small
    expand pair.  The 8-mode expdelta is the eighth, so the median op is a
    fixed input; the 10-mode expdelta is second from the top, so the 90th
    percentile falls inside a fixed input as well.
    """
    seeds = [seeded.randrange(1 << 30) for _ in range(4)]
    small_words, small_window = EXPAND_SMALL
    ops = []
    # M = 0 is accepted as a config; these three should refuse it with exit 2
    for suite in ("wick", "delta", "pbw"):
        argv = ["--config", f"{CONFIG_DIR}/m0.json", "--json", "check", "--suite", suite]
        ops.append(Op(f"check_{suite}_M0", lambda argv=argv: call_cli(argv), None, expect_exit=2))
    ops += [
        _suite_op(["check", "--suite", "pbw", "--seed", str(seeds[0])]),
        _suite_op(["check", "--suite", "delta", "--seed", str(seeds[1])]),
        _expand_cli_op(references, small_words, small_window),
        _expand_cli_op(references, [relabel(MIRROR, w) for w in small_words], small_window),
        _expdelta_cli_op(references, EXPDELTA_8),
        _suite_op(["check", "--suite", "axioms", "--seed", str(seeds[2]), "--max-weight", "1"]),
        _suite_op(["check", "--suite", "wick", "--seed", str(seeds[3]), "--r", "2", "--s", "1",
                   "--max-weight", "1", "--window=-3,3"]),
        _expand_cli_op(references, *EXPAND_MID),
        _expdelta_cli_op(references, EXPDELTA_9),
        _expdelta_cli_op(references, relabel(MIRROR, EXPDELTA_9)),
        _expdelta_cli_op(references, EXPDELTA_10),
        _expand_cli_op(references, *EXPAND_BIG),
    ]
    return ops


def _suite_op(args):
    argv = ["--json"] + args

    def check(out):
        code, text = out
        statuses = [r["status"] for r in _records(text)]
        ok = code == 0 and "pass" in statuses and set(statuses) <= {"pass", "inconclusive"}
        return ok, statuses.count("pass")

    return Op(f"check_{args[2]}", lambda: call_cli(argv), check)


def _expand_cli_op(references, words, window):
    names = [f"z{i + 1}" for i in range(len(words))]
    argv = ["--config", DENSE, "--json", "expand"]
    argv += [f"{_state_text(w)} @ {name}" for w, name in zip(words, names)]
    argv += ["--order=" + ",".join(names), "--window=" + ",".join(f"{lo},{hi}" for lo, hi in window)]

    def check(out):
        code, text = out
        got = {tuple(r["cell"]): Fraction(r["value"]) for r in _records(text)}
        want = references.expand(words, window)
        return code == 0 and got == want, len(want)

    return Op(f"expand_cli_{len(words)}pt_{window[0][1] - window[0][0] + 1}", lambda: call_cli(argv), check)


def _expdelta_cli_op(references, word):
    argv = ["--config", DENSE, "--json", "expdelta", _state_text(word)]

    def check(out):
        code, text = out
        records = _records(text)
        space = ff.HSpace(1)
        got = {r["exponent"]: cli.parse_state(space, r["state"]).terms for r in records[:-1]}
        want = references.expdelta(word)
        agree = records[-1] == {"closed_matches_iterative": True}
        return code == 0 and agree and got == want, sum(len(row) for row in want.values())

    return Op(f"expdelta_cli_{len(word)}", lambda: call_cli(argv), check)


def make_round_factory(workload, stats):
    """A function (shape rng, seeded rng) -> list of ops for the named workload."""
    if workload == "wick_oracle":
        return wick_oracle_round
    if workload == "weak_assoc":
        return lambda shape, seeded: weak_assoc_round(shape, seeded, stats)
    if workload == "correlators":
        return correlators_round
    if workload == "cli_check":
        references = CliReferences()
        return lambda shape, seeded: cli_check_round(shape, seeded, references)
    raise ValueError(f"unknown workload {workload!r}")
