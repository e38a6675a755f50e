"""Command-line front end: algebra configs, verification suites,
correlation functions, regional expansions, and the exponential operator.

Machine-readable JSON lines go to stdout; a short human summary goes to
stderr.  Exit codes: 0 all checks pass, 1 an identity failed, 2 bad
usage, config, or state expression.
"""
from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction
from functools import cache
from typing import List, Sequence, Tuple

from .delta import (
    DeltaCoeffs,
    check_contraction_numbers,
    check_exp_delta_neg_comm,
    check_exp_delta_routes,
    exp_delta,
    exp_delta_iterated,
)
from .fock import CODE_LEVELS, FockVector, HSpace, Word, encode, random_state, random_word
from .laurent import Box, LaurentPoly
from .scalars import format_rational, parse_rational
from .straightening import K, check_confluence, defect
from .vertex import check_axioms, check_weak_associativity
from .wick import check_closed_forms, correlation, correlation_terms


class UsageError(Exception):
    pass


# -- config ------------------------------------------------------------------


def load_config(path: str | None) -> Tuple[HSpace, DeltaCoeffs]:
    if path is None:
        return HSpace(2), DeltaCoeffs.default()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read config: {e}")
    if not isinstance(raw, dict):
        raise UsageError("bad config: the top level must be a JSON object")
    try:
        M = _json_int(raw["M"], "M")
        if M > 32:  # the Gram matrix is 2M x 2M Fractions, built before any check
            raise UsageError(f"config M = {M} is above the limit 32")
        gram = raw.get("gram")
        if gram is not None:
            gram = [[parse_rational(str(x)) for x in row] for row in gram]
        space = HSpace(M, gram)
        triples = [
            (_json_int(m, "level"), _json_int(n, "level"), parse_rational(str(val)))
            for m, n, val in raw.get("delta_coeffs", [[0, 1, "1"]])
        ]
        coeffs = DeltaCoeffs.from_list(triples)
    except (KeyError, ValueError, TypeError) as e:
        raise UsageError(f"bad config: {e}")
    return space, coeffs


def _json_int(value, what: str) -> int:
    """A JSON integer: bools and floats are refused, not truncated."""
    if type(value) is not int:
        raise UsageError(f"bad config: {what} must be an integer, not {json.dumps(value)}")
    return value


# -- state expressions ---------------------------------------------------------

def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as e:
        raise UsageError(str(e))


_TOKEN = re.compile(r"\|0>|[ef]\d+|-?\d+/\d+|-?\d+|[()*+]")


def parse_state(space: HSpace, text: str) -> FockVector:
    """Parse a sum of `coeff * gen(-m-1/2) ... |0>` terms."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens).replace("|0>", "") != re.sub(r"\s+", "", text).replace("|0>", ""):
        raise UsageError(f"cannot tokenize state expression {text!r}")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    out = FockVector()
    while peek() is not None:
        if peek() == "+":
            take()
        coeff = Fraction(1)
        tok = peek()
        if tok is not None and re.fullmatch(r"-?\d+(/\d+)?", tok):
            coeff = _rational(take())
            if peek() == "*":
                take()
        modes: List[Tuple[int, int]] = []
        while peek() is not None and re.fullmatch(r"[ef]\d+", peek()):
            name = take()
            try:
                gen = space.parse_gen(name)
            except ValueError as e:
                raise UsageError(str(e))
            if take() != "(":
                raise UsageError(f"expected '(' after {name}")
            num = take()
            if num is None or not re.fullmatch(r"-?\d+/\d+|-?\d+", num):
                raise UsageError(f"bad mode level after {name}")
            level_frac = _rational(num)
            if take() != ")":
                raise UsageError("expected ')' after mode level")
            n = level_frac - Fraction(1, 2)
            if n.denominator != 1 or n >= 0:
                raise UsageError(f"mode level {num} is not a negative half-odd integer")
            modes.append((gen, int(n)))
        if take() != "|0>":
            raise UsageError("every term must end with |0>")
        out = out + FockVector.word(tuple(modes), coeff)
    if pos != len(tokens):
        raise UsageError("trailing tokens in state expression")
    return out


def parse_insertion(space: HSpace, text: str) -> Tuple[Word, Fraction, str]:
    """Parse 'STATE @ var' where STATE is a single scaled word or zero;
    zero gives the empty word with coefficient 0."""
    if "@" not in text:
        raise UsageError(f"insertion {text!r} needs the form 'STATE @ var'")
    state_text, var = text.rsplit("@", 1)
    var = var.strip()
    if not re.fullmatch(r"[A-Za-z]\w*", var):
        raise UsageError(f"bad variable name {var!r}")
    vec = parse_state(space, state_text.strip())
    if len(vec.terms) > 1:
        raise UsageError("each insertion must be a single word")
    word, coeff = next(iter(vec.terms.items()), ((), Fraction(0)))
    return word, coeff, var


def _parse_insertions(space: HSpace, texts: Sequence[str]):
    """The (word, var) insertions and the product of their coefficients."""
    insertions, scale = [], Fraction(1)
    for text in texts:
        word, coeff, var = parse_insertion(space, text)
        scale *= coeff
        insertions.append((word, var))
    names = [v for _, v in insertions]
    if len(set(names)) != len(names):
        raise UsageError("insertion variables must be distinct")
    return insertions, scale


def _parse_window(text: str, count: int) -> Tuple[Tuple[int, int], ...]:
    try:
        nums = [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"bad window {text!r}")
    if len(nums) != 2 * count:
        raise UsageError(f"window needs {2 * count} integers")
    pairs = tuple((nums[2 * i], nums[2 * i + 1]) for i in range(count))
    for lo, hi in pairs:
        if lo > hi:
            raise UsageError(f"empty window interval [{lo}, {hi}]")
    return pairs


# -- reporting -----------------------------------------------------------------


class Reporter:
    """Prints check reports as JSON records and counts their statuses;
    `inconclusive` (nothing nonzero compared) is neither a pass nor a failure."""

    def __init__(self, json_only: bool):
        self.json_only = json_only
        self.counts = {"pass": 0, "inconclusive": 0, "fail": 0}

    def emit(self, suite: str, report: dict, identity: str | None = None):
        record = {
            "suite": suite,
            "identity": identity or report["identity"],
            "status": report["status"],
            "compared": report["compared"],
            "nonzero": report["nonzero"],
            "counterexample": report["mismatches"][:1],
        }
        print(json.dumps(record, sort_keys=True))
        self.counts[report["status"]] += 1

    def summary(self):
        c = self.counts
        if not self.json_only:
            print(
                f"{c['pass']} identities passed, {c['inconclusive']} inconclusive, {c['fail']} failed",
                file=sys.stderr,
            )
        return 1 if c["fail"] else 0


# -- suites: seeded sampling, one library check per report ---------------------


def _suite_axioms(rep, space, rng, max_weight2, window):
    samples = [random_state(rng, space, max_weight2) for _ in range(8)]
    lo, hi = window[0]
    for report in check_axioms(space, samples, lo, hi):
        rep.emit("axioms", report)


def _word_with_length(rng, space, r, max_m=2):
    return tuple((rng.randrange(space.dim), -rng.randint(1, max_m + 1)) for _ in range(r))


def _suite_wick(rep, space, rng, max_weight2, window, rmax, smax):
    box = Box(("x", "y"), window)
    for r in range(rmax + 1):
        for s in range(smax + 1):
            u1 = _word_with_length(rng, space, r)
            u2 = _word_with_length(rng, space, s)
            v = random_state(rng, space, max_weight2)
            for report in check_closed_forms(space, u1, u2, v, box):
                rep.emit("wick", report, f"{report['identity']}_r{r}_s{s}")
    for trial in range(3):
        u1 = random_word(rng, space, max_weight2)
        u2 = FockVector.word(random_word(rng, space, max_weight2))
        w = random_state(rng, space, max_weight2)
        report = check_weak_associativity(space, u1, u2, w, Box(("x0", "x2"), window))
        rep.emit("wick", report, f"weak_associativity_{trial}")


def _couples(rng, space, keys, count):
    """`count` couples of (generator, level) slots, each couple with a
    nonzero pairing and the levels of a nonzero coefficient C_mn."""
    slots = []
    for _ in range(count):
        g = rng.randrange(space.dim)
        h = rng.choice([k for k in range(space.dim) if space.pair(g, k)])
        m, n = rng.choice(keys)
        slots += [(g, m), (h, n)]
    return slots


def _suite_delta(rep, space, coeffs, rng, window):
    # slots are drawn as couples (an empty table draws the default's levels),
    # so that no check compares only zeros: 8 slots as 4 couples at
    # shuffled positions, index sets the first 1..4 couples; then 3 words of
    # 1-2 couples each, whose exponentials delete at least one pair; then 3
    # one-couple commutator samples.  The series generator is h of the first
    # couple (g, b), (h, n), with m <= n: its contraction with g lands at the
    # cell (n - m, -b - n - 1), inside the default window when b + n <= 5,
    # and no other term of that sample reaches it
    keys = sorted(coeffs.entries) or [(0, 1)]
    couples = _couples(rng, space, keys, 4)
    order = rng.sample(range(8), 8)
    gens, levels = zip(*(slot for _, slot in sorted(zip(order, couples))))
    index_sets = [tuple(sorted(order[: 2 * k])) for k in range(1, 5)]
    rep.emit("delta", check_contraction_numbers(space, coeffs, gens, levels, index_sets))
    words = []
    for _ in range(3):
        slots = _couples(rng, space, keys, rng.randint(1, 2))
        rng.shuffle(slots)
        words.append(FockVector.word(tuple((g, -m - 1) for g, m in slots)))
    rep.emit("delta", check_exp_delta_routes(space, coeffs, words))
    slots = _couples(rng, space, keys, 3)
    pairs = zip(slots[::2], slots[1::2])
    samples = [FockVector.word(((g, -b - 1), (h, -n - 1))) for (g, b), (h, n) in pairs]
    gen, n = slots[1]
    m = rng.randint(0, min(1, n))
    report = check_exp_delta_neg_comm(space, coeffs, gen, m, samples, window)
    rep.emit("delta", report, "exp_negative_commutator")


def _suite_pbw(rep, space, rng, trials=60):
    cases = []
    for _ in range(trials):
        while True:
            n = rng.randint(2, 6)
            entries = []
            for _ in range(n):
                if rng.random() < 0.15:
                    entries.append(K)
                else:
                    entries.append((rng.randrange(space.dim), rng.randint(-3, 2)))
            word = tuple(entries)
            if 0 < defect(word) <= 4:
                break
        cases.append((word, rng.randrange(1 << 30), rng.randrange(1 << 30)))
    rep.emit("pbw", check_confluence(space, cases))


# a check creates modes h(-n-1/2) with n up to about twice the window's
# upper edge plus the word weights (the wick suite at --max-weight 4 reached
# n = 2 top + 8 for top = 6 and 12), and the str code of a word
# (fock.letter) holds n < CODE_LEVELS: a quarter of it leaves a factor of 2
_WINDOW_TOP = CODE_LEVELS // 4


def cmd_check(args) -> int:
    space, coeffs = load_config(args.config)
    if not space.dim:
        raise UsageError("check needs at least one generator pair (config M >= 1)")
    for flag in ("r", "s", "max_weight"):
        if getattr(args, flag) < 0:
            raise UsageError(f"--{flag.replace('_', '-')} must be nonnegative")
    # the work of the wick suite grows steeply with the word lengths, of axioms and wick with the weight
    for flag, limit in (("r", 4), ("s", 4), ("max_weight", 8)):
        if getattr(args, flag) > limit:
            raise UsageError(f"--{flag.replace('_', '-')} = {getattr(args, flag)} is above the limit {limit}")
    rep = Reporter(args.json)
    rng = random.Random(args.seed)
    max_w2 = 2 * args.max_weight
    if not args.window:
        window2 = ((-6, 6), (-6, 6))
    elif args.window.count(",") == 1:
        interval = _parse_window(args.window, 1)[0]
        window2 = (interval, interval)
    else:
        window2 = _parse_window(args.window, 2)
    top = max(hi for _, hi in window2)
    if top > _WINDOW_TOP:
        raise UsageError(
            f"window upper edge {top} is above the limit {_WINDOW_TOP}: the checks create modes up to "
            f"about twice the upper edge, and a word's code holds levels n < {CODE_LEVELS}"
        )
    suites = [args.suite] if args.suite != "all" else ["axioms", "wick", "delta", "pbw"]
    for suite in suites:
        if suite == "axioms":
            _suite_axioms(rep, space, rng, max_w2, window2)
        elif suite == "wick":
            _suite_wick(rep, space, rng, max_w2, window2, args.r, args.s)
        elif suite == "delta":
            _suite_delta(rep, space, coeffs, rng, window2)
        elif suite == "pbw":
            _suite_pbw(rep, space, rng)
    return rep.summary()


def cmd_correlate(args) -> int:
    space = load_config(args.config)[0]
    insertions, scale = _parse_insertions(space, args.insertions)
    try:
        # a zero insertion (scale 0) makes the correlation 0: no Pfaffian is run
        rf = correlation(space, insertions if scale else []).scale(scale)
    except ValueError as e:  # exponents beyond a packed numerator field
        raise UsageError(str(e))
    print(json.dumps({"correlation": rf.render()}))
    if not args.json:
        print(rf.render(), file=sys.stderr)
    return 0


def cmd_expand(args) -> int:
    space = load_config(args.config)[0]
    insertions, scale = _parse_insertions(space, args.insertions)
    order = [v.strip() for v in args.order.split(",")]
    if sorted(order) != sorted(v for _, v in insertions):
        raise UsageError("--order must list exactly the insertion variables")
    window = _parse_window(args.window, len(order))
    # a zero insertion (scale 0) makes every cell 0: nothing is expanded or printed
    table = correlation_terms(space, insertions).expand_region(order, window) if scale else LaurentPoly(order)
    for cell, value in table.items():
        print(json.dumps({"cell": list(cell), "value": format_rational(value * scale)}))
    if not args.json:
        print(
            f"{len(table.coeffs)} nonzero coefficients on the window (order {', '.join(order)})",
            file=sys.stderr,
        )
    return 0


def cmd_expdelta(args) -> int:
    space, coeffs = load_config(args.config)
    vec = parse_state(space, args.state)
    if max(map(len, vec.terms), default=0) > 20:  # 2^(r-1) deleted sets, as many Pfaffian minors
        raise UsageError("expdelta: a word is longer than the limit of 20 letters")
    try:
        for word in vec.terms:
            encode(word)
    except ValueError as e:
        raise UsageError(f"expdelta: {e}")
    closed = exp_delta(space, coeffs, vec)
    agree = closed == exp_delta_iterated(space, coeffs, vec)
    for e in sorted(closed, reverse=True):
        print(json.dumps({"exponent": e, "state": closed[e].render(space)}))
    print(json.dumps({"closed_matches_iterative": agree}))
    if not args.json:
        print(
            f"{len(closed)} exponents; closed form{' ' if agree else ' dis'}agrees with iterated powers",
            file=sys.stderr,
        )
    return 0 if agree else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later `main` in the process; `parse_args` reads it and changes nothing."""
    parser = argparse.ArgumentParser(
        prog="fermifock",
        description="Exact checks and correlation functions for the "
        "non-anticommutative fermionic Fock space",
    )
    parser.add_argument("--config", help="JSON algebra config", default=None)
    parser.add_argument("--json", action="store_true", help="suppress the stderr summary")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("--suite", choices=["axioms", "wick", "delta", "pbw", "all"], default="all")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--max-weight", type=int, default=2)
    p.add_argument("--window", default=None, help="a,b[,c,d] exponent window")
    p.add_argument("--r", type=int, default=2, help="max first-slot word length (wick suite)")
    p.add_argument("--s", type=int, default=2, help="max second-slot word length (wick suite)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("correlate", help="closed-form vacuum correlation function")
    p.add_argument("insertions", nargs="+", help="'STATE @ var' with STATE a single word")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("expand", help="regional Laurent expansion of a correlation")
    p.add_argument("insertions", nargs="+")
    p.add_argument("--order", required=True, help="comma-separated region order, largest first")
    p.add_argument("--window", required=True, help="lo,hi per region variable")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("expdelta", help="apply the exponential pair-deletion operator")
    p.add_argument("state", help="state expression")
    p.set_defaults(func=cmd_expdelta)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
