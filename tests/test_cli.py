import json
import os
import random
import subprocess
import sys
import time
from math import prod
from pathlib import Path

import pytest

import fermifock
from fermifock import cli
from fermifock.cli import main, parse_insertion, parse_state
from fermifock.fock import FockVector, HSpace
from fermifock.scalars import format_rational
from fermifock.wick import correlation

SPACE = HSpace(2)
# the subprocess imports the same source tree as the tests, with or without
# PYTHONPATH set by the caller
SRC = str(Path(fermifock.__file__).resolve().parents[1])


def run_cli(args, tmp_path=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fermifock.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def test_parse_state_basic():
    v = parse_state(SPACE, "e1(-1/2) |0>")
    assert v == FockVector.word(((0, -1),))
    v = parse_state(SPACE, "1/2 * e1(-1/2) f2(-3/2) |0> + -2 * |0>")
    assert v.terms[((0, -1), (3, -2))] == 0.5
    assert v.terms[()] == -2


def test_parse_state_rejects_garbage():
    from fermifock.cli import UsageError

    malformed = ("e1(-1/2)", "e9(-1/2) |0>", "e1(1/2) |0>", "e1(-1) |0>", "q1(-1/2) |0>")
    zero_denominators = ("1/0 * |0>", "e1(-1/0) |0>", "1/0 * e1(-1/2) |0>")
    for bad in malformed + zero_denominators:
        with pytest.raises(UsageError):
            parse_state(SPACE, bad)
    # a zero denominator is bad input (exit 2), not a ZeroDivisionError
    assert main(["expdelta", "1/0 * |0>"]) == 2
    assert main(["expdelta", "e1(-1/0) |0>"]) == 2
    assert main(["correlate", "1/0 * e1(-1/2) |0> @ z1"]) == 2


def test_render_parse_round_trip_is_idempotent():
    texts = [
        "e1(-1/2) |0>",
        "1/2 * e1(-1/2) f2(-3/2) |0> + -2 * |0>",
        "f1(-5/2) e1(-1/2) |0> + e1(-1/2) f1(-5/2) |0>",
    ]
    for text in texts:
        v = parse_state(SPACE, text)
        rendered = v.render(SPACE)
        assert parse_state(SPACE, rendered) == v
        assert parse_state(SPACE, rendered).render(SPACE) == rendered


def test_cli_correlate_pair():
    proc = run_cli(["correlate", "e1(-1/2) |0> @ z1", "f1(-1/2) |0> @ z2"])
    assert proc.returncode == 0
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["correlation"] == "(1) / (z1 - z2)"


def test_cli_correlate_summary_is_one_stderr_line(capsys):
    """Without --json, stderr carries a one-line summary, not the normal
    form a second time."""
    texts = [f"{'ef'[i % 2]}1(-1/2) |0> @ z{i + 1}" for i in range(6)]
    assert main(["correlate", *texts]) == 0
    out = capsys.readouterr()
    json.loads(out.out)
    rf = correlation(HSpace(2), [(((i % 2 * 2, -1),), f"z{i + 1}") for i in range(6)])
    assert out.err == f"{len(rf.int_num)} numerator terms over 9 denominator factors\n", out.err


def test_cli_correlate_odd_and_single():
    proc = run_cli(["correlate", "e1(-1/2) |0> @ z1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip())["correlation"] == "0"


def test_cli_correlate_duplicate_vars_is_usage_error():
    insertions = ["e1(-1/2) |0> @ z", "f1(-1/2) |0> @ z"]
    for args in (
        ["correlate", *insertions],
        ["expand", *insertions, "--order=z,z", "--window=0,0,0,0"],
    ):
        proc = run_cli(args)
        assert proc.returncode == 2, args
        assert "Traceback" not in proc.stderr
        assert "distinct" in proc.stderr


def test_cli_zero_insertion_gives_the_zero_correlation(capsys):
    """A zero multiple of a word is the zero state: `correlate` prints 0
    and `expand` prints no cell, both with exit code 0."""
    texts = ["0 * e1(-1/2) |0> @ z1", "f1(-1/2) |0> @ z2"]
    assert main(["--json", "correlate", *texts]) == 0
    assert json.loads(capsys.readouterr().out) == {"correlation": "0"}
    assert main(["expand", *texts, "--order=z1,z2", "--window=-3,1,-3,1"]) == 0
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("0 nonzero coefficients")
    # a sum of two words is still refused
    assert main(["correlate", "e1(-1/2) |0> + f1(-1/2) |0> @ z1"]) == 2
    assert "single word" in capsys.readouterr().err


def test_cli_correlate_refuses_exponents_beyond_a_packed_field():
    """f1 at level -(2^33 - 1)/2 has derivative order 2^32 - 1, so its
    kernel entry with e1(-1/2) is 1 / (z1 - z2)^(2^32), one past the
    largest packed exponent: exit 2 with an `error:` line, no traceback.
    One level up, the power 2^32 - 1 still fits."""
    proc = run_cli(["correlate", "e1(-1/2) |0> @ z1", "f1(-8589934591/2) |0> @ z2"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "2^32" in proc.stderr
    assert "Traceback" not in proc.stderr
    proc = run_cli(["--json", "correlate", "e1(-1/2) |0> @ z1", "f1(-8589934589/2) |0> @ z2"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"correlation": "(1) / (z1 - z2)^4294967295"}


def test_cli_expand_matches_base_table():
    proc = run_cli(
        [
            "expand",
            "e1(-1/2) |0> @ z1",
            "f1(-1/2) |0> @ z2",
            "--order=z1,z2",
            "--window=-3,-1,0,2",
        ]
    )
    assert proc.returncode == 0
    cells = {tuple(r["cell"]): r["value"] for r in map(json.loads, proc.stdout.splitlines())}
    assert cells == {(-1, 0): "1", (-2, 1): "1", (-3, 2): "1"}


def test_cli_check_axioms_and_determinism():
    a = run_cli(["--json", "check", "--suite", "axioms", "--seed", "7", "--max-weight", "2"])
    b = run_cli(["--json", "check", "--suite", "axioms", "--seed", "7", "--max-weight", "2"])
    assert a.returncode == 0
    assert a.stdout == b.stdout
    for line in a.stdout.splitlines():
        assert json.loads(line)["status"] == "pass"


def test_cli_check_pbw_and_delta():
    proc = run_cli(["--json", "check", "--suite", "pbw", "--seed", "3"])
    assert proc.returncode == 0
    proc = run_cli(["--json", "check", "--suite", "delta", "--seed", "3", "--window=-3,3,-3,3"])
    assert proc.returncode == 0


def test_cli_check_wick_small():
    proc = run_cli(
        [
            "--json",
            "check",
            "--suite",
            "wick",
            "--seed",
            "5",
            "--r",
            "1",
            "--s",
            "1",
            "--max-weight",
            "1",
            "--window=-3,3,-3,3",
        ]
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"M": 1, "gram": [[0, 1], [2, 0]]}')
    proc = run_cli(["--config", str(bad), "check", "--suite", "pbw"])
    assert proc.returncode == 2
    missing = tmp_path / "nope.json"
    proc = run_cli(["--config", str(missing), "check", "--suite", "pbw"])
    assert proc.returncode == 2
    zero_gram = '{"M": 1, "gram": [["0", "1/0"], ["1", "0"]]}'
    zero_coeff = '{"M": 1, "delta_coeffs": [[0, 1, "1/0"]]}'
    for text in (zero_gram, zero_coeff):
        bad.write_text(text)
        proc = run_cli(["--config", str(bad), "check", "--suite", "pbw"])
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr


def test_cli_config_round_trip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "M": 1,
                "gram": [["0", "1"], ["1", "0"]],
                "l": "1/2",
                "delta_coeffs": [[0, 1, "2"], [0, 2, "-1/3"]],
            }
        )
    )
    proc = run_cli(["--config", str(cfg), "correlate", "e1(-1/2) |0> @ z1", "f1(-1/2) |0> @ z2"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip())["correlation"] == "(1) / (z1 - z2)"


def test_cli_expdelta_reports_agreement():
    proc = run_cli(["expdelta", "e1(-1/2) f1(-3/2) |0>"])
    assert proc.returncode == 0
    lines = [json.loads(x) for x in proc.stdout.splitlines()]
    assert lines[-1] == {"closed_matches_iterative": True}
    table = {r["exponent"]: r["state"] for r in lines[:-1]}
    assert table[0] == "e1(-1/2) f1(-3/2) |0>"
    assert table[-2] == "-1 * |0>"


def test_cli_expdelta_vacuum():
    proc = run_cli(["expdelta", "|0>"])
    assert proc.returncode == 0
    lines = [json.loads(x) for x in proc.stdout.splitlines()]
    assert {"exponent": 0, "state": "|0>"} in lines


def test_cli_expdelta_refuses_words_above_the_letter_limit(monkeypatch, capsys):
    """A word of r letters has 2^(r-1) deleted sets; above 20 letters the
    command exits 2 before any Pfaffian or pair-deletion work starts."""
    import fermifock.cli as cli

    calls = []
    monkeypatch.setattr(cli, "exp_delta", lambda *a: calls.append("closed") or {})
    monkeypatch.setattr(cli, "exp_delta_iterated", lambda *a: calls.append("iterated") or {})
    letter = "e1(-1/2) f1(-3/2) "
    for state in (letter * 10 + "e1(-1/2) |0>", "|0> + " + letter * 11 + "|0>"):
        assert main(["--json", "expdelta", state]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and "limit of 20 letters" in out.err
    assert calls == []
    assert main(["--json", "expdelta", letter * 10 + "|0>"]) == 0  # 20 letters pass the guard
    assert calls == ["closed", "iterated"]


def test_main_function_direct():
    assert main(["--json", "check", "--suite", "pbw", "--seed", "1"]) == 0


def test_cli_main_shares_one_parser_and_leaks_no_state(capsys):
    """`main` parses with one cached parser; a flag given to one call is not
    seen by the next, which prints what a fresh process prints for the
    default seed 2024.  Importing the module builds no parser."""
    parser = cli.build_parser()
    assert parser is cli.build_parser()
    assert parser.parse_args(["check", "--seed", "5", "--r", "1"]).seed == 5
    assert vars(parser.parse_args(["check"])) == vars(cli.build_parser.__wrapped__().parse_args(["check"]))
    # pbw prints one summary record; the delta records differ between seeds
    for suite in ("pbw", "delta"):
        assert main(["--json", "check", "--suite", suite, "--seed", "5"]) == 0
        seeded = capsys.readouterr().out
        assert main(["--json", "check", "--suite", suite]) == 0
        second = capsys.readouterr().out
        fresh = run_cli(["--json", "check", "--suite", suite, "--seed", "2024"])
        assert fresh.returncode == 0 and second == fresh.stdout
        assert (second != seeded) == (suite == "delta")
    probe = "import fermifock.cli as c; print(c.build_parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=SRC)
    assert subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env).stdout == "0\n"


def _normal_form_lines(texts, order, window):
    """What `expand` printed when it expanded the normal form of the
    correlation: the table of correlation(...).scale(...).expand_region."""
    parsed = [parse_insertion(SPACE, text) for text in texts]
    rf = correlation(SPACE, [(w, v) for w, _, v in parsed]).scale(prod(c for _, c, _ in parsed))
    table = rf.expand_region(order, window)
    return [json.dumps({"cell": list(cell), "value": format_rational(x)}) for cell, x in table.items()]


@pytest.mark.parametrize(
    "texts, order, window, cells",
    [
        # scaled insertions: the coefficients' product scales every value
        (["2 e1(-1/2) |0> @ z1", "-3/4 * f1(-3/2) |0> @ z2"], "z1,z2", "-5,1,-2,3", 4),
        # names out of canonical order, in the insertions and in the region
        (["e1(-1/2) f2(-3/2) |0> @ b", "e2(-1/2) |0> @ a", "1/2 * f1(-1/2) |0> @ z10",
          "e1(-3/2) f1(-1/2) |0> @ z2"], "z2,b,z10,a", "-4,2,-3,1,-4,1,-3,2", 7),
        # an empty word: its variable stays at exponent 0
        (["f1(-1/2) |0> @ z2", "3 |0> @ w", "e1(-3/2) |0> @ z1"], "z1,w,z2", "-4,0,0,0,-1,3", 3),
        # zero correlations: no contraction, and an odd factor count
        (["e1(-1/2) |0> @ z1", "e2(-1/2) |0> @ z2"], "z1,z2", "-3,1,-3,1", 0),
        (["e1(-1/2) |0> @ z1", "f1(-1/2) |0> @ z2", "e1(-1/2) |0> @ z3"], "z1,z2,z3", "-3,1,-3,1,-3,1", 0),
    ],
)
def test_cli_expand_prints_the_normal_form_table(capsys, texts, order, window, cells):
    """`expand` expands the Wick sum term by term; it prints the table that
    the normal form gives, with the same exit code and summary."""
    argv = ["expand", *texts, "--order=" + order, "--window=" + window]
    assert main(argv) == 0
    out = capsys.readouterr()
    want = _normal_form_lines(texts, order.split(","), cli._parse_window(window, order.count(",") + 1))
    assert out.out.splitlines() == want and len(want) == cells
    assert out.err == f"{cells} nonzero coefficients on the window (order {order.replace(',', ', ')})\n"


def test_cli_expand_reaches_twelve_insertions(capsys):
    """Twelve alternating e1(-1/2), f1(-1/2) insertions on [-2, 1]^12: the
    Wick sum has 720 terms, and the normal form would have 518,400."""
    names = [f"z{i + 1}" for i in range(12)]
    argv = ["--json", "expand", *(f"{'ef'[i % 2]}1(-1/2) |0> @ {v}" for i, v in enumerate(names))]
    argv += ["--order=" + ",".join(names), "--window=" + ",".join(["-2,1"] * 12)]
    assert main(argv) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 7808


def test_cli_expand_constant_on_point_window():
    proc = run_cli(["expand", "|0> @ z1", "--order=z1", "--window=0,0"])
    assert proc.returncode == 0
    rows = [json.loads(x) for x in proc.stdout.splitlines()]
    assert rows == [{"cell": [0], "value": "1"}]


def test_cli_check_accepts_short_window():
    proc = run_cli(["--json", "check", "--suite", "axioms", "--seed", "2", "--window=-4,4"])
    assert proc.returncode == 0


def test_cli_check_reports_inconclusive(capsys):
    argv = ["check", "--suite", "wick", "--r", "0", "--s", "0", "--seed", "0"]
    argv += ["--max-weight", "1", "--window=5,6"]
    assert main(["--json", *argv]) == 0
    statuses = {r["identity"]: r["status"] for r in map(json.loads, capsys.readouterr().out.splitlines())}
    assert statuses["weak_associativity_2"] == "inconclusive"
    assert set(statuses.values()) == {"pass", "inconclusive"}
    assert main(argv) == 0  # the summary on stderr counts the two apart
    values = list(statuses.values())
    passed, inconclusive = values.count("pass"), values.count("inconclusive")
    assert f"{passed} identities passed, {inconclusive} inconclusive, 0 failed" in capsys.readouterr().err


def test_cli_check_exits_1_when_an_identity_fails(monkeypatch, capsys):
    # the closed product form loses its last term
    from fermifock import wick
    from fermifock.wick import NOExpr

    wick_product = wick.wick_product
    monkeypatch.setattr(wick, "wick_product", lambda *a: NOExpr(wick_product(*a).terms[:-1]))
    argv = ["check", "--suite", "wick", "--r", "1", "--s", "1", "--seed", "1", "--window=-3,3"]
    assert main(["--json", *argv]) == 1
    statuses = {r["identity"]: r["status"] for r in _records(capsys.readouterr().out)}
    assert statuses["product_closed_form_r1_s1"] == "fail"
    assert statuses["iterate_closed_form_r1_s1"] == "pass"
    assert main(argv) == 1
    assert f"{list(statuses.values()).count('fail')} failed" in capsys.readouterr().err


def test_cli_check_delta_reports_zero_window_inconclusive(capsys):
    argv = ["--json", "check", "--suite", "delta", "--seed", "0", "--window=40,41"]
    assert main(argv) == 0
    statuses = {r["identity"]: r["status"] for r in map(json.loads, capsys.readouterr().out.splitlines())}
    assert statuses["exp_negative_commutator"] == "inconclusive"


@pytest.mark.parametrize("flag", ["--r", "--s", "--max-weight"])
def test_cli_check_rejects_negative_counts(flag, capsys):
    assert main(["--json", "check", "--suite", "wick", flag, "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    if flag != "--max-weight":
        # word lengths above 4 are refused up front, before any wick work
        assert main(["--json", "check", "--suite", "wick", flag, "5"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and flag in out.err and "limit 4" in out.err
        argv = ["--json", "check", "--suite", "wick", "--r", "4", "--s", "4", "--max-weight", "0"]
        assert main(argv + ["--window=-40,-39", "--seed", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 * 25 + 3
    else:
        # weights above 8 are refused up front, before any sampling
        start = time.perf_counter()
        assert main(["--json", "check", flag, "9"]) == 2
        assert time.perf_counter() - start < 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and flag in out.err and "limit 8" in out.err
        assert main(["--json", "check", "--suite", "axioms", "--seed", "0", flag, "8"]) == 0


@pytest.mark.parametrize("suite", ["wick", "delta", "pbw"])
def test_cli_check_refuses_config_without_generators(suite, tmp_path, capsys):
    cfg = tmp_path / "m0.json"
    cfg.write_text('{"M": 0}')
    assert main(["--config", str(cfg), "--json", "check", "--suite", suite]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:")


def _records(text):
    return [json.loads(line) for line in text.splitlines()]


def test_cli_check_wick_far_window_is_inconclusive(capsys):
    argv = ["--json", "check", "--suite", "wick", "--window=-40,-39"]
    assert main(argv + ["--max-weight", "1", "--r", "1", "--s", "1", "--seed", "0"]) == 0
    records = _records(capsys.readouterr().out)
    assert len(records) == 11
    for r in records:
        assert r["status"] == "inconclusive" and r["nonzero"] == 0 and r["compared"] == 4, r


def test_cli_check_axioms_window_without_zero_is_inconclusive(capsys):
    assert main(["--json", "check", "--suite", "axioms", "--max-weight", "1", "--window=40,41"]) == 0
    statuses = {r["identity"]: r["status"] for r in _records(capsys.readouterr().out)}
    assert statuses["identity"] == statuses["creation"] == "inconclusive"


def test_cli_check_delta_contraction_numbers_are_conclusive(capsys):
    for seed in range(100):
        assert main(["--json", "check", "--suite", "delta", "--seed", str(seed)]) == 0
        records = {r["identity"]: r for r in _records(capsys.readouterr().out)}
        assert records["contraction_number_routes"]["status"] == "pass", (seed, records)
        # the exp_delta words are drawn from couples too, so a pair deletion survives
        assert records["exp_closed_vs_iterative"]["status"] == "pass", (seed, records)
        # the commutator samples are couples, and the series generator pairs with one
        assert records["exp_negative_commutator"]["status"] == "pass", (seed, records)


def test_cli_check_records_carry_counts(capsys):
    assert main(["--json", "check", "--suite", "all", "--seed", "1", "--max-weight", "1",
                 "--r", "1", "--s", "1", "--window=-3,3"]) == 0
    keys = {"suite", "identity", "status", "compared", "nonzero", "counterexample"}
    for r in _records(capsys.readouterr().out):
        assert set(r) == keys and 0 <= r["nonzero"] <= r["compared"], r


@pytest.mark.parametrize("suite", ["axioms", "wick", "delta", "pbw"])
@pytest.mark.parametrize("window", ["-3,-2", "-40,-39", "40,41"])
def test_cli_check_far_windows_keep_the_exit_contract(suite, window):
    proc = run_cli(["--json", "check", "--suite", suite, "--seed", "11", "--window=" + window,
                    "--r", "1", "--s", "1", "--max-weight", "1"])
    assert proc.returncode in (0, 1, 2)
    assert "Traceback" not in proc.stderr, proc.stderr
    if suite == "axioms":
        assert proc.returncode == 0, proc.stdout


@pytest.mark.parametrize(
    "config, phrase",
    [
        ('{"M": true}', "M must be an integer, not true"),
        ('{"M": 1.5}', "M must be an integer, not 1.5"),
        ('{"M": "2"}', 'M must be an integer, not "2"'),
        ('{"M": 33}', "limit 32"),
        ("[]", "top level must be a JSON object"),
        ('{"M": 1, "delta_coeffs": [[0, 1.5, "1"]]}', "level must be an integer, not 1.5"),
        ('{"M": 1, "delta_coeffs": [[false, 1, "1"]]}', "level must be an integer, not false"),
        # an exponent would build a hundred-million-digit denominator
        ('{"M": 1, "gram": [["1e-99999999", 1], [1, 0]]}', "bad config: exponent notation"),
        ('{"M": 1, "delta_coeffs": [[0, 1, "2.5E3"]]}', "bad config: exponent notation in '2.5E3'"),
        # rationals are JSON numbers or strings: other JSON is refused by its
        # type, and text that is no number is not given the exponent message
        ('{"M": 1, "gram": [[true, 1], [1, 0]]}', "gram entry must be a number or a string, not true"),
        ('{"M": 1, "gram": [[null, 1], [1, 0]]}', "gram entry must be a number or a string, not null"),
        ('{"M": 1, "gram": [[[0], 1], [1, 0]]}', "gram entry must be a number or a string, not [0]"),
        ('{"M": 1, "gram": [["one", 1], [1, 0]]}', "bad config: no rational in 'one'"),
        ('{"M": 1, "delta_coeffs": [[0, 1, false]]}', "delta coefficient must be a number or a string, not false"),
        ('{"M": 1, "delta_coeffs": [[0, 1, {"p": 1}]]}', 'delta coefficient must be a number or a string, not {"p": 1}'),
        ('{"M": 1, "delta_coeffs": [[0, 1, "three"]]}', "bad config: no rational in 'three'"),
        # a malformed shape is refused naming the key and the shape it expects
        ('{"M": 1, "gram": 5}', "bad config: gram must be a list of rows, each a list of numbers; found 5"),
        ('{"M": 1, "gram": [1, 2]}', "bad config: gram must be a list of rows, each a list of numbers; found 1"),
        ('{"M": 1, "delta_coeffs": 5}', "bad config: delta_coeffs must be a list of [m, n, value] triples; found 5"),
        ('{"M": 1, "delta_coeffs": [7]}', "bad config: delta_coeffs must be a list of [m, n, value] triples; found 7"),
        (
            '{"M": 1, "delta_coeffs": [[0, 1]]}',
            "bad config: delta_coeffs must be a list of [m, n, value] triples; found [0, 1]",
        ),
    ],
)
def test_cli_config_integers_are_validated(config, phrase, tmp_path, capsys):
    # bools and floats are refused, not truncated; a large M is refused
    # before its 2M x 2M Gram matrix is built
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    assert main(["--config", str(cfg), "--json", "expdelta", "|0>"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:") and phrase in out.err, out.err


def test_cli_config_at_the_size_limit_runs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"M": 32}')
    assert main(["--config", str(cfg), "correlate", "e32(-1/2) |0> @ z1", "f32(-1/2) |0> @ z2"]) == 0
    assert json.loads(capsys.readouterr().out)["correlation"] == "(1) / (z1 - z2)"


MALFORMED_CONFIGS = (
    "not json",
    "null",
    "[]",
    "{}",
    '{"M": true}',
    '{"M": 1.5}',
    '{"M": 33}',
    '{"M": -1}',
    '{"M": 1, "gram": [[0, 1]]}',  # not square
    '{"M": 1, "gram": [[0, 1], [2, 0]]}',  # asymmetric
    '{"M": 1, "gram": [[0, 0], [0, 0]]}',  # degenerate
    '{"M": 1, "gram": [["x", 1], [1, 0]]}',
    '{"M": 1, "gram": 5}',
    '{"M": 1, "delta_coeffs": [[0, 0, "1"]]}',  # nonzero diagonal
    '{"M": 1, "delta_coeffs": [[0, 1, "1"], [1, 0, "1"]]}',  # not antisymmetric
    '{"M": 1, "delta_coeffs": [[-1, 1, "1"]]}',
    '{"M": 1, "delta_coeffs": [[0.5, 1, "1"]]}',
    '{"M": 1, "delta_coeffs": [[0, 1]]}',
    '{"M": 1, "delta_coeffs": [[0, 1, "1/0"]]}',
    '{"M": 1, "delta_coeffs": 3}',
)
VALID_CONFIGS = (
    None,
    '{"M": 1}',
    '{"M": 1, "gram": [["1/2", "1"], ["1", "0"]], "delta_coeffs": [[0, 2, "-1/3"]]}',
    '{"M": 2, "delta_coeffs": [[0, 1, "1"], [1, 2, "2"]]}',
)
STATE_TOKENS = ("e1", "f1", "e2", "f2", "e3", "(", ")", "-1/2", "-3/2", "1/2", "-1", "0", "1/0",
                "|0>", "+", "*", "-2", "3/4", "@", " ")


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as e:  # argparse refuses its own usage errors with 2
        return e.code


def test_cli_fuzz_keeps_the_exit_contract(tmp_path, capsys):
    # seeded near-valid input: states with a token now and then replaced,
    # dropped or added, windows of 1-5 ints (reversed ones too), and a
    # malformed config on a third of the runs; every run exits 0, 1 or 2
    # and raises nothing, and a malformed config always exits 2
    rng = random.Random(2718)
    paths = []
    for i, text in enumerate(VALID_CONFIGS + MALFORMED_CONFIGS):
        path = None
        if text is not None:
            path = tmp_path / f"cfg{i}.json"
            path.write_text(text)
        paths.append(path)

    def state(terms):
        tokens = []
        for t in range(terms):
            tokens += ["+"] * (t > 0) + [rng.choice(["", "-2 *", "3/4"])]
            for _ in range(rng.randint(0, 3)):
                tokens += [rng.choice(["e1", "f1", "e2", "f2"]), "(", rng.choice(["-1/2", "-3/2"]), ")"]
            tokens.append("|0>")
        if rng.random() < 0.4:
            at = rng.randrange(len(tokens) + 1)
            tokens[at:at + rng.randint(0, 1)] = [rng.choice(STATE_TOKENS)] * rng.randint(0, 1)
        return " ".join(tokens)

    def window():
        nums = [rng.randint(-3, 3) for _ in range(rng.choice([1, 2, 2, 3, 4, 4, 5]))]
        if rng.random() < 0.8:
            nums = [x for pair in zip(nums[::2], nums[1::2]) for x in sorted(pair)] + nums[len(nums) // 2 * 2:]
        return ",".join(map(str, nums))

    codes = []
    for trial in range(200):
        index = rng.randrange(len(VALID_CONFIGS)) if rng.random() < 0.67 else rng.randrange(len(paths))
        argv = ["--json"] + (["--config", str(paths[index])] if paths[index] else [])
        command = rng.choice(["check", "correlate", "expand", "expdelta"])
        names = [f"z{i}" for i in range(rng.randint(1, 2))]
        if command == "check":
            argv += ["check", "--suite", rng.choice(["axioms", "wick", "delta", "pbw", "all"]),
                     "--seed", str(trial), "--window=" + window(), "--max-weight", str(rng.randint(0, 1)),
                     "--r", str(rng.randint(0, 1)), "--s", str(rng.randint(0, 1))]
        elif command == "expdelta":
            argv += ["expdelta", state(rng.randint(1, 2))]
        else:
            argv += [command] + [f"{state(1)} @ {name}" for name in names]
            if command == "expand":
                argv += ["--order=" + ",".join(rng.sample(names, len(names))), "--window=" + window()]
        code = _exit_code(argv)
        assert code in (0, 1, 2), argv
        if index >= len(VALID_CONFIGS):
            assert code == 2, argv
        codes.append(code)
    capsys.readouterr()
    assert codes.count(0) >= 50 and codes.count(2) >= 50, codes


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["check", "--suite", "delta", "--window=-100000,100000"], "limit 4351"),
        (["check", "--suite", "axioms", "--window=4352,4353"], "limit 4351"),
        (["check", "--suite", "wick", "--window=-3,3,0,4352"], "limit 4351"),
        (["expdelta", "e1(-1/2) f1(-34815/2) |0>"], "below 17407"),
    ],
)
def test_cli_refuses_letters_past_the_word_code(argv, limit):
    """Inputs whose modes would pass the str code of words (levels n below
    17,407) exit 2 with an `error:` line naming the limit, before any work."""
    start = time.perf_counter()
    proc = run_cli(["--json", *argv])
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2 and proc.stdout == "", proc
    assert proc.stderr.startswith("error:") and limit in proc.stderr and "Traceback" not in proc.stderr


def test_cli_names_a_mode_past_the_word_code_as_written(capsys):
    """The refusal of a state names the mode in the input's notation and the
    code's limit, not the library's internal level."""
    assert main(["--json", "expdelta", "f1(-1/2) e1(-40001/2) |0> + 2 * |0>"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        "error: mode e1(-40001/2) is past the word code's limit: a mode h(-n-1/2) needs n below 17407\n"
    )
    # a zero multiple of such a word is the zero state, and no letter is encoded
    assert main(["--json", "expdelta", "0 * e1(-40001/2) |0>"]) == 0
    assert capsys.readouterr().out == '{"closed_matches_iterative": true}\n'
