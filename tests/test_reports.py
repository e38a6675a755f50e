"""One report shape and one status rule for every identity check: each
library check says `inconclusive` when it compared nothing but zeros."""
from fermifock import delta, straightening, vertex, wick
from fermifock.delta import (
    DeltaCoeffs,
    check_contraction_numbers,
    check_exp_delta_neg_comm,
    check_exp_delta_routes,
)
from fermifock.fock import FockVector, HSpace, check_report, code_weight2
from fermifock.laurent import Box
from fermifock.straightening import check_confluence
from fermifock.vertex import check_axioms, check_weak_associativity
from fermifock.wick import NOExpr, check_closed_forms

SPACE = HSpace(2)
E1, E2, F1, F2 = 0, 1, 2, 3
KEYS = {"identity", "status", "compared", "nonzero", "mismatches"}


def test_check_report_status_rule():
    assert check_report("x", [], 3, 1)["status"] == "pass"
    assert check_report("x", [], 3, 0)["status"] == "inconclusive"
    assert check_report("x", [], 0, 0)["status"] == "inconclusive"
    assert check_report("x", [(1,)], 3, 0)["status"] == "fail"
    report = check_report("x", ((1,), (2,)), 4, 2, window=((0, 1),))
    assert report == {
        "identity": "x",
        "status": "fail",
        "compared": 4,
        "nonzero": 2,
        "mismatches": [(1,), (2,)],
        "window": ((0, 1),),
    }


def _zero_window_reports():
    """Every library check on inputs where both sides vanish everywhere."""
    u1, u2 = ((E1, -1),), ((F1, -2),)
    v = FockVector.word(((E2, -1),))
    far = Box(("x", "y"), ((-40, -39), (-40, -39)))
    yield from check_closed_forms(SPACE, u1, u2, v, far)
    yield check_weak_associativity(
        SPACE, u1, FockVector.word(u2), v, Box(("x0", "x2"), ((-40, -39), (-40, -39)))
    )
    axioms = {r["identity"]: r for r in check_axioms(SPACE, [v, FockVector.word(u1)], 40, 41)}
    yield axioms["identity"]
    yield axioms["creation"]
    empty = DeltaCoeffs()
    gens, levels = [E1, F1, E2, F2], [0, 1, 0, 1]
    yield check_contraction_numbers(SPACE, empty, gens, levels, [(0, 1), (0, 1, 2, 3)])
    yield check_exp_delta_routes(SPACE, empty, [FockVector.word(((E1, -1), (F1, -2)))])
    yield check_exp_delta_neg_comm(SPACE, empty, E1, 0, [v], ((-4, 4), (-4, 4)))
    yield check_confluence(SPACE, [])


def test_every_check_is_inconclusive_on_an_all_zero_window():
    reports = list(_zero_window_reports())
    assert len(reports) == 9
    for report in reports:
        assert KEYS <= set(report), report
        assert report["status"] == "inconclusive" and report["nonzero"] == 0, report
        assert not report["mismatches"]


def test_every_check_passes_where_it_compares_nonzero_values():
    u1, u2 = ((E1, -1),), ((F1, -1),)
    v = FockVector.word(((E2, -1),))
    box = Box(("x", "y"), ((-3, 3), (-3, 3)))
    reports = check_closed_forms(SPACE, u1, u2, v, box)
    weak_box = Box(("x0", "x2"), box.intervals)
    reports.append(check_weak_associativity(SPACE, u1, FockVector.word(u2), v, weak_box))
    reports += check_axioms(SPACE, [v, FockVector.word(u1)], -3, 3)
    C = DeltaCoeffs.default()
    reports.append(check_contraction_numbers(SPACE, C, [E1, F1], [0, 1], [(0, 1)]))
    reports.append(check_exp_delta_routes(SPACE, C, [FockVector.word(((E1, -1), (F1, -2)))]))
    reports.append(check_confluence(SPACE, [(((E1, 0), (F1, -1)), 1, 2)]))
    for report in reports:
        assert KEYS <= set(report), report
        assert report["status"] == "pass" and 0 < report["nonzero"] <= report["compared"], report


def test_every_check_fails_when_one_route_is_perturbed(monkeypatch):
    # each report passes as it is, then fails once one of its routes is wrong
    u1, u2 = ((E1, -1),), ((F1, -1),)
    v = FockVector.word(((E2, -1),))
    box = Box(("x", "y"), ((-3, 3), (-3, 3)))
    C = DeltaCoeffs.default()
    doubled = DeltaCoeffs({(0, 1): 2})
    pair = FockVector.word(((E1, -1), (F1, -2)))
    wick_product, d_terms, t_number_alt = wick.wick_product, vertex.d_terms, delta.t_number_alt
    exp_delta, pbw_normal_form = delta.exp_delta, straightening.pbw_normal_form

    def rng_dependent(space, word, rng):
        return {w: c * rng.randrange(2, 99) for w, c in pbw_normal_form(space, word, rng).items()}

    def axiom(name):
        reports = check_axioms(SPACE, [v, FockVector.word(u1)], -3, 3)
        return next(r for r in reports if r["identity"] == name)

    cases = [
        (
            wick, "wick_product", lambda *a: NOExpr(wick_product(*a).terms[:-1]),
            lambda: check_closed_forms(SPACE, u1, u2, v, box)[0],
        ),
        # both int routes of check_axioms: the translation generator on term
        # maps, and the doubled grading, which scales a word by weight2
        (
            vertex, "d_terms", lambda t: {w: 2 * c for w, c in d_terms(t).items()},
            lambda: axiom("translation"),
        ),
        (vertex, "code_weight2", lambda code: code_weight2(code) + 1, lambda: axiom("grading_commutator")),
        (
            delta, "t_number_alt", lambda *a: t_number_alt(*a) + 1,
            lambda: check_contraction_numbers(SPACE, C, [E1, F1], [0, 1], [(0, 1)]),
        ),
        (delta, "exp_delta_iterated", lambda *a: {}, lambda: check_exp_delta_routes(SPACE, C, [pair])),
        # the exponential reads the default table, the right side twice its coefficients
        (
            delta, "exp_delta", lambda space, _, w: exp_delta(space, C, w),
            lambda: check_exp_delta_neg_comm(SPACE, doubled, F1, 0, [pair], ((-4, 4), (-4, 4))),
        ),
        (
            straightening, "pbw_normal_form", rng_dependent,
            lambda: check_confluence(SPACE, [(((E1, 0), (F1, -1)), 1, 2)]),
        ),
    ]
    for module, name, perturbed, report in cases:
        before = report()
        assert before["status"] == "pass" and not before["mismatches"], (name, before)
        with monkeypatch.context() as patch:
            patch.setattr(module, name, perturbed)
            after = report()
        assert KEYS <= set(after), after
        assert after["status"] == "fail" and after["mismatches"], (name, after)
