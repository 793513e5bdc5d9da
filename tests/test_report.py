"""The shared check recorders: a vanishing residual, a failure list, a sub-report."""

from fractions import Fraction

import pytest

from qtoda.errors import RelationViolated
from qtoda.opalg import DiffOp, record_vanishing, require_vanishing
from qtoda.qfield import QFieldElem, qpow
from qtoda.report import merge_checks, record_all, record_check

ONE = QFieldElem.one()
ZERO = QFieldElem.zero()


def new_report() -> dict:
    return {"passed": True, "checks": []}


def test_vanishing_fails_on_one_nonzero_coefficient():
    c = qpow(c0=Fraction(1, 2), c1=1)
    residual = DiffOp(Fraction(1, 3), {-4: ZERO, -2: c, 1: ZERO}, floor=-6, ceil=None)
    report = new_report()
    record_vanishing(report, "relation", residual)
    assert not report["passed"]
    (chk,) = report["checks"]
    assert chk["name"] == "relation" and not chk["passed"]
    assert chk["detail"] == f"first offending coefficient at power -2/3: {c}"


def test_vanishing_names_the_lowest_offender_after_the_window():
    residual = DiffOp(Fraction(1), {3: ONE, -1: -ONE}, floor=-2, ceil=5)
    report = new_report()
    record_vanishing(report, "relation", residual, show_window=True)
    assert report["checks"][0]["detail"] == (
        f"window (-2, 5); first offending coefficient at power -1: {-ONE}"
    )


def test_vanishing_fails_on_an_empty_window():
    # nothing stored, but floor > ceil: the check would assert over no index
    residual = DiffOp(Fraction(1), {}, floor=3, ceil=2, zero=ZERO)
    for show_window in (False, True):
        report = new_report()
        record_vanishing(report, "relation", residual, show_window=show_window)
        assert not report["passed"]
        assert report["checks"][0]["detail"] == "empty window (3, 2)"


def test_vanishing_passes_on_a_zero_residual():
    residual = DiffOp(Fraction(1, 2), {0: ONE}, floor=-7, ceil=None) - DiffOp.monomial(
        Fraction(1, 2), 0, ONE
    )
    report = new_report()
    record_vanishing(report, "plain", residual)
    record_vanishing(report, "windowed", residual, show_window=True)
    record_vanishing(report, "exact", DiffOp(Fraction(1), {}, zero=ZERO), show_window=True)
    assert report["passed"]
    assert [c["detail"] for c in report["checks"]] == [
        "", "window (-7, None)", "window (None, None)"
    ]


def test_record_all_shows_only_the_first_failures():
    report = new_report()
    record_all(report, "none_bad", [])
    record_all(report, "four_bad", ["a", "b", "c", "d"])
    record_all(report, "two_shown", ["a", "b", "c"], shown=2)
    assert not report["passed"]
    assert [(c["name"], c["passed"], c["detail"]) for c in report["checks"]] == [
        ("none_bad", True, ""),
        ("four_bad", False, "a; b; c"),
        ("two_shown", False, "a; b"),
    ]


def test_merge_checks_prefixes_names_and_carries_a_failure():
    sub = new_report()
    record_check(sub, "good", True, "fine")
    record_check(sub, "broken", False, "counterexample")
    report = new_report()
    record_check(report, "own", True)
    merge_checks(report, sub, prefix="tau_")
    assert not report["passed"]
    assert report["checks"][1:] == [
        {"name": "tau_good", "passed": True, "detail": "fine"},
        {"name": "tau_broken", "passed": False, "detail": "counterexample"},
    ]
    clean = new_report()
    merge_checks(clean, {"passed": True, "checks": sub["checks"][:1]})
    assert clean["passed"] and clean["checks"][0]["name"] == "good"


def test_require_vanishing_raises_at_the_lowest_offender():
    residual = DiffOp(Fraction(1, 2), {3: ONE, -1: -ONE}, floor=-2, ceil=5)
    with pytest.raises(RelationViolated) as exc:
        require_vanishing("relation", residual)
    assert str(exc.value) == f"relation: first offending coefficient at power -1/2: {-ONE}"
    assert exc.value.power == Fraction(-1, 2) and exc.value.residual == str(-ONE)


def test_require_vanishing_rejects_an_empty_window():
    with pytest.raises(RelationViolated, match=r"^relation: empty window \(3, 2\)$"):
        require_vanishing("relation", DiffOp(Fraction(1), {}, floor=3, ceil=2, zero=ZERO))
