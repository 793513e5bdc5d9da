"""The report format as values: `check`, `check_all` and `make_report` of
`qtoda.report`, and the operator residual check `vanishing_check` of
`qtoda.opalg`, each returning a fresh dict; `require_vanishing` raises
instead."""

from fractions import Fraction

import pytest

from qtoda.errors import RelationViolated
from qtoda.opalg import DiffOp, require_vanishing, vanishing_check
from qtoda.qfield import QFieldElem, qpow
from qtoda.report import check, check_all, make_report

ONE = QFieldElem.one()
ZERO = QFieldElem.zero()


def test_vanishing_fails_on_one_nonzero_coefficient():
    c = qpow(c0=Fraction(1, 2), c1=1)
    residual = DiffOp(Fraction(1, 3), {-4: ZERO, -2: c, 1: ZERO}, floor=-6, ceil=None)
    chk = vanishing_check("relation", residual)
    assert chk["name"] == "relation" and not chk["passed"]
    assert chk["detail"] == f"first offending coefficient at power -2/3: {c}"
    assert not make_report([chk])["passed"]


def test_vanishing_names_the_lowest_offender_after_the_window():
    residual = DiffOp(Fraction(1), {3: ONE, -1: -ONE}, floor=-2, ceil=5)
    assert vanishing_check("relation", residual, show_window=True)["detail"] == (
        f"window (-2, 5); first offending coefficient at power -1: {-ONE}"
    )


def test_vanishing_fails_on_an_empty_window():
    # nothing stored, but floor > ceil: the check would assert over no index
    residual = DiffOp(Fraction(1), {}, floor=3, ceil=2, zero=ZERO)
    for show_window in (False, True):
        chk = vanishing_check("relation", residual, show_window=show_window)
        assert not chk["passed"]
        assert chk["detail"] == "empty window (3, 2)"


def test_vanishing_passes_on_a_zero_residual():
    residual = DiffOp(Fraction(1, 2), {0: ONE}, floor=-7, ceil=None) - DiffOp.monomial(
        Fraction(1, 2), 0, ONE
    )
    report = make_report([
        vanishing_check("plain", residual),
        vanishing_check("windowed", residual, show_window=True),
        vanishing_check("exact", DiffOp(Fraction(1), {}, zero=ZERO), show_window=True),
    ])
    assert report["passed"]
    assert [c["detail"] for c in report["checks"]] == [
        "", "window (-7, None)", "window (None, None)"
    ]


def test_check_all_shows_only_the_first_failures():
    report = make_report([
        check_all("none_bad", []),
        check_all("four_bad", ["a", "b", "c", "d"]),
        check_all("two_shown", ["a", "b", "c"], shown=2),
    ])
    assert not report["passed"]
    assert [(c["name"], c["passed"], c["detail"]) for c in report["checks"]] == [
        ("none_bad", True, ""),
        ("four_bad", False, "a; b; c"),
        ("two_shown", False, "a; b"),
    ]


def test_make_report_passes_exactly_when_every_check_passes():
    good, broken = check("good", True, "fine"), check("broken", 0, "counterexample")
    assert broken == {"name": "broken", "passed": False, "detail": "counterexample"}
    assert make_report([]) == {"passed": True, "checks": []}
    assert make_report([good])["passed"] and not make_report([good, broken])["passed"]
    # the fields follow passed and checks, in the order given
    report = make_report([good], a=1, gauge="1")
    assert list(report) == ["passed", "checks", "a", "gauge"] and report["gauge"] == "1"


def test_a_parent_report_joins_its_sub_reports_and_carries_a_failure():
    sub = make_report([check("good", True, "fine"), check("broken", False, "counterexample")])
    report = make_report([check("own", True)]
                         + [{**c, "name": "tau_" + c["name"]} for c in sub["checks"]])
    assert not report["passed"]
    assert report["checks"][1:] == [
        {"name": "tau_good", "passed": True, "detail": "fine"},
        {"name": "tau_broken", "passed": False, "detail": "counterexample"},
    ]
    clean = make_report(sub["checks"][:1])
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
