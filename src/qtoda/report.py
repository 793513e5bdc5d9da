"""The one way a verification suite records a check in its report."""


def record_check(report: dict, name: str, ok: bool, detail: str = "") -> None:
    """Append {name, passed, detail} to report["checks"]; a failure fails the report."""
    report["checks"].append({"name": name, "passed": bool(ok), "detail": detail})
    if not ok:
        report["passed"] = False


def record_all(report: dict, name: str, failures: list, shown: int = 3) -> None:
    """Record a check that passes when `failures` is empty; show the first `shown`."""
    record_check(report, name, not failures, "; ".join(failures[:shown]))


def merge_checks(report: dict, sub: dict, prefix: str = "") -> None:
    """Re-record every check of a sub-report in `report`, names prefixed."""
    for chk in sub["checks"]:
        record_check(report, prefix + chk["name"], chk["passed"], chk["detail"])
