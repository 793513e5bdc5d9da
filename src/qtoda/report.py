"""The one way a verification suite records a check in its report."""


def record_check(report: dict, name: str, ok: bool, detail: str = "") -> None:
    """Append {name, passed, detail} to report["checks"]; a failure fails the report."""
    report["checks"].append({"name": name, "passed": bool(ok), "detail": detail})
    if not ok:
        report["passed"] = False
