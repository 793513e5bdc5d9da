"""The one report format: a check is a value, and a report passes when every check does."""


def check(name: str, ok: bool, detail: str = "") -> dict:
    """The check {name, passed, detail}."""
    return {"name": name, "passed": bool(ok), "detail": detail}


def check_all(name: str, failures: list, shown: int = 3) -> dict:
    """A check that passes when `failures` is empty; its detail shows the first `shown`."""
    return check(name, not failures, "; ".join(failures[:shown]))


def make_report(checks: list, **fields) -> dict:
    """{"passed", "checks", **fields}, passed exactly when every check passed."""
    return {"passed": all(c["passed"] for c in checks), "checks": checks, **fields}
