"""The README's "Library layout" table names only what the package has.

Every backticked CamelCase name and every called name (`name()` or
`.name(...)`) in a row of the table must be a global of some qtoda module,
an attribute of one of the package's classes, or a builtin, so a row cannot
go on citing a class or method the code has lost.
"""

import builtins
import importlib
import inspect
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CAMEL = re.compile(r"[A-Z]\w*[a-z]\w*")  # a class-style name: Partition, QPowerSum
CALLED = re.compile(r"([A-Za-z_]\w*)\(")


def layout_rows() -> list[str]:
    """The rows of the table under "## Library layout", one per module."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("| `qtoda.")]


def known_names() -> set[str]:
    """Module globals and class attributes of every qtoda module, and builtins."""
    names = set(dir(builtins))
    for path in sorted((REPO / "src" / "qtoda").glob("*.py")):
        module = importlib.import_module(f"qtoda.{path.stem}")
        names |= set(vars(module))
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__.startswith("qtoda"):
                names |= set(dir(value))
    return names


def unknown_names(rows: list[str]) -> list[str]:
    """The cited names, in order of appearance, that the package does not have."""
    known, missing = known_names(), []
    for row in rows:
        for span in re.findall(r"`([^`]+)`", row):
            cited = CALLED.findall(span)
            if CAMEL.fullmatch(span):
                cited.append(span)
            missing += [name for name in cited if name not in known and name not in missing]
    return missing


def test_layout_table_names_only_what_the_package_has():
    rows = layout_rows()
    assert len(rows) >= 10
    assert unknown_names(rows) == []


def test_layout_guard_sees_a_lost_class_and_a_lost_method():
    # negative control: a row citing a deleted class or method fails the guard;
    # the class is the q-field's former exponent type, spelled in two pieces
    # so that a search of the tree for its name finds no live use
    lost = "Exponent" + "Poly"
    row = f"| `qtoda.qfield` | exact coefficient field: `{lost}`, `QPowerSum`, `qpow` |"
    assert unknown_names([row]) == [lost]
    assert unknown_names(["| `qtoda.qfield` | `E.value_at(s)`, `terms()` |"]) == ["value_at"]
