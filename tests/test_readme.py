"""The README's "Library layout" table names only what the package has.

Every backticked CamelCase name, every bare backticked snake_case name and
every called name (`name()` or `.name(...)`) in a row of the table must be
a global of some qtoda module, an attribute of one of the package's
classes, or a builtin, so a row cannot go on citing a class, function or
method the code has lost; a bare snake_case name may also be a parameter
name of a package function (`t_end`).
"""

import builtins
import importlib
import inspect
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CAMEL = re.compile(r"[A-Z]\w*[a-z]\w*")  # a class-style name: Partition, QPowerSum
CALLED = re.compile(r"([A-Za-z_]\w*)\(")
SNAKE = re.compile(r"_?[a-z][a-z0-9]*(?:_[a-z0-9]+)+")  # a bare name: t_end, merge_checks


def layout_rows() -> list[str]:
    """The rows of the table under "## Library layout", one per module."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("| `qtoda.")]


def package_definitions() -> list:
    """(module globals, the classes and functions each module defines) per qtoda module."""
    out = []
    for path in sorted((REPO / "src" / "qtoda").glob("*.py")):
        module = importlib.import_module(f"qtoda.{path.stem}")
        own = [value for value in vars(module).values()
               if (inspect.isclass(value) or inspect.isfunction(value))
               and value.__module__.startswith("qtoda")]
        out.append((vars(module), own))
    return out


def known_names() -> set[str]:
    """Module globals and class attributes of every qtoda module, and builtins."""
    names = set(dir(builtins))
    for module_globals, own in package_definitions():
        names |= set(module_globals)
        for value in own:
            if inspect.isclass(value):
                names |= set(dir(value))
    return names


def parameter_names() -> set[str]:
    """The parameter names of every function and method the package defines."""
    names = set()
    for _, own in package_definitions():
        for value in own:
            for member in vars(value).values() if inspect.isclass(value) else [value]:
                func = getattr(member, "__func__", getattr(member, "func", member))
                if inspect.isfunction(func):
                    names |= set(inspect.signature(func).parameters)
    return names


def unknown_names(rows: list[str]) -> list[str]:
    """The cited names, in order of appearance, that the package does not have."""
    known, parameters, missing = known_names(), parameter_names(), []
    for row in rows:
        for span in re.findall(r"`([^`]+)`", row):
            cited = CALLED.findall(span)
            if CAMEL.fullmatch(span) or (SNAKE.fullmatch(span) and span not in parameters):
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


def test_layout_guard_sees_a_lost_function_cited_by_its_bare_name():
    # negative control: a bare name the package lacks is seen; a parameter
    # name and a global cited bare are not
    row = "| `qtoda.report` | `merge_checks` copies a sub-report; `t_end`, `make_report` |"
    assert unknown_names([row]) == ["merge_checks"]
