"""Guards on the import path and on hidden process-global state.

No environment variable and no process-global cache may change a result or
its cost from one run to the next, so no module reads the environment,
memoizes through functools or keeps a module-level mutable container (a
dict, list or set, literal or comprehension).  No module imports mpmath:
the q-field is checked by exact evaluation, not by numeric evaluation.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

FORBIDDEN = re.compile(
    r"os\.environ|getenv|lru_cache|functools\.cache\b|from functools import [^\n]*\bcache\b"
)

def hidden_state(name: str, text: str) -> list[str]:
    """Lines that read the environment or declare a process-global cache."""
    found = [
        f"{name}:{no}: {line.strip()}"
        for no, line in enumerate(text.splitlines(), start=1)
        if FORBIDDEN.search(line)
    ]
    mutable = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if not isinstance(node.value, mutable):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                found.append(f"{name}:{node.lineno}: module-level {target.id}")
    return found


def test_no_environment_reads_or_global_caches_in_the_package():
    found = []
    for path in sorted((SRC / "qtoda").glob("*.py")):
        found += hidden_state(path.name, path.read_text(encoding="utf-8"))
    assert found == []


def test_hidden_state_scan_flags_each_pattern():
    # negative controls: each kind of hidden state is seen
    assert hidden_state("x.py", "from functools import lru_cache\n\n@lru_cache\ndef f():\n    pass\n")
    assert hidden_state("x.py", "import os\nBITS = os.environ.get('BITS')\n")
    assert hidden_state("x.py", "from functools import cache\n")
    assert hidden_state("x.py", "_MEMO: dict = {}\n") == ["x.py:1: module-level _MEMO"]
    assert hidden_state("qfield.py", "_DIV_CACHE: dict = {}\n") == ["qfield.py:1: module-level _DIV_CACHE"]
    assert hidden_state("x.py", "from functools import cached_property\n_ONE = (1,)\n") == []


def mpmath_imports(name: str, text: str) -> list[str]:
    """Import statements of mpmath in one source file."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m == "mpmath" or m.startswith("mpmath.") for m in modules):
            found.append(f"{name}:{node.lineno}")
    return found


def test_no_mpmath_import_in_the_package():
    found = []
    for path in sorted((SRC / "qtoda").glob("*.py")):
        found += mpmath_imports(path.name, path.read_text(encoding="utf-8"))
    assert found == []


def test_mpmath_scan_sees_each_import_form():
    # negative control: top-level, local and from-imports are all seen
    assert mpmath_imports("x.py", "import mpmath\n") == ["x.py:1"]
    assert mpmath_imports("x.py", "def f():\n    from mpmath import mp\n") == ["x.py:2"]
    assert mpmath_imports("x.py", "import numpy, mpmath.libmp\n") == ["x.py:1"]
    assert mpmath_imports("x.py", "import numpy\nfrom fractions import Fraction\n") == []
