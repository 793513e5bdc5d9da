"""Guards on the import path and on hidden process-global state.

No environment variable and no process-global cache may change a result or
its cost from one run to the next, so no module reads the environment,
memoizes through functools or keeps a module-level mutable container (a
dict, list or set, literal or comprehension).  No module imports mpmath:
the q-field is checked by exact evaluation, not by numeric evaluation.

Every function and class has a caller elsewhere in the package, apart from
a short allow-list of entry points that only the tests and the benchmark
call, no module imports a name it never uses, and no statement follows a
return, raise, continue or break in its own block.

No nested function refers to its own name: such a closure holds a cell that
holds the function, a reference cycle that only the cyclic collector frees,
and the command line runs with that collector paused.

No parameter typed as a session object (a VertexContext, PowerSumRing or
LaxSession) has a default: the caller that owns the object hands it over,
so a callee cannot build a second one when the argument is left out.

W0, W0bar and their inverses have one builder: no code in the package
names `conjugated_series` outside its own definition and `LaxSession`.

Only `report.py` writes the report format: no other module builds a dict
literal with a "passed" or "checks" key or assigns to `x["passed"]` or
`x["checks"]`, so a report's pass flag is always derived from its checks.

The operator algebra is generic over its coefficient ring: the `DiffOp`
class body, `_product_edge`, `op_inverse` and `monomial_pow` name no
coefficient class, and no code in `opalg` tests a value's type against one.

A window edge is an extended integer, -inf or +inf on an exactly known side,
so no code in the package compares a `.floor` or `.ceil` attribute with
None; None spells an exact side only as the `DiffOp` constructor's input and
as `window()`'s output.
"""

import ast
import re
from collections import Counter
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


# defined in the package but called only from outside it
ENTRY_POINTS = {
    "op_inverse": "the tests' reference series inversion, and a benchmark span",
    "symbolic_flow_stencil": "half of the exact oracle that benchmarks/child.py runs",
    "stencil_apply": "the other half of the exact oracle that benchmarks/child.py runs",
    "stationarity_check": "an acceptance check of the reduced flow equations",
    "duality_check": "an acceptance check of the two-sided flow duality",
    "terms": "the read-out of QPowerSum and SitePoly that the README names",
}

NAMES_AND_ATTRIBUTES = (ast.Name, ast.Attribute)
ATTRIBUTES = (ast.Attribute,)


def referenced_names(tree: ast.AST, kinds: tuple = NAMES_AND_ATTRIBUTES) -> Counter:
    """How often each name occurs as a Name or as an attribute (or only as
    the node kinds given) in the tree."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, kinds)
    )


def uncalled_definitions(sources: dict[str, str]) -> list[str]:
    """Functions and classes (dunders excepted) that no code outside their own
    body names, across every module of `sources` (file name -> text).  A
    definition in a class body is reached only as an attribute, so only
    attribute references count for it: a local variable of the same name
    does not call a method."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = {kinds: sum((referenced_names(tree, kinds) for tree in trees.values()), Counter())
            for kinds in (NAMES_AND_ATTRIBUTES, ATTRIBUTES)}
    in_class = {id(stmt) for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) for stmt in node.body}
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            kinds = ATTRIBUTES if id(node) in in_class else NAMES_AND_ATTRIBUTES
            if refs[kinds][node.name] == referenced_names(node, kinds)[node.name]:
                found.append(f"{name}:{node.lineno}: {node.name}")
    return found


def unused_imports(name: str, text: str) -> list[str]:
    """Names that a module imports and never uses."""
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    found.append(f"{name}:{node.lineno}: {bound}")
    return found


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted((SRC / "qtoda").glob("*.py"))}


def test_every_definition_in_the_package_has_a_caller():
    found = uncalled_definitions(package_sources())
    exempt = [line for line in found if line.rsplit(" ", 1)[1] in ENTRY_POINTS]
    assert [line for line in found if line not in exempt] == []
    # an entry point that gains a caller in the package leaves the allow-list;
    # one name may exempt a method of several classes
    assert {line.rsplit(" ", 1)[1] for line in exempt} == set(ENTRY_POINTS)


def test_no_module_in_the_package_imports_a_name_it_never_uses():
    found = []
    for name, text in package_sources().items():
        found += unused_imports(name, text)
    assert found == []


def test_caller_and_import_scans_flag_dead_code():
    # negative controls: an uncalled def, a def that only calls itself and an
    # unused import are each seen; a def called from another module is not
    sources = {
        "a.py": "def used():\n    pass\n\n\ndef dead():\n    pass\n",
        "b.py": "from a import used\n\n\ndef loop(n):\n    return loop(n - 1)\n\n\nused()\n",
    }
    assert uncalled_definitions(sources) == ["a.py:5: dead", "b.py:4: loop"]
    # a method is called only as an attribute: a loop variable or a bare
    # name of the same name is no call, but a call through an instance is
    methods = {
        "c.py": "class C:\n    def p(self):\n        pass\n\n    def q(self):\n"
                "        pass\n\n    r = q\n",
        "d.py": "from c import C\n\n\nfor p in range(3):\n    C().r()\n",
    }
    assert uncalled_definitions(methods) == ["c.py:2: p", "c.py:5: q"]
    methods["d.py"] += "C().q()\n"
    assert uncalled_definitions(methods) == ["c.py:2: p"]
    assert unused_imports("c.py", "from __future__ import annotations\nimport math\nimport os.path\n"
                          "os.path.join('x')\n") == ["c.py:2: math"]
    assert unused_imports("d.py", "from fractions import Fraction as F\nF(1)\n") == []


def unreachable_statements(name: str, text: str) -> list[str]:
    """Statements that follow a return, raise, continue or break in the same
    block, so that no run reaches them."""
    ends = (ast.Return, ast.Raise, ast.Continue, ast.Break)
    found = []
    for node in ast.walk(ast.parse(text)):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for stmt, after in zip(block, block[1:]):
                if isinstance(stmt, ends):
                    found.append(f"{name}:{after.lineno}: after {type(stmt).__name__.lower()}")
    return found


def test_no_statement_in_the_package_follows_a_return_raise_continue_or_break():
    found = []
    for name, text in package_sources().items():
        found += unreachable_statements(name, text)
    assert found == []


def test_unreachable_scan_sees_a_statement_after_each_jump():
    # negative control: a dead loop after a return, and a statement after a
    # raise, a continue and a break, in a function, a loop, an else and a
    # handler; a jump that ends its block is not flagged
    source = (
        "def f(n):\n"
        "    out = 1\n"
        "    return out\n"
        "    for k in range(n):\n"
        "        out *= k\n"
        "\n"
        "\n"
        "def g(xs):\n"
        "    for x in xs:\n"
        "        if x:\n"
        "            continue\n"
        "            x += 1\n"
        "        else:\n"
        "            break\n"
        "            x -= 1\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError:\n"
        "        raise\n"
        "        xs = []\n"
        "    return xs\n"
    )
    assert unreachable_statements("x.py", source) == [
        "x.py:4: after return", "x.py:12: after continue", "x.py:15: after break",
        "x.py:20: after raise",
    ]
    ends_its_block = "def f(x):\n    if x:\n        return 1\n    return 2\n"
    assert unreachable_statements("y.py", ends_its_block) == []


def self_referring_closures(name: str, text: str) -> list[str]:
    """Functions defined inside another function that name themselves, each
    a closure over its own cell: a reference cycle."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for outer in ast.walk(ast.parse(text)):
        if not isinstance(outer, defs):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, defs):
                continue
            if any(isinstance(node, ast.Name) and node.id == inner.name
                   for stmt in inner.body for node in ast.walk(stmt)):
                found.append(f"{name}:{inner.lineno}: {inner.name}")
    return sorted(set(found))


def test_no_nested_function_in_the_package_refers_to_itself():
    found = []
    for name, text in package_sources().items():
        found += self_referring_closures(name, text)
    assert found == []


def test_closure_scan_flags_a_nested_function_that_refers_to_itself():
    # negative control: a memoized recursion and a recursive generator, each
    # a closure over itself, are seen; recursion at module level, a method
    # calling itself through self, and nested functions that call each other
    # only one way are not
    source = (
        "def det(matrix):\n"
        "    minors = {}\n"
        "\n"
        "    def minor(cols):\n"
        "        if cols not in minors:\n"
        "            minors[cols] = sum(minor(cols[1:]) for _ in cols)\n"
        "        return minors[cols]\n"
        "\n"
        "    return minor(tuple(range(len(matrix))))\n"
        "\n"
        "\n"
        "def walk(limit):\n"
        "    def rec(i):\n"
        "        yield i\n"
        "        yield from rec(i + 1)\n"
        "\n"
        "    yield from rec(0)\n"
    )
    assert self_referring_closures("x.py", source) == ["x.py:13: rec", "x.py:4: minor"]
    clean = (
        "def fact(n):\n"
        "    return 1 if n < 2 else n * fact(n - 1)\n"
        "\n"
        "\n"
        "class Tree:\n"
        "    def size(self):\n"
        "        return 1 + sum(c.size() for c in self.children)\n"
        "\n"
        "\n"
        "def outer(xs):\n"
        "    def leaf(x):\n"
        "        return x\n"
        "\n"
        "    def node(x):\n"
        "        return leaf(x)\n"
        "\n"
        "    return [node(x) for x in xs]\n"
    )
    assert self_referring_closures("y.py", clean) == []


SESSION_OBJECT = re.compile(r"\b(VertexContext|PowerSumRing|LaxSession)\b")


def defaulted_session_parameters(name: str, text: str) -> list[str]:
    """Parameters with a default whose annotation names a session object."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):] + [
            arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        for arg in defaulted:
            if arg.annotation and SESSION_OBJECT.search(ast.unparse(arg.annotation)):
                found.append(f"{name}:{arg.lineno}: {node.name}({arg.arg})")
    return found


def test_no_session_object_parameter_in_the_package_has_a_default():
    found = []
    for name, text in package_sources().items():
        found += defaulted_session_parameters(name, text)
    assert found == []


def test_session_parameter_scan_flags_a_defaulted_session_object():
    # negative control: an optional context, a keyword-only ring, a quoted
    # and a dotted session type are seen; a required one and a defaulted
    # parameter of another type are not
    source = (
        "def f(ctx: VertexContext | None = None):\n"
        "    pass\n"
        "\n"
        "\n"
        "def g(ctx: VertexContext):\n"
        "    pass\n"
        "\n"
        "\n"
        "def h(weight: int, *, ring: 'PowerSumRing' = None, flow_k: int = 1):\n"
        "    pass\n"
        "\n"
        "\n"
        "def k(session: opalg.LaxSession = None, degree: int = 4):\n"
        "    pass\n"
    )
    assert defaulted_session_parameters("x.py", source) == [
        "x.py:1: f(ctx)", "x.py:9: h(ring)", "x.py:13: k(session)"]
    assert defaulted_session_parameters("y.py", "def g(ctx: VertexContext):\n    pass\n") == []


SERIES_OWNERS = ("conjugated_series", "LaxSession")


def series_built_outside_the_session(name: str, text: str) -> list[str]:
    """Places that name conjugated_series (a call, an attribute or an import)
    outside its own definition and the LaxSession class."""
    found = []
    for stmt in ast.parse(text).body:
        if getattr(stmt, "name", None) in SERIES_OWNERS:
            continue
        for node in ast.walk(stmt):
            named = (node.id if isinstance(node, ast.Name)
                     else node.attr if isinstance(node, ast.Attribute)
                     else node.name if isinstance(node, ast.alias) else None)
            if named == "conjugated_series":
                found.append(f"{name}:{node.lineno}")
    return found


def test_only_the_lax_session_builds_the_dressing_series():
    found = []
    for name, text in package_sources().items():
        found += series_built_outside_the_session(name, text)
    assert found == []


def test_series_scan_flags_a_builder_outside_the_session():
    # negative control: a module-level function that calls the builder, a
    # dotted call and an import in another module are seen; the definition
    # and a LaxSession method that calls it are not
    source = (
        "def conjugated_series(left, right, coef, lower, T):\n"
        "    return conjugated_series\n"
        "\n"
        "\n"
        "def build_W0(params):\n"
        "    return conjugated_series(1, 1, abs, True, params.T)\n"
        "\n"
        "\n"
        "class LaxSession:\n"
        "    def _series(self, degree):\n"
        "        return conjugated_series(1, 1, abs, True, degree)\n"
    )
    assert series_built_outside_the_session("x.py", source) == ["x.py:6"]
    other = ("from .opalg import conjugated_series\nfrom . import opalg\n"
             "W = opalg.conjugated_series\n")
    assert series_built_outside_the_session("y.py", other) == ["y.py:1", "y.py:3"]


REPORT_KEYS = ("passed", "checks")


def report_writes(name: str, text: str) -> list[str]:
    """Dict literals with a "passed" or "checks" key, and assignments to
    x["passed"] or x["checks"]; reads of those keys are not writes."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Dict):
            keys = [k.value for k in node.keys if isinstance(k, ast.Constant)]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            keys = [node.slice.value] if isinstance(node.slice, ast.Constant) else []
        else:
            continue
        found += [(node.lineno, key) for key in keys if key in REPORT_KEYS]
    return [f"{name}:{line}: {key}" for line, key in sorted(found)]


def test_only_the_report_module_writes_the_report_format():
    found = []
    for name, text in package_sources().items():
        if name != "report.py":
            found += report_writes(name, text)
    assert found == []


def test_report_scan_flags_a_report_built_by_hand():
    # negative control: a report literal, a flag set beside its checks and a
    # check list replaced are seen; reading the flag and other keys are not
    source = (
        "report = {\"passed\": True, \"checks\": []}\n"
        "if not ok:\n"
        "    report[\"passed\"] = False\n"
        "report[\"checks\"] += more\n"
    )
    assert report_writes("x.py", source) == [
        "x.py:1: checks", "x.py:1: passed", "x.py:3: passed", "x.py:4: checks"]
    clean = "code = 0 if report[\"passed\"] else 1\nrow = {\"name\": n, \"detail\": d}\n"
    assert report_writes("cli.py", clean) == []


GENERIC_ALGEBRA = ("DiffOp", "_product_edge", "op_inverse", "monomial_pow")
COEFFICIENT_CLASSES = ("QFieldElem", "QPowerSum", "SitePoly")


def coefficient_classes_named(name: str, text: str) -> list[str]:
    """Places where the operator algebra tells coefficient rings apart: a
    coefficient class named in the DiffOp class body or in the three
    module-level functions that work on any ring (as a name, an attribute
    or inside a string, such as a quoted annotation), and an isinstance
    test against one anywhere in the module."""
    pattern = re.compile(r"\b(" + "|".join(COEFFICIENT_CLASSES) + r")\b")
    found = []
    for stmt in ast.parse(text).body:
        where = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if where in GENERIC_ALGEBRA:
                named = (node.id if isinstance(node, ast.Name)
                         else node.attr if isinstance(node, ast.Attribute)
                         else node.value if isinstance(node, ast.Constant) else None)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2):
                named = ast.unparse(node.args[1])
            else:
                continue
            hit = pattern.search(named) if isinstance(named, str) else None
            if hit:
                found.append(f"{name}:{node.lineno}: {where} names {hit[1]}")
    return found


def test_the_operator_algebra_names_no_coefficient_class():
    assert coefficient_classes_named("opalg.py", package_sources()["opalg.py"]) == []


def test_coefficient_class_scan_flags_a_ring_type_test():
    # negative control: a type test in the DiffOp body, a dotted class in
    # op_inverse, a quoted annotation in monomial_pow and a type test in a
    # helper are seen; a coefficient class named by a helper is not
    source = (
        "class DiffOp:\n"
        "    def __mul__(self, other):\n"
        "        if isinstance(terms[0], QFieldElem):\n"
        "            return QFieldElem.sum(terms)\n"
        "\n"
        "\n"
        "def op_inverse(a, depth):\n"
        "    return qfield.QPowerSum.one()\n"
        "\n"
        "\n"
        "def monomial_pow(op: 'DiffOp', k) -> 'SitePoly':\n"
        "    pass\n"
        "\n"
        "\n"
        "def _sum_coeffs(terms):\n"
        "    if isinstance(terms[0], (int, QFieldElem)):\n"
        "        return QFieldElem.sum(terms)\n"
        "\n"
        "\n"
        "def _require_inverse(w):\n"
        "    return QFieldElem.one()\n"
    )
    assert coefficient_classes_named("x.py", source) == [
        "x.py:3: DiffOp names QFieldElem", "x.py:4: DiffOp names QFieldElem",
        "x.py:8: op_inverse names QPowerSum", "x.py:11: monomial_pow names SitePoly",
        "x.py:16: _sum_coeffs names QFieldElem",
    ]


EDGES = ("floor", "ceil")


def none_edge_tests(name: str, text: str) -> list[str]:
    """`is None` and `is not None` comparisons whose operands include a
    `.floor` or `.ceil` attribute."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        if any(isinstance(x, ast.Constant) and x.value is None for x in operands) and any(
                isinstance(x, ast.Attribute) and x.attr in EDGES for x in operands):
            found.append((node.lineno, ast.unparse(node)))
    return [f"{name}:{line}: {text}" for line, text in sorted(found)]


def test_no_window_edge_in_the_package_is_compared_with_none():
    found = []
    for name, text in package_sources().items():
        found += none_edge_tests(name, text)
    assert found == []


def test_none_edge_scan_flags_an_edge_compared_with_none():
    # negative control: an edge attribute tested with is None and with is
    # not None, on either side, is seen; a bare parameter named floor, an
    # edge compared by value and a call result are not
    source = (
        "def f(a, b):\n"
        "    if a.floor is None:\n"
        "        return b.ceil\n"
        "    return None if a.ceil is not None else 0\n"
        "\n"
        "\n"
        "def g(x):\n"
        "    return None is x.floor\n"
    )
    assert none_edge_tests("x.py", source) == [
        "x.py:2: a.floor is None", "x.py:4: a.ceil is not None", "x.py:8: None is x.floor"]
    clean = (
        "def h(op, floor=None):\n"
        "    floor = -math.inf if floor is None else floor\n"
        "    return op.floor == -math.inf or math.floor(op.ceil) is None\n"
    )
    assert none_edge_tests("y.py", clean) == []
