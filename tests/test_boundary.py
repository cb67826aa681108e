"""Only `exact.py` knows the polynomial ring behind `Expr`.

A stdlib-`ast` check over every other module of the package.  Outside
`exact.py`:
- no module imports sympy;
- no attribute named `num`, `den`, `from_domain` or `to_domain` is used;
- no `_`-prefixed attribute is used on anything but `self` (dunder names such
  as `__init__` are the language's protocol, not a module's private state);
- the coefficient domains `ExprDomain` and `ExtDomain` define none of the
  pass-throughs `is_zero`, `conj`, `param_diff` or `subs_params`: their
  elements answer those themselves.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "crcartan"

RING_ATTRS = {"num", "den", "from_domain", "to_domain"}
DOMAINS = {"ExprDomain", "ExtDomain"}
PASS_THROUGHS = {"is_zero", "conj", "param_diff", "subs_params"}


def boundary_violations(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [f"imports {a.name} (line {node.lineno})" for a in node.names
                    if a.name.split(".")[0] == "sympy"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "sympy":
                out.append(f"imports {node.module} (line {node.lineno})")
        elif isinstance(node, ast.Attribute):
            attr = node.attr
            on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
            dunder = attr.startswith("__") and attr.endswith("__")
            if attr in RING_ATTRS:
                out.append(f".{attr} (line {node.lineno})")
            elif attr.startswith("_") and not dunder and not on_self:
                out.append(f".{attr} (line {node.lineno})")
        elif isinstance(node, ast.ClassDef) and node.name in DOMAINS:
            out += [f"{node.name}.{f.name} (line {f.lineno})" for f in node.body
                    if isinstance(f, ast.FunctionDef) and f.name in PASS_THROUGHS]
    return sorted(out)


def test_checker_finds_each_kind_of_violation():
    source = ("import sympy\nfrom sympy.polys import ring\n"
              "def f(e, ctx):\n    return e.num, ctx._index, e.__class__\n"
              "class ExtDomain:\n    def lift(self, v):\n        return self._fields\n"
              "    def conj(self, c):\n        return c.conj()\n")
    assert boundary_violations(source) == [
        "._index (line 4)", ".num (line 4)", "ExtDomain.conj (line 8)",
        "imports sympy (line 1)", "imports sympy.polys (line 2)"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "exact.py"),
                         ids=lambda p: p.name)
def test_only_exact_knows_the_ring(path):
    assert boundary_violations(path.read_text(encoding="utf-8")) == []
