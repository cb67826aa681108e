"""Only `exact.py` knows the polynomial kernel behind `Expr`.

No module of the package imports sympy, `exact.py` included (sympy is a test
dependency only), and importing `crcartan.cli` loads no sympy module.  A
stdlib-`ast` check over every other module of the package: outside
`exact.py`,
- no attribute named `num`, `den`, `from_domain` or `to_domain` is used;
- no `_`-prefixed attribute is used on anything but `self` (dunder names such
  as `__init__` are the language's protocol, not a module's private state);
- no integer field of `GaussRat` (`_a`, `_b`, `_d` of `(a + b*i) / d`) is
  read, not even on `self`: other modules go through `re`, `im` and the
  arithmetic;
- the coefficient domains `ExprDomain` and `ExtDomain` define none of the
  pass-throughs `is_zero`, `conj`, `param_diff` or `subs_params`: their
  elements answer those themselves;
- no name of the reduction kernel (trial division, the non-divisibility
  certificate's constants, functions and cache) appears at all: not read,
  imported, defined, nor used on `self`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "crcartan"

RING_ATTRS = {"num", "den", "from_domain", "to_domain"}
DOMAINS = {"ExprDomain", "ExtDomain"}
PASS_THROUGHS = {"is_zero", "conj", "param_diff", "subs_params"}
KERNEL_NAMES = {"_exact_div", "_long_div", "_shift", "_reduce", "_register",
                "_P", "_I_MOD_P", "_image", "_divides_mod_p", "_atom_image",
                "_atom_images", "_points"}
GAUSS_FIELDS = {"_a", "_b", "_d"}


def boundary_violations(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [f"imports {a.name} (line {node.lineno})" for a in node.names
                    if a.name.split(".")[0] == "sympy"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "sympy":
                out.append(f"imports {node.module} (line {node.lineno})")
            out += [f"imports {a.name} (line {node.lineno})" for a in node.names
                    if a.name in KERNEL_NAMES]
        elif isinstance(node, ast.Name) and node.id in KERNEL_NAMES:
            out.append(f"{node.id} (line {node.lineno})")
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in KERNEL_NAMES:
            out.append(f"defines {node.name} (line {node.lineno})")
        elif isinstance(node, ast.Attribute):
            attr = node.attr
            on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
            dunder = attr.startswith("__") and attr.endswith("__")
            if attr in RING_ATTRS or attr in KERNEL_NAMES or attr in GAUSS_FIELDS:
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


def test_checker_finds_each_kernel_name():
    source = ("from .exact import _P, parse\n"
              "def _shift(m):\n    return m\n"
              "class Ring:\n    def f(self, e):\n"
              "        return self._reduce(e), _image, self._atom_images\n")
    assert boundary_violations(source) == [
        "._atom_images (line 6)", "._reduce (line 6)", "_image (line 6)",
        "defines _shift (line 2)", "imports _P (line 1)"]


def test_checker_finds_gaussrat_fields():
    # self._b and self._d break only the GaussRat rule: other private
    # attributes are allowed on self
    source = ("def f(g):\n    return g.re, g._a\n"
              "class Q:\n    def f(self):\n        return self._b, self._d, self.im, self._c\n")
    assert boundary_violations(source) == ["._a (line 2)", "._b (line 5)", "._d (line 5)"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "exact.py"),
                         ids=lambda p: p.name)
def test_only_exact_knows_the_ring(path):
    assert boundary_violations(path.read_text(encoding="utf-8")) == []


def test_exact_imports_no_sympy():
    source = (SRC / "exact.py").read_text(encoding="utf-8")
    assert [v for v in boundary_violations(source) if v.startswith("imports sympy")] == []


def test_cli_import_loads_no_sympy():
    code = ("import sys, crcartan.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
