"""Every name that a module of the package imports is used in that module,
and every public name that it defines is used by the program.

Stdlib-`ast` checks, so that no linter is needed.  An imported name counts as
used when it occurs as a name anywhere in the module (attribute roots and
annotations included) or is listed in the module's `__all__`.  A public
top-level name counts as used when a module of the package or a script
references it outside its own definition: as a name, as an attribute, or as
an imported name (so an import by `__init__.py` counts).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "crcartan"
SCRIPTS = ROOT / "scripts"

#: public names that only tests and the benchmark call, and why they stay
TEST_ONLY_NAMES = {
    "crosscheck.normalization_reference":
        "reference closed form the tests compare against; running it in "
        "`invariants --cross-check` would add work to both method workloads",
    "crosscheck.second_loop_reference":
        "reference closed form the tests compare against, as above",
    "crosscheck.rneq0_reference":
        "reference closed form the tests compare against, as above",
    "crosscheck.lbar_closed_form_reference":
        "reference closed form the tests compare against, as above",
    "frames.efgjk_from_formulas":
        "perfbench/child.py imports and traces it",
    "frames.jacobi_relations_check":
        "perfbench/child.py imports and traces it",
    "coframes.d_squared_check":
        "perfbench/child.py imports and traces it",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def _public_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out.update((name, node) for name in names if not name.startswith("_"))
    return out


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names, attributes and imported names in tree, outside the node skip."""
    skipped = {id(node) for node in ast.walk(skip)} if skip else set()
    refs = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def unreferenced_names(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """"module.name" for each public top-level name of a package module that
    no package module (`__init__.py` included) or other source references
    outside its own definition.  Both arguments map file names to sources."""
    trees = {name: ast.parse(text) for name, text in package.items()}
    other_refs = set().union(*(_references(ast.parse(t)) for t in others.values()))
    out = []
    for fname, tree in trees.items():
        for name, node in _public_definitions(tree).items():
            used = name in other_refs or any(
                name in _references(t, node if f == fname else None)
                for f, t in trees.items())
            if not used:
                out.append(f"{fname.removesuffix('.py')}.{name}")
    return sorted(out)


def test_checker_finds_an_unused_import():
    source = ("import os\nimport os.path as osp\nfrom typing import Mapping, Sequence\n"
              "from .exact import GaussRat\n__all__ = ['GaussRat']\n"
              "def f(m: Mapping):\n    return os.sep\n")
    assert unused_imports(source) == ["Sequence (line 3)", "osp (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_an_unreferenced_name():
    package = {
        "__init__.py": "from .m import exported\n__all__ = ['exported']\n",
        "m.py": ("CONST = 1\n_private = 2\n"
                 "def exported():\n    return helper()\n"
                 "def helper():\n    return CONST\n"
                 "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
                 "class Unused:\n    pass\n"
                 "def from_script():\n    pass\n"
                 "def as_attribute():\n    pass\n"
                 "def only_tests():\n    pass\n"),
        "n.py": "from . import m\nVALUE = m.as_attribute\n",
    }
    scripts = {"run.py": "from crcartan.m import from_script\nfrom_script()\n"}
    assert unreferenced_names(package, scripts) == [
        "m.Unused", "m.only_tests", "m.recursive", "n.VALUE"]


def test_every_public_name_has_a_program_reference():
    package = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    scripts = {p.name: p.read_text(encoding="utf-8") for p in SCRIPTS.glob("*.py")}
    assert unreferenced_names(package, scripts) == sorted(TEST_ONLY_NAMES)
