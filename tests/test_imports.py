"""Every name that a module of the package imports is used in that module.

A stdlib-`ast` check, so that no linter is needed: an imported name counts as
used when it occurs as a name anywhere in the module (attribute roots and
annotations included) or is listed in the module's `__all__`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "crcartan"


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


def test_checker_finds_an_unused_import():
    source = ("import os\nimport os.path as osp\nfrom typing import Mapping, Sequence\n"
              "from .exact import GaussRat\n__all__ = ['GaussRat']\n"
              "def f(m: Mapping):\n    return os.sep\n")
    assert unused_imports(source) == ["Sequence (line 3)", "osp (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
