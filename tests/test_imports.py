"""Every name a fracdyn module imports is read somewhere in that module."""

import ast
import pathlib

import pytest

import fracdyn

MODULES = sorted(pathlib.Path(fracdyn.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names bound by the imports of ``source`` that no other line reads.

    A name on a ``# noqa`` import statement, or listed in ``__all__``, is
    kept, as are ``__future__`` imports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported.update((alias.asname or alias.name).split(".")[0]
                        for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import():
    source = ("import os\nimport sys  # noqa\nfrom math import gcd, pi\n"
              "from .errors import ConfigError\n__all__ = ['ConfigError']\n"
              "print(pi)\n")
    assert unused_imports(source) == ["gcd", "os"]
