"""Every name a fracdyn module imports, and every private name it
defines, is read somewhere in that module."""

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


def unread_private_names(source):
    """Module-level ``_name``s that ``source`` defines by a def, a class or
    an assignment and that no line of it reads; dunder names are kept."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defined.update(name.id for target in targets
                           for name in ast.walk(target)
                           if isinstance(name, ast.Name))
    private = {name for name in defined
               if name.startswith("_") and not name.endswith("__")}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(private - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import():
    source = ("import os\nimport sys  # noqa\nfrom math import gcd, pi\n"
              "from .errors import ConfigError\n__all__ = ['ConfigError']\n"
              "print(pi)\n")
    assert unused_imports(source) == ["gcd", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_reads_every_private_name(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unread_private_name():
    source = ("_TOL = 1e-12\n_A, (_B, c) = 1, (2, 3)\n__version__ = '1'\n"
              "_cache: dict = {}\n\n"
              "def _used(x):\n    return x * _TOL + _B\n\n"
              "def _orphan(x):\n    return _used(x)\n\n"
              "class _Work:\n    pass\n\n"
              "def public():\n    _local = 1\n    return _local\n")
    assert unread_private_names(source) == ["_A", "_Work", "_cache",
                                            "_orphan"]
