"""Static checks on the package source, read through the ast module."""

import ast
from pathlib import Path

import pytest

import unimod

SOURCES = sorted(Path(unimod.__file__).parent.glob("*.py"))


def unused_imports(source):
    """The names a module imports and then never reads, unless it exports
    them in __all__.  A name counts as read wherever it is loaded: a bare
    name, the head of an attribute chain, or a decorator."""
    tree = ast.parse(source)
    imported = {}  # bound name -> line of its import
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "lattice.py",
                                         "systems.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path


def test_unused_import_is_caught():
    source = ("from itertools import chain, count\n"
              "import os.path\n"
              "from operator import not_ as negate\n"
              "__all__ = ['negate']\n"
              "print(chain)\n")
    assert unused_imports(source) == [(1, "count"), (2, "os")]
