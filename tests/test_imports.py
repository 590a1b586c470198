"""Every name a stringcone module imports is read in that module.

A static check on the source with ``ast``: an import left behind after
its last use is dead code that still runs at start-up.  ``__init__.py``
imports to re-export, and ``from __future__`` imports are compiler
directives, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "stringcone"
MODULES = sorted(path.name for path in SOURCE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree):
    """The name each import binds, with the line it is on."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def read_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    tree = ast.parse((SOURCE / module).read_text(), module)
    read = read_names(tree)
    unused = [(name, line) for name, line in imported_names(tree) if name not in read]
    assert unused == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from operator import and_, mul\nimport os.path\nprint(and_)\n")
    assert [name for name, _ in imported_names(tree) if name not in read_names(tree)] == [
        "mul", "os"]
