"""Every name a stringcone module imports is read in that module.

A static check on the source with ``ast``: an import left behind after
its last use is dead code that still runs at start-up.  ``__init__.py``
imports to re-export, and ``from __future__`` imports are compiler
directives, so both are exempt; what ``__init__.py`` re-exports is
checked against ``__all__`` instead.  Every source file of the
repository also parses with the grammar of Python 3.10, the oldest
version ``pyproject.toml`` admits.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "stringcone"
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


def test_the_package_exports_exactly_what_its_init_imports():
    # __all__ is sorted and unique, names every import of __init__.py and
    # nothing else, and each name is defined in a module of the package,
    # so a test-only oracle cannot come back through the package
    import stringcone

    tree = ast.parse((SOURCE / "__init__.py").read_text(), "__init__.py")
    exported = stringcone.__all__
    assert exported == sorted(set(exported))
    assert exported == sorted(name for name, _ in imported_names(tree))
    for name in exported:
        module = sys.modules[getattr(stringcone, name).__module__]
        assert Path(module.__file__).resolve().parent == SOURCE.resolve(), name


def test_every_source_file_parses_as_python_3_10():
    # the grammar check only: a 3.11 library call still passes it
    paths = sorted(path for top in ("src", "tests", "perfbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert SOURCE / "cli.py" in paths and ROOT / "perfbench" / "run.py" in paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
