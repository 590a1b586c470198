"""The benchmark harness's self-tests run with the library's tests.

``perfbench/tests`` lies outside ``testpaths``, so a library change that
breaks the harness (an op that no longer runs, a changed digest, a patched
name that moved) would otherwise show only in a benchmark run.  The
self-tests are loaded by unittest discovery and only read ``perfbench/``.
"""

import io
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_self_tests_pass(monkeypatch):
    # the harness puts its own directory first on sys.path and imports its
    # modules under plain names (run, tracing, ...): undo both afterwards,
    # and write no bytecode under perfbench/
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    before = set(sys.modules)
    try:
        tests = str(BENCH / "tests")
        suite = unittest.defaultTestLoader.discover(tests, top_level_dir=tests)
        stream = io.StringIO()
        result = unittest.TextTestRunner(stream=stream).run(suite)
    finally:
        for name in set(sys.modules) - before:
            origin = getattr(sys.modules[name], "__file__", None) or ""
            if Path(origin).resolve().is_relative_to(BENCH):
                del sys.modules[name]
    assert result.wasSuccessful(), stream.getvalue()
    assert result.testsRun == 10
