"""The benchmark tracer's hook names must resolve in the library.

``perfbench/tracing.py`` patches functions by ``(module, name)``; its own
self-tests live outside ``testpaths``, so a renamed or deleted function
would otherwise go unnoticed until a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_name_resolves():
    tracing = _load_tracing()
    hooks = tracing.SPANNED + tracing.COUNTED
    assert hooks
    for module_name, function_name in hooks:
        module = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
        assert callable(getattr(module, function_name, None)), (module_name, function_name)


def test_every_result_counter_names_a_spanned_hook():
    # a counter keyed by a function without a span would never be called
    tracing = _load_tracing()
    spanned = {f"{module_name}.{function_name}"
               for module_name, function_name in tracing.SPANNED}
    assert tracing.ON_RESULT
    for key in tracing.ON_RESULT:
        assert key in spanned, key
