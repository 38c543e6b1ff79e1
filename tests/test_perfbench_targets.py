"""The benchmark's tracer patches package functions by name; keep each name alive."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return [(module, attr) for module, attr, _name, _info in spans.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_trace_target_is_a_callable(module, attr):
    target = getattr(importlib.import_module(f"thuecolor.{module}"), attr, None)
    assert callable(target), f"thuecolor.{module}.{attr}"
