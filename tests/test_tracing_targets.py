"""The benchmark tracer's wrap targets all exist.

``perfbench/tracing.py`` wraps lanekit functions by module attribute and
silently skips a target that was renamed, so a metric would quietly vanish
from every traced run.  This reads its ``WRAPS`` without importing the rest
of the benchmark and requires each ``(module, attr)`` to resolve.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


@pytest.mark.parametrize("wrap", wraps(), ids=lambda w: f"{w.module}.{w.attr}")
def test_wrap_target_resolves(wrap):
    assert callable(getattr(importlib.import_module(wrap.module), wrap.attr, None))
