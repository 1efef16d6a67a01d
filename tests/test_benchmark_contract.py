"""The benchmark tracer (`benchmarks/tracer.py`) wraps qgrass functions
by module and attribute name.  Every name it lists must resolve, so a
renamed or moved function fails here rather than in a later traced
benchmark run.  The tracer is loaded read-only: nothing is installed or
written."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"

if not TRACER_PATH.exists():
    pytest.skip("benchmarks/tracer.py is not in this checkout", allow_module_level=True)


def load_tracer():
    spec = importlib.util.spec_from_file_location("qgrass_benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = load_tracer()


@pytest.mark.parametrize("metric", sorted(tracer.TRACED))
def test_traced_function_resolves(metric):
    _owner, _attr, fn = tracer.Tracer._resolve(*tracer.TRACED[metric])
    assert callable(fn)


def test_int64_marker_resolves():
    _owner, _attr, fn = tracer.Tracer._resolve(*tracer.INT64_MARKER)
    assert callable(fn)


def test_required_stages_are_traced():
    assert set(tracer.REQUIRED) <= set(tracer.TRACED)
    assert set(tracer.RSS_STAGES) <= set(tracer.TRACED)
