"""The benchmark tracer's wrap points must exist on the package.

``benchmarks/spans.py`` replaces functions at the module attributes the
callers look up.  A refactor that drops one of those imports would only
show when a traced benchmark run starts; this test catches it here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("ringdecay_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


WRAP_POINTS = _load_spans().WRAP_POINTS


@pytest.mark.parametrize("module_name, attr, layer", WRAP_POINTS,
                         ids=[f"{m}.{a}" for m, a, _ in WRAP_POINTS])
def test_wrap_point_resolves(module_name, attr, layer):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({layer}) is missing"
