"""The names the benchmark tracer wraps still exist in the program.

``bench/spans.py`` skips a name it cannot find and reports 0 for it, so a
renamed or removed function would silently empty its per-layer metric.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SPANS + spans.COUNTS


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_is_a_callable(name):
    module_name, attr = name.rsplit(".", 1)
    module = importlib.import_module(f"cvdfusion.{module_name}")
    assert callable(getattr(module, attr, None)), name
