import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_span_resolves():
    # the traced benchmark wraps these functions by module and name; a
    # rename or removal here would silently drop a per-layer metric
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANS
    for name, (module, attr) in spans.SPANS.items():
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"span {name}: {module}.{attr} is missing"
