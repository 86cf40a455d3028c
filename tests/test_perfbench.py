import importlib.util
from pathlib import Path


def test_every_span_target_resolves():
    # the benchmark's traced runs wrap these module attributes by name, so a
    # renamed function would fail only there
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in spans.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []
