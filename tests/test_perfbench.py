import importlib.util
from pathlib import Path

from tpaopt import absorption as ab
from tpaopt.model import Atom
from tpaopt.states import GaussianProduct


def _spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_span_target_resolves():
    # the benchmark's traced runs wrap these module attributes by name, so a
    # renamed function would fail only there
    spans = _spans()
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in spans.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_traced_reference_route_keeps_its_value():
    # the tracer wraps `absorption.integrate` and hands it a one-argument
    # integrand that counts the nodes; the reference route's outer integral
    # goes through that name, its inner integrals through `integrate_batch`
    atom, state, t = Atom(2.0, 1.0, 0.3, -0.2), GaussianProduct(1.1, 1.9, 1.2), 2.0
    expected = ab.pf_at(atom, state, t, method="quadrature")
    with _spans().Tracer() as tracer:
        assert ab.pf_at(atom, state, t, method="quadrature") == expected
    metrics = tracer.metrics()
    assert metrics["quadrature.integrate.calls"] == 1
    assert metrics["quadrature.integrate.nodes"] > 0
    assert metrics["quadrature.integrate.nodes"] % 15 == 0
