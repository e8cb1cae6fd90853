"""The benchmark's traced run can wrap every function it names."""

from __future__ import annotations

from pathlib import Path

from bipartite_rigidity import engine
from bipartite_rigidity.fixtures import fixture
from conftest import k10x10

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_hooks_resolve(monkeypatch):
    # Installing fails on any hook whose module attribute is gone, so a
    # refactor cannot silently break the traced run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = [getattr(module, attr) for module, attr, _ in spans.HOOKS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        engine.rigidity_test(fixture("projection_k44").framework)
        # Warm-started maximizations still go through the hooked ``lp.maximize``.
        engine.rigidity_test(k10x10(1))
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _ in spans.HOOKS] == originals
    metrics = tracer.layer_metrics()
    assert metrics["engine.kind.balanced"] >= 1 and metrics["lp.feasibility.calls"] >= 1
    by_id = {span.id: span for span in tracer.spans}
    assert any(
        span.name == "lp.maximize" and by_id[span.parent].name == "separation.radon"
        for span in tracer.spans
        if span.parent in by_id
    )
