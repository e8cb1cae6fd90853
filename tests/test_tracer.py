"""The benchmark's traced run can wrap every function it names."""

from __future__ import annotations

from pathlib import Path

from bipartite_rigidity import engine
from bipartite_rigidity.fixtures import fixture

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
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _ in spans.HOOKS] == originals
    metrics = tracer.layer_metrics()
    assert metrics["engine.kind.balanced"] >= 1 and metrics["lp.feasibility.calls"] >= 1
