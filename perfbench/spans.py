"""Spans around the calls into each package module, for the traced run.

The wrappers live only here.  :class:`Tracer` installs them from outside,
by rebinding a function in the namespace of every module that looks it up
(``engine`` finds ``maximal_support_radon`` in its own globals, while
``separation`` reaches the solver through the ``lp`` module attribute), and
:meth:`Tracer.uninstall` puts the originals back.  The timed end-to-end run
never installs them.

A span carries a name, start, end, parent and thread id, plus a few exact
counts read off the call's arguments and result.  Spans stay in memory
until :meth:`Tracer.layer_metrics` folds them into per-layer metrics and
the caller writes them out.  Self time is a span's duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

from bipartite_rigidity import docio, engine, lp, reduction, stress

RECORD_KINDS = ("balanced", "separated", "exit", "dimspan", "one-sided")

#: Where each traced function is looked up by its callers, and the span
#: name it gets.  Geometry's span functions are wrapped where the other
#: modules call them, so spans between two geometry functions are not
#: recorded.
HOOKS: tuple[tuple[object, str, str], ...] = (
    (lp, "solve_feasibility", "lp.feasibility"),
    (lp, "maximize", "lp.maximize"),
    (engine, "maximal_support_radon", "separation.radon"),
    (engine, "max_margin_quadric", "separation.margin"),
    (engine, "verify_radon", "separation.verify"),
    (engine, "verify_separation", "separation.verify"),
    (engine, "build_super_stable_stress", "stress.build"),
    (engine, "verify_super_stable_certificate", "stress.verify"),
    (engine, "project_out_known_set", "reduction.project"),
    (engine, "slide_functional", "reduction.slide"),
    (engine, "slide_to_hyperplane", "reduction.slide"),
    (engine, "affine_closure", "reduction.closure"),
    (engine, "span_invariant_holds", "reduction.closure"),
    (engine, "affine_span_dim", "geometry.span"),
    (stress, "affine_span_dim", "geometry.span"),
    (stress, "affine_spans_equal", "geometry.span"),
    (reduction, "affine_spans_equal", "geometry.span"),
    (reduction, "in_affine_span", "geometry.span"),
    (reduction, "linear_rank", "geometry.span"),
    (engine, "rigidity_test", "engine.decide"),
    (engine, "verify_chain", "engine.verify"),
    (engine, "rigidity_test_batch", "engine.batch"),
    (docio, "serialize_chain", "docio.serialize"),
    (docio, "parse_chain", "docio.parse"),
)

#: Layers whose self times, with ``engine.decide.self_s``, make up the
#: traced decide total on a workload that only decides.
SELF_TIME_LAYERS = (
    "lp.self_s",
    "separation.radon.self_s",
    "separation.margin.self_s",
    "separation.verify.self_s",
    "stress.build.self_s",
    "stress.verify.self_s",
    "geometry.span.self_s",
    "reduction.project.self_s",
    "reduction.slide.self_s",
    "reduction.closure.self_s",
    "engine.verify.self_s",
    "docio.serialize.self_s",
    "docio.parse.self_s",
)


def unit(metric: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_per_call", ".overlap", "_frac")):
        return "ratio"
    return {"lp.cells": "cells", "lp.out_bits.max": "bits", "docio.bytes": "bytes"}.get(
        metric, "count")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    attrs: dict = field(default_factory=dict)


def _bits(x) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _lp_attrs(args, result) -> dict:
    prob = args[0]
    attrs = {
        "cells": len(prob.rows) * prob.n_vars,
        "infeasible": result.status is lp.LPStatus.INFEASIBLE,
        "out_bits": max((_bits(v) for v in result.point or ()), default=0),
    }
    if result.value is not None:
        attrs["positive"] = result.value > 0
    return attrs


def _chain_attrs(chain) -> dict:
    return {"kinds": [rec.kind for rec in chain.records]}


#: Span name -> function of (args, result) giving the span's counts.
ATTRS: dict[str, Callable] = {
    "lp.feasibility": _lp_attrs,
    "lp.maximize": _lp_attrs,
    "engine.decide": lambda args, result: _chain_attrs(result[1]),
    "engine.verify": lambda args, result: _chain_attrs(args[1]),
    "docio.serialize": lambda args, result: {"bytes": len(result.encode("utf-8"))},
}


class Tracer:
    """Records spans while installed; folds them into per-layer metrics."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._batch: Optional[int] = None
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A batch item runs on a pool thread whose stack is empty; its
            # parent is the batch span open on the calling thread.
            parent = stack[-1] if stack else self._batch
            span_id = next(self._ids)
            stack.append(span_id)
            if name == "engine.batch":
                self._batch = span_id
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = Span(span_id, name, start, time.perf_counter(), parent,
                            threading.get_ident())
                self.spans.append(span)
                stack.pop()
                if name == "engine.batch":
                    self._batch = None
            # Only a call that returned gets counts; one that raised keeps its span.
            if attrs_of is not None:
                span.attrs = attrs_of(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module, attr, name in HOOKS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = {}
        for span in self.spans:
            covered = 0.0
            reach = span.start
            for child in sorted(children[span.id], key=lambda s: s.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[span.id] = span.end - span.start - covered
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times over every recorded span."""
        by_id = {span.id: span for span in self.spans}
        self_s = self.self_times()
        calls: Counter = Counter()
        busy: Counter = Counter()
        for span in self.spans:
            calls[span.name] += 1
            busy[span.name] += self_s[span.id]

        def parent_name(span: Span) -> Optional[str]:
            return by_id[span.parent].name if span.parent in by_id else None

        lp_spans = [s for s in self.spans if s.name.startswith("lp.")]
        radon_lp = [s for s in lp_spans if parent_name(s) == "separation.radon"]
        radon_max = [s for s in radon_lp if s.name == "lp.maximize"]
        batches = [s for s in self.spans if s.name == "engine.batch"]
        items = [s for s in self.spans
                 if s.name == "engine.decide" and parent_name(s) == "engine.batch"]
        batch_wall = sum(s.end - s.start for s in batches)
        kinds: Counter = Counter()
        for span in self.spans:
            kinds.update(span.attrs.get("kinds", ()))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m = {
            "lp.feasibility.calls": calls["lp.feasibility"],
            "lp.maximize.calls": calls["lp.maximize"],
            "lp.infeasible.calls": sum(s.attrs.get("infeasible", 0) for s in lp_spans),
            "lp.self_s": busy["lp.feasibility"] + busy["lp.maximize"],
            "lp.cells": sum(s.attrs.get("cells", 0) for s in lp_spans),
            "lp.out_bits.max": max((s.attrs.get("out_bits", 0) for s in lp_spans), default=0),
            "separation.radon.calls": calls["separation.radon"],
            "separation.radon.self_s": busy["separation.radon"],
            "separation.radon.lp_per_call": ratio(
                len(radon_lp), calls["separation.radon"]),
            "separation.radon.useful_ratio": ratio(
                sum(s.attrs.get("positive", 0) for s in radon_max), len(radon_max)),
            "separation.margin.calls": calls["separation.margin"],
            "separation.margin.self_s": busy["separation.margin"],
            "separation.verify.self_s": busy["separation.verify"],
            "engine.batch.wall_s": batch_wall,
            "engine.batch.overlap": ratio(
                sum(s.end - s.start for s in items), batch_wall),
            "engine.decide.self_s": busy["engine.decide"],
            "engine.decide.total_s": sum(
                s.end - s.start for s in self.spans if s.name == "engine.decide"),
            "engine.records": sum(kinds.values()),
            "engine.verify.self_s": busy["engine.verify"],
            "stress.build.calls": calls["stress.build"],
            "stress.build.self_s": busy["stress.build"],
            "stress.verify.self_s": busy["stress.verify"],
            "geometry.span.calls": calls["geometry.span"],
            "geometry.span.self_s": busy["geometry.span"],
            "reduction.project.calls": calls["reduction.project"],
            "reduction.project.self_s": busy["reduction.project"],
            "reduction.slide.self_s": busy["reduction.slide"],
            "reduction.closure.calls": calls["reduction.closure"],
            "reduction.closure.self_s": busy["reduction.closure"],
            "docio.serialize.self_s": busy["docio.serialize"],
            "docio.parse.self_s": busy["docio.parse"],
            "docio.bytes": sum(s.attrs.get("bytes", 0) for s in self.spans),
        }
        for kind in RECORD_KINDS:
            m[f"engine.kind.{kind}"] = kinds[kind]
        return m

    def span_dicts(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "thread": s.thread,
             **{k: v for k, v in s.attrs.items() if k != "kinds"}}
            for s in self.spans
        ]
