"""Outside-in tracing: wrap the public names one specsim module imports from
another, record where the time goes, and put every name back afterwards.

No specsim source is touched. A name such as ``attacks.run`` is the binding
``attacks`` looks up at call time, so replacing that module attribute routes
every call ``attacks`` makes through the wrapper while ``pipeline.run``
itself stays as it is.

Two kinds of wrapped name exist:

* span names record one span per call: name, start, end, parent span and
  the workload item that was running. Spans stay in memory until the run
  ends and are then written out as JSON lines.
* aggregate names (``observe_trial``, ``qlru_touch``: tens of thousands of
  calls) keep only a call count, total time and self time.

Self time is a call's duration minus the time its wrapped children took.
Book-keeping a wrapper does around its call (content keys, trace scans) is
charged to neither the call nor its parent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None
    self_s: float
    attrs: dict = field(default_factory=dict)


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("name", "span_id", "child_s")

    def __init__(self, name: str, span_id: int | None):
        self.name = name
        self.span_id = span_id
        self.child_s = 0.0


class Patches:
    """Module-attribute replacements that are always undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class CycleCounter:
    """The only hook on the end-to-end passes: sums the occupancy rows of
    every ``run()`` so that simulated cycles per host second can be
    reported. It reads no clock and records no span."""

    def __init__(self):
        self.cycles = 0
        self.patches = Patches()

    def install(self, run_sites) -> None:
        for module in run_sites:
            self.patches.replace(module, "run", self._wrap)

    def _wrap(self, fn):
        def counted(*args, **kwargs):
            trace = fn(*args, **kwargs)
            self.cycles += len(trace.occupancy)
            return trace

        return counted

    def restore(self) -> None:
        self.patches.restore()


class Recorder:
    """Span and aggregate recorder over wrapped module attributes. Times are
    raw host seconds, not corrected for the host's speed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.aggregates: dict[str, Aggregate] = {}
        self.item: str | None = None
        self.patches = Patches()
        self._stack: list[_Frame] = []

    # -- wrapping --------------------------------------------------------

    def span(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Record a span per call of ``module.attr``. ``before(args,
        kwargs)`` runs ahead of the call and its value reaches
        ``after(span, result, before_value)``; neither is timed."""
        self.patches.replace(module, attr, lambda fn: self._span_wrapper(fn, name, before, after))

    def aggregate(self, module, attr: str, name: str) -> None:
        self.aggregates.setdefault(name, Aggregate())
        self.patches.replace(module, attr, lambda fn: self._aggregate_wrapper(fn, name))

    def restore(self) -> None:
        self.patches.restore()

    def enclosing(self, name: str) -> bool:
        """Is a call of ``name`` on the stack right now?"""
        return any(f.name == name for f in self._stack)

    def caller(self) -> str | None:
        """Name of the innermost wrapped call on the stack."""
        return self._stack[-1].name if self._stack else None

    def _parent_span(self) -> int | None:
        for f in reversed(self._stack):
            if f.span_id is not None:
                return f.span_id
        return None

    def _span_wrapper(self, fn, name, before, after):
        def wrapper(*args, **kwargs):
            outer = perf_counter()
            pre = before(args, kwargs) if before else None
            frame = _Frame(name, len(self.spans))
            parent = self._parent_span()
            span = Span(frame.span_id, name, 0.0, 0.0, parent, self.item, 0.0)
            self.spans.append(span)
            self._stack.append(frame)
            result = None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                span.attrs["raised"] = type(e).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
                span.self_s = span.end - span.start - frame.child_s
                if after:
                    after(span, result, pre)
                if self._stack:
                    self._stack[-1].child_s += perf_counter() - outer

        return wrapper

    def _aggregate_wrapper(self, fn, name):
        agg = self.aggregates[name]

        def wrapper(*args, **kwargs):
            frame = _Frame(name, None)
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                agg.calls += 1
                agg.total_s += end - start
                agg.self_s += end - start - frame.child_s
                if self._stack:
                    self._stack[-1].child_s += end - start

        return wrapper

    # -- reading ---------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_s(self, name: str) -> float:
        if name in self.aggregates:
            return self.aggregates[name].self_s
        return sum(s.self_s for s in self.spans if s.name == name)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "item": s.item, "self_s": s.self_s, **s.attrs,
                }) + "\n")
            for name, a in sorted(self.aggregates.items()):
                f.write(json.dumps({
                    "aggregate": name, "calls": a.calls, "total_s": a.total_s, "self_s": a.self_s,
                }) + "\n")
