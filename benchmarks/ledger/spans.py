"""Outside-in span recorder: spans around calls the benchmark makes.

A span is ``{name, op_id, parent, start_ns, end_ns}`` on the
``perf_counter_ns`` clock — the clock ``repro.obs.trace`` uses, so span
trees the program already exposes (``repro.tracing()``) graft in as
children without conversion.  Spans stay in memory until the run ends.

The untraced run passes :data:`NULL` instead of a :class:`Recorder`:
same op code, no span objects, nothing recorded.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns
from typing import Dict, List, Optional


class _Span:
    __slots__ = ("recorder", "index")

    def __init__(self, recorder: "Recorder", index: int):
        self.recorder = recorder
        self.index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *_exc) -> None:
        recorder = self.recorder
        recorder.spans[self.index][4] = perf_counter_ns()
        recorder.stack.pop()


class Recorder:
    """Collects spans as ``[name, op_id, parent, start_ns, end_ns]`` rows.

    One recorder belongs to one thread (the closed-loop client); spans
    observed on other threads are added after the fact with
    :meth:`add`.
    """

    enabled = True

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op_id = -1

    def span(self, name: str) -> _Span:
        """Open a span under the innermost open one."""
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, self.op_id, parent, perf_counter_ns(), 0])
        self.stack.append(index)
        return _Span(self, index)

    def add(
        self, name: str, start_ns: int, end_ns: int, parent: Optional[int] = None
    ) -> int:
        """Record a span timed elsewhere (socket timestamps, harvested
        program spans); the parent defaults to the innermost open span."""
        if parent is None:
            parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.op_id, parent, start_ns, end_ns])
        return len(self.spans) - 1

    def graft(self, root, prefix: str) -> None:
        """Add a ``repro.obs.trace.Span`` subtree's children under the
        innermost open span, names prefixed (``<calling span>/<stage>``)
        so program stages and the benchmark's own spans cannot be
        confused."""
        parent = self.stack[-1] if self.stack else -1
        pending = [(child, parent) for child in root.children]
        while pending:
            span, above = pending.pop()
            index = self.add(
                prefix + span.name, span.start_ns, span.end_ns or span.start_ns, above
            )
            pending.extend((child, index) for child in span.children)

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``busy_ms``, ``self_ms``, ``median_ms``.

        Self time is the span's duration minus the part of that interval
        its direct children cover (children of one parent never overlap
        here: one thread, or harvested from a tree with the same
        property).
        """
        child_ns = [0] * len(self.spans)
        for _name, _op, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        rows: Dict[str, Dict[str, float]] = {}
        durations: Dict[str, List[float]] = {}
        for index, (name, _op, _parent, start, end) in enumerate(self.spans):
            row = rows.setdefault(name, {"count": 0, "busy_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["busy_ms"] += (end - start) / 1e6
            row["self_ms"] += max(0, end - start - child_ns[index]) / 1e6
            durations.setdefault(name, []).append((end - start) / 1e6)
        for name, row in rows.items():
            row["median_ms"] = statistics.median(durations[name])
        return rows

    def as_dicts(self) -> List[dict]:
        """The spans as JSON-ready dicts (``parent`` is an index or -1)."""
        return [
            {
                "name": name,
                "op_id": op_id,
                "parent": parent,
                "start_ns": start,
                "end_ns": end,
            }
            for name, op_id, parent, start, end in self.spans
        ]


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        return None


class _NullRecorder:
    """Tracing off: ``span()`` hands back one shared no-op context."""

    enabled = False
    op_id = -1
    _SPAN = _NullSpan()

    def span(self, _name: str) -> _NullSpan:
        return self._SPAN

    def add(self, *_args, **_kwargs) -> int:
        return -1



NULL = _NullRecorder()
