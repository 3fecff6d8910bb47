"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own wrappers around calls into the
program's layers (nothing inside ``src/`` is instrumented).  Each span is
``(span id, name, start, end, parent span id, run id)``; spans live in
memory until :meth:`Tracer.write_jsonl` writes them out after the run.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

__all__ = ["Tracer", "self_times"]

Span = Tuple[int, str, float, float, Optional[int], str]


class Tracer:
    """Nested spans on one thread, tagged with the current run id."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run_id = ""
        self._stack: List[Tuple[int, str, float]] = []
        self._next_id = 0

    def _parent(self) -> Optional[int]:
        return self._stack[-1][0] if self._stack else None

    def begin(self, name: str) -> None:
        self._stack.append((self._next_id, name, time.perf_counter()))
        self._next_id += 1

    def end(self) -> float:
        """Close the innermost open span; returns its duration."""
        span_id, name, start = self._stack.pop()
        end = time.perf_counter()
        self.spans.append((span_id, name, start, end, self._parent(), self.run_id))
        return end - start

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def add_closed(self, name: str, seconds: float) -> None:
        """Record a child span that ended just now and lasted ``seconds``
        (for layers that report their own phase durations)."""
        end = time.perf_counter()
        self.spans.append(
            (self._next_id, name, end - seconds, end, self._parent(), self.run_id)
        )
        self._next_id += 1

    def write_jsonl(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"meta": meta}) + "\n")
            for span_id, name, start, end, parent, run_id in self.spans:
                out.write(
                    json.dumps(
                        {
                            "span": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run_id,
                        }
                    )
                    + "\n"
                )


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for __, __, start, end, parent, __ in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: Dict[str, float] = defaultdict(float)
    for span_id, name, start, end, __, __ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] += (end - start) - covered
    return dict(totals)
