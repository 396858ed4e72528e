"""In-memory spans recorded by the benchmark around calls into kgsynth.

A span has a name, a start, an end and the span that was open when it
began. Names are ``<layer>.<operation>``; a layer's self time is the
summed duration of its spans minus the parts covered by their child spans.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    count: int = 0  # work done inside the span, in the span's own unit

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(id=len(self.spans), name=name, parent=parent, start=0.0)
        self.spans.append(record)
        self._open.append(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        """Summed work count of every span called ``name``."""
        return sum(s.count for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def child_time(self, span: Span) -> float:
        """Time inside ``span`` that its child spans cover.

        Spans are strictly nested (one thread), so a child's interval lies
        inside its parent's and children do not overlap.
        """
        return sum(s.duration for s in self.spans if s.parent == span.id)

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + s.duration - child_time[s.id]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end, "count": s.count}) + "\n")
