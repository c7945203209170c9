"""Span-based tracing for multi-stage protocols.

A *span* is a named interval of simulated time with a parent/child
relationship — the natural shape of the protocols this system runs:

- a gang context switch is a ``gang-switch`` span with ``halt`` /
  ``swap`` / ``release`` children (the paper's three stages);
- a packet's life is a ``pkt-flight`` span from wire injection to
  delivery into the destination receive queue;
- a retransmit epoch spans from a sequence number's first retransmission
  to its eventual delivery (or its last retry).

Spans ride the existing :class:`~repro.sim.trace.TraceRecord` stream as
paired ``span-begin`` / ``span-end`` records carrying a span id and an
optional parent id, emitted by a :class:`SpanEmitter` (one per cluster,
so ids are globally unique and deterministic).  The pairing, and the
packet-lifecycle and retransmit-epoch spans synthesized from the
ordinary per-packet records, are views of the live
:class:`~repro.telemetry.causal.TraceConsumer`, so the hot paths never
pay for explicit span bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.sim.trace import Tracer

SPAN_BEGIN = "span-begin"
SPAN_END = "span-end"


@dataclass(frozen=True)
class Span:
    """One reconstructed interval."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start: float
    end: float
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanEmitter:
    """Emits span-begin/span-end records onto a tracer.

    Truthy exactly when the underlying tracer records (so call sites
    guard with ``if spans:`` and pay one boolean check when tracing is
    off).  Ids increase monotonically in emission order, which is
    simulation event order — deterministic.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._next_id = 0

    def __bool__(self) -> bool:
        return bool(self.tracer)

    def begin(self, name: str, category: str = "",
              parent: Optional[int] = None, **args) -> int:
        span_id = self._next_id
        self._next_id += 1
        self.tracer.record(SPAN_BEGIN, span=span_id, parent=parent,
                           name=name, cat=category, **args)
        return span_id

    def end(self, span_id: int, **args) -> None:
        self.tracer.record(SPAN_END, span=span_id, **args)


def summarize_spans(spans: Iterable[Span]) -> dict:
    """Deterministic per-name aggregates for the unified snapshot."""
    by_name: dict[str, list] = {}
    total = 0
    for span in spans:
        total += 1
        cell = by_name.setdefault(span.name, [0, 0.0])
        cell[0] += 1
        cell[1] += span.duration
    return {
        "count": total,
        "by_name": {
            name: {"count": cell[0], "total_seconds": cell[1]}
            for name, cell in sorted(by_name.items())
        },
    }
