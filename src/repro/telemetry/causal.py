"""Causal lineage over the trace-record stream, built in one live pass.

The instrumented hot paths emit flat per-event records (``msg-start``,
``pkt-enq``, ``pkt-tx``, ``pkt-deliver``, ``msg-recv``, ``stall``,
``rto-*`` …) precisely because flat records are cheap: one dict per
event, no cross-references, zero cost when tracing is off.  This module
is the other half of the bargain.  A :class:`TraceConsumer` is fed each
record as the tracer emits it (``Tracer(sink=consumer.feed)``) and
keeps, with no record retained:

- a :class:`MessageTrace` per application message, keyed by
  ``(src_node, job, msg_id)`` (msg ids are process-global counters, so
  the triple is unique within one simulation), holding one
  :class:`FragmentTrace` per wire fragment with its enqueue / first-tx /
  last-tx / delivery timestamps, retransmit history, and drop counts —
  the cross-node edge (tx on the source NIC → deliver on the destination
  NIC) is exactly a Dapper-style *follows-from* link;
- per-node and per-(node, job) *scheduling windows* — halted-NIC
  intervals, buffer-swap intervals, stored-context intervals, and
  SIGSTOP/descheduled intervals — against which
  :mod:`repro.telemetry.attribution` charges the parts of a message's
  latency that overlap them;
- explicit ``span-begin``/``span-end`` pairs, packet flights,
  retransmit epochs, per-cause stall totals and policy reallocations.

Messages are attributed at :meth:`TraceConsumer.analysis`, against the
final windows.  Every view is deterministic, order-preserving, and safe on a truncated stream (open
intervals clip to the last record time; incomplete messages are
reported as such, never guessed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.trace import TraceRecord
from repro.telemetry.attribution import (SUM_TOLERANCE, attribute_message,
                                         summarize_attribution)
from repro.telemetry.spans import SPAN_BEGIN, SPAN_END, Span

#: record kinds the lineage builder consumes (a tracer restricted to
#: these kinds yields full causal traces at minimum cost)
CAUSAL_KINDS = frozenset((
    "msg-start", "pkt-enq", "pkt-tx", "pkt-deliver", "pkt-drop",
    "msg-recv", "stall", "rto-retransmit", "rto-give-up",
    "pkt-dup-discard", "nic-halt", "nic-release", "buffer-switch",
    "ctx-install", "ctx-remove", "init-job", "job-stop", "job-go",
    "realloc-plan", "realloc-apply", "window-set",
))

_SPAN_META = frozenset(("span", "parent", "name", "cat"))


@dataclass(slots=True)
class FragmentTrace:
    """One wire fragment's life, summarised from its per-packet records."""

    frag: int
    seq: Optional[int] = None
    enqueued: Optional[float] = None       # pkt-enq: host PIO into send queue
    tx_times: List[float] = field(default_factory=list)   # every wire copy
    delivered: Optional[float] = None      # first pkt-deliver
    extra_deliveries: int = 0              # duplicate arrivals past the first
    retransmits: int = 0
    dup_discards: int = 0
    drops: int = 0
    gave_up: bool = False

    @property
    def first_tx(self) -> Optional[float]:
        return self.tx_times[0] if self.tx_times else None

    @property
    def delivering_tx(self) -> Optional[float]:
        """The wire copy that plausibly delivered: last tx at or before
        the delivery (a spurious retransmit after a lost ack can fire
        *later* than the delivery and must not be mistaken for it)."""
        if self.delivered is None or not self.tx_times:
            return None
        before = [t for t in self.tx_times if t <= self.delivered]
        return before[-1] if before else self.tx_times[0]


@dataclass(slots=True)
class MessageTrace:
    """One application message's causal trace."""

    src_node: int
    job: int
    msg_id: int
    first_seen: float = 0.0                # earliest record naming it
    dst_node: Optional[int] = None
    dst_rank: Optional[int] = None
    nbytes: Optional[int] = None
    frag_count: Optional[int] = None
    started: Optional[float] = None        # msg-start: FM_send entry
    sent: Optional[float] = None           # msg-send: last fragment PIOed
    completed: Optional[float] = None      # msg-recv: reassembly finished
    frags: Dict[int, FragmentTrace] = field(default_factory=dict)
    stalls: List[Tuple[str, float, float]] = field(default_factory=list)

    @property
    def key(self) -> tuple:
        return (self.src_node, self.job, self.msg_id)

    @property
    def latency(self) -> Optional[float]:
        if self.started is None or self.completed is None:
            return None
        return self.completed - self.started

    @property
    def complete(self) -> bool:
        """True when the full send-to-reassembly chain was observed."""
        if self.started is None or self.completed is None:
            return False
        if self.frag_count is None or len(self.frags) < self.frag_count:
            return False
        return all(f.enqueued is not None and f.tx_times
                   and f.delivered is not None
                   for f in self.frags.values())

    def completing_fragment(self) -> Optional[FragmentTrace]:
        """The fragment whose delivery finished the message (latest
        delivery; per-pair FIFO makes it the last one extracted)."""
        delivered = [f for f in self.frags.values()
                     if f.delivered is not None]
        if not delivered:
            return None
        return max(delivered, key=lambda f: (f.delivered, f.frag))

    @property
    def retransmits(self) -> int:
        return sum(f.retransmits for f in self.frags.values())

    @property
    def drops(self) -> int:
        return sum(f.drops for f in self.frags.values())


@dataclass(frozen=True)
class SchedulingWindows:
    """Interval sets the attribution pass charges overlap against."""

    halted: Dict[int, List[Tuple[float, float]]]           # node -> intervals
    swapping: Dict[int, List[Tuple[float, float]]]         # node -> intervals
    stored: Dict[tuple, List[Tuple[float, float]]]         # (node, job) -> ...
    stopped: Dict[tuple, List[Tuple[float, float]]]        # (node, job) -> ...


class TraceConsumer:
    """The single incremental pass every trace view is built from.

    Feed it every record in stream order, either live as a tracer sink
    or from a list with :meth:`of`.  Memory grows with messages, packets
    and windows, never with raw records.  Open intervals (a halt with no
    release yet, a span never ended) are clipped only in the views, so a
    view can be taken mid-run and feeding can go on.
    """

    def __init__(self):
        self.messages: Dict[tuple, MessageTrace] = {}
        self.last_time = 0.0
        # (sender, seq) -> (message, fragment); seq -> first sender, built
        # on the first receiver-side record without a ``src`` field
        self._seq_owner: Dict[tuple, tuple] = {}
        self._seq_sender: Optional[Dict[int, int]] = None
        # closed intervals, plus the open edge of each unclosed one
        self._closed = SchedulingWindows({}, {}, {}, {})
        self._halted_open: Dict[int, float] = {}
        self._stored_open: Dict[tuple, float] = {}
        self._stopped_open: Dict[tuple, float] = {}
        self._span_open: Dict[int, tuple] = {}         # id -> (time, fields)
        self._span_closed: List[Span] = []
        self._in_flight: Dict[tuple, list] = {}        # (src, dst, seq) -> txs
        self._flights: List[tuple] = []
        self._epochs: Dict[int, list] = {}   # seq -> [first, last, n, ok, tag]
        self._stall_totals: Dict[str, list] = {}
        self._anon_stalls: List[tuple] = []
        self._plans: Dict[object, list] = {}  # seq -> [t, node, jobs, last]
        self._handlers = {
            "msg-start": self._msg_start, "pkt-enq": self._pkt_enq,
            "pkt-tx": self._pkt_tx, "pkt-deliver": self._pkt_deliver,
            "msg-recv": self._msg_recv, "msg-send": self._msg_send,
            "stall": self._stall, "rto-retransmit": self._rto_retransmit,
            "rto-give-up": self._rto_give_up,
            "pkt-dup-discard": self._dup_discard, "pkt-drop": self._drop,
            "nic-halt": self._nic_halt, "nic-release": self._nic_release,
            "buffer-switch": self._buffer_switch,
            "ctx-remove": self._ctx_remove, "ctx-install": self._ctx_install,
            "init-job": self._init_job, "job-stop": self._job_stop,
            "job-go": self._job_go, SPAN_BEGIN: self._span_begin,
            SPAN_END: self._span_end, "realloc-plan": self._realloc_plan,
            "realloc-apply": self._realloc_apply,
        }

    @classmethod
    def of(cls, records: Iterable[TraceRecord]) -> "TraceConsumer":
        """A fresh consumer fed every record of a list (saved traces)."""
        consumer = cls()
        feed = consumer.feed
        for rec in records:
            feed(rec.time, rec.kind, rec.fields)
        return consumer

    def feed(self, time: float, kind: str, fields: dict) -> None:
        self.last_time = time
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(time, fields)

    # ------------------------------------------------------------ lineage
    def _trace(self, key: tuple, time: float) -> MessageTrace:
        """The message's trace, created on first mention."""
        trace = self.messages.get(key)
        if trace is None:
            trace = MessageTrace(src_node=key[0], job=key[1], msg_id=key[2],
                                 first_seen=time)
            self.messages[key] = trace
        return trace

    def _own(self, node: int, seq: int, trace: MessageTrace,
             frag: FragmentTrace) -> None:
        key = (node, seq)
        if self._seq_sender is not None and key not in self._seq_owner:
            self._seq_sender.setdefault(seq, node)
        self._seq_owner[key] = (trace, frag)

    def _msg_start(self, time, f):
        trace = self._trace((f["node"], f["job"], f["msg"]), time)
        trace.started = time
        trace.dst_node = f.get("dst")
        trace.dst_rank = f.get("dst_rank")
        trace.nbytes = f.get("nbytes")
        trace.frag_count = f.get("frags")

    def _pkt_enq(self, time, f):
        trace = self._trace((f["node"], f["job"], f["msg"]), time)
        frag = trace.frags.setdefault(f["frag"], FragmentTrace(frag=f["frag"]))
        frag.seq = f.get("seq")
        frag.enqueued = time
        if frag.seq is not None:
            self._own(f["node"], frag.seq, trace, frag)

    def _pkt_tx(self, time, f):
        if "seq" in f:
            self._in_flight.setdefault((f["node"], f["dst"], f["seq"]), []
                                       ).append((time, f.get("job")))
        msg = f.get("msg", -1)
        if msg is None or msg < 0:
            return    # control packet (refill/halt/ready/ack)
        trace = self._trace((f["node"], f["job"], msg), time)
        index = f.get("frag", 0)
        frag = trace.frags.setdefault(index, FragmentTrace(frag=index))
        if frag.seq is None and f.get("seq") is not None:
            frag.seq = f["seq"]
            self._own(f["node"], frag.seq, trace, frag)
        frag.tx_times.append(time)

    def _pkt_deliver(self, time, f):
        seq = f.get("seq")
        flight_key = (f.get("src"), f.get("node"), seq)
        txs = self._in_flight.get(flight_key)
        if txs:
            tx_time, job = txs.pop(0)
            if not txs:
                del self._in_flight[flight_key]
            self._flights.append((tx_time, time, flight_key[0],
                                  flight_key[1], seq, job))
        epoch = self._epochs.get(seq) if seq is not None else None
        if epoch is not None and epoch[0] is not None:
            epoch[1] = time
            epoch[3] = True
        msg = f.get("msg", -1)
        if msg is None or msg < 0:
            return
        key = (f["src"], f["job"], msg)
        trace = self._trace(key, time)
        owner = self._seq_owner.get((key[0], seq)) if seq is not None else None
        if owner is not None and owner[0] is trace:
            frag = owner[1]
        else:
            # Fallback: single-fragment message or seq map incomplete.
            frag = trace.frags.setdefault(0, FragmentTrace(frag=0))
            if frag.seq is None and seq is not None:
                frag.seq = seq
        if frag.delivered is None:
            frag.delivered = time
        else:
            frag.extra_deliveries += 1

    def _msg_recv(self, time, f):
        msg = f.get("msg")
        src = f.get("src")
        if msg is None or src is None:
            return    # pre-causal record shape
        self._trace((src, f["job"], msg), time).completed = time

    def _msg_send(self, time, f):
        msg = f.get("msg_id", f.get("msg"))
        if msg is not None:
            self._trace((f["node"], f["job"], msg), time).sent = time

    def _stall(self, time, f):
        cause = f["cause"]
        cell = self._stall_totals.setdefault(cause, [0, 0.0])
        cell[0] += 1
        cell[1] += f["dur"]
        msg = f.get("msg", -1)
        if msg is None or msg < 0:
            if "msg" in f and msg is not None:
                # anonymous stall (refill path): a span, but no message
                self._anon_stalls.append((time - f["dur"], time, f["node"],
                                          f["job"], cause))
            return
        trace = self._trace((f["node"], f["job"], msg), time)
        trace.stalls.append((cause, time - f["dur"], time))

    def _epoch(self, seq) -> list:
        epoch = self._epochs.get(seq)
        if epoch is None:
            epoch = self._epochs[seq] = [None, None, 0, None, None]
        return epoch

    def _rto_retransmit(self, time, f):
        seq = f.get("seq")
        if seq is None:
            return
        epoch = self._epoch(seq)
        if epoch[0] is None:
            epoch[0] = time
        epoch[1] = time
        epoch[2] += 1
        if epoch[4] is None:
            epoch[4] = f.get("strategy")
        owner = self._seq_owner.get((f["node"], seq))
        if owner is not None:
            owner[1].retransmits += 1

    def _rto_give_up(self, time, f):
        seq = f.get("seq")
        if seq is None:
            return
        epoch = self._epoch(seq)
        epoch[1] = time
        if epoch[3] is None:
            epoch[3] = False
        owner = self._seq_owner.get((f["node"], seq))
        if owner is not None:
            owner[1].gave_up = True

    def _receiver_owner(self, f) -> Optional[tuple]:
        """Drops/dup-discards happen at the *receiver*; the seq map is
        keyed by sender node.  Use the record's explicit src if it has
        one, else the first sender of that seq (seqs are globally unique
        per sim, so at most one sender matches)."""
        seq = f.get("seq")
        if seq is None:
            return None
        src = f.get("src")
        if src is None:
            if self._seq_sender is None:
                self._seq_sender = {}
                for node, owned in self._seq_owner:
                    self._seq_sender.setdefault(owned, node)
            src = self._seq_sender.get(seq)
        return self._seq_owner.get((src, seq))

    def _dup_discard(self, time, f):
        owner = self._receiver_owner(f)
        if owner is not None:
            owner[1].dup_discards += 1

    def _drop(self, time, f):
        owner = self._receiver_owner(f)
        if owner is not None:
            owner[1].drops += 1

    def lineage(self) -> List[MessageTrace]:
        """Messages ordered by ``(started, src_node, job, msg_id)``
        (unstarted messages — possible only under a kinds filter or
        truncation — sort by the earliest record that mentioned them)."""
        return sorted(
            self.messages.values(),
            key=lambda t: (t.started if t.started is not None
                           else t.first_seen, t.src_node, t.job, t.msg_id))

    # ------------------------------------------------------------ windows
    @staticmethod
    def _close(open_: dict, closed: dict, key, time: float) -> None:
        start = open_.pop(key, None)
        if start is not None:
            closed.setdefault(key, []).append((start, time))

    def _nic_halt(self, time, f):
        self._halted_open.setdefault(f["node"], time)

    def _nic_release(self, time, f):
        self._close(self._halted_open, self._closed.halted, f["node"], time)

    def _buffer_switch(self, time, f):
        self._closed.swapping.setdefault(f["node"], []).append(
            (time - f.get("duration", 0.0), time))

    def _ctx_remove(self, time, f):
        self._stored_open.setdefault((f["node"], f["job"]), time)

    def _ctx_install(self, time, f):
        self._close(self._stored_open, self._closed.stored,
                    (f["node"], f["job"]), time)

    def _init_job(self, time, f):
        if not f.get("installed", True):
            self._stored_open.setdefault((f["node"], f["job"]), time)

    def _job_stop(self, time, f):
        self._stopped_open.setdefault((f["node"], f["job"]), time)

    def _job_go(self, time, f):
        self._close(self._stopped_open, self._closed.stopped,
                    (f["node"], f["job"]), time)

    def windows(self, end_time: Optional[float] = None) -> SchedulingWindows:
        """Halted / swapping / stored / descheduled intervals.

        Open intervals (a halt with no release before the stream ended)
        are clipped to ``end_time`` (default: the last record's
        timestamp).  Repeated opens (a fail-stop SIGSTOPping an
        already-parked process) keep the earliest open edge.
        """
        clip = end_time if end_time is not None else self.last_time
        out = SchedulingWindows(
            *({key: list(ivs) for key, ivs in table.items()}
              for table in (self._closed.halted, self._closed.swapping,
                            self._closed.stored, self._closed.stopped)))
        for open_, table in ((self._halted_open, out.halted),
                             (self._stored_open, out.stored),
                             (self._stopped_open, out.stopped)):
            for key, start in sorted(open_.items()):
                table.setdefault(key, []).append((start, max(clip, start)))
        return out

    # ------------------------------------------------------------ analysis
    def analysis(self, truncated: bool = False,
                 end_time: Optional[float] = None) -> dict:
        """Lineage -> windows -> per-message attribution -> summary.

        The returned dict carries the aggregate statistics plus a
        ``per_message`` list (index, endpoints, chain timestamps,
        latency, causes) for exemplar selection and chrome rendering.
        ``mismatches`` counts messages whose cause partition failed to
        sum to the measured latency within float tolerance — always 0
        unless the attribution logic regresses.
        """
        traces = self.lineage()
        windows = self.windows(end_time)
        per_message: List[dict] = []
        incomplete = 0
        mismatches = 0
        for index, trace in enumerate(traces):
            att = attribute_message(trace, windows)
            if att is None:
                incomplete += 1
                continue
            total = sum(att["causes"].values())
            if abs(total - att["latency"]) > SUM_TOLERANCE * max(
                    1.0, att["latency"]):
                mismatches += 1
            frag = trace.completing_fragment()
            per_message.append({
                "index": index,
                "job": trace.job,
                "src": trace.src_node,
                "dst": trace.dst_node,
                "nbytes": trace.nbytes,
                "frags": trace.frag_count,
                "retransmits": trace.retransmits,
                "latency": att["latency"],
                "causes": att["causes"],
                "chain": {
                    "started": trace.started,
                    "enqueued": frag.enqueued,
                    "first_tx": frag.first_tx,
                    "delivered": frag.delivered,
                    "completed": trace.completed,
                },
            })
        summary = summarize_attribution(per_message)
        return {
            "messages": len(traces),
            "complete": len(per_message),
            "incomplete": incomplete,
            "mismatches": mismatches,
            "truncated": truncated,
            "latency": summary["latency"],
            "causes": summary["causes"],
            "stalls": self.stall_totals(),
            "per_message": per_message,
        }

    def stall_totals(self) -> dict:
        """``{cause: {"waits": n, "seconds": s}}`` over every ``stall``
        record — the registry harvest and the snapshot's ``stall.*``
        metrics come from exactly this."""
        return {cause: {"waits": cell[0], "seconds": cell[1]}
                for cause, cell in sorted(self._stall_totals.items())}

    # ------------------------------------------------------------ reallocs
    def _realloc_plan(self, time, f):
        plan = self._plans.get(f.get("sequence"))
        if plan is None:
            self._plans[f.get("sequence")] = [time, f.get("node"),
                                              f.get("jobs"), time]
        else:
            plan[3] = time

    def _realloc_apply(self, time, f):
        plan = self._plans.get(f.get("sequence"))
        if plan is not None:
            plan[3] = time

    def reallocs(self) -> List[dict]:
        """Policy reallocation intervals, plan to last apply."""
        order = sorted(self._plans,
                       key=lambda s: (self._plans[s][0], str(s)))
        return [{"node": self._plans[s][1], "sequence": s,
                 "jobs": self._plans[s][2], "start": self._plans[s][0],
                 "end": self._plans[s][3]} for s in order]

    # ------------------------------------------------------------ spans
    def _span_begin(self, time, f):
        self._span_open[f["span"]] = (time, f)

    def _span_end(self, time, f):
        begin = self._span_open.pop(f["span"], None)
        if begin is not None:    # else the kinds filter ate the begin
            self._span_closed.append(_make_span(begin, time, f))

    def spans(self, truncated: bool = False) -> List[Span]:
        """Explicit spans plus packet, retransmit and causal spans, each
        family in its own id range above the explicit ids."""
        spans = self.explicit_spans(truncated)
        base = max(max((s.span_id for s in spans), default=-1) + 1,
                   1_000_000)
        spans += self.packet_spans(base, truncated)
        spans += self.retransmit_spans(base + 1_000_000, truncated)
        spans += self.causal_spans(base + 2_000_000, truncated)
        return spans

    def explicit_spans(self, truncated: bool = False) -> List[Span]:
        """Paired ``span-begin``/``span-end`` records, by start then id.

        Spans never closed are clipped to the last record's timestamp;
        with ``truncated=True`` (the tracer hit its record cap) each is
        also marked ``truncated`` — its end record may have been lost to
        the cap, so the clipped duration is a lower bound.
        """
        clip_fields = {"truncated": True} if truncated else {}
        spans = self._span_closed + [
            _make_span(self._span_open[span_id], self.last_time, clip_fields)
            for span_id in sorted(self._span_open)]
        spans.sort(key=lambda s: (s.start, s.span_id))
        return spans

    def packet_spans(self, next_id: int = 1_000_000,
                     truncated: bool = False) -> List[Span]:
        """Packet lifecycles: each ``pkt-tx`` carrying a seq paired with
        the next ``pkt-deliver`` of that seq (per-pair FIFO makes first
        match correct; a retransmitted seq yields one span per wire copy
        that arrived).

        An undelivered tx is normally a genuinely lost wire copy and
        yields no span.  On a ``truncated`` stream its delivery may just
        be missing, so it becomes an open span clipped to the last
        record time and flagged ``truncated=True``.
        """
        spans = []
        for start, end, src, dst, seq, job in self._flights:
            spans.append(Span(
                span_id=next_id, parent_id=None, name="pkt-flight",
                category="packet", start=start, end=end,
                args={"src": src, "dst": dst, "seq": seq, "job": job}))
            next_id += 1
        if truncated:
            leftovers = [(time, job, key) for key, txs in
                         self._in_flight.items() for time, job in txs]
            leftovers.sort(key=lambda tx: (tx[0], tx[2][2]))
            for time, job, (src, dst, seq) in leftovers:
                spans.append(Span(
                    span_id=next_id, parent_id=None, name="pkt-flight",
                    category="packet", start=time,
                    end=max(self.last_time, time),
                    args={"src": src, "dst": dst, "seq": seq, "job": job,
                          "truncated": True}))
                next_id += 1
        return spans

    def retransmit_spans(self, next_id: int = 2_000_000,
                         truncated: bool = False) -> List[Span]:
        """Retransmit epochs: first retransmission of a seq to its
        delivery, or to its last retry if it was never delivered.

        Args carry the retry count and whether it was recovered; on a
        ``truncated`` stream an epoch with neither delivery nor give-up
        is flagged ``truncated=True`` (its ``recovered=False`` is
        unknown, not a verdict).  Epochs of a non-default reliability
        strategy (records carrying a ``strategy`` tag) are named
        ``retransmit-epoch-<strategy>``; untagged ones keep the plain
        name — the pre-strategy snapshot contract.
        """
        spans = []
        for seq in sorted(s for s, e in self._epochs.items()
                          if e[0] is not None):
            first, last, retries, recovered, strategy = self._epochs[seq]
            args = {"seq": seq, "retries": retries,
                    "recovered": bool(recovered)}
            if truncated and recovered is None:
                args["truncated"] = True
            name = "retransmit-epoch"
            if strategy is not None:
                name = f"retransmit-epoch-{strategy}"
                args["strategy"] = strategy
            spans.append(Span(
                span_id=next_id, parent_id=None, name=name,
                category="reliability", start=first, end=last, args=args))
            next_id += 1
        return spans

    def causal_spans(self, next_id: int = 3_000_000,
                     truncated: bool = False) -> List[Span]:
        """Span view of the causal layer for exporters and snapshots.

        One ``message`` span per message (category ``causal``), one
        ``stall-<cause>`` span per recorded stall (category ``stall``),
        and one ``realloc`` span per policy-engine reallocation plan
        (category ``policy``).  Incomplete messages appear only when the
        stream was ``truncated`` — flagged, clipped to the last record.
        """
        spans: List[Span] = []

        def add(name, category, start, end, args):
            nonlocal next_id
            spans.append(Span(span_id=next_id, parent_id=None, name=name,
                              category=category, start=start, end=end,
                              args=args))
            next_id += 1

        for trace in self.lineage():
            if trace.started is None:
                continue
            for cause, start, end in trace.stalls:
                add(f"stall-{cause}", "stall", start, end,
                    {"node": trace.src_node, "job": trace.job})
            if trace.completed is None and not truncated:
                continue
            args = {"node": trace.src_node, "dst": trace.dst_node,
                    "job": trace.job, "nbytes": trace.nbytes,
                    "frags": trace.frag_count,
                    "retransmits": trace.retransmits}
            end = trace.completed
            if end is None:
                end = max(self.last_time, trace.started)
                args["truncated"] = True
            add("message", "causal", trace.started, end, args)
        for start, end, node, job, cause in self._anon_stalls:
            add(f"stall-{cause}", "stall", start, end,
                {"node": node, "job": job})
        for plan in self.reallocs():
            add("realloc", "policy", plan["start"], plan["end"],
                {"node": plan["node"], "sequence": plan["sequence"],
                 "jobs": plan["jobs"]})
        spans.sort(key=lambda s: (s.start, s.span_id))
        return spans


def _make_span(begin: tuple, end_time: float, end_fields: dict) -> Span:
    begin_time, f = begin
    args = {k: v for k, v in f.items() if k not in _SPAN_META}
    for k, v in end_fields.items():
        if k != "span":
            args[k] = v
    return Span(span_id=f["span"], parent_id=f.get("parent"),
                name=f["name"], category=f.get("cat", ""),
                start=begin_time, end=end_time, args=args)
