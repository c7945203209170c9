"""Property-based tests of the live trace consumer.

Streams are generated at record level: multi-fragment messages with
stalls, retransmitted and dropped wire copies, duplicate deliveries and
dup-discards, spurious retransmits after completion, halt/release,
ctx-remove/install, job stop/go, buffer swaps of any length, explicit
spans — and then possibly cut short, as a capped tracer would.  Over all
of them the live consumer must agree with a replay of the same list,
partition every complete message's latency exactly, and clip whatever
is still open to the end of the stream.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import TraceRecord, Tracer
from repro.telemetry.causal import TraceConsumer

U = 1e-4   # one time step of a generated stream, in seconds


@st.composite
def streams(draw):
    """(records, truncated): a time-ordered stream, possibly cut short."""
    pending = []

    def add(step, kind, **fields):
        pending.append((step, len(pending), kind, fields))

    seq = 100
    for msg in range(draw(st.integers(1, 5))):
        src = draw(st.integers(0, 2))
        dst = (src + draw(st.integers(1, 2))) % 3
        job = draw(st.integers(0, 1))
        frags = draw(st.integers(1, 3))
        t = start = draw(st.integers(0, 40))
        stalled = False
        add(t, "msg-start", node=src, job=job, msg=msg, dst=dst, dst_rank=0,
            nbytes=100 * frags, frags=frags)
        delivered = t
        for frag in range(frags):
            seq += 1
            t += draw(st.integers(0, 4))
            if draw(st.booleans()):
                stalled = True
                dur = draw(st.integers(0, 3))
                t += dur
                add(t, "stall", node=src, job=job, msg=msg, dur=dur * U,
                    cause=draw(st.sampled_from(["credit", "buffer-full"])))
            t += draw(st.integers(0, 3))
            add(t, "pkt-enq", node=src, job=job, msg=msg, frag=frag, seq=seq,
                dst=dst)
            copies = draw(st.integers(1, 3))
            for copy in range(copies):
                t += draw(st.integers(0, 4))
                if copy:
                    add(t, "rto-retransmit", node=src, seq=seq, attempt=copy)
                add(t, "pkt-tx", node=src, job=job, msg=msg, frag=frag,
                    seq=seq, dst=dst)
                if copy < copies - 1 and draw(st.booleans()):
                    add(t + 1, "pkt-drop", node=dst, job=job, seq=seq)
            arrive = t + draw(st.integers(1, 4))
            add(arrive, "pkt-deliver", node=dst, src=src, job=job, msg=msg,
                seq=seq)
            if draw(st.booleans()):
                later = arrive + draw(st.integers(0, 6))
                if draw(st.booleans()):
                    add(later, "pkt-deliver", node=dst, src=src, job=job,
                        msg=msg, seq=seq)
                else:
                    add(later, "pkt-dup-discard", node=dst, seq=seq)
            delivered = max(delivered, arrive)
        if draw(st.integers(0, 4)):
            done = delivered + draw(st.integers(0, 4))
            add(done, "msg-recv", node=dst, job=job, msg=msg, src=src,
                nbytes=100 * frags)
            late = draw(st.integers(0, 5))
            if late == 0:    # spurious retry after a lost ack
                add(done + 2, "rto-retransmit", node=src, seq=seq, attempt=9)
                add(done + 2, "pkt-tx", node=src, job=job, msg=msg,
                    frag=frags - 1, seq=seq, dst=dst)
            elif late == 1 and not stalled:
                # a stall record reaching back into the send (stalls are
                # sequential waits: they never overlap one another)
                back = draw(st.integers(0, done + 1 - start))
                add(done + 1, "stall", node=src, job=job, msg=msg,
                    cause="credit", dur=back * U)
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["halt", "store", "stop", "swap",
                                     "swap", "init"]))
        node = draw(st.integers(0, 2))
        job = draw(st.integers(0, 1))
        start = draw(st.integers(0, 80))
        end = start + draw(st.integers(0, 20))
        closes = draw(st.booleans())
        if kind == "halt":
            add(start, "nic-halt", node=node)
            if closes:
                add(end, "nic-release", node=node)
        elif kind == "store":
            add(start, "ctx-remove", node=node, job=job)
            if closes:
                add(end, "ctx-install", node=node, job=job)
        elif kind == "stop":
            add(start, "job-stop", node=node, job=job)
            if closes:
                add(end, "job-go", node=node, job=job)
        elif kind == "swap":
            add(end, "buffer-switch", node=node, duration=(end - start) * U,
                out=job, packets=0)
        else:
            add(start, "init-job", node=node, job=job, installed=False)
    for span in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, 80))
        add(start, "span-begin", span=span, parent=None, name="stage",
            cat="test", node=0)
        if draw(st.booleans()):
            add(start + draw(st.integers(0, 10)), "span-end", span=span)
    pending.sort()
    records = [TraceRecord(step * U, kind, fields)
               for step, _, kind, fields in pending]
    cut = len(records)
    if draw(st.booleans()):
        cut = draw(st.integers(1, len(records)))
    return records[:cut], cut < len(records)


def live(records):
    """Feed the stream through a sink-only tracer, as a cluster does."""
    consumer = TraceConsumer()
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0], sink=consumer.feed, keep=False)
    for rec in records:
        clock[0] = rec.time
        tracer.record(rec.kind, **rec.fields)
    assert tracer.records == []
    return consumer


def open_edges(records):
    """Reference scan: (table, key) -> open edge at the end of the stream."""
    opens = {}
    pairs = {"nic-halt": ("halted", "open"), "nic-release": ("halted", "close"),
             "ctx-remove": ("stored", "open"),
             "ctx-install": ("stored", "close"),
             "job-stop": ("stopped", "open"), "job-go": ("stopped", "close")}
    for rec in records:
        f = rec.fields
        if rec.kind == "init-job":
            opens.setdefault(("stored", (f["node"], f["job"])), rec.time)
        if rec.kind not in pairs:
            continue
        table, action = pairs[rec.kind]
        key = f["node"] if table == "halted" else (f["node"], f["job"])
        if action == "open":
            opens.setdefault((table, key), rec.time)
        else:
            opens.pop((table, key), None)
    return opens


@settings(max_examples=150, deadline=None)
@given(stream=streams(), extra=st.integers(0, 50))
def test_consumer_partitions_exactly_and_clips_open_intervals(stream, extra):
    records, truncated = stream
    consumer = live(records)
    analysis = consumer.analysis(truncated=truncated)
    assert analysis == TraceConsumer.of(records).analysis(
        truncated=truncated)
    assert analysis["mismatches"] == 0
    assert analysis["truncated"] is truncated

    # every complete message gets a row whose causes sum to its latency
    rows = {row["index"]: row for row in analysis["per_message"]}
    for index, trace in enumerate(consumer.lineage()):
        row = rows.get(index)
        assert (row is not None) == trace.complete
        if row is not None:
            assert row["latency"] == trace.completed - trace.started
            assert sum(row["causes"].values()) == pytest.approx(
                row["latency"], abs=1e-9)
            assert min(row["causes"].values()) >= -1e-12

    # open windows clip to end_time, by default to the last record
    windows = consumer.windows()
    last = records[-1].time
    end_time = last + extra * U
    clipped = consumer.windows(end_time)
    for (table, key), start in open_edges(records).items():
        assert getattr(windows, table)[key][-1] == (start, max(last, start))
        assert getattr(clipped, table)[key][-1] == (start,
                                                    max(end_time, start))

    # unclosed spans clip to the last record, flagged only if truncated
    ended = {r.fields["span"] for r in records if r.kind == "span-end"}
    begun = {r.fields["span"]: r.time for r in records
             if r.kind == "span-begin"}
    for span in consumer.explicit_spans(truncated=truncated):
        if span.span_id in ended:
            assert "truncated" not in span.args
            continue
        assert span.start == begun[span.span_id]
        assert span.end == last
        assert span.args.get("truncated", False) is truncated
    assert {s.span_id for s in consumer.explicit_spans()} == set(begun)
