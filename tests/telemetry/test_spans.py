"""Span emission, and the consumer's explicit, packet and retransmit
span views."""

from repro.sim.trace import NullTracer, TraceRecord, Tracer
from repro.telemetry.causal import TraceConsumer
from repro.telemetry.spans import SpanEmitter, summarize_spans


def explicit_spans(records, truncated=False):
    return TraceConsumer.of(records).explicit_spans(truncated)


def packet_spans(records, truncated=False):
    return TraceConsumer.of(records).packet_spans(truncated=truncated)


def retransmit_spans(records, truncated=False):
    return TraceConsumer.of(records).retransmit_spans(truncated=truncated)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSpanEmitter:
    def test_truthiness_follows_tracer(self):
        assert not SpanEmitter(NullTracer())
        assert SpanEmitter(Tracer(clock=lambda: 0.0))

    def test_ids_monotonic(self):
        spans = SpanEmitter(Tracer(clock=lambda: 0.0))
        assert spans.begin("a") == 0
        assert spans.begin("b") == 1

    def test_begin_end_roundtrip(self):
        clock = _Clock()
        tracer = Tracer(clock=clock)
        emitter = SpanEmitter(tracer)
        sid = emitter.begin("work", category="test", node=3)
        clock.now = 2.5
        emitter.end(sid, outcome="done")
        [span] = explicit_spans(tracer.records)
        assert span.name == "work"
        assert span.category == "test"
        assert span.start == 0.0 and span.end == 2.5
        assert span.duration == 2.5
        assert span.args["node"] == 3
        assert span.args["outcome"] == "done"

    def test_parent_child(self):
        clock = _Clock()
        tracer = Tracer(clock=clock)
        emitter = SpanEmitter(tracer)
        parent = emitter.begin("outer")
        child = emitter.begin("inner", parent=parent)
        clock.now = 1.0
        emitter.end(child)
        emitter.end(parent)
        spans = {s.name: s for s in explicit_spans(tracer.records)}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None


class TestBuildSpans:
    def test_unclosed_span_clipped_to_last_record(self):
        clock = _Clock()
        tracer = Tracer(clock=clock)
        emitter = SpanEmitter(tracer)
        emitter.begin("dangling")
        clock.now = 4.0
        tracer.record("marker")
        [span] = explicit_spans(tracer.records)
        assert span.end == 4.0

    def test_orphan_end_ignored(self):
        records = [TraceRecord(1.0, "span-end", {"span": 99})]
        assert explicit_spans(records) == []

    def test_sorted_by_start_then_id(self):
        clock = _Clock()
        tracer = Tracer(clock=clock)
        emitter = SpanEmitter(tracer)
        a = emitter.begin("a")
        b = emitter.begin("b")
        clock.now = 1.0
        emitter.end(b)
        emitter.end(a)
        names = [s.name for s in explicit_spans(tracer.records)]
        assert names == ["a", "b"]


def _rec(t, kind, **fields):
    return TraceRecord(t, kind, fields)


class TestDerivedSpans:
    def test_packet_flight(self):
        records = [
            _rec(0.0, "pkt-tx", node=0, dst=1, seq=7, job=1, ptype="DATA"),
            _rec(0.5, "pkt-deliver", node=1, src=0, seq=7, job=1),
        ]
        [span] = packet_spans(records)
        assert span.name == "pkt-flight"
        assert span.start == 0.0 and span.end == 0.5
        assert span.args["src"] == 0 and span.args["dst"] == 1

    def test_undelivered_packet_yields_no_span(self):
        records = [_rec(0.0, "pkt-tx", node=0, dst=1, seq=7, job=1)]
        assert packet_spans(records) == []

    def test_retransmit_epoch_recovered(self):
        records = [
            _rec(1.0, "rto-retransmit", node=0, seq=5, job=1, attempt=2),
            _rec(1.5, "pkt-deliver", node=1, src=0, seq=5, job=1),
        ]
        [span] = retransmit_spans(records)
        assert span.name == "retransmit-epoch"
        assert span.args["recovered"] is True
        assert span.args["retries"] == 1
        assert span.end == 1.5

    def test_retransmit_epoch_gave_up(self):
        records = [
            _rec(1.0, "rto-retransmit", node=0, seq=5, job=1, attempt=2),
            _rec(3.0, "rto-give-up", node=0, seq=5, job=1, attempts=4),
        ]
        [span] = retransmit_spans(records)
        assert span.args["recovered"] is False

    def test_strategy_tag_renames_epoch(self):
        """rto-retransmit records from a non-default strategy carry a
        ``strategy`` field; the epoch picks up the tag in name and args
        so strategy sweeps separate in the span summary."""
        records = [
            _rec(1.0, "rto-retransmit", node=0, seq=5, job=1, attempt=2,
                 strategy="nack"),
            _rec(1.5, "pkt-deliver", node=1, src=0, seq=5, job=1),
        ]
        [span] = retransmit_spans(records)
        assert span.name == "retransmit-epoch-nack"
        assert span.args["strategy"] == "nack"
        assert span.args["recovered"] is True

    def test_untagged_epoch_keeps_plain_name(self):
        """The default strategy's records carry no tag — the epoch name
        stays exactly ``retransmit-epoch`` (the frozen v1 contract)."""
        records = [
            _rec(1.0, "rto-retransmit", node=0, seq=5, job=1, attempt=2),
            _rec(1.5, "pkt-deliver", node=1, src=0, seq=5, job=1),
        ]
        [span] = retransmit_spans(records)
        assert span.name == "retransmit-epoch"
        assert "strategy" not in span.args

    def test_mixed_tagged_and_untagged_epochs(self):
        records = [
            _rec(1.0, "rto-retransmit", node=0, seq=5, job=1, attempt=2,
                 strategy="adaptive"),
            _rec(1.2, "rto-retransmit", node=2, seq=9, job=2, attempt=2),
            _rec(1.5, "pkt-deliver", node=1, src=0, seq=5, job=1),
            _rec(1.6, "pkt-deliver", node=3, src=2, seq=9, job=2),
        ]
        names = sorted(s.name for s in retransmit_spans(records))
        assert names == ["retransmit-epoch", "retransmit-epoch-adaptive"]


class TestSummarize:
    def test_aggregates_by_name(self):
        clock = _Clock()
        tracer = Tracer(clock=clock)
        emitter = SpanEmitter(tracer)
        for _ in range(3):
            sid = emitter.begin("stage")
            clock.now += 1.0
            emitter.end(sid)
        summary = summarize_spans(explicit_spans(tracer.records))
        assert summary["count"] == 3
        assert summary["by_name"]["stage"]["count"] == 3
        assert abs(summary["by_name"]["stage"]["total_seconds"] - 3.0) < 1e-9


class TestTruncatedAudit:
    """Satellite audit: a capped tracer must surface what it lost as
    explicitly ``truncated`` spans, never as silent gaps or verdicts."""

    def test_clipped_open_span_flagged(self):
        clock = _Clock()
        tracer = Tracer(clock=clock)
        emitter = SpanEmitter(tracer)
        emitter.begin("stage", category="test")
        clock.now = 4.0
        tracer.record("tick", node=0)     # advances last-seen time
        [span] = explicit_spans(tracer.records, truncated=True)
        assert span.end == 4.0
        assert span.args["truncated"] is True

    def test_clipped_open_span_unflagged_when_not_truncated(self):
        clock = _Clock()
        tracer = Tracer(clock=clock)
        emitter = SpanEmitter(tracer)
        emitter.begin("stage", category="test")
        [span] = explicit_spans(tracer.records, truncated=False)
        assert "truncated" not in span.args

    def test_unmatched_tx_becomes_open_flight_when_truncated(self):
        records = [
            _rec(0.0, "pkt-tx", node=0, dst=1, seq=7, job=1),
            _rec(2.0, "pkt-tx", node=0, dst=1, seq=8, job=1),
            _rec(3.0, "pkt-deliver", node=1, src=0, seq=8, job=1),
        ]
        spans = packet_spans(records, truncated=True)
        assert len(spans) == 2
        closed = [s for s in spans if "truncated" not in s.args]
        open_ = [s for s in spans if s.args.get("truncated")]
        assert [s.args["seq"] for s in closed] == [8]
        assert [s.args["seq"] for s in open_] == [7]
        assert open_[0].end == 3.0       # clipped to last record time

    def test_unmatched_tx_dropped_when_not_truncated(self):
        records = [_rec(0.0, "pkt-tx", node=0, dst=1, seq=7, job=1)]
        assert packet_spans(records, truncated=False) == []

    def test_unterminated_epoch_flagged_not_judged(self):
        records = [
            _rec(1.0, "rto-retransmit", node=0, seq=5, job=1, attempt=2),
        ]
        [span] = retransmit_spans(records, truncated=True)
        assert span.args["truncated"] is True
        assert span.args["recovered"] is False    # unknown, flagged as such

    def test_terminated_epoch_never_flagged(self):
        records = [
            _rec(1.0, "rto-retransmit", node=0, seq=5, job=1, attempt=2),
            _rec(1.5, "pkt-deliver", node=1, src=0, seq=5, job=1),
        ]
        [span] = retransmit_spans(records, truncated=True)
        assert "truncated" not in span.args
        assert span.args["recovered"] is True
