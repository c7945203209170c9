"""Tracer hardening: wants() pre-check, limit cap, truncated flag."""

from repro.sim.trace import NullTracer, Tracer


def _tracer(**kwargs):
    return Tracer(clock=lambda: 0.0, **kwargs)


class TestWants:
    def test_unfiltered_tracer_wants_everything(self):
        assert _tracer().wants("anything")

    def test_kinds_filter(self):
        tracer = _tracer(kinds={"pkt-tx"})
        assert tracer.wants("pkt-tx")
        assert not tracer.wants("pkt-deliver")

    def test_disabled_tracer_wants_nothing(self):
        tracer = _tracer(enabled=False)
        assert not tracer.wants("pkt-tx")

    def test_null_tracer_wants_nothing(self):
        assert not NullTracer().wants("pkt-tx")

    def test_filtered_record_not_stored(self):
        tracer = _tracer(kinds={"keep"})
        tracer.record("drop", x=1)
        tracer.record("keep", x=2)
        assert [r.kind for r in tracer] == ["keep"]


class TestLimit:
    def test_cap_stops_recording(self):
        tracer = _tracer(limit=3)
        for i in range(10):
            tracer.record("tick", i=i)
        assert len(tracer) == 3
        assert tracer.truncated

    def test_cap_disables_tracer_guards(self):
        tracer = _tracer(limit=1)
        tracer.record("a")
        assert tracer   # at the cap but not yet over it
        tracer.record("b")
        assert not tracer   # hot-path `if tracer:` guards now skip entirely

    def test_no_limit_by_default(self):
        tracer = _tracer()
        for i in range(100):
            tracer.record("tick", i=i)
        assert len(tracer) == 100
        assert not tracer.truncated

    def test_clear_rearms_truncated_tracer(self):
        tracer = _tracer(limit=2)
        for _ in range(5):
            tracer.record("tick")
        assert tracer.truncated
        tracer.clear()
        assert not tracer.truncated
        assert tracer
        tracer.record("again")
        assert len(tracer) == 1

    def test_clear_keeps_explicitly_disabled_tracer_off(self):
        tracer = _tracer(enabled=False)
        tracer.clear()
        assert not tracer


class TestSink:
    def test_sink_sees_every_kept_record_live(self):
        seen = []
        tracer = _tracer(sink=lambda *rec: seen.append(rec))
        tracer.record("a", x=1)
        assert seen == [(0.0, "a", {"x": 1})]
        assert [r.kind for r in tracer] == ["a"]

    def test_sink_only_tracer_keeps_nothing_and_is_uncapped(self):
        seen = []
        tracer = _tracer(sink=lambda *rec: seen.append(rec), keep=False,
                         limit=2)
        for i in range(5):
            tracer.record("tick", i=i)
        assert len(seen) == 5
        assert tracer.records == []
        assert tracer and not tracer.truncated

    def test_cap_on_kept_records_also_stops_the_sink(self):
        seen = []
        tracer = _tracer(sink=lambda *rec: seen.append(rec), limit=2)
        for i in range(5):
            tracer.record("tick", i=i)
        assert len(tracer) == 2 and len(seen) == 2
        assert tracer.truncated

    def test_filtered_kind_never_reaches_the_sink(self):
        seen = []
        tracer = _tracer(kinds={"keep"}, keep=False,
                         sink=lambda *rec: seen.append(rec[1]))
        tracer.record("drop")
        tracer.record("keep")
        assert seen == ["keep"]
