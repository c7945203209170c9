"""Tests for the tracer and the deterministic random streams."""

import hashlib

import pytest

from repro.sim import PCG64Stream, RandomStreams, Simulator, Tracer
from repro.sim.trace import NullTracer


@pytest.fixture
def sim():
    return Simulator()


class TestTracer:
    def make(self, sim, **kwargs):
        return Tracer(clock=lambda: sim.now, **kwargs)

    def test_records_with_time_and_fields(self, sim):
        tracer = self.make(sim)
        sim.timeout(2.0).add_callback(
            lambda ev: tracer.record("tick", value=42))
        sim.run()
        assert len(tracer) == 1
        rec = tracer.records[0]
        assert rec.time == 2.0
        assert rec.kind == "tick"
        assert rec.value == 42

    def test_missing_field_raises_attribute_error(self, sim):
        tracer = self.make(sim)
        tracer.record("x")
        with pytest.raises(AttributeError):
            _ = tracer.records[0].nope

    def test_kind_filter(self, sim):
        tracer = self.make(sim, kinds={"keep"})
        tracer.record("keep")
        tracer.record("drop")
        assert [r.kind for r in tracer] == ["keep"]

    def test_disabled_records_nothing(self, sim):
        tracer = self.make(sim, enabled=False)
        tracer.record("x")
        assert len(tracer) == 0

    def test_of_kind_between_last(self, sim):
        tracer = self.make(sim)
        for t, kind in ((1.0, "a"), (2.0, "b"), (3.0, "a")):
            sim.timeout(t).add_callback(lambda ev, k=kind: tracer.record(k))
        sim.run()
        assert len(tracer.of_kind("a")) == 2
        assert len(tracer.between(1.5, 2.5)) == 1
        assert tracer.last("a").time == 3.0
        assert tracer.last("zzz") is None

    def test_clear(self, sim):
        tracer = self.make(sim)
        tracer.record("x")
        tracer.clear()
        assert len(tracer) == 0

    def test_null_tracer_is_silent(self):
        tracer = NullTracer()
        tracer.record("anything", x=1)
        assert len(tracer) == 0


class TestRandomStreams:
    def test_same_seed_same_values(self):
        a = RandomStreams(7).stream("x")
        b = RandomStreams(7).stream("x")
        assert list(a.integers(0, 100, 5)) == list(b.integers(0, 100, 5))

    def test_different_names_are_independent(self):
        rs = RandomStreams(7)
        a = list(rs.stream("a").integers(0, 1_000_000, 5))
        b = list(rs.stream("b").integers(0, 1_000_000, 5))
        assert a != b

    def test_stream_is_cached(self):
        rs = RandomStreams(0)
        assert rs.stream("x") is rs.stream("x")

    def test_fork_is_independent(self):
        rs = RandomStreams(3)
        child = rs.fork("child")
        a = list(rs.stream("x").integers(0, 1_000_000, 5))
        b = list(child.stream("x").integers(0, 1_000_000, 5))
        assert a != b

    def test_draw_order_isolation(self):
        """Drawing extra values from one stream must not shift another."""
        rs1 = RandomStreams(5)
        rs1.stream("noise").integers(0, 10, 100)
        v1 = list(rs1.stream("signal").integers(0, 1_000_000, 3))
        rs2 = RandomStreams(5)
        v2 = list(rs2.stream("signal").integers(0, 1_000_000, 3))
        assert v1 == v2


#: ``draw_digest(numpy.random.default_rng(2026))``, numpy 2.4.6.  The
#: sequence reaches the exponential tail (8 draws) and wedge (395), the
#: 32-bit Lemire rejection loop, the 64-bit path, and both branches of
#: ``choice(replace=False)``; the numpy oracle re-derives it.
DRAW_DIGEST = "865b7c113741d72f0d7a3213da0317b09d942b144563c9a77dfb946d169b7179"


def draw_digest(gen) -> str:
    """sha256 over 100k mixed draws and three ``choice`` calls of ``gen``
    (a ``PCG64Stream`` or a numpy ``Generator``)."""
    h = hashlib.sha256()
    for _ in range(20_000):
        h.update(repr((
            float(gen.random()), float(gen.uniform(-1.0, 5.0)),
            int(gen.integers(3_000_000_001)), int(gen.integers(-7, 2**40)),
            float(gen.exponential(1.5)))).encode())
    for pop, size in ((20_000, 401), (20_000, 400), (50, 20)):
        h.update(repr([int(i) for i in
                       gen.choice(pop, size, replace=False)]).encode())
    return h.hexdigest()


class TestPCG64Stream:
    """The port's fixed points; ``test_rand_oracle.py`` checks it draw
    for draw against numpy where numpy is installed."""

    def test_long_draw_sequence_matches_numpy_digest(self):
        assert draw_digest(PCG64Stream(2026)) == DRAW_DIGEST

    def test_draws_are_python_scalars(self):
        gen = PCG64Stream(1)
        assert type(gen.random()) is float
        assert type(gen.integers(5)) is int
        assert type(gen.integers(5, size=2)) is list

    @pytest.mark.parametrize("call", [
        lambda g: g.random(3),
        lambda g: g.integers(2.5),
        lambda g: g.integers(3, 3),
        lambda g: g.integers(0),
        lambda g: g.integers(0, 2**64),
        lambda g: g.integers(5, size=(2, 2)),
        lambda g: g.uniform(1.0, 0.0),
        lambda g: g.uniform(0.0, float("inf")),
        lambda g: g.uniform(0.0, 1.0, 5),
        lambda g: g.exponential(-1.0),
        lambda g: g.exponential(float("nan")),
        lambda g: g.choice(5, 2),
        lambda g: g.choice(5, 6, replace=False),
        lambda g: g.choice(0, 1, replace=False),
        lambda g: g.choice(5, -1, replace=False),
    ])
    def test_unsupported_arguments_raise(self, call):
        with pytest.raises((TypeError, ValueError, OverflowError,
                            NotImplementedError)):
            call(PCG64Stream(0))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            PCG64Stream(-1)
