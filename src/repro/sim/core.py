"""Simulation clock, indexed event calendar, and event types.

The kernel is deterministic: events scheduled for the same instant are
processed in scheduling order (FIFO), using a monotonically increasing
sequence number as the tie-breaker.  The total dispatch order is always
``(time, seq)``; everything below is an optimisation of that contract,
with :meth:`Simulator.step` kept as the hand-written reference
implementation the run loop mirrors (and the step-vs-run oracle in
``tests/property/test_kernel_oracle.py`` pins).

Event-set layout — a three-tier indexed calendar replacing the old
single binary heap:

- **Tier 0, the instant bucket** (``_bucket``/``_bucket_time``/
  ``_bucket_pos``): while the kernel dispatches the batch of events at
  instant *T*, any event scheduled *for T* is appended to a plain list
  and drained by index in the same batch — no heap push, no heap pop,
  no re-comparison.  Same-instant cascades (zero-delay hand-offs,
  immediate-fire events, interrupt pokes) are the dominant pattern in
  the firmware models, and a bucket append+scan is ~4x cheaper than a
  heap round trip.  FIFO within the bucket is free: the global ``_seq``
  counter is monotonic, so append order *is* seq order, and every heap
  entry at *T* predates the bucket (lower seq) and is drained first.
  Because order is positional, bucket entries are stored *bare* — no
  ``(seq, event)`` tuple per entry — except exact-``Process`` entries,
  which keep their push seq for sleep-token/termination matching (see
  :meth:`Simulator._push`).
- **Tier 1, the head slot** (``_head_when``/``_head_seq``/``_head_ev``):
  a one-entry cache holding an entry no later than everything in the
  heap.  A push into an empty calendar — the steady state of the
  single-process benchmarks and of ping-pong protocol phases — fills
  three slots instead of allocating a tuple and sifting a heap; the
  matching pop is three loads.  The invariant (slot ≤ heap minimum in
  ``(when, seq)`` order) is maintained by routing in :meth:`_push`.
- **Tier 2, the overflow heap** (``_queue``): classic ``(when, seq,
  event)`` binary heap for everything scheduled past the head slot.
  Far-future events land here and cost O(log n), exactly as before.

The buckets are plain Python lists, so the calendar "self-resizes" by
construction; there is no bucket-width parameter to tune and therefore
no resize policy that could perturb event order (the determinism
argument is spelled out in EXPERIMENTS.md, "Performance & scaling").

Dispatch machinery:

- One hand-written loop, :func:`_run_loop`, serves :meth:`Simulator.run`
  and :meth:`Simulator.run_until_processed`, plain or profiled.  It walks
  the calendar instant by instant: slot/heap entries at the instant
  first, then the bucket batch by index, and :meth:`Simulator.step`'s
  full selection only when the bucket holds a future batch opened by a
  tie.  Clock, horizon and bucket re-key run only when the instant
  changes.
- The overwhelmingly common waiter — a single simulated process parked
  on the event — is stored in a dedicated ``_waiter`` slot and its
  generator is resumed *inline* by the run loop.  Dispatch order is
  preserved: the waiter slot is only used when the callback list is
  empty at wait time, so "waiter first, then list" equals registration
  order.
- Profiled runs use the same loop: an ``if prof is not None:`` test
  around a stride-sampled
  :class:`~repro.telemetry.profiler.KernelProfiler` hook; exact event
  counts and wall clock are accounted at loop boundaries.  Profiled and
  unprofiled runs stay bit-identical (the telemetry determinism tests
  pin this).
- :class:`Timeout` *and* plain :class:`Event` objects are recycled
  through free lists: an object that nothing else references once its
  callbacks have run is reset and reused by the next
  :meth:`Simulator.timeout` / :meth:`Simulator.event` call, cutting
  allocation churn on per-packet paths.  Recycling is guarded by
  CPython's reference counts, so an object is only ever reused when no
  caller can observe it.

The run loop is not re-entrant: a callback must not call
:meth:`Simulator.run`/:meth:`Simulator.step` on the same simulator (its
cached ``processed`` counter and bucket index would go stale).
"""

from __future__ import annotations

import platform
import sys
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

_UNSET = object()
_INF = float("inf")
# The loop's horizon when none is given: only an empty calendar (next
# instant ``inf``) lies beyond it.
_FLOAT_MAX = sys.float_info.max
# What run() passes as the watched event: nothing ever dispatches it.
_NO_WATCH = object()

# Timeout/Event recycling needs exact reference counts; only CPython has them.
_IS_CPYTHON = platform.python_implementation() == "CPython"
_getrefcount = sys.getrefcount if _IS_CPYTHON else None
# Sized so bursts of a few thousand in-flight transient events (the
# 1000-node gang-scheduling scale) recycle fully; worst case both free
# lists pin ~8k small objects (~2 MB) — bounded, never scanned.
_FREE_LIST_CAP = 8192

# Consumed bucket entries are overwritten with None and reclaimed in
# bulk; compact the dead prefix past this length so a long-lived instant
# (a watch-return mid-drain, a months-long t=0 cascade) stays bounded.
_BUCKET_COMPACT = 65536


def _bad_delay_kind(delay: float) -> str:
    """How a rejected delay is bad, for the error message (cold path)."""
    return "negative" if delay < 0 else "NaN"


class _SleepWake:
    """Stand-in 'event' delivered to a process woken from a bare-number
    sleep (``yield delay``): always successful, carries no value.  Lets the
    suspend/defer/resume machinery treat sleep wake-ups like event
    wake-ups without materialising a real Event."""

    __slots__ = ()
    _ok = True
    _value = None


_SLEEP_WAKE = _SleepWake()

# Bound to the Process class by repro.sim.process at import time (the
# import is circular the other way).  Calendar-bucket entries are bare
# events EXCEPT exact-Process entries, which are wrapped as
# ``(seq, process)`` tuples: they are the only entries whose dispatch
# reads the push seq (sleep-token / termination-seq matching).  Until
# process.py is imported no Process objects can exist, so the ``is``
# check against None simply never matches.
_PROC_CLS: Optional[type] = None


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it and schedules it for processing at the current instant;
    when the kernel processes it, all registered callbacks run and the
    event becomes *processed*.  Yielding an event from a process generator
    suspends the process until the event is processed.

    ``_waiter`` is the kernel-internal fast slot: it holds at most one
    :class:`~repro.sim.process.Process` parked on this event (set by the
    process itself, and only while the callback list is empty, which
    keeps dispatch order identical to plain ``add_callback`` use).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_waiter")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = _UNSET
        self._ok: Optional[bool] = None
        self._waiter = None

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not _UNSET

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None if untriggered."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _UNSET:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Scheduling is inlined (rather than calling
        :meth:`Simulator._push`) because triggering is one of the two
        hottest push sites; keep the routing in sync with ``_push``,
        which is the canonical form.
        """
        if self._value is not _UNSET:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        when = sim._now
        if when == sim._bucket_time:
            sim._bucket.append(self)
            return self
        q = sim._queue
        if q and when >= q[0][0]:
            # At or past the heap minimum: cannot displace the slot or
            # tie-open the bucket (see _push) — straight to the heap.
            heappush(q, (when, seq, self))
            return self
        he = sim._head_ev
        if he is None:
            sim._head_when = when
            sim._head_seq = seq
            sim._head_ev = self
        elif when < sim._head_when:
            heappush(sim._queue, (sim._head_when, sim._head_seq, he))
            sim._head_when = when
            sim._head_seq = seq
            sim._head_ev = self
        elif when == sim._head_when and sim._bucket_pos >= len(sim._bucket):
            sim._bucket_time = when
            sim._bucket.append(self)
        else:
            heappush(sim._queue, (when, seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._value is not _UNSET:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        self.sim._push(self.sim._now, self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event is processed.

        If the event was already processed the callback fires immediately.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        w = self._waiter
        if w is not None and (fn is w or getattr(fn, "__self__", None) is w):
            # The waiter parks either itself or its bound _step here.
            self._waiter = None
            return
        if self.callbacks is not None and fn in self.callbacks:
            self.callbacks.remove(fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation.

    Prefer :meth:`Simulator.timeout`, which recycles processed instances
    through a free list instead of allocating a fresh object per call.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not (delay >= 0):  # also rejects NaN
            raise SimulationError(
                f"{_bad_delay_kind(delay)} timeout delay {delay}")
        self.sim = sim
        self.callbacks = []
        self._ok = True
        self._value = value
        self._waiter = None
        self.delay = delay
        sim._push(sim._now + delay, self)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        self._n_done = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _collect(self) -> dict:
        return {ev: ev._value for ev in self.events if ev.processed and ev._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._ok is False:
            self.fail(event._value)
            return
        self._n_done += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers when any constituent event has been processed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_done >= 1


class AllOf(_Condition):
    """Triggers when all constituent events have been processed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_done >= len(self.events)


class Simulator:
    """The event loop: a clock plus a three-tier indexed event calendar."""

    __slots__ = ("_now", "_queue", "_seq", "_processed_count",
                 "_free_timeouts", "_free_events", "_profiler",
                 "_bucket", "_bucket_time", "_bucket_pos",
                 "_head_when", "_head_seq", "_head_ev")

    def __init__(self):
        self._now: float = 0.0
        self._queue: list = []          # tier 2: overflow heap
        self._seq: int = 0
        self._processed_count: int = 0
        self._free_timeouts: list = []
        self._free_events: list = []
        self._profiler = None
        self._bucket: list = []         # tier 0: events at _bucket_time (exact-Process entries as (seq, proc))
        self._bucket_time: Optional[float] = None
        self._bucket_pos: int = 0       # consumed prefix of _bucket
        self._head_when: float = 0.0    # tier 1: head slot (valid iff _head_ev)
        self._head_seq: int = 0
        self._head_ev = None

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- profiling --------------------------------------------------------
    @property
    def profiler(self):
        """The attached :class:`~repro.telemetry.profiler.KernelProfiler`.

        A falsy (disabled) profiler is stored as ``None``.  The run loop
        tests ``prof is not None`` once per dispatched entry and, with a
        profiler attached, calls its ``observe`` hook on every
        ``stride``-th entry; dispatch itself is the same code either
        way, so results stay bit-identical (the telemetry determinism
        tests pin this).
        """
        return self._profiler

    @profiler.setter
    def profiler(self, profiler) -> None:
        self._profiler = profiler if profiler else None

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (for diagnostics).

        Inside the batched run loops this is refreshed when the loop
        exits, not per event — read it between runs, not from callbacks.
        """
        return self._processed_count

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event.

        Reuses a recycled :class:`Event` when one is available; recycled
        objects are reset at recycle time, so this is a bare pop.
        """
        free = self._free_events
        if free:
            return free.pop()
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now.

        Reuses a recycled :class:`Timeout` when one is available; the
        recycled object is indistinguishable from a fresh one (recycling
        only happens when no other reference to it exists).  The
        calendar push is inlined — this is the hottest push site; keep
        the routing in sync with :meth:`_push`, the canonical form.
        """
        free = self._free_timeouts
        if not free:
            return Timeout(self, delay, value)
        if not (delay >= 0):  # also rejects NaN
            raise SimulationError(
                f"{_bad_delay_kind(delay)} timeout delay {delay}")
        t = free.pop()
        t.delay = delay
        # _ok is True from construction and can never change on a Timeout
        # (fail() refuses already-valued events), so recycling skips it.
        t._value = value
        seq = self._seq
        self._seq = seq + 1
        when = self._now + delay
        if when == self._bucket_time:
            self._bucket.append(t)
            return t
        q = self._queue
        if q and when >= q[0][0]:
            # At or past the heap minimum: cannot displace the slot or
            # tie-open the bucket (see _push) — straight to the heap.
            heappush(q, (when, seq, t))
            return t
        he = self._head_ev
        if he is None:
            self._head_when = when
            self._head_seq = seq
            self._head_ev = t
        elif when < self._head_when:
            heappush(self._queue, (self._head_when, self._head_seq, he))
            self._head_when = when
            self._head_seq = seq
            self._head_ev = t
        elif when == self._head_when and self._bucket_pos >= len(self._bucket):
            self._bucket_time = when
            self._bucket.append(t)
        else:
            heappush(self._queue, (when, seq, t))
        return t

    def process(self, generator: Generator, name: str = "") -> "Process":
        """Start a new simulated process running ``generator``."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _push(self, when: float, event: Event) -> int:
        """Insert ``event`` into the calendar at ``when``; returns its seq.

        The canonical routing: instant bucket if ``when`` is the batch
        instant currently (or most recently) being drained, else the
        head slot when it can hold the calendar minimum, else the
        overflow heap.  Ties on ``when`` go to the heap so the slot
        invariant (slot ≤ heap minimum in ``(when, seq)``) is kept with
        a single float comparison.  :meth:`Event.succeed`,
        :meth:`Simulator.timeout`, and :func:`_run_loop` (re-parking a
        sleeping process) inline this routing for speed — keep them in sync.

        Bucket representation: bare events, except exact-``Process``
        entries which are stored as ``(seq, process)`` — dispatch needs
        their push seq for sleep-token / termination matching, and they
        are the only entries that do.  FIFO within the bucket is
        positional (append order), so dropping the seq loses nothing.
        """
        seq = self._seq
        self._seq = seq + 1
        if when == self._bucket_time:
            if event.__class__ is _PROC_CLS:
                self._bucket.append((seq, event))
            else:
                self._bucket.append(event)
            return seq
        q = self._queue
        if q and when >= q[0][0]:
            # At or past the heap minimum: the entry cannot displace the
            # slot (slot <= heap min) and cannot tie-open the bucket out
            # of order (bucket entries at `when` imply ``bucket_time ==
            # when``, handled above).  A tie with the heap minimum stays
            # in seq order among the ties, so dispatch order is the same
            # as the tie-open route — straight to the heap, skipping the
            # slot checks.
            heappush(q, (when, seq, event))
            return seq
        he = self._head_ev
        if he is None:
            # Heap empty or `when` below its minimum (the fast path
            # above took the rest): the slot can hold the minimum.
            self._head_when = when
            self._head_seq = seq
            self._head_ev = event
        elif when < self._head_when:
            heappush(self._queue, (self._head_when, self._head_seq, he))
            self._head_when = when
            self._head_seq = seq
            self._head_ev = event
        elif (when == self._head_when
                and self._bucket_pos >= len(self._bucket)):
            # A push tying the calendar minimum re-keys the bucket at
            # that instant (even a future one, and even mid-drain once
            # every pending entry is consumed): bursts of same-instant
            # events accumulate here in seq order instead of churning
            # the heap.  Safe because every slot/heap entry at `when`
            # predates the open (strictly lower seq) and is drained
            # first, and the drain loop re-checks the key per entry.
            self._bucket_time = when
            if event.__class__ is _PROC_CLS:
                self._bucket.append((seq, event))
            else:
                self._bucket.append(event)
        else:
            heappush(self._queue, (when, seq, event))
        return seq

    def _post(self, event: Event, delay: float = 0.0) -> None:
        """Insert a triggered event into the calendar ``delay`` from now.

        ``delay`` must be non-negative: scheduling into the past would
        silently break clock monotonicity (and the calendar's routing
        invariants, which assume no pending entry precedes ``now``).
        """
        if not (delay >= 0):
            raise SimulationError(
                f"{_bad_delay_kind(delay)} _post delay {delay}")
        self._push(self._now + delay, event)

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the calendar is empty."""
        he = self._head_ev
        if he is not None:
            hw = self._head_when
        elif self._queue:
            hw = self._queue[0][0]
        else:
            hw = _INF
        if self._bucket_pos < len(self._bucket):
            bt = self._bucket_time
            return bt if bt < hw else hw
        return hw

    def step(self) -> None:
        """Process exactly one event (or sleeping-process wake-up).

        This is the reference implementation of dispatch; the batched
        :func:`_run_loop` mirrors it exactly (the kernel-oracle property
        test replays random workloads through both paths).
        """
        from repro.sim.process import Process

        queue = self._queue
        bucket = self._bucket
        he = self._head_ev
        if he is not None:
            hw = self._head_when
        elif queue:
            hw = queue[0][0]
        else:
            hw = _INF
        bpos = self._bucket_pos
        bpend = bpos < len(bucket)
        if bpend and self._bucket_time < hw:
            # Bucket front is strictly earliest; on a tie the slot/heap
            # entry predates the bucket (lower seq) and must go first.
            when = self._bucket_time
            entry = bucket[bpos]
            if entry.__class__ is tuple:
                seq, event = entry    # exact-Process entry: seq matters
            else:
                seq, event = -1, entry  # seq never read for bare entries
            entry = None  # drop the alias so the recycle refcount check can pass
            bucket[bpos] = None
            bpos += 1
            if bpos == len(bucket):
                bucket.clear()
                self._bucket_pos = 0
            else:
                self._bucket_pos = bpos
        elif he is not None:
            when = hw
            seq = self._head_seq
            event = he
            he = None  # drop the alias so the recycle refcount check can pass
            self._head_ev = None
            if not bpend:
                self._bucket_time = when   # open the instant for same-time pushes
        elif queue:
            when, seq, event = heappop(queue)
            if not bpend:
                self._bucket_time = when
        else:
            raise SimulationError("step() on an empty event queue")
        self._now = when
        self._processed_count += 1
        if event.__class__ is Process:
            # A Process in the calendar is either a bare-number sleep entry
            # (valid iff its token matches this entry's seq), the
            # process's own termination event, or a stale sleep left by
            # an interrupt (skipped; seed semantics popped the orphaned
            # timeout the same way).
            if event._sleep_token == seq:
                event._step(_SLEEP_WAKE)
                return
            if event._event_seq != seq:
                return
        callbacks = event.callbacks
        event.callbacks = None
        waiter, event._waiter = event._waiter, None
        if waiter is not None:
            waiter._step(event)
        if callbacks:
            for fn in callbacks:
                fn(event)
        cls = event.__class__
        if cls is Timeout:
            if (_getrefcount is not None and _getrefcount(event) == 2
                    and len(self._free_timeouts) < _FREE_LIST_CAP):
                event._value = None
                callbacks.clear()
                event.callbacks = callbacks
                self._free_timeouts.append(event)
        elif cls is Event:
            if (_getrefcount is not None and _getrefcount(event) == 2
                    and len(self._free_events) < _FREE_LIST_CAP):
                event._value = _UNSET
                event._ok = None
                callbacks.clear()
                event.callbacks = callbacks
                self._free_events.append(event)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the calendar drains, ``until`` is reached, or event budget.

        ``until`` is an absolute simulated time; on return ``now`` equals
        ``until`` if the horizon was hit, else the time of the last event.
        A horizon already in the past is a no-op; a NaN one raises.
        ``max_events`` guards against runaway simulations.

        Dispatch happens in :func:`_run_loop`: all events sharing a
        timestamp drain in one bucket pass, and the single-process-waiter
        case resumes the waiting generator without leaving the loop
        frame — see ``Process._step``, whose semantics the loop mirrors
        (and falls back to for every non-trivial case).
        """
        if until is None:
            horizon = _FLOAT_MAX
        elif until != until:
            raise SimulationError("run() until is NaN")
        elif until < self._now:
            return
        else:
            horizon = min(until, _FLOAT_MAX)
        _run_loop(self, _NO_WATCH, horizon, max_events,
                  "run() exceeded max_events=%s")
        if until is not None and until > self._now:
            self._now = until

    def run_until_processed(self, event: Event, max_events: Optional[int] = None) -> Any:
        """Run until ``event`` is processed; returns its value (raises on fail).

        Same :func:`_run_loop` as :meth:`run` with no horizon, returning
        as soon as it has dispatched ``event``.
        """
        if event.callbacks is not None:
            _run_loop(self, event, _FLOAT_MAX, max_events,
                      "exceeded max_events=%s")
            if event.callbacks is not None:
                raise SimulationError(
                    "event queue drained before event triggered (deadlock?)")
        if event._ok is False:
            raise event._value
        return event._value


def _run_loop(sim: Simulator, watch: Any, horizon: float,
              max_events: Optional[int], budget_msg: str) -> None:
    """Dispatch entries in ``(time, seq)`` order until a stop condition.

    Returns once ``watch`` has been dispatched (:meth:`Simulator.run`
    passes ``_NO_WATCH``, which never is), when the next instant lies
    past ``horizon`` (moving the clock there is the caller's job), or
    when the calendar is empty.  Raises ``SimulationError`` with
    ``budget_msg`` *before* consuming the entry that would exceed
    ``max_events``, so the calendar, the clock and ``processed_events``
    are left consistent for a resume.

    Two states.  Slot/heap: consume the head slot or heap minimum while
    it sits at the current instant ``when``; once neither does, advance
    the clock and re-key the bucket to the next instant — or, when the
    bucket holds pending entries, go to the bucket state if they are
    this instant's batch, else to the earlier of the bucket's future
    batch (opened by a tie) and the slot/heap, ties going to the
    slot/heap, as :meth:`Simulator.step` selects.  Bucket: drain the
    batch by index, then return to the slot/heap state.  Every entry
    goes through one dispatch body that mirrors :meth:`Simulator.step`.
    """
    queue = sim._queue
    bucket = sim._bucket
    push = heappush
    pop = heappop
    free_t = sim._free_timeouts
    free_e = sim._free_events
    refcount = _getrefcount
    timeout_cls = Timeout
    event_cls = Event
    proc_cls = _PROC_CLS
    unset = _UNSET
    wake = _SLEEP_WAKE
    cap = _FREE_LIST_CAP
    compact = _BUCKET_COMPACT
    inf = _INF
    processed = sim._processed_count
    limit = None if max_events is None else processed + max_events
    prof = sim._profiler
    if prof is not None:
        observe = prof.observe
        stride = prof.stride
        k = prof._phase
        prev_now = sim._now
        start = processed
        t0 = perf_counter()  # simlint: ignore[SIM001] -- profiler accounts host wall time; never feeds sim state
    when = -inf          # no instant open yet
    in_bucket = False
    i = blen = 0         # bucket state: scan index and cached length
    try:
        while True:
            if in_bucket:
                # Exhaustion test, cheapest-first: the cached length, then
                # — only once the scan has caught up — a re-key check and
                # a fresh len() (dispatch appends same-instant events, so
                # the batch can outgrow the cache).  A tie can re-key the
                # bucket only once every pending entry is consumed (see
                # Simulator._push), i.e. exactly when the scan has caught
                # up, so the cache never counts another instant's entries.
                if not (i < blen or (sim._bucket_time == when
                                     and i < (blen := len(bucket)))):
                    if sim._bucket_time == when:
                        # Every entry consumed: reset in O(1).
                        bucket.clear()
                        sim._bucket_pos = 0
                    in_bucket = False
                    continue
                if limit is not None and processed >= limit:
                    raise SimulationError(budget_msg % (max_events,))
                ev = bucket[i]
                bucket[i] = None
                sim._bucket_pos = i = i + 1
                if i >= compact:
                    del bucket[:i]
                    sim._bucket_pos = i = 0
                    blen = len(bucket)
                ecls = ev.__class__
                if ecls is tuple:
                    # Only exact-Process entries are wrapped; they carry
                    # the push seq dispatch must match.
                    seq, ev = ev
                    ecls = proc_cls
            else:
                he = sim._head_ev
                if he is not None:
                    w = sim._head_when
                elif queue:
                    w = queue[0][0]
                else:
                    w = inf
                if w != when:
                    # Nothing left in the slot or heap at this instant.
                    if bucket and sim._bucket_pos < len(bucket):
                        bt = sim._bucket_time
                        if bt < w:
                            in_bucket = True
                            i = sim._bucket_pos
                            blen = len(bucket)
                            if bt == when:
                                continue
                            w = bt
                        if w > horizon:
                            break
                        sim._now = when = w
                        if in_bucket:
                            continue
                    else:
                        if w > horizon:
                            break
                        # Key the drained bucket to the new instant: the
                        # same-instant triggers its dispatch fires then
                        # append straight to the bucket (first test in
                        # the push routing) and drain in the bucket state.
                        sim._bucket_time = sim._now = when = w
                if limit is not None and processed >= limit:
                    raise SimulationError(budget_msg % (max_events,))
                if he is not None:
                    seq = sim._head_seq
                    ev = he
                    he = None  # drop the alias so the recycle refcount check can pass
                    sim._head_ev = None
                else:
                    w, seq, ev = pop(queue)
                ecls = ev.__class__
            processed += 1
            if prof is not None:
                # Sample every stride-th entry, charging it the simulated
                # time since the previous sample.
                k -= 1
                if k <= 0:
                    k = stride
                    observe(prev_now, when, ev)
                    prev_now = when
            # ---- dispatch one entry (mirrors step()) ----------------------
            if ecls is proc_cls and ev._sleep_token == seq:
                # A bare-number sleep ends: resume the process itself.
                if ev._suspended:
                    ev._step(wake)  # defers until resume()
                    continue
                proc = ev
                val = None
                callbacks = None
            else:
                if ecls is proc_cls and ev._event_seq != seq:
                    # A stale sleep left by an interrupt: skipped, but
                    # counted in processed_events like any entry.
                    continue
                callbacks = ev.callbacks
                ev.callbacks = None
                proc = ev._waiter
                if proc is not None:
                    ev._waiter = None
                    if (proc.__class__ is proc_cls and ev._ok
                            and not proc._suspended and proc._value is unset):
                        proc._target = None
                        val = ev._value
                    else:
                        proc._step(ev)
                        proc = None
            if proc is not None:
                # -- inline Process._step: resume, then park on the yield --
                try:
                    nxt = proc._gen.send(val)
                except StopIteration as stop:
                    proc.succeed(stop.value)
                except BaseException as exc:
                    if proc.callbacks or proc._waiter is not None:
                        proc.fail(exc)
                    else:
                        raise
                else:
                    ncls = nxt.__class__
                    if ncls is float or ncls is int:
                        # Bare-number sleep: Simulator._push inlined.
                        if not (nxt >= 0):
                            raise SimulationError(
                                "process %r yielded a %s sleep %s"
                                % (proc.name, _bad_delay_kind(nxt), nxt))
                        sseq = sim._seq
                        sim._seq = sseq + 1
                        nwhen = when + nxt
                        proc._sleep_token = sseq
                        if nwhen == sim._bucket_time:
                            bucket.append((sseq, proc))
                        elif queue and nwhen >= queue[0][0]:
                            push(queue, (nwhen, sseq, proc))
                        else:
                            he2 = sim._head_ev
                            if he2 is None:
                                sim._head_when = nwhen
                                sim._head_seq = sseq
                                sim._head_ev = proc
                            elif nwhen < sim._head_when:
                                push(queue, (sim._head_when, sim._head_seq, he2))
                                sim._head_when = nwhen
                                sim._head_seq = sseq
                                sim._head_ev = proc
                            elif (nwhen == sim._head_when
                                    and sim._bucket_pos >= len(bucket)):
                                sim._bucket_time = nwhen
                                bucket.append((sseq, proc))
                            else:
                                push(queue, (nwhen, sseq, proc))
                    elif ((ncls is event_cls or isinstance(nxt, event_cls))
                            and nxt.sim is sim):
                        proc._target = nxt
                        ncbs = nxt.callbacks
                        if ncbs is None:
                            proc._step(nxt)
                        elif nxt._waiter is None and not ncbs:
                            nxt._waiter = proc
                        else:
                            ncbs.append(proc._step_cb)
                    else:
                        proc._wait_on(nxt)
                if callbacks is None:
                    continue  # a sleep wake: no callbacks, nothing to recycle
            if callbacks:
                if len(callbacks) == 1:
                    callbacks[0](ev)
                else:
                    for fn in callbacks:
                        fn(ev)
            if ecls is timeout_cls:
                # Unreferenced once processed: recycle the object and its
                # (already-emptied) callbacks list.
                if (refcount is not None and refcount(ev) == 2
                        and len(free_t) < cap):
                    ev._value = None
                    callbacks.clear()
                    ev.callbacks = callbacks
                    free_t.append(ev)
            elif ecls is event_cls:
                if (refcount is not None and refcount(ev) == 2
                        and len(free_e) < cap):
                    ev._value = unset
                    ev._ok = None
                    callbacks.clear()
                    ev.callbacks = callbacks
                    free_e.append(ev)
            if ev is watch and watch.callbacks is None:
                return
    finally:
        sim._processed_count = processed
        if prof is not None:
            prof._phase = k
            prof.account_events(processed - start)
            prof.account_wall(perf_counter() - t0)  # simlint: ignore[SIM001] -- profiler accounts host wall time; never feeds sim state
