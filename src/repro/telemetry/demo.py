"""The ``python -m repro telemetry`` scenario: a fully traced gang switch.

Runs a small gang-scheduled cluster (two all-to-all jobs sharing the
nodes through buffer switching) with the unified telemetry layer on, and
packages everything the CLI verb and the CI smoke check need: the
reconstructed spans, the Chrome ``trace_event`` object, the unified
snapshot, and a pass/fail check that at least one complete gang context
switch (halt / swap / release children under a ``gang-switch`` parent)
was captured and that the snapshot honours the checked-in schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec
from repro.telemetry.export import to_chrome_trace
from repro.telemetry.schema import validate_snapshot
from repro.workloads.alltoall import alltoall_stream

#: The stages a complete switch must expose (the paper's three phases).
SWITCH_STAGES = ("halt", "swap", "release")


@dataclass
class TelemetryDemo:
    """Everything the telemetry verb produces for one scenario run."""

    snapshot: dict
    spans: list
    trace: dict
    switches: int
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def run_telemetry_demo(nodes: int = 4, time_slots: int = 2,
                       num_switches: int = 4, message_bytes: int = 4096,
                       quantum: float = 0.004, seed: int = 0,
                       max_events: int = 50_000_000) -> TelemetryDemo:
    """Run the traced scenario and self-check the telemetry contract."""
    cluster = ParParCluster(ClusterConfig(
        num_nodes=nodes, time_slots=time_slots, quantum=quantum,
        # trace=True keeps the raw records: they become the chrome
        # trace's instant events.
        buffer_switching=True, seed=seed, telemetry=True, trace=True,
    ))
    workload = alltoall_stream(until=float("inf"),
                               message_bytes=message_bytes)
    for i in range(min(2, time_slots)):
        cluster.submit(JobSpec(f"telemetry-a2a{i}", nodes, workload))
    done = cluster.masterd.switch_count_event(num_switches)
    try:
        cluster.sim.run_until_processed(done, max_events=max_events)
    except SimulationError as exc:
        if not str(exc).startswith("exceeded max_events"):
            raise
    cluster.masterd.pause_rotation()

    spans = cluster.telemetry.all_spans()
    snapshot = cluster.telemetry_snapshot(include_wall=True)
    trace = to_chrome_trace(spans, cluster.tracer.records, metadata={
        "scenario": f"{nodes} nodes, {time_slots} slots, "
                    f"{num_switches} gang switches",
        "seed": seed,
    })

    problems = validate_snapshot(snapshot)
    problems.extend(_check_switch_spans(spans))
    return TelemetryDemo(
        snapshot=snapshot, spans=spans, trace=trace,
        switches=len(cluster.recorder.records), problems=problems,
    )


def _check_switch_spans(spans) -> list:
    """At least one gang switch must carry all three stage children."""
    children: dict = {}
    parents = {}
    for span in spans:
        if span.name == "gang-switch":
            parents[span.span_id] = span
        elif span.name in SWITCH_STAGES and span.parent_id is not None:
            children.setdefault(span.parent_id, set()).add(span.name)
    complete = [pid for pid, names in children.items()
                if pid in parents and names >= set(SWITCH_STAGES)]
    if not parents:
        return ["no gang-switch spans captured"]
    if not complete:
        return ["no gang-switch span has all of halt/swap/release children"]
    return []
