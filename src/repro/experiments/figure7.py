"""Figures 7 and 9 share this driver: per-stage context-switch cost vs
cluster size, under an all-to-all load.

Two all-to-all jobs (each spanning all nodes) occupy two gang slots; the
masterd rotates with a (scaled) quantum; every switch's halt / buffer
switch / release stages are timed per node.  Figure 7 uses the full-copy
algorithm, Figure 9 the improved valid-packets-only copy — the paper's
point being that the full copy is flat (~capacity / copy rate) and
dominant, while the improved one drops by an order of magnitude and
scales with occupancy, and that halt/release grow with the node count
(global protocols) while the copy does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigError, SimulationError
from repro.fm.config import FMConfig
from repro.gluefm.switch import FullCopy, SwitchAlgorithm
from repro.metrics.counters import StageTimings, SwitchRecorder
from repro.metrics.occupancy import OccupancySummary, summarize_occupancy
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec
from repro.experiments.common import NODE_SWEEP, point_seed, run_points
from repro.workloads.alltoall import alltoall_stream


@dataclass(frozen=True)
class SwitchOverheadPoint:
    """One x-axis position of Figure 7 / Figure 9."""

    nodes: int
    algorithm: str
    switches: int
    mean_cycles: StageTimings
    occupancy: OccupancySummary
    clock_hz: float = 200e6
    #: unified telemetry snapshot (None unless the sweep asked for one)
    telemetry: Optional[dict] = None


def run_switch_point(nodes: int, algorithm: SwitchAlgorithm,
                     quantum: float = 0.012,
                     num_switches: int = 10,
                     message_bytes: int = 8192,
                     num_processors: int = 16,
                     max_events: int = 400_000_000,
                     seed: int = 0,
                     telemetry: bool = False) -> SwitchOverheadPoint:
    """Measure one cluster size with one switch algorithm.

    Two *endless* all-to-all jobs stream under the gang scheduler and the
    simulation runs until ``num_switches`` switch rounds complete — every
    sampled switch therefore interrupts live traffic, which is the
    condition the paper measures under (and the condition that puts
    packets in the buffers for Figure 8).  The jobs are then abandoned,
    not drained: nothing in the stage timings depends on how the run ends.
    """
    fm = FMConfig(max_contexts=2, num_processors=num_processors)
    cluster = ParParCluster(ClusterConfig(
        num_nodes=nodes, time_slots=2, quantum=quantum,
        buffer_switching=True, switch_algorithm=algorithm, fm=fm,
        seed=seed, telemetry=telemetry,
    ))
    workload = alltoall_stream(until=float("inf"), message_bytes=message_bytes)
    for i in range(2):
        cluster.submit(JobSpec(f"a2a{i}", nodes, workload))
    sim = cluster.sim
    done = cluster.masterd.switch_count_event(num_switches)
    try:
        sim.run_until_processed(done, max_events=max_events)
    except SimulationError as exc:
        if str(exc).startswith("exceeded max_events"):
            raise RuntimeError(
                f"switch sweep exceeded max_events={max_events}") from None
        raise

    recorder: SwitchRecorder = cluster.recorder
    switched = recorder.with_outgoing_job()
    # Build the mean over switches that actually moved a context.
    sub = SwitchRecorder()
    for rec in switched:
        sub.add(rec)
    clock = cluster.nodes[0].cpu.spec.clock_hz
    return SwitchOverheadPoint(
        nodes=nodes,
        algorithm=algorithm.name,
        switches=len(switched),
        mean_cycles=sub.mean_stage_cycles(clock),
        occupancy=summarize_occupancy(switched),
        clock_hz=clock,
        telemetry=cluster.telemetry_snapshot() if telemetry else None,
    )


def _point_worker(args: tuple) -> SwitchOverheadPoint:
    """Picklable run_points worker: one (nodes, algorithm) position."""
    nodes, algorithm, quantum, num_switches, message_bytes, seed, telem = args
    return run_switch_point(nodes, algorithm, quantum=quantum,
                            num_switches=num_switches,
                            message_bytes=message_bytes, seed=seed,
                            telemetry=telem)


def run_switch_overheads(algorithm: SwitchAlgorithm,
                         nodes: Sequence[int] = NODE_SWEEP,
                         quantum: float = 0.012,
                         num_switches: int = 10,
                         message_bytes: int = 8192,
                         root_seed: int = 0,
                         workers: int = 1,
                         telemetry: bool = False) -> list[SwitchOverheadPoint]:
    """The node sweep for one algorithm (Fig. 7: FullCopy, Fig. 9: ValidOnly)."""
    if num_switches < 1:
        raise ConfigError(
            f"num_switches must be at least 1, got {num_switches}")
    items = [(n, algorithm, quantum, num_switches, message_bytes,
              point_seed(root_seed, f"switch:{algorithm.name}:nodes={n}"),
              telemetry)
             for n in nodes]
    return run_points(_point_worker, items, workers=workers)


def run_figure7(nodes: Sequence[int] = NODE_SWEEP, **kwargs) -> list[SwitchOverheadPoint]:
    """Figure 7: the full-copy buffer switch."""
    return run_switch_overheads(FullCopy(), nodes=nodes, **kwargs)
