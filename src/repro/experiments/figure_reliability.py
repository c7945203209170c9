"""Reliability-strategy comparison: goodput under packet loss.

The paper's reliability argument is qualitative — Myrinet "can be
considered reliable", so FM ships no ack protocol at all.  The chaos
layer added one (:mod:`repro.faults.retransmit`); this sweep compares
its pluggable ACK/NACK strategies on one axis: delivered goodput vs
injected drop rate, with the retransmit-epoch span count showing how
much recovery work each strategy performed to get there.

Arms (see :mod:`repro.faults.strategies`):

- ``per-packet`` — positive ack per packet, fixed exponential backoff
  (the original behaviour; the regression anchor);
- ``cumulative`` — ack-every-N / max-ack-delay prefix acks, cheaper in
  reverse-path control traffic;
- ``nack`` — debounced gap NACKs drive selective retransmits long
  before the stretched safety timeout would;
- ``adaptive`` — per-packet acks with an RTT-tracking timeout
  controller (Karn-filtered EWMA, floor/ceiling rails).

Every point is a hermetic gang-scheduled all-to-all cluster under the
fault injector, seeded by :func:`point_seed`; the
:class:`~repro.faults.audit.InvariantAuditor` verdict rides along so a
strategy that "wins" by losing messages is caught in the same table.  A
``-jN`` process-pool sweep is bit-identical to the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigError
from repro.experiments.common import point_seed, run_points
from repro.faults.audit import InvariantAuditor
from repro.faults.model import FaultSpec
from repro.faults.retransmit import RetransmitPolicy
from repro.faults.strategies import STRATEGY_NAMES
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec
from repro.telemetry.causal import TraceConsumer
from repro.units import MB
from repro.workloads.alltoall import alltoall_benchmark

#: Sweep arms, in presentation order (the registry's order).
STRATEGY_ARMS = STRATEGY_NAMES

#: Default drop-rate axis: lossless anchor through "10% of packets die".
DEFAULT_DROPS = (0.0, 0.02, 0.05, 0.10)


@dataclass(frozen=True)
class ReliabilityPoint:
    """One cell: a strategy arm at one drop rate."""

    strategy: str
    drop: float
    goodput_mbps: float        # delivered payload bytes / wall of the run
    retransmits: int           # wire copies beyond the first
    retransmit_epochs: int     # distinct seqs that needed >= 1 retry
    epochs_recovered: int      # epochs that ended in a delivery
    acks_sent: int
    nacks_sent: int
    permanent_losses: int      # driver gave up (max_retries exhausted)
    audit_ok: bool             # no-loss/no-dup/FIFO verdict
    rounds: int
    message_bytes: int
    #: unified telemetry snapshot (None unless the sweep asked for one)
    telemetry: Optional[dict] = None

    def to_dict(self) -> dict:
        """JSON-stable record (telemetry snapshots stay out of benchmarks)."""
        return {
            "strategy": self.strategy,
            "drop": self.drop,
            "goodput_mbps": round(self.goodput_mbps, 6),
            "retransmits": self.retransmits,
            "retransmit_epochs": self.retransmit_epochs,
            "epochs_recovered": self.epochs_recovered,
            "acks_sent": self.acks_sent,
            "nacks_sent": self.nacks_sent,
            "permanent_losses": self.permanent_losses,
            "audit_ok": self.audit_ok,
            "rounds": self.rounds,
            "message_bytes": self.message_bytes,
        }


def _measure_point(strategy: str, drop: float, rounds: int,
                   message_bytes: int, seed: int = 0,
                   telemetry: bool = False) -> ReliabilityPoint:
    """One hermetic all-to-all run under drop faults with ``strategy``."""
    if strategy not in STRATEGY_NAMES:
        raise ConfigError(
            f"unknown reliability strategy {strategy!r}; "
            f"choose from {', '.join(STRATEGY_NAMES)}")
    config = ClusterConfig(
        num_nodes=4, time_slots=2, quantum=0.004, seed=seed,
        faults=FaultSpec(drop_rate=drop),
        retransmit=RetransmitPolicy(),
        reliability_strategy=strategy,
        # Retransmit epochs are derived from the per-packet trace stream
        # (rto-retransmit / pkt-deliver pairing) — tracing must be on.
        trace=True,
        telemetry=telemetry,
    )
    cluster = ParParCluster(config)
    auditor = InvariantAuditor()
    auditor.attach(g.firmware for g in cluster.glue)

    workload = alltoall_benchmark(rounds=rounds, message_bytes=message_bytes)
    jobs = [cluster.submit(JobSpec(f"rel-{i}", 4, workload))
            for i in range(2)]
    cluster.run_until_finished(jobs)
    cluster.masterd.pause_rotation()
    cluster.run_for(0.2)   # drain ack timers and in-flight retransmits

    delivered = 0
    started = None
    finished = None
    for job in jobs:
        for rank in range(4):
            stats = job.result_of(rank)
            delivered += stats.messages_received * message_bytes
            started = (stats.started_at if started is None
                       else min(started, stats.started_at))
            finished = (stats.finished_at if finished is None
                        else max(finished, stats.finished_at))
    elapsed = (finished - started) if jobs else 0.0
    goodput = delivered / elapsed / MB if elapsed > 0 else 0.0

    firmwares = [g.firmware for g in cluster.glue]
    # Only these kinds move a retransmit epoch; the replay skips the rest.
    epochs = TraceConsumer.of(
        rec for rec in cluster.tracer.records
        if rec.kind in ("rto-retransmit", "rto-give-up", "pkt-deliver")
    ).retransmit_spans(truncated=cluster.tracer.truncated)

    # drop=0.0 disables the fault spec entirely, so no injector exists.
    excused = (set(cluster.fault_injector.faulted_seqs)
               if cluster.fault_injector is not None else set())
    for fw in firmwares:
        excused |= fw.retransmitted_seqs
    job_contexts = {
        job.job_id: {
            rank: cluster.nodeds[node_id].local_job(job.job_id).context
            for rank, node_id in job.rank_to_node.items()
        }
        for job in jobs
    }
    report = auditor.report(
        excused_seqs=excused, job_contexts=job_contexts,
        retransmits=sum(fw.retransmits for fw in firmwares))

    return ReliabilityPoint(
        strategy=strategy, drop=drop, goodput_mbps=goodput,
        retransmits=sum(fw.retransmits for fw in firmwares),
        retransmit_epochs=len(epochs),
        epochs_recovered=sum(1 for s in epochs if s.args.get("recovered")),
        acks_sent=sum(fw.acks_sent for fw in firmwares),
        nacks_sent=sum(fw.nacks_sent for fw in firmwares),
        permanent_losses=sum(fw.permanent_losses for fw in firmwares),
        audit_ok=report.ok,
        rounds=rounds, message_bytes=message_bytes,
        telemetry=cluster.telemetry_snapshot() if telemetry else None,
    )


def _point_worker(args: tuple) -> ReliabilityPoint:
    """Picklable run_points worker: one (strategy, drop) cell."""
    return _measure_point(*args)


def run_figure_reliability(strategies: Sequence[str] = STRATEGY_ARMS,
                           drops: Sequence[float] = DEFAULT_DROPS,
                           rounds: int = 20,
                           message_bytes: int = 1024,
                           root_seed: int = 0,
                           workers: int = 1,
                           telemetry: bool = False) -> list[ReliabilityPoint]:
    """The full sweep: one point per (strategy, drop rate)."""
    for name in strategies:
        if name not in STRATEGY_NAMES:
            raise ConfigError(
                f"unknown reliability strategy {name!r}; "
                f"choose from {', '.join(STRATEGY_NAMES)}")
    items = []
    for name in strategies:
        for drop in drops:
            seed = point_seed(
                root_seed, f"figure_reliability:{name}:drop={drop}")
            items.append((name, drop, rounds, message_bytes, seed, telemetry))
    return run_points(_point_worker, items, workers=workers)


def points_payload(points: Sequence[ReliabilityPoint]) -> dict:
    """The JSON benchmark document (``BENCH_reliability.json`` artifact)."""
    return {
        "schema": "repro-bench-reliability/1",
        "points": [p.to_dict() for p in points],
    }
