"""The benchmark's four workloads, built from a seed, run a pass at a time.

A *pass* is a fixed list of *points*; each point is one call into a public
entry point of ``repro`` (``repro.experiments``, ``repro.faults`` or
``repro.telemetry``) that stands up its own hermetic cluster.  The seed
selects which of ``POOL`` recorded input variants a run uses
(``seed % POOL``), and the variant feeds every point's RNG seed through
:func:`repro.experiments.common.point_seed` exactly as the repo's sweeps
do.  Every point's deterministic result is hashed and compared with the
digest recorded for that variant in ``digests.json``.

Why these workloads (the metric -> layer -> workload map is in README.md):

- ``gang_p2p``: Figure 6 cells, the paper's headline experiment.  FM's
  1-fragment path, the firmware loop and the kernel heap carry the host
  time; faults and telemetry are idle.
- ``gang_alltoall``: the Figure 7/9 experiment.  The gang-switch protocol runs
  hundreds of times with both copy algorithms; FM sees many peers and
  6-fragment messages, so the 1-fragment path is bypassed.
- ``chaos_reliable``: the only workload where the retransmit layer, the
  ACK/NACK strategies and the invariant auditor run.
- ``explain_traced``: causal tracing plus lineage replay and attribution;
  tracing is off in the other three, which checks that it costs nothing
  when off.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

from repro.experiments.common import point_seed
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_switch_point
from repro.faults.chaos import ChaosPoint, run_chaos_point
from repro.gluefm.switch import FullCopy, ValidOnlyCopy
from repro.telemetry.attribution import CAUSES
from repro.telemetry.explain import explain_payload, run_explain
from repro.units import mb_per_second

#: Number of recorded input variants; ``--seed`` picks ``seed % POOL``.
POOL = 32

#: Figure 6 cells.  The quantum is 5 ms (the Figure 6 sweep uses 20 ms)
#: so a pass takes ~2 s and a run gets several passes; each job still
#: spans ~4.5 quanta and the aggregate stays within the paper's +-35%.
P2P_JOBS = (1, 4, 8)
P2P_SIZES = (96, 1536)
P2P_QUANTUM = 0.005

#: Figure 7/9 experiment: 16 nodes, 8 KB messages, both copy algorithms.
#: Valid-only runs twice: the traffic it moves in 24 switches varies by
#: +-10% with the seed (full copy by 0.3%), and so does its host time.
A2A_NODES = 16
A2A_SWITCHES = 24
A2A_VALID_RUNS = 2

#: Chaos: 8 nodes, drop 2%, dup 1%, auditor on; two runs per strategy
#: average out the per-seed spread of the fault schedule.
CHAOS_STRATEGIES = ("per-packet", "nack")
CHAOS_RUNS = 2
CHAOS_ROUNDS = 60

#: Explain: 4 jobs, 1536 B messages, 20 ms quantum (~10k messages).
EXPLAIN_JOBS = 4
EXPLAIN_SIZE = 1536
EXPLAIN_QUANTUM = 0.020


@dataclass
class PointOutcome:
    """One point's deterministic result plus what the metrics need."""

    label: str
    payload: object           # JSON-able, hashed for the correctness gate
    problems: List[str]       # audit / attribution failures (empty = ok)
    goodput_mbps: Optional[float] = None   # set by the workload, else generic
    explain: Optional[dict] = None         # explain payload point, if any


def digest(payload) -> str:
    """sha256 of the canonical JSON form of a point's results."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def variant(seed: int) -> int:
    return seed % POOL


# ------------------------------------------------------------------ points
def _p2p_point(root: int, jobs: int, size: int) -> PointOutcome:
    point = run_figure6(jobs=(jobs,), message_sizes=(size,),
                        quantum=P2P_QUANTUM, root_seed=root, workers=1)[0]
    payload = {"jobs": point.jobs, "message_bytes": point.message_bytes,
               "per_job_mbps": list(point.per_job_mbps),
               "aggregate_mbps": point.aggregate_mbps,
               "switches": point.switches,
               "messages_per_job": point.messages_per_job}
    return PointOutcome(f"jobs={jobs}/size={size}", payload, [],
                        goodput_mbps=point.aggregate_mbps)


def _a2a_point(root: int, algorithm, run: int) -> PointOutcome:
    label = f"switch:{algorithm.name}:nodes={A2A_NODES}"
    seed = point_seed(root, label if run == 0 else f"{label}:run={run}")
    point = run_switch_point(A2A_NODES, algorithm,
                             num_switches=A2A_SWITCHES, seed=seed)
    payload = {"nodes": point.nodes, "algorithm": point.algorithm,
               "switches": point.switches,
               "mean_cycles": asdict(point.mean_cycles),
               "occupancy": asdict(point.occupancy)}
    return PointOutcome(f"{point.algorithm}/run={run}", payload, [])


def _chaos_point(root: int, strategy: str, run: int) -> PointOutcome:
    seed = point_seed(root, f"chaos:{strategy}:run={run}")
    report = run_chaos_point(ChaosPoint(
        seed=seed, nodes=8, rounds=CHAOS_ROUNDS, drop=0.02, dup=0.01,
        audit=True, strategy=strategy))
    problems = []
    if not report["audit"]["ok"]:
        problems.append(f"audit failed: {report['audit']}")
    if report["error"] is not None:
        problems.append(f"run error: {report['error']}")
    return PointOutcome(f"{strategy}/run={run}", report, problems)


def _explain_point(root: int) -> PointOutcome:
    results = run_explain(jobs=(EXPLAIN_JOBS,), message_sizes=(EXPLAIN_SIZE,),
                          quantum=EXPLAIN_QUANTUM, root_seed=root, workers=1)
    payload = explain_payload(results)
    point = payload["points"][0]
    problems = [f"{key}={point[key]}" for key in ("mismatches", "incomplete")
                if point[key] != 0]
    if point["truncated"]:
        problems.append("trace truncated")
    return PointOutcome(f"jobs={EXPLAIN_JOBS}/size={EXPLAIN_SIZE}", payload,
                        problems, explain=point)


# ------------------------------------------------------------------ workloads
def _p2p_points(root):
    return [lambda j=j, s=s: _p2p_point(root, j, s)
            for j in P2P_JOBS for s in P2P_SIZES]


def _a2a_points(root):
    return [lambda a=a, r=r: _a2a_point(root, a, r)
            for a, runs in ((FullCopy(), 1), (ValidOnlyCopy(), A2A_VALID_RUNS))
            for r in range(runs)]


def _chaos_points(root):
    return [lambda s=s, r=r: _chaos_point(root, s, r)
            for s in CHAOS_STRATEGIES for r in range(CHAOS_RUNS)]


def _explain_points(root):
    return [lambda: _explain_point(root)]


#: workload name -> (variant -> the pass's points, each a no-argument call)
WORKLOADS: Dict[str, Callable[[int], List[Callable[[], PointOutcome]]]] = {
    "gang_p2p": _p2p_points,
    "gang_alltoall": _a2a_points,
    "chaos_reliable": _chaos_points,
    "explain_traced": _explain_points,
}


# ------------------------------------------------------------------ harvest
def harvest(clusters, jobs_by_cluster) -> dict:
    """Deterministic model counters from the clusters one point built.

    Reads only public attributes, after the point returned and outside
    the timed region.
    """
    out = {"events": 0, "switches": 0, "stage_s": [], "valid_pkts": [],
           "retransmits": 0, "acks": 0, "data_sent": 0, "data_delivered": 0,
           "trace_records": 0, "goodput_mbps": 0.0}
    for cluster in clusters:
        out["events"] += cluster.sim.processed_events
        out["switches"] += cluster.masterd.switches_completed
        for rec in cluster.recorder.with_outgoing_job():
            out["stage_s"].append((rec.halt_seconds, rec.switch_seconds,
                                   rec.release_seconds))
            out["valid_pkts"].append(rec.out_send_valid + rec.out_recv_valid)
        for glue in cluster.glue:
            fw = glue.firmware
            out["retransmits"] += getattr(fw, "retransmits", 0)
            out["acks"] += getattr(fw, "acks_sent", 0)
        if cluster.telemetry is not None:
            out["trace_records"] += len(cluster.telemetry.tracer.records)
        goodput = 0.0
        for job in jobs_by_cluster.get(id(cluster), ()):
            received = 0
            for node_id in job.node_ids:
                try:
                    stats = cluster.nodeds[node_id].local_job(
                        job.job_id).context.stats
                except KeyError:   # never loaded on that node
                    continue
                out["data_sent"] += stats.packets_sent
                out["data_delivered"] += stats.packets_received
                received += stats.bytes_received
            if job.ready_at is None:
                continue
            end = (job.finished_at if job.finished_at is not None
                   else cluster.sim.now)
            if end > job.ready_at:
                goodput += mb_per_second(received, end - job.ready_at)
        out["goodput_mbps"] += goodput
    return out


def wait_totals(explain_points) -> Dict[str, float]:
    """Per-cause simulated wait seconds summed over the explain points."""
    totals = {cause: 0.0 for cause in CAUSES}
    for point in explain_points:
        for cause in CAUSES:
            totals[cause] += point["causes"][cause]["total"]
    return totals
