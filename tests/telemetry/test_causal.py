"""Causal lineage and stall-clock attribution.

Two layers of evidence: synthetic record streams fed into a
:class:`TraceConsumer` that pin its semantics exactly (fragment chains,
scheduling windows, the cause partition), and real cluster runs —
clean, chaotic, and fail-stop — that prove the invariants hold
end-to-end on the live consumer: every attribution sums to the measured
latency, and faults never orphan or double-count a span.
"""

import pytest

from repro.faults.model import FailStop, FaultSpec
from repro.faults.retransmit import RetransmitPolicy
from repro.fm.config import FMConfig
from repro.gluefm.switch import ValidOnlyCopy
from repro.parpar.cluster import ClusterConfig, ParParCluster
from repro.parpar.job import JobSpec
from repro.sim.trace import TraceRecord
from repro.telemetry.attribution import CAUSES, attribute_message
from repro.telemetry.causal import TraceConsumer
from repro.workloads.alltoall import alltoall_benchmark
from repro.workloads.bandwidth import bandwidth_benchmark

MS = 1e-3


def rec(time, kind, **fields):
    return TraceRecord(time, kind, fields)


def lineage_of(records):
    return TraceConsumer.of(records).lineage()


def windows_of(records, end_time=None):
    return TraceConsumer.of(records).windows(end_time)


def one_message(msg=5, seq=42, start=1 * MS, enq=2 * MS, tx=3 * MS,
                deliver=4 * MS, done=5 * MS):
    """The minimal complete chain for one single-fragment message."""
    return [
        rec(start, "msg-start", node=0, job=1, msg=msg, dst=1, dst_rank=0,
            nbytes=100, frags=1),
        rec(enq, "pkt-enq", node=0, job=1, msg=msg, frag=0, seq=seq, dst=1),
        rec(tx, "pkt-tx", node=0, job=1, msg=msg, frag=0, seq=seq, dst=1),
        rec(deliver, "pkt-deliver", node=1, src=0, job=1, msg=msg, seq=seq),
        rec(done, "msg-recv", node=1, job=1, msg=msg, src=0, nbytes=100),
    ]


class TestLineage:
    def test_complete_single_fragment_chain(self):
        [trace] = lineage_of(one_message())
        assert trace.complete
        assert trace.key == (0, 1, 5)
        assert trace.latency == pytest.approx(4 * MS)
        frag = trace.completing_fragment()
        assert frag.seq == 42
        assert frag.first_tx == pytest.approx(3 * MS)
        assert frag.delivered == pytest.approx(4 * MS)

    def test_multi_fragment_completing_is_last_delivered(self):
        records = [
            rec(0.0, "msg-start", node=0, job=1, msg=9, dst=1, dst_rank=0,
                nbytes=3000, frags=2),
        ]
        for frag, seq, base in ((0, 50, 1 * MS), (1, 51, 2 * MS)):
            records += [
                rec(base, "pkt-enq", node=0, job=1, msg=9, frag=frag,
                    seq=seq, dst=1),
                rec(base + MS, "pkt-tx", node=0, job=1, msg=9, frag=frag,
                    seq=seq, dst=1),
                rec(base + 2 * MS, "pkt-deliver", node=1, src=0, job=1,
                    msg=9, seq=seq),
            ]
        records.append(rec(5 * MS, "msg-recv", node=1, job=1, msg=9, src=0))
        [trace] = lineage_of(records)
        assert trace.complete
        assert trace.completing_fragment().frag == 1

    def test_retransmit_copies_tracked_and_spurious_tx_ignored(self):
        records = one_message()
        # a retransmitted wire copy before delivery, and a spurious one
        # after (lost-ack retry): only the pre-delivery copy delivers
        records.insert(3, rec(3.5 * MS, "pkt-tx", node=0, job=1, msg=5,
                              frag=0, seq=42, dst=1))
        records.append(rec(9 * MS, "pkt-tx", node=0, job=1, msg=5,
                           frag=0, seq=42, dst=1))
        records.insert(3, rec(3.2 * MS, "rto-retransmit", node=0, seq=42,
                              attempt=1))
        [trace] = lineage_of(records)
        frag = trace.completing_fragment()
        assert frag.retransmits == 1
        assert len(frag.tx_times) == 3
        assert frag.delivering_tx == pytest.approx(3.5 * MS)

    def test_duplicate_delivery_not_double_counted(self):
        records = one_message()
        records.append(rec(6 * MS, "pkt-deliver", node=1, src=0, job=1,
                           msg=5, seq=42))
        [trace] = lineage_of(records)
        frag = trace.completing_fragment()
        assert frag.delivered == pytest.approx(4 * MS)   # first wins
        assert frag.extra_deliveries == 1
        assert trace.complete

    def test_control_packets_ignored(self):
        records = one_message()
        records.insert(2, rec(2.5 * MS, "pkt-tx", node=1, job=1, msg=-1,
                              dst=0, seq=77))
        [trace] = lineage_of(records)
        assert len(trace.frags) == 1

    def test_incomplete_message_reported_not_guessed(self):
        records = one_message()[:-2]    # no delivery, no msg-recv
        [trace] = lineage_of(records)
        assert not trace.complete
        assert trace.latency is None


class TestWindows:
    def test_halt_release_pairs(self):
        records = [rec(1 * MS, "nic-halt", node=0),
                   rec(3 * MS, "nic-release", node=0)]
        windows = windows_of(records)
        assert windows.halted[0] == [(1 * MS, 3 * MS)]

    def test_open_windows_clip_to_end(self):
        records = [rec(1 * MS, "nic-halt", node=0),
                   rec(2 * MS, "job-stop", node=0, job=4)]
        windows = windows_of(records, end_time=5 * MS)
        assert windows.halted[0] == [(1 * MS, 5 * MS)]
        assert windows.stopped[(0, 4)] == [(2 * MS, 5 * MS)]

    def test_buffer_switch_and_context_store(self):
        records = [
            rec(4 * MS, "buffer-switch", node=1, duration=1 * MS, out=1,
                packets=3),
            rec(4 * MS, "ctx-remove", node=1, job=1),
            rec(9 * MS, "ctx-install", node=1, job=1),
        ]
        windows = windows_of(records)
        assert windows.swapping[1] == [(3 * MS, 4 * MS)]
        assert windows.stored[(1, 1)] == [(4 * MS, 9 * MS)]

    def test_init_job_stored_opens_window(self):
        records = [rec(0.0, "init-job", node=0, job=2, installed=False),
                   rec(6 * MS, "ctx-install", node=0, job=2)]
        windows = windows_of(records)
        assert windows.stored[(0, 2)] == [(0.0, 6 * MS)]


class TestAttribution:
    def attribute(self, records):
        traces = lineage_of(records)
        windows = windows_of(records)
        return attribute_message(traces[0], windows)

    def assert_exact(self, att):
        assert att is not None
        total = sum(att["causes"].values())
        assert total == pytest.approx(att["latency"], abs=1e-12)
        assert all(v >= -1e-15 for v in att["causes"].values())

    def test_quiet_chain_partition(self):
        att = self.attribute(one_message())
        self.assert_exact(att)
        causes = att["causes"]
        assert causes["host-send"] == pytest.approx(1 * MS)
        assert causes["nic-queue"] == pytest.approx(1 * MS)
        assert causes["wire"] == pytest.approx(1 * MS)
        assert causes["host-pickup"] == pytest.approx(1 * MS)

    def test_stall_charged_to_named_cause(self):
        records = one_message()
        records.insert(1, rec(1.8 * MS, "stall", node=0, job=1, msg=5,
                              cause="credit", dur=0.5 * MS))
        att = self.attribute(records)
        self.assert_exact(att)
        assert att["causes"]["credit-stall"] == pytest.approx(0.5 * MS)
        assert att["causes"]["host-send"] == pytest.approx(0.5 * MS)

    def test_halted_nic_charged_as_gang_barrier(self):
        records = one_message()
        records += [rec(2.2 * MS, "nic-halt", node=0),
                    rec(2.6 * MS, "nic-release", node=0)]
        att = self.attribute(records)
        self.assert_exact(att)
        assert att["causes"]["gang-barrier"] == pytest.approx(0.4 * MS)
        assert att["causes"]["nic-queue"] == pytest.approx(0.6 * MS)

    def test_overlap_priority_stored_over_barrier(self):
        records = one_message()
        # the same interval is both stored and halted: charge stored-context
        records += [rec(2.0 * MS, "ctx-remove", node=0, job=1),
                    rec(3.0 * MS, "ctx-install", node=0, job=1),
                    rec(2.0 * MS, "nic-halt", node=0),
                    rec(3.0 * MS, "nic-release", node=0)]
        att = self.attribute(records)
        self.assert_exact(att)
        assert att["causes"]["stored-context"] == pytest.approx(1 * MS)
        assert att["causes"]["gang-barrier"] == 0.0
        assert att["causes"]["nic-queue"] == 0.0

    def test_descheduled_receiver(self):
        records = one_message()
        records += [rec(4.2 * MS, "job-stop", node=1, job=1),
                    rec(4.9 * MS, "job-go", node=1, job=1)]
        att = self.attribute(records)
        self.assert_exact(att)
        assert att["causes"]["descheduled"] == pytest.approx(0.7 * MS)
        assert att["causes"]["host-pickup"] == pytest.approx(0.3 * MS)

    def test_descheduled_sender_not_booked_as_host_send(self):
        records = one_message()
        records += [rec(1.2 * MS, "job-stop", node=0, job=1),
                    rec(1.8 * MS, "job-go", node=0, job=1)]
        att = self.attribute(records)
        self.assert_exact(att)
        assert att["causes"]["descheduled"] == pytest.approx(0.6 * MS)
        assert att["causes"]["host-send"] == pytest.approx(0.4 * MS)

    def test_retransmit_backoff_split(self):
        records = one_message()
        records.insert(3, rec(3.5 * MS, "pkt-tx", node=0, job=1, msg=5,
                              frag=0, seq=42, dst=1))
        att = self.attribute(records)
        self.assert_exact(att)
        assert att["causes"]["retransmit-backoff"] == pytest.approx(0.5 * MS)
        assert att["causes"]["wire"] == pytest.approx(0.5 * MS)

    def test_incomplete_returns_none(self):
        traces = lineage_of(one_message()[:-1])
        assert attribute_message(traces[0], windows_of([])) is None

    def test_every_cause_key_present(self):
        att = self.attribute(one_message())
        assert set(att["causes"]) == set(CAUSES)


class TestLateRecords:
    """Records arriving after a message's msg-recv still count: every
    message is attributed against the final windows."""

    def test_window_open_at_completion_is_charged(self):
        records = one_message()
        records.insert(4, rec(4.5 * MS, "job-stop", node=1, job=1))
        [row] = TraceConsumer.of(records).analysis()["per_message"]
        assert row["causes"]["descheduled"] == pytest.approx(0.5 * MS)

    def test_later_stall_for_the_message_is_charged(self):
        records = one_message() + [rec(6 * MS, "stall", node=0, job=1,
                                       msg=5, cause="credit", dur=5 * MS)]
        [row] = TraceConsumer.of(records).analysis()["per_message"]
        assert row["causes"]["credit-stall"] == pytest.approx(1 * MS)

    def test_swap_reaching_back_past_first_tx_is_charged(self):
        records = one_message() + [rec(7 * MS, "buffer-switch", node=0,
                                       duration=5 * MS)]
        [row] = TraceConsumer.of(records).analysis()["per_message"]
        assert row["causes"]["buffer-swap"] == pytest.approx(1 * MS)

    def test_out_of_order_window_is_charged(self):
        records = one_message() + [rec(2.2 * MS, "nic-halt", node=0),
                                   rec(2.6 * MS, "nic-release", node=0)]
        [row] = TraceConsumer.of(records).analysis()["per_message"]
        assert row["causes"]["gang-barrier"] == pytest.approx(0.4 * MS)


class TestStallSummary:
    def test_counts_and_seconds_per_cause(self):
        records = [
            rec(1 * MS, "stall", node=0, job=1, msg=3, cause="credit",
                dur=0.5 * MS),
            rec(2 * MS, "stall", node=0, job=1, msg=4, cause="credit",
                dur=0.25 * MS),
            rec(3 * MS, "stall", node=1, job=2, msg=-1, cause="refill-queue",
                dur=1 * MS),
        ]
        summary = TraceConsumer.of(records).stall_totals()
        assert summary["credit"] == {"waits": 2,
                                     "seconds": pytest.approx(0.75 * MS)}
        assert summary["refill-queue"]["waits"] == 1


# ---------------------------------------------------------------- clusters
def run_cluster(jobs=2, messages=30, quantum=0.004, seed=3, faults=None,
                retransmit=None, workload=None, nodes=2, width=2,
                on_failure="kill"):
    fm = FMConfig(max_contexts=max(jobs, 1), num_processors=16)
    cluster = ParParCluster(ClusterConfig(
        num_nodes=nodes, time_slots=max(jobs, 1), quantum=quantum,
        buffer_switching=True, switch_algorithm=ValidOnlyCopy(), fm=fm,
        seed=seed, telemetry=True, trace=True, faults=faults,
        retransmit=retransmit,
    ))
    workload = workload or bandwidth_benchmark(messages, 1536)
    submitted = [cluster.submit(JobSpec(f"j{i}", width, workload,
                                        on_failure=on_failure))
                 for i in range(jobs)]
    cluster.run_until_finished(submitted, max_events=500_000_000)
    return cluster


def assert_lineage_invariants(cluster, require_complete=True):
    """The no-orphan / no-double-count contract over a real stream, read
    from the live consumer; the kept records cross-check it."""
    lineage = cluster.telemetry.lineage
    records = list(cluster.tracer.records)
    traces = lineage.lineage()
    windows = lineage.windows()
    assert traces, "run produced no messages"
    replayed = TraceConsumer.of(records)
    assert replayed.lineage() == traces
    assert replayed.analysis() == lineage.analysis()
    recv_counts = {}
    for r in records:
        if r.kind == "msg-recv" and r.fields.get("msg") is not None:
            key = (r.fields["src"], r.fields["job"], r.fields["msg"])
            recv_counts[key] = recv_counts.get(key, 0) + 1
    complete = 0
    for trace in traces:
        # each reassembly completes at most once: no double-counted spans
        assert recv_counts.get(trace.key, 0) <= 1
        att = attribute_message(trace, windows)
        if att is None:
            assert not trace.complete
            continue
        complete += 1
        total = sum(att["causes"].values())
        assert total == pytest.approx(att["latency"], abs=1e-9)
        assert all(v >= -1e-12 for v in att["causes"].values())
    if require_complete:
        assert complete == len(traces), "orphaned messages in a clean run"
    # span view: one message span per completed message, no duplicates
    spans = lineage.causal_spans()
    message_spans = [s for s in spans if s.name == "message"]
    assert len(message_spans) == complete
    return traces, complete


class TestClusterLineage:
    def test_clean_contended_run_attributes_everything(self):
        cluster = run_cluster(jobs=3, messages=25, quantum=0.002)
        traces, complete = assert_lineage_invariants(cluster)
        assert complete == len(traces)
        windows = cluster.telemetry.lineage.windows()
        # gang scheduling visibly parked jobs: stopped windows exist
        assert windows.stopped
        assert windows.halted

    def test_chaos_preset_no_orphans_no_double_count(self):
        """Satellite: dropped and duplicated packets must neither orphan
        nor double-count spans."""
        faults = FaultSpec(drop_rate=0.03, dup_rate=0.02)
        cluster = run_cluster(
            jobs=2, quantum=0.004, seed=11, faults=faults,
            retransmit=RetransmitPolicy(), nodes=4, width=4,
            workload=alltoall_benchmark(rounds=5, message_bytes=1024))
        traces, complete = assert_lineage_invariants(cluster)
        retransmits = sum(t.retransmits for t in traces)
        assert retransmits > 0, "drops never exercised the retransmit path"
        dup_evidence = sum(
            f.dup_discards + f.extra_deliveries
            for t in traces for f in t.frags.values())
        assert dup_evidence > 0, "dups never reached the lineage"

    def test_failstop_preset_incomplete_messages_are_flagged(self):
        """Satellite: a mid-run node death may strand messages; they must
        surface as incomplete, never as bogus attributions."""
        faults = FaultSpec(failstop=(FailStop(3, 0.014, None),))
        cluster = run_cluster(
            jobs=2, quantum=0.004, seed=7, faults=faults,
            retransmit=RetransmitPolicy(), nodes=4, width=2,
            workload=alltoall_benchmark(rounds=40, message_bytes=1024))
        traces, complete = assert_lineage_invariants(
            cluster, require_complete=False)
        assert complete > 0, "no message survived the fail-stop run"
