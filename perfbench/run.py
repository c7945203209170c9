"""The repository's benchmark: host time, memory and simulated results of
the gang-scheduled FM simulator on four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gang_p2p --seed 0 --seconds 25 \
        --trace 0
    python3 perfbench/run.py                 # every workload, trace 0 and 1
    python3 perfbench/run.py --record-digests [--workload NAME]

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The process exits 0
only when every point's result matches its recorded digest and passes
its audit / attribution checks.  See README.md for what each metric
means and which layer and workload it belongs to.

Each workload runs in a fresh child process (``workers=1``, no pool),
so its peak RSS is its own; ``setup_s`` is the median wall time of
several more fresh children that start the interpreter, import the
package and build the workload's first cluster.
"""

# simlint: skip-file -- the benchmark measures host wall time by design

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
DIGESTS_PATH = BENCH_DIR / "digests.json"

#: Fresh-interpreter set-up probes per run (after one uncounted warm-up
#: that also writes the bytecode cache).
SETUP_REPS = 9
#: A trace-1 run spends this share of ``--seconds`` on untraced passes
#: (the base of ``trace_overhead``) before its single profiled pass.
UNTRACED_SHARE = 0.5
#: The layers must account for this share of the self time cProfile
#: recorded.  (Their share of the traced pass's wall time, reported as
#: ``trace_coverage``, is 0.95-0.98: cProfile's per-call overhead lands
#: in no function, and explain_traced makes the most calls per second.)
MIN_ATTRIBUTED = 0.95
#: Limits on a child process, so a hung simulation cannot hang the run.
CHILD_TIMEOUT = 170
PROBE_TIMEOUT = 60


#: The reference loop's nominal time.  ``host_s`` and ``setup_s`` are
#: wall times divided by the reference loop's time measured around them,
#: times this constant: seconds on a machine where the loop takes 50 ms
#: (about its time on an idle 2-CPU container).
REFERENCE_S = 0.05


class SetupDone(Exception):
    """Raised by the set-up probe once the first cluster is built."""


def _reference_loop(steps=60000):
    """A fixed pure-Python event loop: generators resumed from a heap.

    Other tenants of a shared machine slow it by up to 2x for minutes at
    a time; this loop, timed between the benchmark's own measurements,
    slows with them.  It is the benchmark's own code, so a change to the
    program never moves it.
    """
    def process(key, counts):
        recent = []
        while True:
            recent.append((key, {"key": key}))
            if len(recent) > 8:
                recent.pop(0)
            counts[key] = counts.get(key, 0) + 1
            yield key % 5 + 1

    counts = {}
    procs = [process(i, counts) for i in range(64)]
    heap = [(next(p), i) for i, p in enumerate(procs)]
    heapq.heapify(heap)
    for _ in range(steps):
        when, i = heapq.heappop(heap)
        heapq.heappush(heap, (when + procs[i].send(None), i))
    return counts


def reference_s() -> float:
    """Wall seconds of one reference loop, GC off."""
    gc.disable()
    start = time.perf_counter()
    _reference_loop()
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


class Reference:
    """Divides each measurement by the reference loop timed around it."""

    def __init__(self):
        self.last = reference_s()

    def ratio(self, elapsed: float) -> float:
        after = reference_s()
        ratio = elapsed / ((self.last + after) / 2)
        self.last = after
        return ratio


# ====================================================================== child
def _import_suite():
    sys.path.insert(0, str(SRC))
    import layers
    import suite
    return suite, layers


def _run_pass(suite, probe, points, expected, profiler=None, reference=None):
    """Run every point once; returns (seconds, ratios, rows, failures).

    ``seconds`` is each point's wall time and ``ratios`` its wall time over
    the reference loop's (when a :class:`Reference` is given).
    ``failures`` holds one message per point that raised or failed a check.

    Only the calls into ``repro`` are timed, with the cyclic GC off; the
    collection, digesting, counter harvest and reference loop between
    points are not.
    """
    seconds, ratios, rows, failures = [], [], [], []
    for index, thunk in enumerate(points):
        gc.collect()
        gc.disable()
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        try:
            outcome = thunk()
            error = None
        except Exception as exc:   # a raising point is a failed operation
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
        gc.enable()
        seconds.append(elapsed)
        if reference is not None:
            ratios.append(reference.ratio(elapsed))
        clusters, jobs = probe.take_clusters()
        if error is not None:
            failures.append(f"point {index}: {error}")
            continue
        stats = suite.harvest(clusters, jobs)
        del clusters, jobs
        got = suite.digest(outcome.payload)
        want = expected[index] if index < len(expected) else None
        problems = list(outcome.problems)
        if got != want:
            problems.append(f"digest {got[:16]} != recorded "
                            f"{(want or 'none')[:16]}")
        if problems:   # one failed operation per point
            failures.append(f"point {outcome.label}: {'; '.join(problems)}")
        rows.append((outcome, stats, got))
    return seconds, ratios, rows, failures


def best_pass_s(point_s) -> float:
    """Wall seconds of a pass: each point's fastest time across passes."""
    return sum(min(times) for times in zip(*point_s))


def normalized_pass_s(point_ratio) -> float:
    """``host_s``: each point's median time-over-reference, in seconds."""
    return REFERENCE_S * sum(statistics.median(r) for r in zip(*point_ratio))


def _fingerprint(rows):
    """What must repeat exactly from pass to pass within one run."""
    return [(digest, json.dumps(stats, sort_keys=True))
            for _outcome, stats, digest in rows]


def _switch_ms(stage_records):
    if not stage_records:
        return 0.0
    return 1e3 * statistics.fmean(sum(r) for r in stage_records)


def _end_to_end(rows):
    goodput = [o.goodput_mbps if o.goodput_mbps is not None
               else s["goodput_mbps"] for o, s, _ in rows]
    stages = [r for _o, s, _d in rows for r in s["stage_s"]]
    return {"sim_goodput_mbps": statistics.fmean(goodput),
            "switch_ms": _switch_ms(stages)}


def _accuracy(workload, rows):
    """Simulated results beside the paper's published references."""
    lines = []
    if workload == "gang_p2p":
        cells = {(o.payload["jobs"], o.payload["message_bytes"]):
                 o.payload["aggregate_mbps"] for o, _s, _d in rows}
        for size in sorted({s for _j, s in cells}):
            base = cells.get((1, size))
            for jobs in sorted(j for j, s in cells if s == size and j > 1):
                ratio = cells[(jobs, size)] / base if base else float("nan")
                verdict = "within" if abs(ratio - 1) <= 0.35 else "OUTSIDE"
                lines.append(
                    f"accuracy: gang_p2p {size} B, {jobs} jobs: aggregate "
                    f"{cells[(jobs, size)]:.2f} MB/s vs 1-job base "
                    f"{base:.2f} MB/s = {ratio:.3f}x ({verdict} the paper's "
                    f"flat shape, +-35%)")
    elif workload == "gang_alltoall":
        reference = {"full-copy": 85.0, "valid-only-copy": 12.5}
        stages = {name: [] for name in reference}
        for outcome, stats, _d in rows:
            stages[outcome.payload["algorithm"]].extend(stats["stage_s"])
        for name, bound in reference.items():
            value = _switch_ms(stages[name])
            verdict = "below" if value < bound else "ABOVE"
            lines.append(f"accuracy: {name} switch_ms {value:.3f} ms vs paper "
                         f"<{bound} ms ({verdict} the reference)")
    lines.append("accuracy: the repo holds no real-hardware reference beyond "
                 "the Figure 6 shape and the <12.5 / <85 ms switch costs; the "
                 "model is otherwise unvalidated.")
    return lines


def _per_layer(suite, layers, rows, profile, traced_s, untraced_s, spans):
    import pstats

    self_s, counts = layers.rollup(pstats.Stats(profile).stats)
    stats = [s for _o, s, _d in rows]
    stages = [r for s in stats for r in s["stage_s"]]
    valid = [v for s in stats for v in s["valid_pkts"]]
    sent = sum(s["data_sent"] for s in stats)
    retransmits = sum(s["retransmits"] for s in stats)
    delivered = sum(s["data_delivered"] for s in stats)
    explain = [o.explain for o, _s, _d in rows if o.explain is not None]
    metrics = {
        "sim.events": sum(s["events"] for s in stats),
        "sim.heappush": counts["sim.heappush"],
        "sim.heappop": counts["sim.heappop"],
        "fm.send": counts["fm.send"],
        "fm.extract": counts["fm.extract"],
        "fm.firmware_resumes": counts["fm.firmware_resumes"],
        "fm.queue_append": counts["fm.queue_append"],
        "fm.packets_delivered": delivered,
        "hardware.packets_moved": counts["hardware.packets_moved"],
        "parpar.switches": sum(s["switches"] for s in stats),
        "parpar.setup_s": spans["ParParCluster"],
        "gluefm.halt_ms": 1e3 * statistics.fmean(
            r[0] for r in stages) if stages else 0.0,
        "gluefm.swap_ms": 1e3 * statistics.fmean(
            r[1] for r in stages) if stages else 0.0,
        "gluefm.release_ms": 1e3 * statistics.fmean(
            r[2] for r in stages) if stages else 0.0,
        "gluefm.valid_pkts_per_switch": statistics.fmean(valid)
        if valid else 0.0,
        "faults.retransmits": retransmits,
        "faults.acks": sum(s["acks"] for s in stats),
        "faults.useful_ratio": delivered / (sent + retransmits)
        if sent + retransmits else 0.0,
        "faults.audit_s": spans["auditor.report"],
        "telemetry.records": sum(s["trace_records"] for s in stats),
        "telemetry.analyze_s": spans["normalize_records"]
        + spans["analyze_records"],
        "telemetry.msg_p50_us": 1e6 * statistics.fmean(
            p["latency"]["p50"] for p in explain) if explain else 0.0,
        "telemetry.msg_p99_us": 1e6 * statistics.fmean(
            p["latency"]["p99"] for p in explain) if explain else 0.0,
    }
    for cause, total in suite.wait_totals(explain).items():
        metrics[f"telemetry.wait.{cause.replace('-', '_')}_s"] = total
    for layer in (*layers.LAYERS, "other"):
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    covered = sum(self_s.get(layer, 0.0) for layer in (*layers.LAYERS,
                                                       "other"))
    metrics["trace_coverage"] = covered / traced_s
    metrics["trace_attributed"] = covered / sum(self_s.values())
    metrics["trace_overhead"] = traced_s / untraced_s
    return metrics


def child_main(args) -> int:
    """Run one workload for ``--seconds``; print its raw results as JSON."""
    import cProfile
    import resource

    suite, layers = _import_suite()
    root = suite.variant(args.seed)
    recorded = json.loads(DIGESTS_PATH.read_text()) \
        if DIGESTS_PATH.exists() else {}
    expected = recorded.get(args.workload, {}).get(str(root), [])
    points = suite.WORKLOADS[args.workload](root)

    began = time.perf_counter()
    budget = args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
    point_s, point_ratio, failures, attempted = [], [], [], 0
    span_s = {name: [] for name in ("ParParCluster", "auditor.report",
                                    "normalize_records", "analyze_records")}
    first = None
    reference = Reference()
    with layers.Probe() as probe:
        while True:
            probe.spans.clear()
            seconds, ratios, rows, failed = _run_pass(
                suite, probe, points, expected, reference=reference)
            wall = time.perf_counter() - began
            attempted += len(points)
            failures.extend(failed)
            point_s.append(seconds)
            point_ratio.append(ratios)
            totals = probe.span_totals()
            for name in span_s:
                span_s[name].append(totals.get(name, 0.0))
            if first is None:
                first = rows
            elif _fingerprint(rows) != _fingerprint(first):
                failures.append("model counters differ between passes of "
                                "one run")
            per_pass = wall / len(point_s)
            if wall + per_pass > budget:
                break
        out = {"attempted": attempted, "failures": failures,
               "point_s": point_s, "point_ratio": point_ratio}
        if args.trace:
            profile = cProfile.Profile()
            traced, _r, rows, failed = _run_pass(suite, probe, points,
                                                 expected, profiler=profile)
            attempted += len(points)
            failures.extend(failed)
            spans = {k: statistics.median(v) for k, v in span_s.items()}
            metrics = _per_layer(suite, layers, rows, profile, sum(traced),
                                 best_pass_s(point_s), spans)
            metrics["host_wall_s"] = best_pass_s(point_s)
            out.update(attempted=attempted, metrics=metrics)
        else:
            out["sim"] = _end_to_end(first)
            out["notes"] = _accuracy(args.workload, first)
            out["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


def setup_probe_main(args) -> int:
    """Start up, import, build the workload's first cluster, and stop."""
    suite, layers = _import_suite()

    def done():
        raise SetupDone

    points = suite.WORKLOADS[args.workload](suite.variant(args.seed))
    with layers.Probe(on_cluster=done):
        try:
            points[0]()
        except SetupDone:
            return 0
    return 1


def record_main(args) -> int:
    """Re-record every point's digest for every input variant."""
    suite, layers = _import_suite()
    recorded = json.loads(DIGESTS_PATH.read_text()) \
        if DIGESTS_PATH.exists() else {}
    names = [args.workload] if args.workload else list(suite.WORKLOADS)
    for name in names:
        table = {}
        for root in range(suite.POOL):
            points = suite.WORKLOADS[name](root)
            with layers.Probe() as probe:
                _s, _r, rows, _f = _run_pass(suite, probe, points, [])
            problems = [p for o, _s2, _d in rows for p in o.problems]
            if len(rows) != len(points) or problems:
                print(f"{name} variant {root}: a point raised or failed its "
                      f"checks: {problems}", file=sys.stderr)
                return 1
            table[str(root)] = [digest for _o, _s2, digest in rows]
            print(f"recorded {name} variant {root}", flush=True)
        recorded[name] = table
    DIGESTS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                            + "\n")
    return 0


# ====================================================================== parent
def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _self_cmd(*extra):
    return [sys.executable, str(Path(__file__).resolve()), *extra]


def _measure_setup(workload, seed) -> list:
    """(wall seconds, ratio to the reference loop) of each set-up probe."""
    samples = []
    cmd = _self_cmd("--setup-probe", "--workload", workload,
                    "--seed", str(seed))
    reference = None
    for rep in range(SETUP_REPS + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if reference is None:   # the first probe warms the bytecode cache
            reference = Reference()
        else:
            samples.append((elapsed, reference.ratio(elapsed)))
    return samples


def _run_child(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        _self_cmd("--child", "--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)),
        env=_child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"workload child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(spec, workload, seed, seconds, trace) -> dict:
    """Measure one workload; print readable lines and return the result."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    raw = _run_child(workload, seed, seconds, trace)
    passes = [sum(p) for p in raw["point_s"]]
    lo, hi = _quartiles(passes)
    print(f"== {workload} seed={seed} trace={trace}: {len(passes)} timed "
          f"passes; wall per pass: median {statistics.median(passes):.4f} s "
          f"(q1 {lo:.4f}, q3 {hi:.4f}), each point's best "
          f"{best_pass_s(raw['point_s']):.4f} s")
    if trace:
        values = raw["metrics"]
    else:
        setup = _measure_setup(workload, seed)
        values = {"host_s": normalized_pass_s(raw["point_ratio"]),
                  "setup_s": REFERENCE_S * statistics.median(
                      ratio for _wall, ratio in setup),
                  "peak_rss_mb": raw["peak_rss_mb"], **raw["sim"]}
        print(f"set-up wall samples: "
              f"{', '.join(f'{wall:.4f}' for wall, _r in setup)} s")
        for line in raw["notes"]:
            print(line)
    if set(values) != set(units):
        raise RuntimeError(f"metric set drifted from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    failures = list(raw["failures"])
    if trace and not values["trace_attributed"] >= MIN_ATTRIBUTED:
        failures.append(f"layers account for only "
                        f"{values['trace_attributed']:.3f} of profiled time")
    for failure in failures:
        print(f"FAILED: {failure}")
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    return {"correct": not failures, "attempted": raw["attempted"],
            "failed": len(failures),
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() \
            or not SPEC_PATH.is_file():
        print(f"perfbench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.setup_probe:
        return setup_probe_main(args)
    if args.record_digests:
        return record_main(args)

    spec = json.loads(SPEC_PATH.read_text())
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    unknown = set(names) - {w["name"] for w in spec["workloads"]}
    if unknown:
        parser.error(f"unknown workload(s): {sorted(unknown)}")
    traces = [args.trace] if args.trace is not None else (
        [0] if args.workload else [0, 1])

    results = {}
    for name in names:
        for trace in traces:
            results[(name, trace)] = run_workload(spec, name, args.seed,
                                                  seconds, trace)
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for (name, _t), r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
