"""The benchmark's own tests: determinism of its metrics, its layer
attribution, and its refusal to run without the program.

Run from the repository root with ``python3 -m pytest perfbench`` (about
five minutes; not part of the tier-1 suite).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer metrics that are host time and so vary run to run; every
#: other per-layer metric is a count or a simulated quantity.
HOST_TIME = {m["name"] for m in SPEC["per_layer"]
             if m["name"].endswith("self_s")} | {
    "parpar.setup_s", "faults.audit_s", "telemetry.analyze_s",
    "trace_coverage", "trace_attributed", "trace_overhead", "host_wall_s"}
SIMULATED_E2E = ("sim_goodput_mbps", "switch_ms")


def _result(*args):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=400)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_simulated_metrics_repeat_exactly(workload):
    common = ("--workload", workload, "--seed", "3", "--seconds", "1")
    traced = [_result(*common, "--trace", "1") for _ in range(2)]
    plain = [_result(*common, "--trace", "0") for _ in range(2)]
    for a, b in (traced, plain):
        assert a["correct"] and b["correct"]
    deterministic = [m["name"] for m in SPEC["per_layer"]
                     if m["name"] not in HOST_TIME]
    for name in deterministic:
        assert (traced[0]["metrics"][name]["value"]
                == traced[1]["metrics"][name]["value"]), name
    for name in SIMULATED_E2E:
        assert (plain[0]["metrics"][name]["value"]
                == plain[1]["metrics"][name]["value"]), name
    assert traced[0]["metrics"]["trace_attributed"]["value"] >= 0.95


def test_rollup_charges_builtins_and_stdlib_to_their_caller():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import layers

    fm = (layers._REPRO_DIR + "fm/api.py", 71, "send")
    kernel = ("<repro.sim.core generated _loop_run>", 1, "_loop_run")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    helper = ("/usr/lib/python3/statistics.py", 10, "fmean")
    stats = {
        fm: (5, 5, 1.0, 3.0, {kernel: (5, 5, 1.0, 3.0)}),
        kernel: (1, 1, 2.0, 6.0, {}),
        push: (7, 7, 0.7, 0.7, {kernel: (4, 4, 0.4, 0.4),
                                fm: (3, 3, 0.3, 0.3)}),
        helper: (2, 2, 0.5, 0.5, {fm: (2, 2, 0.5, 0.5)}),
    }
    self_s, counts = layers.rollup(stats)
    assert self_s["sim"] == pytest.approx(2.4)
    assert self_s["fm"] == pytest.approx(1.8)
    assert counts["sim.heappush"] == 4
    assert counts["fm.send"] == 5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
