"""Command-line experiment runner: ``python -m repro <figure> [options]``.

Regenerates any of the paper's figures from the shell without pytest:

    python -m repro figure5 --contexts 1 2 4 8 --sizes 1024 16384
    python -m repro figure7 --nodes 2 8 16
    python -m repro headline
    python -m repro list

Every sweep verb is a :class:`Sweep`: its own run function, renderer,
JSON outputs and audit.  :func:`run_sweep` does the rest the same way
for all of them — print, the ``--smoke`` serial-vs-``-j2`` identity
gate, file output and ``--telemetry`` merging.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional

#: Mirror of ``repro.faults.strategies.STRATEGY_NAMES`` — inlined so
#: building the parser stays import-free; a test pins the two in sync.
STRATEGY_CHOICES = ("per-packet", "cumulative", "nack", "adaptive")

#: One line per verb: ``repro list`` prints it, and it is the verb's help.
EXPERIMENTS = {
    "figure5": "Fig. 5  bandwidth vs size x contexts, static FM division",
    "figure6": "Fig. 6  total bandwidth vs size x jobs, buffer switching",
    "figure_policies": "buffer policy comparison: bandwidth vs competing jobs",
    "figure_reliability": "reliability strategy comparison: goodput vs drop rate",
    "figure7": "Fig. 7  switch stage cycles vs nodes, full copy",
    "figure8": "Fig. 8  valid packets in buffers at switch time",
    "figure9": "Fig. 9  switch stage cycles vs nodes, valid-only copy",
    "headline": "Sec 4.2 headline overhead bounds",
    "nicmem": "Sec 4.1 NIC memory sufficiency",
    "perf": "DES kernel performance smoke check",
    "explain": "causal latency attribution + critical-path waterfalls",
    "chaos": "fault-injection campaign with no-loss/no-dup safety audit",
    "telemetry": "traced gang-switch demo (Chrome trace + metrics snapshot)",
    "lint": "simlint determinism & protocol-safety static analysis",
    "racecheck": "dynamic buffer-ownership race detector (gang-switch protocol)",
}

#: ``--smoke`` presets: sweep keyword defaults that the user's own flags
#: override (explain's replaces them).  Every preset is small but lights
#: the interesting cells; the chaos presets live in ``repro.faults.chaos``.
POLICIES_SMOKE = dict(jobs=(1, 2), message_sizes=(1536,), quanta_per_job=1.5)
RELIABILITY_SMOKE = dict(drops=(0.0, 0.05), rounds=6)
EXPLAIN_SMOKE = dict(jobs=(1, 2), message_sizes=(1536,), messages=60,
                     quantum=0.004, keep_records=True)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quantum", type=float, default=None,
                        help="gang quantum in seconds (scaled; see DESIGN.md)")


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry", metavar="OUT.json", default=None,
                        help="enable the unified telemetry layer and write "
                             "the merged snapshot (all sweep points) here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate figures from Etsion & Feitelson, IPPS 2001.",
    )
    parser.add_argument("-j", "--jobs", dest="workers", type=int, default=1,
                        metavar="N",
                        help="run sweep points on N worker processes "
                             "(before the subcommand; results are "
                             "bit-identical to a serial run)")
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=EXPERIMENTS[name])

    sub.add_parser("list", help="list available experiments")

    p5 = verb("figure5")
    p5.add_argument("--contexts", type=int, nargs="+",
                    default=list(range(1, 9)))
    p5.add_argument("--sizes", type=int, nargs="+", default=None)
    p5.add_argument("--packets", type=int, default=800,
                    help="target packets per data point")
    _add_telemetry(p5)

    p6 = verb("figure6")
    p6.add_argument("--jobs", type=int, nargs="+", default=[1, 2, 4, 8])
    p6.add_argument("--sizes", type=int, nargs="+", default=None)
    _add_common(p6)
    _add_telemetry(p6)

    pp = verb("figure_policies")
    pp.add_argument("--policies", nargs="+", default=None,
                    help="policy arms to sweep (default: all five)")
    pp.add_argument("--jobs", type=int, nargs="+", default=None,
                    help="competing job counts (default: 1 2 4 8)")
    pp.add_argument("--sizes", type=int, nargs="+", default=None,
                    help="message sizes in bytes (default: 1536)")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--out", metavar="BENCH.json", default=None,
                    help="write the benchmark JSON document here")
    pp.add_argument("--smoke", action="store_true",
                    help="CI preset: small sweep, then re-run on a "
                         "2-worker pool and require byte-identical "
                         "results; exit non-zero otherwise")
    _add_common(pp)
    _add_telemetry(pp)

    pfr = verb("figure_reliability")
    pfr.add_argument("--strategies", nargs="+", default=None,
                     choices=STRATEGY_CHOICES,
                     help="strategy arms to sweep (default: all four)")
    pfr.add_argument("--drops", type=float, nargs="+", default=None,
                     help="packet drop rates (default: 0 0.02 0.05 0.1)")
    pfr.add_argument("--rounds", type=int, default=None,
                     help="all-to-all rounds per point (default: 20)")
    pfr.add_argument("--seed", type=int, default=0)
    pfr.add_argument("--out", metavar="BENCH.json", default=None,
                     help="write the benchmark JSON document here")
    pfr.add_argument("--smoke", action="store_true",
                     help="CI preset: small sweep over every arm, then "
                          "re-run on a 2-worker pool and require "
                          "byte-identical results; exit non-zero otherwise")
    _add_telemetry(pfr)

    for name in ("figure7", "figure8", "figure9"):
        p = verb(name)
        p.add_argument("--nodes", type=int, nargs="+", default=[2, 4, 8, 16])
        p.add_argument("--switches", type=int, default=10)
        _add_telemetry(p)

    verb("headline")
    _add_telemetry(verb("nicmem"))
    verb("perf")

    pt = verb("telemetry")
    pt.add_argument("--out", metavar="TRACE.json", default=None,
                    help="Chrome trace_event output "
                         "(default: repro_trace.json)")
    pt.add_argument("--metrics", metavar="SNAP.json", default=None,
                    help="also write the unified snapshot JSON here")
    pt.add_argument("--nodes", type=int, default=4)
    pt.add_argument("--switches", type=int, default=4)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--smoke", action="store_true",
                    help="CI preset: validate the snapshot against the "
                         "checked-in schema and require a complete "
                         "halt/swap/release switch; exit non-zero otherwise")

    px = verb("explain")
    px.add_argument("--jobs", type=int, nargs="+", default=[1, 2, 4],
                    help="competing gang-scheduled jobs per point")
    px.add_argument("--sizes", type=int, nargs="+", default=[1536],
                    help="message sizes in bytes")
    px.add_argument("--messages", type=int, default=None,
                    help="messages per job (default: sized to ~3 quanta)")
    px.add_argument("--policy", default=None,
                    help="buffer-sharing policy arm (adds reallocation "
                         "spans; see 'figure_policies')")
    px.add_argument("--seed", type=int, default=0)
    px.add_argument("--trace", metavar="TRACE.json", default=None,
                    help="analyze a saved repro-trace/1 document instead "
                         "of running the simulation")
    px.add_argument("--save-trace", dest="save_trace", metavar="OUT.json",
                    default=None,
                    help="write the normalized record streams here "
                         "(re-ingestable with --trace)")
    px.add_argument("--json", dest="json_out", metavar="OUT.json",
                    default=None,
                    help="write the repro-explain/1 attribution summary")
    px.add_argument("--chrome", metavar="OUT.json", default=None,
                    help="write a Chrome trace_event file with flow "
                         "arrows for the last point")
    px.add_argument("--top", type=int, default=5,
                    help="exemplar messages per point in the JSON summary")
    px.add_argument("--smoke", action="store_true",
                    help="CI preset: small sweep, serial vs -j2 must be "
                         "byte-identical and every cause partition must "
                         "sum exactly; exit non-zero otherwise")
    _add_common(px)

    pc = verb("chaos")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--runs", type=int, default=1,
                    help="independent seeded runs (fan out with -j)")
    pc.add_argument("--nodes", type=int, default=4)
    pc.add_argument("--slots", type=int, default=2)
    pc.add_argument("--chaos-jobs", type=int, default=2, dest="chaos_jobs",
                    help="gang-scheduled all-to-all jobs (<= slots)")
    pc.add_argument("--rounds", type=int, default=30)
    pc.add_argument("--size", type=int, default=1024,
                    help="all-to-all message size in bytes")
    pc.add_argument("--quantum", type=float, default=0.004)
    pc.add_argument("--drop", type=float, default=0.0)
    pc.add_argument("--dup", type=float, default=0.0)
    pc.add_argument("--corrupt", type=float, default=0.0)
    pc.add_argument("--jitter", type=float, default=0.0)
    pc.add_argument("--sram", type=float, default=0.0,
                    help="SRAM bit flips per second per node")
    pc.add_argument("--stall", type=float, default=0.0,
                    help="per-switch daemon stall probability")
    pc.add_argument("--crash", type=float, default=0.0,
                    help="per-switch daemon crash probability")
    pc.add_argument("--failstop", type=int, default=0, metavar="N",
                    help="kill N nodes fail-stop at seed-drawn times; jobs "
                         "shrink to nodes/2 ranks so some survive")
    pc.add_argument("--rejoin", action="store_true",
                    help="restart each killed node 5 quanta after its death "
                         "and reintegrate it")
    pc.add_argument("--requeue", action="store_true",
                    help="requeue jobs that lose a rank instead of killing "
                         "them (falls back to kill without capacity)")
    pc.add_argument("--strategy", choices=STRATEGY_CHOICES,
                    default="per-packet",
                    help="ACK/NACK reliability strategy on every NIC "
                         "(default: per-packet)")
    pc.add_argument("--no-audit", action="store_true",
                    help="inject faults without the invariant auditor")
    pc.add_argument("--smoke", action="store_true",
                    help="fast CI preset; exits non-zero on any violation "
                         "(combine with --failstop for the recovery preset)")
    _add_telemetry(pc)

    pl = verb("lint")
    pl.add_argument("paths", nargs="*", default=None, metavar="PATH",
                    help="files or directories to lint "
                         "(default: the repro package)")
    pl.add_argument("--format", choices=("text", "json", "sarif"),
                    default="text",
                    help="report format (json is stable for CI diffing; "
                         "sarif is the SARIF 2.1.0 interchange document "
                         "for code-scanning annotations)")
    pl.add_argument("--changed", nargs="?", const="HEAD", default=None,
                    metavar="BASE",
                    help="only report findings in files git-changed "
                         "since BASE (default HEAD = uncommitted "
                         "changes); the whole tree is still indexed so "
                         "interprocedural rules see full context")
    pl.add_argument("--sarif-out", metavar="REPORT.sarif", default=None,
                    help="also write the SARIF 2.1.0 report here "
                         "(CI code-scanning artifact)")
    pl.add_argument("--fail-on", choices=("error", "warning"),
                    default="error", dest="fail_on",
                    help="exit non-zero when findings at or above this "
                         "severity survive the baseline")
    pl.add_argument("--baseline", metavar="FILE", default=None,
                    help="baseline JSON of accepted findings; only *new* "
                         "findings fail the gate "
                         "(default: schemas/simlint_baseline.json when "
                         "present)")
    pl.add_argument("--no-baseline", action="store_true",
                    help="ignore any baseline; every finding counts")
    pl.add_argument("--write-baseline", metavar="FILE", default=None,
                    help="write the current findings as the new baseline "
                         "and exit 0")
    pl.add_argument("--out", metavar="REPORT.json", default=None,
                    help="also write the JSON report here (CI artifact)")

    pr = verb("racecheck")
    pr.add_argument("--preset", choices=("chaos", "failstop"),
                    default="chaos",
                    help="which fault campaign to monitor")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--plant", action="store_true",
                    help="schedule a deliberate out-of-ownership-window "
                         "access (positive control; expects 1 race)")
    pr.add_argument("--plant-kind",
                    choices=("stored-access", "halted-send", "sram-stored"),
                    default="stored-access", dest="plant_kind",
                    help="which race class the planted probe commits "
                         "(with --plant)")
    pr.add_argument("--smoke", action="store_true",
                    help="CI gate: clean chaos+failstop presets must show "
                         "zero races, a planted access must be caught, "
                         "and monitoring must leave outputs bit-identical")
    pr.add_argument("--out", metavar="REPORT.json", default=None,
                    help="write the JSON report here (CI artifact)")
    return parser


# ------------------------------------------------------------- sweep harness
def write_json(path: str, doc, indent: Optional[int] = 2,
               sort_keys: bool = True) -> None:
    """The one JSON file writer: ``doc`` plus a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=sort_keys)
        fh.write("\n")


@dataclass(frozen=True)
class Output:
    """A JSON document a sweep can write to ``dest`` (None: not asked for).

    ``make`` builds the document lazily; under ``--smoke`` it is built
    for the identity gate whether or not it is written.
    """

    dest: Optional[str]
    make: Callable[[], object]
    indent: Optional[int] = 2
    echo: Optional[str] = None     # printed after writing, ``{}`` = dest


@dataclass(frozen=True)
class Sweep:
    """One sweep verb's own pieces; :func:`run_sweep` does the rest."""

    run: Callable                  # (args, workers) -> points
    render: Callable               # points -> text
    outputs: Callable = lambda args, points: ()   # -> Output, ...
    #: (args, points) -> problem strings; any problem exits 1, and
    #: ``--smoke`` prints them
    audit: Callable = lambda args, points: ()
    #: ``--smoke`` reruns on a 2-worker pool, requires byte-identical
    #: text and outputs, and prints this line (``{n}`` = point count)
    smoke_ok: Optional[str] = None
    snapshots: Callable = lambda points: (p.telemetry for p in points)


def _identity(sweep: Sweep, args, points) -> list:
    """Everything a run would show, as text, for the ``-j2`` gate."""
    return [sweep.render(points)] + [
        json.dumps(out.make(), indent=out.indent, sort_keys=True)
        for out in sweep.outputs(args, points)]


def run_sweep(sweep: Sweep, args) -> int:
    """Run, print, gate, write and merge telemetry for one sweep verb."""
    points = sweep.run(args, args.workers)
    print(sweep.render(points))
    problems = list(sweep.audit(args, points))
    smoke = getattr(args, "smoke", False)
    if smoke and sweep.smoke_ok:
        if _identity(sweep, args, points) != _identity(
                sweep, args, sweep.run(args, 2)):
            problems.insert(0, "-j2 sweep diverged from the serial run")
    if smoke:
        for problem in problems:
            print(f"FAIL: {problem}")
        if not problems and sweep.smoke_ok:
            print(sweep.smoke_ok.format(n=len(points)))
    for out in sweep.outputs(args, points):
        if out.dest:
            write_json(out.dest, out.make(), indent=out.indent)
            if out.echo:
                print(out.echo.format(out.dest))
    if getattr(args, "telemetry", None):
        _write_merged_telemetry(args.telemetry, sweep.snapshots(points))
    return 1 if problems else 0


def _write_merged_telemetry(path: str, snapshots) -> None:
    """Merge per-point snapshots and write the aggregate (validated)."""
    from repro.telemetry.schema import validate_snapshot
    from repro.telemetry.session import merge_unified_snapshots

    merged = merge_unified_snapshots(s for s in snapshots if s is not None)
    problems = validate_snapshot(merged)
    if problems:  # pragma: no cover - contract drift is a bug
        raise RuntimeError("telemetry snapshot violates schema: "
                           + "; ".join(problems))
    write_json(path, merged)
    print(f"telemetry snapshot written to {path}")


def _given(**flags) -> dict:
    """The flags the user passed (None = left at the sweep's default)."""
    return {k: tuple(v) if isinstance(v, list) else v
            for k, v in flags.items() if v is not None}


def _lazy(module: str, name: str, *extra):
    """``module.name(*args, *extra, **kwargs)``, importing ``module`` on
    first call so that building the parser stays cheap."""
    def call(*args, **kwargs):
        import importlib
        return getattr(importlib.import_module(module), name)(
            *args, *extra, **kwargs)
    return call


REPORT = "repro.experiments.report"


# -------------------------------------------------------------- sweep verbs
def _figure5(args, workers):
    from repro.experiments.figure5 import run_figure5
    return run_figure5(**_given(contexts=args.contexts,
                                message_sizes=args.sizes),
                       target_packets=args.packets, workers=workers,
                       telemetry=args.telemetry is not None)


def _figure6(args, workers):
    from repro.experiments.figure6 import run_figure6
    return run_figure6(**_given(jobs=args.jobs, message_sizes=args.sizes,
                                quantum=args.quantum),
                       workers=workers, telemetry=args.telemetry is not None)


def _switch_sweep(figure: str):
    """figure7/8/9: the gang-switch node sweep."""
    runner = _lazy(f"repro.experiments.{figure}", f"run_{figure}")
    return lambda args, workers: runner(
        nodes=tuple(args.nodes), num_switches=args.switches,
        workers=workers, telemetry=args.telemetry is not None)


def _nicmem(args, workers):
    from repro.experiments.nic_memory import run_nic_memory_sweep
    return run_nic_memory_sweep(workers=workers,
                                telemetry=args.telemetry is not None)


def _render_nicmem(points) -> str:
    from repro.experiments.nic_memory import contexts_supported, knee_of
    from repro.experiments.report import format_table

    knee = knee_of(points)
    rows = [(p.send_buffer_kib, p.credits, f"{p.mbps:.1f}",
             "<- knee" if p is knee else "") for p in points]
    return (format_table(["sendbuf[KiB]", "C0", "MB/s", ""], rows)
            + f"\nknee at {knee.send_buffer_kib} KiB; a 512 KiB card supports "
            f"~{contexts_supported(432, knee.send_buffer_kib)} contexts")


def _headline(args, workers):
    from repro.experiments.table_overhead import run_headline_overheads
    return run_headline_overheads()


def _policies(args, workers):
    from repro.experiments.figure_policies import run_figure_policies
    preset = POLICIES_SMOKE if args.smoke else {}
    return run_figure_policies(
        **{**preset, **_given(policies=args.policies, jobs=args.jobs,
                              message_sizes=args.sizes,
                              quantum=args.quantum)},
        root_seed=args.seed, workers=workers,
        telemetry=args.telemetry is not None)


def _reliability(args, workers):
    from repro.experiments.figure_reliability import run_figure_reliability
    preset = RELIABILITY_SMOKE if args.smoke else {}
    return run_figure_reliability(
        **{**preset, **_given(strategies=args.strategies, drops=args.drops,
                              rounds=args.rounds)},
        root_seed=args.seed, workers=workers,
        telemetry=args.telemetry is not None)


def _bench_output(module: str):
    """The ``--out`` benchmark document of a figure_* sweep."""
    payload = _lazy(module, "points_payload")

    def outputs(args, points):
        return (Output(args.out, lambda: payload(points),
                       echo="benchmark JSON written to {}"),)
    return outputs


def _reliability_audit(args, points):
    # Only the smoke preset promises green audits: a long sweep at a
    # high drop rate may legitimately exhaust a strategy's retries.
    bad = [p for p in points if not p.audit_ok] if args.smoke else []
    return [f"{len(bad)} points failed the invariant audit"] if bad else []


def _explain(args, workers):
    from repro.telemetry.explain import load_trace, run_explain

    if args.smoke:
        return run_explain(**EXPLAIN_SMOKE, root_seed=args.seed,
                           workers=workers)
    if args.trace:
        with open(args.trace) as fh:
            return load_trace(json.load(fh))
    return run_explain(jobs=tuple(args.jobs), message_sizes=tuple(args.sizes),
                       **_given(messages=args.messages,
                                quantum=args.quantum),
                       policy=args.policy, root_seed=args.seed,
                       workers=workers,
                       keep_records=args.save_trace is not None)


def _explain_outputs(args, results):
    from repro.telemetry.explain import (explain_chrome_trace,
                                         explain_payload, trace_payload)

    # The smoke preset pins its exemplar counts and writes silently.
    smoke = args.smoke
    top = 5 if smoke else args.top
    chrome = {"top": 20} if smoke else {}
    outputs = [
        Output(args.json_out, lambda: explain_payload(results, top=top),
               echo=None if smoke else "attribution summary written to {}"),
        Output(args.chrome,
               lambda: explain_chrome_trace(results[-1], **chrome),
               indent=1,
               echo=None if smoke else (
                   "Chrome trace written to {} -- load it in "
                   "chrome://tracing or https://ui.perfetto.dev")),
    ]
    if args.save_trace:
        outputs.append(Output(args.save_trace, lambda: trace_payload(results),
                              indent=None,
                              echo=None if smoke else
                              "record streams written to {}"))
    return outputs


def _explain_audit(args, results):
    problems = []
    for result in results:
        p = result["point"]
        where = f"point jobs={p['jobs']}"
        if args.smoke and not p["complete"]:
            problems.append(f"{where}: no complete messages")
        if p["mismatches"]:
            problems.append(f"{where}: {p['mismatches']} "
                            "attribution sum mismatches")
        if args.smoke and p["incomplete"]:
            problems.append(f"{where}: {p['incomplete']} "
                            "incomplete messages in an untruncated run")
    return problems


def _chaos(args, workers):
    from repro.faults.chaos import (CHAOS_PRESETS, ChaosPoint,
                                    run_chaos_campaign)

    common = dict(seed=args.seed, audit=not args.no_audit,
                  strategy=args.strategy,
                  telemetry=args.telemetry is not None)
    if args.smoke:
        preset = CHAOS_PRESETS["failstop" if args.failstop else "chaos"]
        point = replace(preset, **common)
    else:
        point = ChaosPoint(
            nodes=args.nodes, time_slots=args.slots, jobs=args.chaos_jobs,
            quantum=args.quantum, rounds=args.rounds,
            message_bytes=args.size, drop=args.drop, dup=args.dup,
            corrupt=args.corrupt, jitter=args.jitter, sram=args.sram,
            stall=args.stall, crash=args.crash, failstops=args.failstop,
            rejoin=args.rejoin, requeue=args.requeue, **common)
    return run_chaos_campaign(point, runs=args.runs, workers=workers)


def _chaos_audit(args, results):
    if args.no_audit:
        return []
    return [f"run {i}: {r['error'] or 'safety audit failed'}"
            for i, r in enumerate(results)
            if r.get("error") or not r["audit"]["ok"]]


SWEEPS = {
    "figure5": Sweep(_figure5, _lazy(REPORT, "render_figure5")),
    "figure6": Sweep(_figure6, _lazy(REPORT, "render_figure6")),
    "figure_policies": Sweep(
        _policies, _lazy(REPORT, "render_policies"),
        outputs=_bench_output("repro.experiments.figure_policies"),
        smoke_ok="smoke: serial and -j2 sweeps bit-identical ({n} points)"),
    "figure_reliability": Sweep(
        _reliability, _lazy(REPORT, "render_reliability"),
        outputs=_bench_output("repro.experiments.figure_reliability"),
        audit=_reliability_audit,
        smoke_ok="smoke: serial and -j2 sweeps bit-identical, audits "
                 "green ({n} points)"),
    "figure7": Sweep(_switch_sweep("figure7"),
                     _lazy(REPORT, "render_switch_overheads", "7")),
    "figure8": Sweep(_switch_sweep("figure8"),
                     _lazy(REPORT, "render_figure8")),
    "figure9": Sweep(_switch_sweep("figure9"),
                     _lazy(REPORT, "render_switch_overheads", "9")),
    "headline": Sweep(_headline, _lazy(REPORT, "render_headline")),
    "nicmem": Sweep(_nicmem, _render_nicmem),
    "explain": Sweep(
        _explain, _lazy("repro.telemetry.explain", "render_explain"),
        outputs=_explain_outputs, audit=_explain_audit,
        smoke_ok="\nsmoke: serial and -j2 byte-identical ({n} points), "
                 "all causes sum exactly"),
    "chaos": Sweep(
        _chaos,
        lambda results: json.dumps(
            results if len(results) > 1 else results[0], indent=2),
        audit=_chaos_audit,
        snapshots=lambda results: (r.get("telemetry") for r in results)),
}


# --------------------------------------------------------- other commands
def _list(args) -> int:
    for name, desc in EXPERIMENTS.items():
        print(f"  {name:<9} {desc}")
    return 0


def _perf(args) -> int:
    from repro.sim.bench import run_smoke

    return run_smoke()


def _git_changed_py_files(repo_root, base):
    """Repo-relative posix paths of ``*.py`` files changed since ``base``.

    The union of tracked changes (``git diff --name-only <base>``) and
    untracked files, for ``repro lint --changed``.  Returns None when
    git is unavailable or the ref does not resolve — the caller falls
    back to reporting the full tree rather than silently reporting
    nothing.
    """
    import subprocess
    try:
        diff = subprocess.run(
            ["git", "diff", "--name-only", base, "--"],
            cwd=repo_root, capture_output=True, text=True, check=True)
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            cwd=repo_root, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    names = set(diff.stdout.splitlines())
    names.update(untracked.stdout.splitlines())
    return sorted(n for n in names if n.endswith(".py"))


def _lint(args) -> int:
    from pathlib import Path

    import repro
    from repro.analysis.simlint import (
        all_rules, diff_against_baseline, lint_paths, load_baseline,
        render_baseline, render_json, render_sarif, render_text,
        rules_inventory_hash)

    package_dir = Path(repro.__file__).resolve().parent
    repo_root = package_dir.parent.parent
    paths = args.paths if args.paths else [package_dir]
    rules_hash = rules_inventory_hash()

    report_paths = None
    if args.changed:
        report_paths = _git_changed_py_files(repo_root, args.changed)
        if report_paths is None:
            print("simlint: --changed: git diff failed; "
                  "reporting the full tree", file=sys.stderr)

    result = lint_paths(paths, root=repo_root, report_paths=report_paths)

    if args.write_baseline:
        Path(args.write_baseline).write_text(
            render_baseline(result, rules_hash=rules_hash))
        print(f"simlint baseline written to {args.write_baseline} "
              f"({len(result.findings)} findings)")
        return 0

    if args.format == "json":
        print(render_json(result), end="")
    elif args.format == "sarif":
        print(render_sarif(result), end="")
    else:
        print(render_text(result))
    if args.out:
        Path(args.out).write_text(render_json(result))
    if args.sarif_out:
        Path(args.sarif_out).write_text(render_sarif(result))

    baseline = {}
    if not args.no_baseline:
        baseline_path = (Path(args.baseline) if args.baseline
                         else repo_root / "schemas" / "simlint_baseline.json")
        baseline = load_baseline(baseline_path, rules_hash=rules_hash)
    regressions = diff_against_baseline(result, baseline)

    gate = ({"error"} if args.fail_on == "error"
            else {"error", "warning"})
    severity_of = {r.code: r.severity for r in all_rules()}
    failing = [r for r in regressions
               if severity_of.get(r[0].rsplit("::", 1)[-1]) in gate]
    for key, allowed, now in failing:
        print(f"simlint: NEW finding {key}: {now} (baseline {allowed})",
              file=sys.stderr)
    if result.parse_errors:
        return 1
    return 1 if failing else 0


def _racecheck(args) -> int:
    from repro.analysis.simlint.racecheck import (
        run_racecheck, run_racecheck_smoke)

    if args.smoke:
        summary = run_racecheck_smoke(seed=args.seed)
        if args.out:
            write_json(args.out, summary)
        for check in summary["checks"]:
            verdict = "OK " if check["ok"] else "FAIL"
            detail = {k: v for k, v in check.items()
                      if k not in ("check", "ok")}
            print(f"racecheck {verdict} {check['check']} {detail}")
        print("racecheck smoke:", "PASS" if summary["ok"] else "FAIL")
        return 0 if summary["ok"] else 1

    result = run_racecheck(preset=args.preset, seed=args.seed,
                           plant=args.plant,
                           plant_kind=args.plant_kind)
    doc = result.to_dict()
    if args.out:
        write_json(args.out, doc)
    print(json.dumps(doc["monitor"], indent=2, sort_keys=True))
    expected = 1 if args.plant else 0
    return 0 if result.race_count == expected else 1


def _telemetry(args) -> int:
    from repro.telemetry.demo import run_telemetry_demo
    from repro.telemetry.export import render_summary

    demo = run_telemetry_demo(nodes=args.nodes,
                              num_switches=args.switches,
                              seed=args.seed)
    out = args.out if args.out else "repro_trace.json"
    write_json(out, demo.trace, indent=1, sort_keys=False)
    if args.metrics:
        write_json(args.metrics, demo.snapshot)
    print(render_summary(demo.snapshot))
    print(f"\n{demo.switches} gang switches captured; Chrome trace "
          f"({len(demo.trace['traceEvents'])} events) written to {out} "
          "-- load it in chrome://tracing or https://ui.perfetto.dev")
    if demo.problems:
        for problem in demo.problems:
            print(f"telemetry check FAILED: {problem}", file=sys.stderr)
        return 1
    if args.smoke:
        print("telemetry smoke: snapshot schema OK, "
              "halt/swap/release spans OK")
    return 0


COMMANDS = {"list": _list, "perf": _perf, "lint": _lint,
            "racecheck": _racecheck, "telemetry": _telemetry}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in SWEEPS:
        return run_sweep(SWEEPS[args.command], args)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
