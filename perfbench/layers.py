"""Layer instrumentation applied from outside the program.

Two tools, both installed by the benchmark around its own calls; nothing
under ``src/`` knows about them:

- :class:`Probe` wraps a handful of public entry points for the duration
  of a ``with`` block.  Each call becomes a coarse span (name, start, end,
  parent), and every ``ParParCluster`` built and job submitted is kept
  until the point returns so :func:`suite.harvest` can read the model's
  counters.  The wrappers cost a few calls per point, so they stay on in
  the timed passes too.
- :func:`rollup` turns a cProfile run into self time per ``repro``
  package (the layers), charging C builtins such as ``heapq`` and
  non-``repro`` Python code to the layer that called them, and the
  exec-compiled ``<repro.sim.core generated ...>`` loops to ``sim``.
"""

# simlint: skip-file -- spans record host wall time by design

from __future__ import annotations

import os
import re
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import repro
import repro.telemetry.explain as explain_mod
from repro.faults.audit import InvariantAuditor
from repro.parpar.cluster import ParParCluster
from repro.sim.core import Simulator

#: (owner, attribute, span name).  ``analyze_records`` and
#: ``normalize_records`` are module functions that ``run_explain`` looks
#: up through the module, so patching the module attribute covers them.
_TARGETS = (
    (ParParCluster, "__init__", "ParParCluster"),
    (ParParCluster, "submit", "submit"),
    (ParParCluster, "run_until_finished", "run_until_finished"),
    (Simulator, "run_until_processed", "run_until_processed"),
    (InvariantAuditor, "report", "auditor.report"),
    (explain_mod, "normalize_records", "normalize_records"),
    (explain_mod, "analyze_records", "analyze_records"),
)


class Probe:
    """Coarse spans and cluster capture around the public entry points."""

    def __init__(self, on_cluster=None):
        #: (name, start, end, parent index or -1)
        self.spans: List[Tuple[str, float, float, int]] = []
        self.clusters: list = []
        self.jobs: Dict[int, list] = defaultdict(list)
        self._stack: List[int] = []
        self._saved: list = []
        self._on_cluster = on_cluster

    def __enter__(self):
        for owner, attr, name in _TARGETS:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn):
        probe = self

        def wrapper(*args, **kwargs):
            index = len(probe.spans)
            parent = probe._stack[-1] if probe._stack else -1
            probe.spans.append((name, 0.0, 0.0, parent))
            probe._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                probe._stack.pop()
                probe.spans[index] = (name, start, end, parent)
            if name == "ParParCluster":
                probe.clusters.append(args[0])
                if probe._on_cluster is not None:
                    probe._on_cluster()
            elif name == "submit":
                probe.jobs[id(args[0])].append(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def take_clusters(self):
        """Hand over (and forget) the clusters and jobs captured so far."""
        clusters, jobs = self.clusters, dict(self.jobs)
        self.clusters, self.jobs = [], defaultdict(list)
        return clusters, jobs

    def span_totals(self) -> Dict[str, float]:
        """name -> total seconds, counting only the outermost call per name."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            # A span nested in a span of the same name (e.g. the kernel
            # driven from inside submit) is already inside the outer one.
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                totals[name] += end - start
        return dict(totals)


# ------------------------------------------------------------------ cProfile
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_GENERATED = re.compile(r"^<repro\.(\w+)")

#: Layers the benchmark reports on its own; other ``repro`` packages
#: (experiments, metrics, mpi, top-level modules) roll into ``other``.
LAYERS = ("sim", "fm", "hardware", "parpar", "gluefm", "faults",
          "telemetry", "workloads")

#: count metric -> (file, function name) whose cProfile ncalls it is
CALL_COUNTS = {
    name: (os.path.join(_REPRO_DIR, *module.split("/")), funcname)
    for name, (module, funcname) in {
        "fm.send": ("fm/api.py", "send"),
        "fm.extract": ("fm/api.py", "extract"),
        "fm.firmware_resumes": ("fm/firmware.py", "_run"),
        "fm.queue_append": ("fm/queues.py", "append"),
        "hardware.packets_moved": ("hardware/network.py", "transmit"),
    }.items()
}

#: count metric -> builtin whose calls *from the sim layer* it counts
BUILTIN_COUNTS = {
    "sim.heappush": "<built-in method _heapq.heappush>",
    "sim.heappop": "<built-in method _heapq.heappop>",
}


def _own_layer(func) -> Optional[str]:
    """Layer of a profiled function by its file, or None if not repro."""
    filename = func[0]
    match = _GENERATED.match(filename)
    if match:
        return match.group(1)
    if not filename.startswith(_REPRO_DIR):
        return None
    package = filename[len(_REPRO_DIR):].split(os.sep)[0]
    return package if package in LAYERS else "other"


def rollup(stats: dict) -> Tuple[Dict[str, float], Dict[str, int]]:
    """(self seconds per layer, exact call counts) from ``pstats.stats``.

    A function outside ``repro`` (a C builtin, the standard library,
    NumPy) has its self time split over its direct callers, each share
    going to the caller's layer; a caller that is itself outside
    ``repro`` is placed in the layer of its own heaviest caller.
    Anything reached from no ``repro`` frame is the benchmark's own and
    lands in ``bench``.
    """
    resolved: Dict[tuple, str] = {}

    def layer_of(func, seen=()) -> str:
        if func in resolved:
            return resolved[func]
        own = _own_layer(func)
        if own is None:
            callers = stats[func][4] if func in stats else {}
            heaviest = max(callers, key=lambda c: callers[c][3], default=None)
            if heaviest is None or heaviest in seen:
                own = "bench"
            else:
                own = layer_of(heaviest, seen + (func,))
        resolved[func] = own
        return own

    self_s: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if _own_layer(func) is not None or not callers:
            self_s[layer_of(func)] += tt
            continue
        for caller, (_c, _n, caller_tt, _ct2) in callers.items():
            self_s[layer_of(caller)] += caller_tt

    counts = {name: 0 for name in (*CALL_COUNTS, *BUILTIN_COUNTS)}
    for func, (_cc, nc, _tt, _ct, callers) in stats.items():
        for name, (path, funcname) in CALL_COUNTS.items():
            if func[2] == funcname and func[0] == path:
                counts[name] += nc
        for name, builtin in BUILTIN_COUNTS.items():
            if func[2] == builtin:
                counts[name] += sum(n for caller, (_c, n, _t, _x)
                                    in callers.items()
                                    if layer_of(caller) == "sim")
    return dict(self_s), counts
