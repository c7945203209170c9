"""The run path needs no numpy, and gives the results numpy gave.

``repro.sim.rand`` ports the generator the model used to take from
``numpy.random.default_rng``; numpy is left as a test/example extra.  A
child interpreter with ``sys.modules["numpy"] = None`` (so any ``import
numpy`` raises) imports the top-level packages, checks numpy is absent,
and runs one experiment per draw method:

- the ``repro chaos --smoke`` preset: SRAM flips draw ``exponential``
  and ``integers``, link faults draw ``random``;
- the ``--failstop 1`` preset: fail-stop picks draw ``choice`` and
  ``uniform``;
- one Figure 6 cell: the control Ethernet's broadcast skew (``uniform``);
- ``uniform_random_benchmark``: per-rank destinations (``integers``).

The chaos outputs must equal the goldens recorded with numpy's
``Generator``.  Where numpy is installed, every output must also equal
the same run made here with each stream swapped for a real
``numpy.random.default_rng``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.figure6 import run_figure6
from repro.fm.buffers import FullBuffer
from repro.fm.config import FMConfig
from repro.fm.harness import FMNetwork
from repro.sim import Simulator, rand
from repro.workloads import synthetic

ROOT = Path(__file__).resolve().parents[1]
CHAOS_GOLDENS = {
    "chaos_smoke": ROOT / "tests/faults/fixtures/golden_chaos_smoke.json",
    "chaos_failstop": ROOT / "tests/faults/fixtures/golden_chaos_failstop.json",
}
CHAOS_ARGV = {
    "chaos_smoke": ["chaos", "--smoke"],
    "chaos_failstop": ["chaos", "--failstop", "1", "--smoke", "--runs", "2"],
}

_CHILD = """
import json, sys
sys.modules["numpy"] = None
import repro.parpar.cluster, repro.experiments, repro.faults.chaos
import repro.telemetry.explain
from tests.test_numpy_free import numpy_modules, runs
assert numpy_modules() == [], numpy_modules()
out = runs()
assert numpy_modules() == [], numpy_modules()
json.dump(out, sys.stdout)
"""


def numpy_modules() -> list[str]:
    """numpy modules actually loaded (the ``None`` blocker is not one)."""
    return sorted(name for name, mod in sys.modules.items()
                  if mod is not None
                  and (name == "numpy" or name.startswith("numpy.")))


def _uniform_random() -> str:
    sim = Simulator()
    net = FMNetwork(sim, 4, config=FMConfig(num_processors=4),
                    strict_no_loss=True)
    eps = net.create_job(1, [0, 1, 2, 3], FullBuffer())
    results = {}

    def run(ep):
        workload = synthetic.uniform_random_benchmark(40, 600, seed=7)
        results[ep.rank] = yield from workload(ep)

    for proc in [sim.process(run(ep)) for ep in eps]:
        sim.run_until_processed(proc, max_events=10_000_000)
    return repr((sim.now, sorted(results.items())))


def runs() -> dict[str, str]:
    """The four runs, each as the text it produces."""
    out = {}
    for name, argv in CHAOS_ARGV.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        out[name] = buf.getvalue()
    out["figure6"] = repr(run_figure6(jobs=(2,), message_sizes=(4096,)))
    out["uniform_random"] = _uniform_random()
    return out


@pytest.fixture(scope="module")
def numpy_free_runs() -> dict[str, str]:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], cwd=ROOT, capture_output=True,
        text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}"})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_chaos_presets_match_numpy_goldens(numpy_free_runs):
    for name, path in CHAOS_GOLDENS.items():
        assert numpy_free_runs[name] == path.read_text(), name


class _NumpyStream:
    """A ``numpy.random.default_rng`` behind ``PCG64Stream``'s interface."""

    def __init__(self, seed: int):
        import numpy as np
        self._gen = np.random.default_rng(seed)

    def random(self):
        return float(self._gen.random())

    def uniform(self, low, high):
        return float(self._gen.uniform(low, high))

    def integers(self, low, high=None, size=None):
        drawn = self._gen.integers(low, high, size)
        return int(drawn) if size is None else drawn.tolist()

    def exponential(self, scale):
        return float(self._gen.exponential(scale))

    def choice(self, a, size, replace=True):
        return self._gen.choice(a, size=size, replace=replace).tolist()


def test_numpy_backed_streams_give_the_same_runs(numpy_free_runs,
                                                 monkeypatch):
    pytest.importorskip("numpy")
    monkeypatch.setattr(rand, "PCG64Stream", _NumpyStream)
    monkeypatch.setattr(synthetic, "PCG64Stream", _NumpyStream)
    assert runs() == numpy_free_runs
