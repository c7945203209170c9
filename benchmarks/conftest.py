"""Benchmark-suite plumbing.

Each benchmark regenerates one of the paper's figures/tables, prints the
rendered rows (visible with ``pytest benchmarks/ -s`` and in the captured
output block), and writes them under ``benchmarks/results/`` so a full
run leaves the reproduced figures on disk.  pytest-benchmark's pedantic
mode keeps every experiment to a single timed round — the experiments
are deterministic simulations; repeating them buys nothing.

The rendered rows must also match the sha256 committed for that figure
in ``figure_digests.json``, so any change to a reproduced figure fails
the suite.  After a deliberate change, regenerate the digests from the
new ``results/*.txt``:

    PYTHONPATH=src python -m pytest benchmarks --benchmark-disable -q
    python benchmarks/conftest.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
DIGESTS = pathlib.Path(__file__).parent / "figure_digests.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def publish():
    """publish(name, text): print a rendered figure, persist it, and
    check it against its committed digest."""

    def _publish(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)
        expected = json.loads(DIGESTS.read_text()).get(name)
        assert _sha256(text + "\n") == expected, (
            f"{name}: rendered rows differ from the committed digest; "
            f"see benchmarks/results/{name}.txt")

    return _publish


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {p.stem: _sha256(p.read_text())
         for p in sorted(RESULTS_DIR.glob("*.txt"))},
        indent=2, sort_keys=True) + "\n")
