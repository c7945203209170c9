"""Byte-identity characterisation of the ``repro`` sweep verbs.

Each case replays one small CLI run through :func:`repro.cli.main` and
compares its stdout and every file it writes against the fixtures under
``tests/fixtures/cli/``, byte for byte.  Output paths are the only thing
masked: arguments spelled ``@name`` become files in a temporary
directory, and that directory prints as ``<tmp>`` in stdout.

Regenerate the fixtures only on purpose, with a documented reason:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "cli"

CASES = {
    "figure_reliability_smoke": ["figure_reliability", "--smoke",
                                 "--out", "@bench.json"],
    "figure_policies_smoke": ["figure_policies", "--smoke",
                              "--out", "@bench.json"],
    "figure7": ["figure7", "--nodes", "2", "4", "--switches", "2"],
    "figure8": ["figure8", "--nodes", "2", "4", "--switches", "2"],
    "figure9": ["figure9", "--nodes", "2", "4", "--switches", "2"],
    "nicmem": ["nicmem"],
    "headline": ["headline"],
    "figure5_telemetry": ["figure5", "--contexts", "1", "2",
                          "--sizes", "1024", "--packets", "100",
                          "--telemetry", "@telemetry.json"],
    "figure6_telemetry": ["figure6", "--jobs", "1", "2", "--sizes", "4096",
                          "--quantum", "0.01",
                          "--telemetry", "@telemetry.json"],
    "explain_smoke": ["explain", "--smoke", "--json", "@explain.json",
                      "--chrome", "@chrome.json"],
    "explain_artifacts": ["explain", "--jobs", "2", "--messages", "15",
                          "--json", "@explain.json", "--chrome", "@chrome.json",
                          "--save-trace", "@trace.json"],
    "figure_policies_telemetry": ["figure_policies", "--jobs", "2",
                                  "--policies", "static-partition", "occamy",
                                  "--quantum", "0.01", "--out", "@bench.json",
                                  "--telemetry", "@telemetry.json"],
    "figure_reliability_small": ["figure_reliability", "--strategies", "nack",
                                 "--drops", "0.05", "--rounds", "4",
                                 "--out", "@bench.json"],
    "chaos_telemetry": ["chaos", "--rounds", "4", "--drop", "0.02",
                        "--telemetry", "@telemetry.json"],
    "racecheck": ["racecheck", "--out", "@report.json"],
    "list": ["list"],
}


def replay(argv, out_dir: Path):
    """Run ``argv`` in-process; return (exit code, stdout, {name: bytes})."""
    files = [a[1:] for a in argv if a.startswith("@")]
    argv = [str(out_dir / a[1:]) if a.startswith("@") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    stdout = buf.getvalue().replace(str(out_dir), "<tmp>")
    return code, stdout, {name: (out_dir / name).read_bytes()
                          for name in files}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_byte_identical(case, tmp_path):
    code, stdout, files = replay(CASES[case], tmp_path)
    assert code == 0
    assert stdout == (FIXTURES / f"{case}.stdout").read_text()
    for name, data in files.items():
        assert data == (FIXTURES / f"{case}.{name}").read_bytes(), name


def _regenerate() -> None:
    import tempfile

    FIXTURES.mkdir(parents=True, exist_ok=True)
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, files = replay(argv, Path(tmp))
        if code != 0:
            raise SystemExit(f"{case}: exit {code}")
        (FIXTURES / f"{case}.stdout").write_text(stdout)
        for name, data in files.items():
            (FIXTURES / f"{case}.{name}").write_bytes(data)
        print(f"{case}: {len(files)} file(s)", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
