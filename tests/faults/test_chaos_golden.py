"""Byte-identity anchors for the chaos campaign's default strategy.

The fixtures are the exact stdout of three CLI campaigns captured
*before* ``ReliableFirmware`` was split into a driver plus pluggable
strategies (PR 9's acceptance bar: the refactor must be invisible to the
default ``per-packet`` configuration).  Any diff here means the default
path changed behaviour — deliberately regenerate the fixtures only with
a documented reason:

    PYTHONPATH=src python -m repro chaos --smoke
        > tests/faults/fixtures/golden_chaos_smoke.json
    PYTHONPATH=src python -m repro chaos --failstop 1 --smoke --runs 2
        > tests/faults/fixtures/golden_chaos_failstop.json
    PYTHONPATH=src python -m repro chaos --runs 3 --drop 0.05 \
        --dup 0.02 --corrupt 0.01 --rounds 20 \
        > tests/faults/fixtures/golden_chaos_drops.json

Each test replays its command through the CLI and also checks that the
``--smoke`` campaigns start from the shared ``CHAOS_PRESETS``, so the
CLI preset and the fixture cannot drift apart.
"""

from dataclasses import replace
from pathlib import Path

import pytest

import repro.faults.chaos as chaos
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def campaign_bases(monkeypatch):
    """The base point of every campaign the CLI starts."""
    bases = []
    real = chaos.run_chaos_campaign

    def spy(base, **kwargs):
        bases.append(base)
        return real(base, **kwargs)

    monkeypatch.setattr(chaos, "run_chaos_campaign", spy)
    return bases


def _cli_stdout(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


class TestGoldenCampaigns:
    def test_smoke_preset_byte_identical(self, capsys, campaign_bases):
        out = _cli_stdout(["chaos", "--smoke"], capsys)
        assert campaign_bases == [replace(chaos.CHAOS_PRESETS["chaos"],
                                          seed=0)]
        assert out == (FIXTURES / "golden_chaos_smoke.json").read_text()

    def test_failstop_preset_byte_identical(self, capsys, campaign_bases):
        out = _cli_stdout(["chaos", "--failstop", "1", "--smoke",
                           "--runs", "2"], capsys)
        assert campaign_bases == [replace(chaos.CHAOS_PRESETS["failstop"],
                                          seed=0)]
        assert out == (FIXTURES / "golden_chaos_failstop.json").read_text()

    def test_drop_campaign_byte_identical(self, capsys):
        out = _cli_stdout(["chaos", "--runs", "3", "--drop", "0.05",
                           "--dup", "0.02", "--corrupt", "0.01",
                           "--rounds", "20"], capsys)
        assert out == (FIXTURES / "golden_chaos_drops.json").read_text()
