"""Tests for the command-line experiment runner."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure5", "figure6", "figure7", "figure8", "figure9",
                     "headline", "nicmem", "chaos"):
            assert name in out

    def test_figure5_small(self, capsys):
        assert main(["figure5", "--contexts", "1", "8",
                     "--sizes", "4096", "--packets", "100"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "4096" in out

    def test_figure8_small(self, capsys):
        assert main(["figure8", "--nodes", "2", "--switches", "2"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_figure6_small(self, capsys):
        assert main(["figure6", "--jobs", "1", "2", "--sizes", "4096",
                     "--quantum", "0.01"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_figure_policies_small(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "bench.json"
        assert main(["figure_policies", "--jobs", "2",
                     "--policies", "static-partition", "occamy",
                     "--sizes", "1536", "--quantum", "0.01",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "Buffer policies" in out
        assert "occamy" in out and "static-partition" in out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro-bench-policies/1"
        assert {p["policy"] for p in doc["points"]} == {"static-partition",
                                                        "occamy"}

    def test_figure_policies_unknown_policy_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["figure_policies", "--policies", "lru", "--jobs", "1"])

    def test_chaos_small_audited(self, capsys):
        import json

        assert main(["chaos", "--seed", "0", "--rounds", "4",
                     "--drop", "0.02", "--dup", "0.01"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["audit"]["ok"]
        assert result["injected"]["drops"] >= 0
        assert result["error"] is None

    def test_chaos_no_audit(self, capsys):
        import json

        assert main(["chaos", "--rounds", "4", "--drop", "0.05",
                     "--no-audit"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert "audit" not in result
        assert result["injected"]["drops"] > 0

    def test_chaos_multi_run_list(self, capsys):
        import json

        assert main(["-j", "2", "chaos", "--runs", "2", "--rounds", "3",
                     "--drop", "0.02"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert isinstance(results, list) and len(results) == 2
        assert all(r["audit"]["ok"] for r in results)

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["no-such-figure"])


class TestSmokeGate:
    """``--smoke`` must exit 1 when the ``-j2`` rerun diverges from the
    serial run, when an invariant audit fails, and when explain's cause
    attribution is broken.  Each test patches the sweep so the bad case
    is forced; the patched sweep runs serially, to stay cheap, and
    perturbs the result it returns as if it had run on ``workers``."""

    @staticmethod
    def _patch(monkeypatch, module, name, perturb):
        import importlib

        mod = importlib.import_module(module)
        real = getattr(mod, name)

        def sweep(*args, **kwargs):
            workers = kwargs.pop("workers", 1)
            return perturb(real(*args, workers=1, **kwargs), workers)

        monkeypatch.setattr(mod, name, sweep)

    def test_policies_divergence_exits_1(self, monkeypatch, capsys):
        from dataclasses import replace

        def diverge(points, workers):
            if workers != 2:
                return points
            return [replace(points[0],
                            aggregate_mbps=points[0].aggregate_mbps + 1.0)
                    ] + points[1:]

        self._patch(monkeypatch, "repro.experiments.figure_policies",
                    "run_figure_policies", diverge)
        assert main(["figure_policies", "--smoke"]) == 1
        assert "diverged" in capsys.readouterr().out

    def test_reliability_divergence_exits_1(self, monkeypatch, capsys):
        from dataclasses import replace

        def diverge(points, workers):
            if workers != 2:
                return points
            return [replace(points[0],
                            goodput_mbps=points[0].goodput_mbps + 1.0)
                    ] + points[1:]

        self._patch(monkeypatch, "repro.experiments.figure_reliability",
                    "run_figure_reliability", diverge)
        assert main(["figure_reliability", "--smoke"]) == 1
        assert "diverged" in capsys.readouterr().out

    def test_reliability_failed_audit_exits_1(self, monkeypatch, capsys):
        from dataclasses import replace

        def break_audit(points, workers):
            return [replace(points[0], audit_ok=False)] + points[1:]

        self._patch(monkeypatch, "repro.experiments.figure_reliability",
                    "run_figure_reliability", break_audit)
        assert main(["figure_reliability", "--smoke"]) == 1
        assert "invariant audit" in capsys.readouterr().out

    def test_explain_divergence_exits_1(self, monkeypatch, capsys):
        import copy

        def diverge(results, workers):
            if workers != 2:
                return results
            results = copy.deepcopy(results)
            results[0]["point"]["latency"]["max"] += 1e-6
            return results

        self._patch(monkeypatch, "repro.telemetry.explain", "run_explain",
                    diverge)
        assert main(["explain", "--smoke"]) == 1
        assert "diverged" in capsys.readouterr().out

    @pytest.mark.parametrize("field,message", [
        ("mismatches", "1 attribution sum mismatches"),
        ("incomplete", "1 incomplete messages"),
    ])
    def test_explain_attribution_failure_exits_1(self, monkeypatch, capsys,
                                                 field, message):
        def break_attribution(results, workers):
            results[-1]["point"][field] = 1
            return results

        self._patch(monkeypatch, "repro.telemetry.explain", "run_explain",
                    break_attribution)
        assert main(["explain", "--smoke"]) == 1
        assert message in capsys.readouterr().out


class TestBadInput:
    """A zero the user typed reaches the model and fails fast with
    ConfigError; it is never swapped for a default or run as an empty
    sweep."""

    @pytest.mark.parametrize("argv", [
        ["chaos", "--runs", "0"],
        ["figure_reliability", "--rounds", "0", "--strategies", "nack",
         "--drops", "0"],
        ["figure6", "--quantum", "0", "--jobs", "1", "--sizes", "4096"],
        ["figure_policies", "--quantum", "0", "--jobs", "1",
         "--policies", "occamy"],
        ["explain", "--quantum", "0", "--jobs", "1"],
        ["explain", "--messages", "0", "--jobs", "1"],
        ["figure7", "--switches", "0", "--nodes", "2"],
        ["figure8", "--switches", "0", "--nodes", "2"],
        ["figure9", "--switches", "0", "--nodes", "2"],
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_zero_is_rejected(self, argv, capsys):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(argv)
        assert capsys.readouterr().out == ""
