"""Tests for the command-line interfaces."""

import pytest

from repro.__main__ import main as repro_main
from repro.experiments.__main__ import main as experiments_main


class TestServeCLI:
    def test_serve_prints_metrics(self, capsys):
        code = repro_main(
            ["serve", "--system", "loongserve", "--dataset", "sharegpt",
             "--rate", "5", "-n", "10", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "requests: 10/10 finished" in out
        assert "per-token" in out

    def test_serve_counts_aborted_requests_in_the_total(self, capsys):
        """Two GPUs cannot hold one of these 20 Mixed prompts: it is
        aborted, and the total still counts it."""
        code = repro_main(
            ["serve", "--dataset", "mixed", "-n", "20", "--num-gpus", "2",
             "--rate", "1", "--seed", "3"]
        )
        assert code == 0
        assert "requests: 19/20 finished, 1 aborted" in capsys.readouterr().out

    def test_serve_with_timeline(self, capsys):
        code = repro_main(
            ["serve", "--dataset", "sharegpt", "--rate", "5", "-n", "5",
             "--timeline"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "utilization:" in out
        assert "P = prefill" in out

    def test_gen_trace_then_replay(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert repro_main(
            ["gen-trace", "--dataset", "mixed", "--rate", "1", "-n", "8",
             "-o", str(path)]
        ) == 0
        assert path.exists()
        assert repro_main(
            ["serve", "--system", "vllm", "--trace", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "vLLM" in out

    def test_qos_mix_with_trace_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert repro_main(
            ["gen-trace", "--dataset", "sharegpt", "--rate", "1", "-n", "4",
             "-o", str(path)]
        ) == 0
        code = repro_main(
            ["serve", "--trace", str(path), "--qos-mix", "interactive:1.0"]
        )
        assert code == 2
        assert "error: --qos-mix tags a generated trace" in capsys.readouterr().err

    def test_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            repro_main(["serve", "--system", "magic"])

    def test_serve_fleet_prints_replica_loads(self, capsys):
        code = repro_main(
            ["serve", "--system", "loongserve", "--replicas", "3",
             "--router", "least-kv", "--dataset", "sharegpt",
             "--rate", "8", "-n", "12", "--seed", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "LoongServe x3 [least-kv]" in out
        assert "requests: 12/12 finished" in out
        assert "SLO attainment:" in out
        assert "per-replica load:" in out
        assert "token imbalance" in out

    def test_rejects_unknown_router(self):
        with pytest.raises(SystemExit):
            repro_main(["serve", "--replicas", "2", "--router", "magic"])


class TestExperimentsCLI:
    def test_figure2_runs(self, capsys):
        assert experiments_main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "paper anchor" in out

    def test_figure14_runs(self, capsys):
        assert experiments_main(["figure14"]) == 0
        out = capsys.readouterr().out
        assert "proactive" in out

    def test_figure15_runs(self, capsys):
        assert experiments_main(["figure15"]) == 0
        out = capsys.readouterr().out
        assert "max deviation" in out

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            experiments_main(["figure99"])
