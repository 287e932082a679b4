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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--rate", "nan"], "arrival rate must be finite and positive"),
            (["serve", "--rate", "inf"], "arrival rate must be finite and positive"),
            (["serve", "--telemetry-interval", "nan"],
             "telemetry interval must be finite and positive"),
            (["serve", "--replicas", "2", "--steal", "--control-interval", "nan"],
             "control interval must be finite and positive"),
            (["gen-trace", "--rate", "nan"], "arrival rate must be finite and positive"),
            (["gen-trace", "--qos-mix", "bogus:1"], "unknown QoS class 'bogus'"),
            (["gen-trace", "--qos-mix", "interactive:nan"],
             "qos mix weight for 'interactive' must be finite and positive"),
            (["gen-trace", "--qos-mix", "interactive:inf"],
             "qos mix weight for 'interactive' must be finite and positive"),
        ],
    )
    def test_bad_rates_intervals_and_mixes_exit_2(self, argv, message, tmp_path, capsys):
        """A NaN or infinite rate or interval, or a bad QoS mix, is
        refused before anything is served or written."""
        out = tmp_path / "trace.jsonl"
        argv = [*argv, "--dataset", "sharegpt", "-n", "4"]
        if argv[0] == "gen-trace":
            argv += ["-o", str(out)]
        assert repro_main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("arrival", ["NaN", "-5.0"])
    def test_a_trace_with_a_bad_arrival_time_exits_2(self, arrival, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"request_id": 0, "input_len": 99, "output_len": 30, '
            f'"arrival_time": {arrival}}}\n'
        )
        assert repro_main(["serve", "--trace", str(path)]) == 2
        message = f"arrival_time must be finite and non-negative, got {float(arrival)}"
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "system",
        ["loongserve", "loongserve-no-scaleup", "distserve", "static-sp",
         "replicated-tp2"],
    )
    def test_too_few_gpus_exits_2(self, system, capsys):
        """A system whose instances span more GPUs than the cluster has
        is refused before it serves anything."""
        code = repro_main(
            ["serve", "--system", system, "--num-gpus", "1",
             "--dataset", "sharegpt", "--rate", "5", "-n", "5"]
        )
        assert code == 2
        message = (
            "TP=0 gives an instance no GPU: a 1-GPU cluster"
            if system == "distserve"  # TP = num_gpus // 2
            else "TP=2 needs 2 GPUs per instance but the cluster has 1"
        )
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("system", ["vllm", "splitfuse", "deepspeed-mii"])
    def test_whole_cluster_tp_serves_on_one_gpu(self, system, capsys):
        code = repro_main(
            ["serve", "--system", system, "--num-gpus", "1",
             "--dataset", "sharegpt", "--rate", "5", "-n", "5"]
        )
        assert code == 0
        assert "requests: 5/5 finished, 0 aborted" in capsys.readouterr().out

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

    @pytest.mark.parametrize("scale", ["nan", "-1"])
    def test_bad_scale_exits_2(self, scale, capsys):
        """A NaN or non-positive ``--scale`` is refused before any point
        is served."""
        code = experiments_main(["figure10", "--scale", scale, "--datasets", "sharegpt"])
        assert code == 2
        captured = capsys.readouterr()
        message = f"--scale must be finite and positive, got {float(scale)}"
        assert f"error: {message}" in captured.err
        assert captured.out == ""
