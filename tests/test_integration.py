"""Cross-system integration properties.

These tests encode the paper's qualitative end-to-end claims as
assertions over full serving runs on shared traces.
"""

import pytest

from repro.experiments.systems import make_system
from repro.metrics.latency import summarize_latency
from repro.metrics.summary import throughput_tokens_per_s
from repro.workloads.datasets import LEVAL, MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace
from tests.conftest import with_rows

ALL_SYSTEMS = [
    "loongserve", "vllm", "splitfuse", "distserve", "static-sp", "replicated-tp2",
]


@pytest.fixture(scope="module")
def mixed_results():
    trace = make_trace(MIXED, rate=0.8, num_requests=50, seed=31)
    results = {}
    for name in ALL_SYSTEMS:
        system = make_system(name, requests=trace)
        results[name] = system.run(clone_requests(trace))
    return results


class TestMixedWorkloadOrdering:
    def test_every_system_serves_everything_it_admits(self, mixed_results):
        for name, result in mixed_results.items():
            assert len(result.finished_requests) == len(result.requests), name

    def test_loongserve_beats_shared_engine_systems(self, mixed_results):
        """LoongServe leads the single-engine and disaggregated systems on
        Mixed per-token latency.  (Replication is excluded here: with the
        workload's lengths capped below one replica's pool it degenerates
        to four independent fast queues — its real weakness,
        fragmentation, is asserted in TestFragmentationStory.)"""
        per_token = {
            name: summarize_latency(result).per_token
            for name, result in mixed_results.items()
        }
        loong = per_token["loongserve"]
        for name in ("vllm", "splitfuse", "distserve", "static-sp"):
            assert loong <= per_token[name] * 1.05, (
                f"{name} beat LoongServe on Mixed"
            )

    def test_loongserve_output_latency_protected(self, mixed_results):
        """Decode isolation: output latency better than the interference-
        prone systems (vLLM, static hybrid)."""
        out = {
            name: summarize_latency(result).output_token
            for name, result in mixed_results.items()
        }
        assert out["loongserve"] <= out["vllm"]
        assert out["loongserve"] <= out["static-sp"]

    def test_throughput_positive_everywhere(self, mixed_results):
        for name, result in mixed_results.items():
            assert throughput_tokens_per_s(result) > 0, name


class TestInterferenceStory:
    """The L-Eval interference claim (§7.2): long prefills stall vLLM's
    decoding but not LoongServe's."""

    @pytest.fixture(scope="class")
    def leval_results(self):
        trace = make_trace(LEVAL, rate=2.5, num_requests=40, seed=32)
        return {
            name: with_rows(make_system(name, requests=trace)).run(
                clone_requests(trace)
            )
            for name in ("loongserve", "vllm")
        }

    def test_output_latency_gap(self, leval_results):
        loong = summarize_latency(leval_results["loongserve"]).output_token
        vllm = summarize_latency(leval_results["vllm"]).output_token
        assert loong < vllm

    def test_loongserve_overlaps_phases(self, leval_results):
        from repro.types import Phase

        stats = leval_results["loongserve"].iterations.rows
        prefill_windows = [
            (s.start_time, s.start_time + s.duration)
            for s in stats if s.phase == Phase.PREFILL
        ]
        decode_starts = [s.start_time for s in stats if s.phase == Phase.DECODE]
        assert any(lo < t < hi for t in decode_starts for lo, hi in prefill_windows)


class TestFragmentationStory:
    """Figure 4 end to end: only locality-free systems serve requests
    larger than one instance/replica."""

    def test_unified_pool_serves_replication_rejects(self):
        from repro.config import default_config

        per_instance = default_config().kv_slots_per_instance
        big = make_trace(SHAREGPT, rate=1.0, num_requests=1, seed=33)
        big[0].input_len = int(1.4 * per_instance)

        loong = make_system("loongserve").run(clone_requests(big))
        assert len(loong.finished_requests) == len(loong.requests)
        assert not loong.aborted

        replicated = make_system("replicated-tp2").run(clone_requests(big))
        assert len(replicated.aborted) == 1


class TestDeterminism:
    @pytest.mark.parametrize("name", ["loongserve", "vllm", "distserve"])
    def test_same_trace_same_outcome(self, name):
        trace = make_trace(SHAREGPT, rate=10.0, num_requests=25, seed=34)
        a = make_system(name, requests=trace).run(clone_requests(trace))
        b = make_system(name, requests=trace).run(clone_requests(trace))
        lat_a = sorted(r.normalized_latency for r in a.finished_requests)
        lat_b = sorted(r.normalized_latency for r in b.finished_requests)
        assert lat_a == pytest.approx(lat_b)
