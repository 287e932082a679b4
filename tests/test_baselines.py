"""Tests for the baseline serving systems."""

import pytest

from repro.baselines.base import EngineServer
from repro.baselines.splitfuse import ideal_chunk_size
from repro.baselines.vllm import PrefillPriorityPolicy
from repro.config import default_config
from repro.experiments.systems import (
    build_distserve,
    build_replicated_tp2,
    build_splitfuse,
    build_static_sp,
    build_vllm,
    make_system,
)
from repro.obs import Observability
from repro.types import Phase
from repro.workloads.datasets import LEVAL, MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace
from tests.conftest import make_request, with_rows


class TestVLLM:
    def test_serves_trace(self):
        trace = make_trace(SHAREGPT, rate=10.0, num_requests=30, seed=1)
        result = build_vllm().run(trace)
        assert len(result.finished_requests) == 30

    def test_runs_whole_prompt_prefills(self):
        server = with_rows(build_vllm())
        result = server.run([make_request(input_len=10_000, output_len=3)])
        prefills = [s for s in result.iterations.rows if s.phase == Phase.PREFILL]
        assert len(prefills) == 1
        assert prefills[0].total_tokens == 10_000

    def test_prefill_blocks_decode(self):
        """A long prompt arriving mid-decode stalls output tokens — the
        interference LoongServe eliminates (§7.2)."""
        server = build_vllm()
        short = make_request(input_len=100, output_len=400, arrival=0.0)
        long = make_request(input_len=300_000, output_len=2, arrival=1.0)
        server.run([short, long])
        # the short request's decode must straddle the long prefill
        assert short.finish_time > 10.0

    def test_rejects_wrong_config(self):
        from repro.config import default_config
        from repro.baselines.vllm import VLLMServer

        with pytest.raises(ValueError):
            VLLMServer(default_config(num_gpus=8, tensor_parallel=2))

    def test_pool_empty_after_run(self):
        server = build_vllm()
        trace = make_trace(SHAREGPT, rate=10.0, num_requests=20, seed=2)
        server.run(trace)
        assert server.pool.used == 0


class TestSplitFuse:
    def test_serves_trace(self):
        trace = make_trace(LEVAL, rate=1.0, num_requests=15, seed=3)
        result = build_splitfuse(trace).run(clone_requests(trace))
        assert len(result.finished_requests) == 15

    def test_chunking_splits_prefill(self):
        server = with_rows(build_splitfuse(chunk_size=1_000))
        result = server.run([make_request(input_len=10_000, output_len=3)])
        prefills = [s for s in result.iterations.rows if s.phase == Phase.PREFILL]
        assert len(prefills) == 10

    def test_decode_protected_from_long_prompt(self):
        """Chunked prefill interleaves decode steps between chunks."""
        fused = build_splitfuse(chunk_size=2_048)
        short_f = make_request(input_len=100, output_len=400, arrival=0.0)
        long_f = make_request(input_len=300_000, output_len=2, arrival=1.0)
        fused.run([short_f, long_f])

        plain = build_vllm()
        short_v = make_request(input_len=100, output_len=400, arrival=0.0)
        long_v = make_request(input_len=300_000, output_len=2, arrival=1.0)
        plain.run([short_v, long_v])
        assert short_f.finish_time < short_v.finish_time

    def test_ideal_chunk_size_pd_ratio(self):
        requests = [make_request(input_len=10_000, output_len=10) for _ in range(5)]
        assert ideal_chunk_size(requests) == 1_000

    def test_ideal_chunk_size_clamped(self):
        tiny = [make_request(input_len=10, output_len=1_000)]
        assert ideal_chunk_size(tiny) == 256

    def test_deepspeed_mii_crashes_past_32k(self):
        server = build_splitfuse(chunk_size=2_048, deepspeed_mii=True)
        ok = make_request(input_len=10_000, output_len=3)
        too_long = make_request(input_len=60_000, output_len=3)
        result = server.run([ok, too_long])
        assert ok.finished
        assert too_long in result.aborted

    def test_completing_prefill_keeps_its_first_token_slot(self):
        """Another request's chunk must not take the slot a prefill the
        same iteration completes needs for its first token."""
        server = build_splitfuse()
        big = make_request(input_len=server.kv_slots - 10, output_len=5)
        small = make_request(input_len=100, output_len=5, arrival=1.0)
        result = server.run([big, small])
        assert big.finish_time is not None and small.finish_time is not None
        assert result.stranded == [] and server.pool.used == 0


class TestDistServe:
    def test_serves_trace(self):
        trace = make_trace(SHAREGPT, rate=10.0, num_requests=30, seed=4)
        result = build_distserve().run(trace)
        assert len(result.finished_requests) == 30

    def test_counts_migrations(self):
        server = build_distserve()
        trace = make_trace(SHAREGPT, rate=10.0, num_requests=10, seed=5)
        server.run(trace)
        assert server.migrations == 10
        assert server.migration_seconds > 0

    def test_oom_on_requests_beyond_half_cluster(self):
        """§7.2: the longest request is bounded by one group's capacity."""
        server = build_distserve()
        capacity = server.decode_engine.kv_slots
        request = make_request(input_len=capacity + 100, output_len=3)
        result = server.run([request])
        assert request in result.aborted

    def test_migration_adds_first_token_delay(self):
        dist = build_distserve()
        r_dist = make_request(input_len=200_000, output_len=2)
        dist.run([r_dist])
        assert r_dist.finished
        # decode starts only after the reactive migration completes
        assert r_dist.finish_time - r_dist.prefill_end > dist.migration_seconds / 2

    def test_rejects_wrong_config(self):
        from repro.baselines.distserve import DistServeServer
        from repro.config import default_config

        with pytest.raises(ValueError):
            DistServeServer(default_config(num_gpus=8, tensor_parallel=2))


class TestStaticSP:
    def test_serves_trace(self):
        trace = make_trace(SHAREGPT, rate=10.0, num_requests=30, seed=6)
        result = build_static_sp().run(trace)
        assert len(result.finished_requests) == 30

    def test_every_iteration_uses_full_group(self):
        server = with_rows(build_static_sp())
        trace = make_trace(SHAREGPT, rate=5.0, num_requests=10, seed=7)
        result = server.run(trace)
        assert all(s.dop == 4 for s in result.iterations.rows)


class TestReplicated:
    def test_serves_trace(self):
        trace = make_trace(SHAREGPT, rate=10.0, num_requests=30, seed=8)
        result = build_replicated_tp2().run(trace)
        assert len(result.finished_requests) == 30

    def test_fragmentation_aborts_long_request(self):
        """Figure 4's pathology: plenty of total memory, but no single
        replica can hold the request."""
        server = build_replicated_tp2()
        per_replica = server.engines[0].kv_slots
        request = make_request(input_len=per_replica + 1_000, output_len=3)
        result = server.run([request])
        assert request in result.aborted

    def test_load_balances_across_replicas(self):
        server = build_replicated_tp2()
        trace = make_trace(SHAREGPT, rate=50.0, num_requests=80, seed=9)
        server.run(trace)
        counts = [len(engine.finished) for engine in server.engines]
        assert sum(counts) == 80
        assert max(counts) - min(counts) < 60  # not all on one replica

    def test_name_reflects_replication(self):
        assert "x 4" in build_replicated_tp2().name


def _engine(kv_slots: int = 1_000) -> EngineServer:
    """A vLLM-policy engine with a small pool: watermark 20 slots."""
    config = default_config(num_gpus=8, tensor_parallel=8)
    return EngineServer(
        config, PrefillPriorityPolicy(), instance_ids=[0], kv_slots=kv_slots,
        name="vLLM",
    )


def _observed(server):
    obs = Observability()
    server.observe(obs)
    return obs


def _abort_audits(obs):
    return [(a.payload["request"], a.payload["reason"])
            for a in obs.tracer.of_kind("abort")]


class TestEngineAdmission:
    """An engine never queues a request it can never admit (vLLM 0.3.0
    ignores such a sequence as ``AllocStatus.NEVER``)."""

    def test_prompt_inside_the_watermark_is_aborted_at_submit(self):
        engine = _engine()
        fits = make_request(input_len=900, output_len=4)
        # Its worst case fits the pool, but 981 + 20 never fits free KV.
        never = make_request(input_len=980, output_len=4, arrival=0.1)
        behind = make_request(input_len=100, output_len=4, arrival=0.2)
        obs = _observed(engine)
        result = engine.run([fits, never, behind])
        assert result.aborted == [never]
        assert result.requests == [fits, behind]
        assert all(r.finish_time is not None for r in result.requests)
        assert _abort_audits(obs) == [(never.request_id, "never admitted")]

    def test_preempted_request_grown_into_the_watermark_is_aborted(self):
        engine = _engine()
        old = make_request(input_len=5, output_len=200)
        # Admitted at 966 + 20 <= 994 free; preempted at 980 resident.
        grown = make_request(input_len=965, output_len=30, arrival=1e-4)
        obs = _observed(engine)
        result = engine.run([old, grown])
        assert old.finish_time is not None
        assert result.aborted == [grown] and grown.preemptions == 1
        assert result.stranded == []
        assert _abort_audits(obs) == [(grown.request_id, "never admitted")]

    @pytest.mark.parametrize(
        ("system", "dataset", "num_requests", "seed", "aborted"),
        [
            pytest.param("replicated-tp2", LEVAL, 600, 0, 1, id="replicated-leval"),
            pytest.param("distserve", MIXED, 300, 1, 3, id="distserve-mixed"),
        ],
    )
    def test_no_queue_blocks_behind_an_unadmittable_prompt(
        self, system, dataset, num_requests, seed, aborted
    ):
        """Each run used to leave dozens of requests queued behind one
        prompt the watermark could never admit, silently."""
        trace = make_trace(dataset, rate=2.0, num_requests=num_requests, seed=seed)
        result = make_system(system, requests=trace).run(clone_requests(trace))
        assert result.stranded == []
        assert all(r.finish_time is not None for r in result.requests)
        assert len(result.aborted) == aborted


class TestEngineAborts:
    """Every engine abort is audited once and fires the completion hook."""

    def test_deepspeed_mii_crash_limit(self):
        trace = clone_requests(make_trace(MIXED, rate=2.0, num_requests=40, seed=3))
        fired = []
        for request in trace:
            request.on_finish = (lambda now, r=request: fired.append(r))
        server = make_system("deepspeed-mii", requests=trace)
        obs = _observed(server)
        result = server.run(trace)
        assert len(result.aborted) == 14
        assert _abort_audits(obs) == [
            (r.request_id, "prompt past the crash limit") for r in result.aborted
        ]
        assert len(fired) == len(trace)
        assert set(map(id, fired)) == set(map(id, trace))

    def test_distserve_capacity_cap(self):
        server = build_distserve()
        capped = make_request(
            input_len=server.decode_engine.kv_slots - 2, output_len=3
        )
        fired = []
        capped.on_finish = fired.append
        obs = _observed(server)
        result = server.run([capped])
        assert result.aborted == [capped] and fired == [0.0]
        assert _abort_audits(obs) == [
            (capped.request_id, "exceeds a disaggregated pool")
        ]
