"""End-to-end preemption-by-recomputation coverage.

A deliberately tiny KV pool forces the decode phase out of memory, so
the eviction path (drop KV, requeue, re-prefill, finish) is exercised
for real — including the conservative dispatch estimate that tries to
avoid it (§5.1).
"""

from repro.config import default_config
from repro.core.server import LoongServeServer
from repro.types import RequestState
from tests.conftest import gpu_with_kv_slots, make_request


def tiny_pool_config(slots: int = 1_207):
    """GPUs so small that a handful of requests exhausts an instance."""
    config = default_config(gpu=gpu_with_kv_slots(slots))
    assert config.kv_slots_per_instance == slots
    return config


class TestPreemptionPath:
    def test_overcommitted_decode_still_finishes(self):
        """Requests that under-declare max_tokens defeat the eviction-
        avoidance estimate, forcing real preemptions — everything must
        still complete via recomputation."""
        config = tiny_pool_config()
        server = LoongServeServer(config)
        slots = config.kv_slots_per_instance
        requests = [
            make_request(
                input_len=max(1, slots // 3),
                output_len=slots // 2,  # grows far beyond the declared cap
                arrival=0.01 * i,
                max_tokens=4,  # lie to the scheduler
            )
            for i in range(6)
        ]
        result = server.run(requests)
        assert len(result.finished_requests) == 6
        assert server.pool.total_used == 0
        assert sum(r.preemptions for r in requests) > 0

    def test_honest_max_tokens_avoids_preemption(self):
        """With truthful caps the §5.1 estimate prevents evictions."""
        config = tiny_pool_config()
        server = LoongServeServer(config)
        slots = config.kv_slots_per_instance
        requests = [
            make_request(
                input_len=max(1, slots // 3),
                output_len=slots // 2,
                arrival=0.01 * i,
            )
            for i in range(6)
        ]
        result = server.run(requests)
        assert len(result.finished_requests) == 6
        assert sum(r.preemptions for r in requests) == 0

    def test_preempted_request_recomputes_full_prefix(self):
        config = tiny_pool_config()
        server = LoongServeServer(config)
        slots = config.kv_slots_per_instance
        victim_pool = [
            make_request(
                input_len=max(1, slots // 3),
                output_len=slots // 2,
                arrival=0.01 * i,
                max_tokens=2,
            )
            for i in range(8)
        ]
        result = server.run(victim_pool)
        preempted = [r for r in victim_pool if r.preemptions > 0]
        assert preempted, "scenario must actually trigger preemption"
        for request in preempted:
            assert request.state == RequestState.FINISHED
            assert request.generated == request.output_len

    def test_baseline_preemption_also_recovers(self):
        """The vLLM-style engine's preempt-by-recompute path."""
        from repro.baselines.base import EngineServer
        from repro.baselines.vllm import PrefillPriorityPolicy

        config = default_config(tensor_parallel=8)
        engine = EngineServer(
            config=config,
            policy=PrefillPriorityPolicy(),
            instance_ids=[0],
            kv_slots=2_000,
            name="tiny-vllm",
        )
        requests = [
            make_request(input_len=400, output_len=700, arrival=0.01 * i,
                         max_tokens=5)
            for i in range(4)
        ]
        result = engine.run(requests)
        assert len(result.finished_requests) == 4
        assert engine.pool.used == 0
