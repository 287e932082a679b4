"""vLLM-style baseline: static TP, continuous batching, prefill priority.

Matches vLLM 0.3.0's scheduler (the commit the paper pins): when waiting
requests fit in free KV blocks, run a prefill-only iteration over them;
otherwise run one decode iteration over all running requests.  Prefill
iterations stall decoding — the interference Figure 10 shows on the long
datasets.  Memory pressure preempts the youngest request by
recomputation.
"""

from __future__ import annotations

from repro.baselines.base import EnginePolicy, EngineServer, IterationPlan
from repro.config import SystemConfig
from repro.costmodel.latency import RooflineCostModel
from repro.obs.tracer import Tracer


class PrefillPriorityPolicy(EnginePolicy):
    """vLLM 0.3.0 scheduling: whole-prompt prefills ahead of decodes."""

    def __init__(self, max_batched_tokens: int | None = None) -> None:
        self.max_batched_tokens = max_batched_tokens

    def next_iteration(self, engine: EngineServer) -> IterationPlan:
        admissible = engine.admissible()
        if admissible:
            budget = self.max_batched_tokens
            chosen = []
            used = 0
            for request in admissible:
                tokens = request.current_len
                if budget is not None and chosen and used + tokens > budget:
                    break
                chosen.append((request, tokens))
                used += tokens
            return IterationPlan(prefill_chunks=chosen)
        if engine.running and engine.free_slots_for_decode():
            return IterationPlan(decode_requests=list(engine.running))
        return IterationPlan()


class VLLMServer(EngineServer):
    """vLLM with tensor parallelism over the whole cluster (TP=8 in §7.1)."""

    def __init__(
        self,
        config: SystemConfig,
        cost_model: RooflineCostModel | None = None,
        max_batched_tokens: int | None = None,
        trace: Tracer | None = None,
    ) -> None:
        if config.num_instances != 1:
            raise ValueError(
                "vLLM baseline expects the whole cluster as one TP instance; "
                "build its config with tensor_parallel = num_gpus"
            )
        super().__init__(
            config=config,
            policy=PrefillPriorityPolicy(max_batched_tokens=max_batched_tokens),
            cost_model=cost_model,
            instance_ids=[0],
            num_masters=1,
            name="vLLM",
            trace=trace,
        )
