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
from repro.types import Request

# Admission limits of the modelled scheduler: the share of KV slots an
# admission must leave free (the block manager's watermark) and the cap
# on sequences resident at once (``max_num_seqs``).
WATERMARK_FRACTION = 0.02
MAX_NUM_SEQS = 256


def _watermark(engine: EngineServer) -> int:
    """KV slots an admission must leave free."""
    return int(engine.kv_slots * WATERMARK_FRACTION)


class PrefillPriorityPolicy(EnginePolicy):
    """vLLM 0.3.0 scheduling: whole-prompt prefills ahead of decodes."""

    def next_iteration(self, engine: EngineServer) -> IterationPlan:
        admissible = self._admissible(engine)
        if admissible:
            return IterationPlan(
                prefill_chunks=[(r, r.current_len) for r in admissible]
            )
        if engine.running and engine.free_slots_for_decode():
            return IterationPlan(decode_requests=list(engine.running))
        return IterationPlan()

    def never_admits(self, engine: EngineServer, request: Request) -> bool:
        # vLLM 0.3.0's AllocStatus.NEVER: even an empty pool cannot take
        # the prompt and keep the watermark back.
        return request.current_len + 1 + _watermark(engine) > engine.kv_slots

    @staticmethod
    def _admissible(engine: EngineServer) -> list[Request]:
        """Waiting requests that fit free KV right now, FCFS prefix."""
        admitted: list[Request] = []
        free = engine.pool.free
        watermark = _watermark(engine)
        budget = MAX_NUM_SEQS - len(engine.running) - len(engine.prefilling)
        for request in engine.waiting:
            if len(admitted) >= budget:
                break
            needed = request.current_len + 1
            if needed + watermark > free:
                break
            admitted.append(request)
            free -= needed
        return admitted


class VLLMServer(EngineServer):
    """vLLM with tensor parallelism over the whole cluster (TP=8 in §7.1)."""

    def __init__(self, config: SystemConfig) -> None:
        if config.num_instances != 1:
            raise ValueError(
                "vLLM baseline expects the whole cluster as one TP instance; "
                "build its config with tensor_parallel = num_gpus"
            )
        super().__init__(
            config=config,
            policy=PrefillPriorityPolicy(),
            instance_ids=[0],
            num_masters=1,
            name="vLLM",
        )
