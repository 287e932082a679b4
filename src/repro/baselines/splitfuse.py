"""Chunked-prefill baseline (DeepSpeed-MII Dynamic SplitFuse / LightLLM
SplitFuse / SARATHI).

Long prompts are split into fixed-size chunks; every iteration fuses one
chunk's worth of prefill tokens with a decode step for all running
requests.  Decoding is protected from head-of-line prefill blocking, but
prefill efficiency drops: each chunk re-streams the weights and re-reads
the growing KV prefix (both captured by the cost model), which is why the
paper finds SplitFuse loses on long-prompt datasets with high P:D ratios.

``ideal_chunk_size`` computes SARATHI's "P:D ratio" chunk size the paper
grants this baseline (a per-dataset oracle, "although it is unknown in
practice").
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.base import EnginePolicy, EngineServer, IterationPlan
from repro.config import SystemConfig
from repro.types import Request


# The range ideal_chunk_size clamps its chunk to.
MIN_CHUNK_SIZE = 256
MAX_CHUNK_SIZE = 65_536


def ideal_chunk_size(requests: Sequence[Request]) -> int:
    """SARATHI's P:D-ratio chunk size for a workload.

    One decode iteration piggybacks ``chunk`` prefill tokens; matching the
    number of chunk iterations to the number of decode iterations per
    request means chunk ~= total_input_tokens / total_output_tokens.
    """
    total_in = sum(r.input_len for r in requests)
    total_out = sum(r.output_len for r in requests)
    if total_out == 0:
        return MAX_CHUNK_SIZE
    chunk = total_in // max(1, total_out)
    return max(MIN_CHUNK_SIZE, min(MAX_CHUNK_SIZE, chunk))


class SplitFusePolicy(EnginePolicy):
    """Fuse up to ``chunk_size`` prefill tokens with every decode step."""

    def __init__(self, chunk_size: int) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size

    def next_iteration(self, engine: EngineServer) -> IterationPlan:
        plan = IterationPlan()
        if engine.running and engine.free_slots_for_decode():
            plan.decode_requests = list(engine.running)

        budget = self.chunk_size
        # Requests mid-prefill continue first (FCFS among the chunked).
        in_flight = list(engine.prefilling) + list(engine.waiting)
        free = engine.pool.free - len(plan.decode_requests)
        # A prefill the plan completes claims one more slot for its first
        # token when the iteration ends, after the slots of the completions
        # before it (one that finishes on that token gives its own back).
        # ``owed`` is what the plan must leave free for every completion
        # planned so far; ``returned`` nets their claims and give-backs.
        owed = returned = 0
        for request in in_flight:
            if budget <= 0:
                break
            done = engine.prefill_progress.get(request.request_id, 0)
            remaining = request.current_len - done
            take = min(budget, remaining, max(0, free - owed))
            if take == remaining:
                claim = max(owed, 1 - returned)
                if free - take < claim:
                    take -= 1  # stop one token short of completing
                else:
                    owed = claim
                    finishes = request.generated + 1 >= request.output_len
                    returned += request.current_len if finishes else -1
            if take <= 0:
                continue
            plan.prefill_chunks.append((request, take))
            budget -= take
            free -= take
        return plan


class SplitFuseServer(EngineServer):
    """Chunked prefill on a static TP engine (TP=8 in §7.1).

    ``crash_input_len`` reproduces DeepSpeed-MII's "illegal memory access"
    beyond 32K-token prompts (§7.1): requests longer than the limit are
    aborted, so the MII variant is only usable on ShareGPT, exactly as in
    the paper.  The LightLLM variant sets no limit.
    """

    def __init__(
        self,
        config: SystemConfig,
        chunk_size: int,
        crash_input_len: int | None = None,
        name: str = "LightLLM w/ SplitFuse",
    ) -> None:
        if config.num_instances != 1:
            raise ValueError(
                "SplitFuse baseline expects the whole cluster as one TP instance"
            )
        super().__init__(
            config=config,
            policy=SplitFusePolicy(chunk_size=chunk_size),
            instance_ids=[0],
            num_masters=1,
            name=name,
        )
        self.crash_input_len = crash_input_len

    def submit(self, request: Request) -> None:
        if self.crash_input_len is not None and request.input_len > self.crash_input_len:
            self.abort(request, "prompt past the crash limit")
            return
        super().submit(request)
