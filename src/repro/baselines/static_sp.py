"""Static hybrid parallelism baseline: LoongServe w/o ESP (TP=2, SP=4).

Sequence parallelism at a *fixed* DoP: every iteration — prefill or
decode — runs on all four instances.  Prefill enjoys the full group, but
decoding drags the whole group's communication overhead for every token,
no second batch can run concurrently, and prefill iterations still stall
decoding (same interference as vLLM).  This is the Figure 12 ablation
showing that sequence parallelism alone, without elasticity, is not
enough.
"""

from __future__ import annotations

from repro.baselines.base import EngineServer
from repro.baselines.vllm import PrefillPriorityPolicy
from repro.config import SystemConfig


class StaticSPServer(EngineServer):
    """One engine spanning every instance at a fixed SP degree."""

    def __init__(self, config: SystemConfig) -> None:
        sp = config.num_instances
        super().__init__(
            config=config,
            policy=PrefillPriorityPolicy(),
            instance_ids=list(range(sp)),
            kv_slots=config.kv_slots_per_instance * sp,
            num_masters=sp,  # static multi-master: fixed, never adapted
            name=f"LoongServe w/o ESP (TP={config.tensor_parallel}, SP={sp})",
        )
