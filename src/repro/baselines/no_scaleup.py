"""LoongServe variants for the ablation studies.

``build_loongserve`` constructs the paper's default LoongServe (TP=2,
ESP up to num_gpus/2); ``build_no_scale_up_loongserve`` disables elastic
scale-up only, which is the Figure 13 ablation — batches stay at their
post-prefill DoP forever, so growing decode batches hit memory/compute
walls on ShareGPT-like workloads.
"""

from __future__ import annotations

from repro.config import SchedulerConfig, default_config
from repro.core.server import LoongServeServer


def build_loongserve(
    num_gpus: int = 8,
    gpus_per_node: int = 8,
    scheduler: SchedulerConfig | None = None,
) -> LoongServeServer:
    """The paper's LoongServe configuration (§7.1): TP=2 instances."""
    config = default_config(
        num_gpus=num_gpus,
        tensor_parallel=2,
        gpus_per_node=gpus_per_node,
        scheduler=scheduler,
    )
    return LoongServeServer(config)


def build_no_scale_up_loongserve(
    num_gpus: int = 8, prefix_cache: bool = False
) -> LoongServeServer:
    """LoongServe with elastic scale-up disabled (Figure 13 ablation)."""
    scheduler = SchedulerConfig(enable_scale_up=False, enable_prefix_cache=prefix_cache)
    config = default_config(num_gpus=num_gpus, tensor_parallel=2, scheduler=scheduler)
    server = LoongServeServer(config)
    server.name = "LoongServe w/o Elastic Scale-up"
    return server
