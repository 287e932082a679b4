"""Top-level configuration objects for the LoongServe reproduction.

``SystemConfig`` bundles the cluster, model, and parallelism settings a
serving system is launched with.  It corresponds to the launch-time choices
in the paper (§7.1): LoongServe ran with tensor parallelism 2 × elastic
sequence parallelism 4 on one 8-GPU node, baselines with TP=8, etc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.cluster.gpu import A800_80GB, GPUSpec
from repro.model.spec import LWM_7B_1M, ModelSpec


@dataclass(frozen=True)
class SchedulerConfig:
    """Options of the LoongServe global manager (§5).

    The profiled thresholds are module constants beside their readers:
    the compute-bound decode batch size
    (:data:`repro.core.scaling_plan.DECODE_COMPUTE_BOUND_BS`), the
    prefill tipping point and the batch-size cap
    (:data:`repro.core.dispatching.PREFILL_TIPPING_TOKENS`,
    :data:`~repro.core.dispatching.MAX_BATCH_SIZE`).

    ``enable_scale_up`` — step 4b's elastic scale-up of decode batches
    (off in the ``loongserve-no-scaleup`` ablation).

    ``enable_multi_master`` — multi-master decoding (§4.2; off in
    :func:`repro.experiments.ablation.multi_master_ablation`).

    ``enable_prefix_cache`` — keep finished requests' KV in a radix
    prefix cache (``repro.sessions``) so multi-turn follow-ups prefill
    only their uncached suffix.  Off by default: single-turn behaviour is
    bit-identical with the cache disabled.

    ``kv_tier_policy`` — arm host/SSD KV offload tiers for the prefix
    cache (``repro.kvcache.tiers``): evicted extents demote into pinned
    host memory, spill to NVMe under host pressure, and swap back in on
    a prefix hit (the transfer priced into the prefill).  One of
    ``"lru"``/``"fifo"``/``"lifo"`` (the tier victim policy); ``None``
    (default) keeps eviction terminal — bit-identical prior behaviour.
    Requires ``enable_prefix_cache``.

    ``kv_host_tokens`` / ``kv_ssd_tokens`` — per-replica token capacity
    of the host and SSD tiers (ignored until ``kv_tier_policy`` is set).
    """

    enable_scale_up: bool = True
    enable_multi_master: bool = True
    enable_prefix_cache: bool = False
    kv_tier_policy: str | None = None
    kv_host_tokens: int = 200_000
    kv_ssd_tokens: int = 1_000_000

    def __post_init__(self) -> None:
        if self.kv_tier_policy is not None:
            if self.kv_tier_policy not in ("lru", "fifo", "lifo"):
                raise ValueError(
                    "kv_tier_policy must be 'lru', 'fifo', or 'lifo', "
                    f"got {self.kv_tier_policy!r}"
                )
            if not self.enable_prefix_cache:
                raise ValueError("kv_tier_policy requires enable_prefix_cache")
            if self.kv_host_tokens < 0 or self.kv_ssd_tokens < 0:
                raise ValueError("KV tier capacities must be >= 0")


# Share of the GPU memory left after the weights that holds KV slots;
# the rest covers activations and buffers.
KV_MEMORY_FRACTION = 0.70


@dataclass(frozen=True)
class SystemConfig:
    """Launch-time configuration of a serving system instance.

    Every GPU backs an elastic instance, so the ESP degree goes up to
    :attr:`num_instances`.
    """

    cluster: Cluster
    model: ModelSpec
    tensor_parallel: int = 2
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)

    def __post_init__(self) -> None:
        tp, gpus = self.tensor_parallel, self.cluster.num_gpus
        if not 1 <= tp <= gpus:
            raise ValueError(
                f"TP={tp} needs {tp} GPUs per instance but the cluster has {gpus}"
                if tp > gpus
                else f"TP={tp} gives an instance no GPU: a {gpus}-GPU cluster "
                "is too small for this system"
            )

    @property
    def num_instances(self) -> int:
        """Number of elastic instances (each spans ``tensor_parallel`` GPUs)."""
        return self.cluster.num_gpus // self.tensor_parallel

    @property
    def kv_slots_per_instance(self) -> int:
        """Token-granularity KV cache capacity of one elastic instance.

        Weights are replicated per instance and sharded TP-ways inside it;
        the remainder of GPU memory (scaled by :data:`KV_MEMORY_FRACTION`
        to account for activations/buffers) holds KV slots.
        """
        gpu_bytes = self.cluster.gpu.memory_bytes * self.tensor_parallel
        weight_bytes = self.model.weight_bytes
        available = (gpu_bytes - weight_bytes) * KV_MEMORY_FRACTION
        if available <= 0:
            raise ValueError(
                f"model weights ({weight_bytes / 2**30:.1f} GiB) do not fit in "
                f"{self.tensor_parallel} x {self.cluster.gpu.name}"
            )
        return int(available // self.model.kv_bytes_per_token)


def default_config(
    num_gpus: int = 8,
    gpu: GPUSpec = A800_80GB,
    model: ModelSpec = LWM_7B_1M,
    tensor_parallel: int = 2,
    gpus_per_node: int = 8,
    scheduler: SchedulerConfig | None = None,
) -> SystemConfig:
    """Build the paper's default single-node (or multi-node) configuration.

    With the defaults this is the §7.1 testbed: one node of eight A800-80GB
    GPUs serving LWM-1M-Text (Llama-2-7B architecture) with TP=2 and up to
    four elastic instances (ESP degree 4).
    """
    cluster = Cluster.homogeneous(num_gpus=num_gpus, gpu=gpu, gpus_per_node=gpus_per_node)
    return SystemConfig(
        cluster=cluster,
        model=model,
        tensor_parallel=tensor_parallel,
        scheduler=scheduler or SchedulerConfig(),
    )
