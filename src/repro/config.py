"""Top-level configuration objects for the LoongServe reproduction.

``SystemConfig`` bundles the cluster, model, and parallelism settings a
serving system is launched with.  It corresponds to the launch-time choices
in the paper (§7.1): LoongServe ran with tensor parallelism 2 × elastic
sequence parallelism 4 on one 8-GPU node, baselines with TP=8, etc.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.cluster import Cluster
from repro.cluster.gpu import A800_80GB, GPUSpec
from repro.model.spec import LWM_7B_1M, ModelSpec


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables of the LoongServe global manager (§5).

    ``decode_compute_bound_bs`` — batch-size threshold past which the decode
    phase is treated as compute bound and scale-up is considered (§5.4; the
    paper profiles this in advance).

    ``prefill_tipping_tokens`` — token count at which a prefill batch stops
    being memory bound (§5.1's "tipping point"); adding requests past this
    point only extends execution time.

    ``max_batch_size`` — cap on concurrent decoding requests per group,
    mirroring the slot-count cap in real systems.

    ``enable_prefix_cache`` — keep finished requests' KV in a radix
    prefix cache (``repro.sessions``) so multi-turn follow-ups prefill
    only their uncached suffix.  Off by default: single-turn behaviour is
    bit-identical with the cache disabled.

    ``max_cached_tokens`` — KV-slot budget for the prefix cache; inserts
    beyond it LRU-evict cold extents so cached history can never starve
    live request KV.  ``None`` (default) leaves the cache unbounded,
    preserving prior behaviour.

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

    decode_compute_bound_bs: int = 128
    prefill_tipping_tokens: int = 8192
    max_batch_size: int = 1024
    enable_scale_up: bool = True
    enable_scale_down: bool = True
    enable_multi_master: bool = True
    enable_prefix_cache: bool = False
    max_cached_tokens: int | None = None
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


@dataclass(frozen=True)
class SystemConfig:
    """Launch-time configuration of a serving system instance."""

    cluster: Cluster
    model: ModelSpec
    tensor_parallel: int = 2
    max_sequence_parallel: int = 4
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    kv_memory_fraction: float = 0.70

    def __post_init__(self) -> None:
        gpus_needed = self.tensor_parallel * self.max_sequence_parallel
        if gpus_needed > self.cluster.num_gpus:
            raise ValueError(
                f"TP={self.tensor_parallel} x SP={self.max_sequence_parallel} needs "
                f"{gpus_needed} GPUs but cluster has {self.cluster.num_gpus}"
            )

    @property
    def num_instances(self) -> int:
        """Number of elastic instances (each spans ``tensor_parallel`` GPUs)."""
        return self.cluster.num_gpus // self.tensor_parallel

    @property
    def kv_slots_per_instance(self) -> int:
        """Token-granularity KV cache capacity of one elastic instance.

        Weights are replicated per instance and sharded TP-ways inside it;
        the remainder of GPU memory (scaled by ``kv_memory_fraction`` to
        account for activations/buffers) holds KV slots.
        """
        gpu_bytes = self.cluster.gpu.memory_bytes * self.tensor_parallel
        weight_bytes = self.model.weight_bytes
        available = (gpu_bytes - weight_bytes) * self.kv_memory_fraction
        if available <= 0:
            raise ValueError(
                f"model weights ({weight_bytes / 2**30:.1f} GiB) do not fit in "
                f"{self.tensor_parallel} x {self.cluster.gpu.name}"
            )
        return int(available // self.model.kv_bytes_per_token)

    @property
    def total_kv_slots(self) -> int:
        return self.kv_slots_per_instance * self.num_instances

    def with_parallelism(self, tensor_parallel: int, max_sequence_parallel: int) -> SystemConfig:
        """Return a copy with a different launch-time parallelism layout."""
        return replace(
            self,
            tensor_parallel=tensor_parallel,
            max_sequence_parallel=max_sequence_parallel,
        )


def default_config(
    num_gpus: int = 8,
    gpu: GPUSpec = A800_80GB,
    model: ModelSpec = LWM_7B_1M,
    tensor_parallel: int = 2,
    max_sequence_parallel: int | None = None,
    gpus_per_node: int = 8,
    scheduler: SchedulerConfig | None = None,
) -> SystemConfig:
    """Build the paper's default single-node (or multi-node) configuration.

    With the defaults this is the §7.1 testbed: one node of eight A800-80GB
    GPUs serving LWM-1M-Text (Llama-2-7B architecture) with TP=2 and up to
    four elastic instances (ESP degree 4).
    """
    cluster = Cluster.homogeneous(num_gpus=num_gpus, gpu=gpu, gpus_per_node=gpus_per_node)
    if max_sequence_parallel is None:
        max_sequence_parallel = num_gpus // tensor_parallel
    return SystemConfig(
        cluster=cluster,
        model=model,
        tensor_parallel=tensor_parallel,
        max_sequence_parallel=max_sequence_parallel,
        scheduler=scheduler or SchedulerConfig(),
    )
