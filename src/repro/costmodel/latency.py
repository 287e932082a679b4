"""Roofline iteration-time model — the simulator's "hardware ground truth".

Each iteration's duration is the max of its compute time and its HBM time
(the roofline), plus non-overlapped communication and a fixed launch
overhead.  The asymmetries the paper exploits all emerge from this model:

* Prefill is compute-bound (quadratic attention FLOPs), so more GPUs help.
* Decode is memory-bound at small batch sizes (every iteration streams the
  weights), so extra instances help only once the KV cache or batch size
  is large — Figure 2.
* Sequence parallelism communicates KV shards on a ring and overlaps the
  transfer with attention compute, so SPxTP combinations match or beat
  pure TP — Figure 3.
* Multi-master decoding parallelises the length-independent (linear)
  layers across masters, which pays off exactly when decode becomes
  compute-bound at large batch sizes — Figure 14b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from repro.cluster.cluster import Cluster
from repro.costmodel.comm import CollectiveModel
from repro.model.spec import ModelSpec


# Replica lifecycle defaults: weights stream host-to-device over PCIe
# (4.0 x16 effective, per GPU) on warm-up; the fixed overheads cover
# process launch / allocator + CUDA-graph warm-up and, on cool-down,
# KV flush + weight unload.
HOST_TO_DEVICE_BANDWIDTH = 25e9  # bytes/s per GPU
REPLICA_INIT_OVERHEAD_S = 0.5
REPLICA_TEARDOWN_S = 0.2

# Scheduler decision time charged on top of every priced prefill (the
# LoongServe server) and every engine iteration (the baselines).
SCHEDULING_OVERHEAD_S = 0.0005


@dataclass(frozen=True)
class ReplicaLifecycleModel:
    """Warm-up / cool-down costs of moving a replica in or out of rotation.

    The elastic control plane used to treat park/unpark as free, which
    over-credits autoscaling: a real unpark pays weight loading before
    the replica serves anything, and a park pays a teardown.  The fleet
    charges ``warmup_s`` as *latency* (the replica joins the placement
    pool only after it elapses — crash recovery pays it too) and
    ``cooldown_s`` as *capacity* (replica-seconds added to the bill).
    """

    warmup_s: float
    cooldown_s: float = REPLICA_TEARDOWN_S

    def __post_init__(self) -> None:
        if self.warmup_s < 0:
            raise ValueError(f"warmup_s must be non-negative, got {self.warmup_s}")
        if self.cooldown_s < 0:
            raise ValueError(f"cooldown_s must be non-negative, got {self.cooldown_s}")

    @classmethod
    def for_model(
        cls, model: ModelSpec, tensor_parallel: int
    ) -> "ReplicaLifecycleModel":
        """Warm-up = per-GPU weight shard over PCIe + fixed init.

        Every GPU loads its ``weight_bytes / tensor_parallel`` shard in
        parallel (instances also load concurrently), so the shard size —
        not the replica's GPU count — sets the load time.
        """
        load = model.weight_bytes / max(1, tensor_parallel) / HOST_TO_DEVICE_BANDWIDTH
        return cls(warmup_s=load + REPLICA_INIT_OVERHEAD_S)


class IterationCostModel(Protocol):
    """What the global manager needs from a cost model (§5.5).

    ``T(R, E)`` in the paper: predicted prefill iteration time of request
    set ``R`` on elastic instance set ``E``.  Implemented both by the
    roofline ground truth and by the SIB-fitted analytical model.
    """

    def prefill_time(
        self,
        input_lens: Sequence[int],
        instances: Sequence[int],
        tensor_parallel: int,
    ) -> float: ...


@dataclass(frozen=True)
class RooflineCostModel:
    """Derives iteration times from the cluster and model specs.

    ``iteration_overhead`` covers CUDA launch, scheduling RPC, and Python
    driver time per iteration; ``layer_sync_overhead`` is the per-layer
    synchronisation cost sequence parallelism adds when a group has more
    than one instance.  ``sp_overlap`` / ``decode_overlap`` are the
    fractions of ring-pass / query-exchange traffic hidden behind attention
    compute (striped attention and multi-master decoding both overlap
    communication with computation, §4).
    """

    cluster: Cluster
    model: ModelSpec
    iteration_overhead: float = 3.0e-3
    layer_sync_overhead: float = 8.0e-6
    per_seq_overhead: float = 2.0e-4
    sp_overlap: float = 0.90
    decode_overlap: float = 0.80

    # Memoised results cap — every field above is frozen, so entries
    # never go stale; the cap only bounds memory on pathological traces.
    _CACHE_MAX = 200_000

    def __post_init__(self) -> None:
        # The dataclass is frozen but not slotted, so instance ``__dict__``
        # can hold derived state: one CollectiveModel for the lifetime of
        # the model (it used to be rebuilt on every property access, which
        # dominated the planner's call counts), a bounded exact-key memo
        # for prefill, which the planners re-price with repeating
        # (lens, group) keys, and one decode pricer per (batch size,
        # group, TP, masters) shape — a decode price depends on the
        # contexts only through their total, so decode needs no memo
        # keyed on the contexts themselves.
        object.__setattr__(self, "_collectives", CollectiveModel(cluster=self.cluster))
        object.__setattr__(self, "_time_cache", {})
        object.__setattr__(self, "_decode_shapes", {})

    @property
    def collectives(self) -> CollectiveModel:
        return self._collectives

    # -- helpers -----------------------------------------------------------

    def _resolve_instances(self, instances: Sequence[int] | int) -> list[int]:
        if isinstance(instances, int):
            return list(range(instances))
        return list(instances)

    # -- prefill -----------------------------------------------------------

    def prefill_time(
        self,
        input_lens: Sequence[int],
        instances: Sequence[int] | int,
        tensor_parallel: int,
    ) -> float:
        """Iteration time of a pure prefill batch on an ESP group."""
        insts = self._resolve_instances(instances)
        if not input_lens:
            return 0.0
        # Memoised on the exact argument key: the dispatch/allocation
        # planners re-price the same candidate (lens, group) pairs many
        # times per tick, and a cache hit returns the identical float.
        key = ("p", tuple(input_lens), tuple(insts), tensor_parallel)
        cache = self._time_cache
        hit = cache.get(key)
        if hit is not None:
            return hit
        chunks = [(n, 0) for n in input_lens]
        value = self.fused_iteration_time(chunks, [], insts, tensor_parallel)
        if len(cache) >= self._CACHE_MAX:
            cache.clear()
        cache[key] = value
        return value

    def fused_iteration_time(
        self,
        prefill_chunks: Sequence[tuple[int, int]],
        decode_contexts: Sequence[int],
        instances: Sequence[int] | int,
        tensor_parallel: int,
        num_masters: int = 1,
    ) -> float:
        """General iteration: prefill chunks plus piggybacked decodes.

        ``prefill_chunks`` is a list of ``(new_tokens, cached_context)``
        pairs — a full prefill is ``(input_len, 0)``; chunked prefill
        (SplitFuse) passes the chunk plus the tokens already cached.
        ``decode_contexts`` are the KV lengths of fused decode requests.
        This single entry point serves LoongServe, vLLM-style mixed
        batching, and both chunked-prefill baselines.
        """
        insts = self._resolve_instances(instances)
        sp = max(1, len(insts))
        tp = tensor_parallel
        world = sp * tp
        gpu = self.cluster.gpu
        m = self.model

        new_tokens = sum(c for c, _ in prefill_chunks)
        batch_tokens = new_tokens + len(decode_contexts)
        if batch_tokens == 0:
            return 0.0

        # Compute: linear work scales with tokens processed, attention with
        # query x context pairs.  Striped attention balances the causal
        # wedge across instances, so an even split is accurate.
        linear_flops = m.flops_per_token_linear() * batch_tokens
        attn_flops = 0.0
        for chunk, context in prefill_chunks:
            attn_flops += m.attention_flops(chunk, context + chunk / 2)
        for context in decode_contexts:
            attn_flops += m.attention_flops(1, context + 1)
        compute_time = (linear_flops + attn_flops) / (world * gpu.sustained_flops)
        attn_compute_time = attn_flops / (world * gpu.sustained_flops)

        # Memory: every instance streams its weight shard once; activations
        # and the attended KV stream through HBM as well.
        kv_read = sum(context for _, context in prefill_chunks) + sum(
            c + 1 for c in decode_contexts
        )
        kv_bytes = kv_read * m.kv_bytes_per_token / sp  # split across instances
        act_bytes = 2 * batch_tokens * m.hidden_size * m.dtype_bytes * m.num_layers / sp
        per_gpu_bytes = m.weight_bytes / tp + (kv_bytes + act_bytes) / tp
        memory_time = per_gpu_bytes / gpu.sustained_bandwidth

        # Tensor-parallel all-reduce: two per layer over this group's
        # activation slice.  Intra-instance, hence NVLink.
        coll = self.collectives
        act_slice = batch_tokens / sp * m.hidden_size * m.dtype_bytes
        tp_comm = (
            m.num_layers * 2 * coll.tp_allreduce_time(act_slice, tp) if tp > 1 else 0.0
        )

        # Sequence-parallel ring: (sp-1) rounds per layer, each circulating
        # this iteration's KV shard; mostly hidden behind attention.
        sp_comm = 0.0
        if sp > 1:
            shard_bytes = (
                batch_tokens / sp * 2 * m.kv_hidden_size * m.dtype_bytes
            )
            one_round = coll.ring_pass_time(shard_bytes, insts, tp)
            sp_comm = m.num_layers * (sp - 1) * one_round
            sp_comm = max(sp_comm * (1 - self.sp_overlap), sp_comm - attn_compute_time)
            sp_comm += m.num_layers * self.layer_sync_overhead

        # Per-sequence driver work (batching bookkeeping, sampling,
        # detokenisation) — the serving-era Python/runtime cost that makes
        # very large batches pay a real marginal price.  Masters split it,
        # which is part of what multi-master decoding buys (§4.2).
        batch_seqs = len(prefill_chunks) + len(decode_contexts)
        seq_overhead = self.per_seq_overhead * batch_seqs / max(1, num_masters)

        roofline = max(compute_time, memory_time)
        return roofline + tp_comm + sp_comm + seq_overhead + self.iteration_overhead

    # -- decode ------------------------------------------------------------

    def decode_time(
        self,
        context_lens: Sequence[int],
        instances: Sequence[int] | int,
        tensor_parallel: int,
        num_masters: int = 1,
    ) -> float:
        """Iteration time of one decode step on an ESP group.

        ``num_masters`` master instances split the batch's linear layers
        (multi-master distributed decoding, §4.2); all ``sp`` instances
        share the attention over their local KV shards.

        Contexts are ints, so each request's attention FLOPs and KV bytes
        are exact ints, and their batch sums are a per-model constant
        times ``Σ(context + 1)``: the price reads the contexts only
        through their total, which :meth:`decode_pricer` turns into
        seconds — the same float operations, in the same order, as
        pricing each request separately.
        """
        if not context_lens:
            return 0.0
        bs = len(context_lens)
        price = self.decode_pricer(bs, instances, tensor_parallel, num_masters)
        return price(sum(context_lens) + bs)

    def decode_pricer(
        self,
        batch_size: int,
        instances: Sequence[int] | int,
        tensor_parallel: int,
        num_masters: int = 1,
    ) -> Callable[[int], float]:
        """The decode price of one (batch size, group, TP, masters) shape,
        as a function of the batch's ``Σ(context + 1)``.

        Everything that does not depend on the contexts is computed once
        per shape and cached, so a price costs a few float operations.
        Unlike :meth:`prefill_time`'s exact-key memo, nothing is keyed on
        the contexts, which change every iteration: a server's decode
        window prices each iteration from a running total.
        """
        group = (
            tuple(range(instances)) if isinstance(instances, int) else tuple(instances)
        )
        key = (batch_size, group, tensor_parallel, num_masters)
        price = self._decode_shapes.get(key)
        if price is None:
            price = self._decode_shape(batch_size, list(group), tensor_parallel, num_masters)
            if len(self._decode_shapes) >= self._CACHE_MAX:
                self._decode_shapes.clear()
            self._decode_shapes[key] = price
        return price

    def _decode_shape(
        self, bs: int, insts: list[int], tp: int, num_masters: int
    ) -> Callable[[int], float]:
        """:meth:`decode_pricer`'s price for one shape."""
        sp = max(1, len(insts))
        masters = max(1, min(num_masters, sp))
        gpu = self.cluster.gpu
        m = self.model

        # Masters split linear work; attention splits across the group.
        linear_flops = m.flops_per_token_linear() * bs
        linear_compute = linear_flops / (masters * tp * gpu.sustained_flops)
        attn_per_token = m.attention_flops(1, 1)
        attn_scale = sp * tp * gpu.sustained_flops

        # Each master streams its full weight shard; KV reads split across
        # the group (token-granularity placement keeps shards balanced).
        weight_time = (m.weight_bytes / tp) / gpu.sustained_bandwidth
        kv_per_token = m.kv_bytes_per_token
        kv_split = sp * tp
        bandwidth = gpu.sustained_bandwidth

        # TP all-reduce on the decode activations (tiny but real).
        coll = self.collectives
        act_bytes = bs / masters * m.hidden_size * m.dtype_bytes
        tp_comm = (
            m.num_layers * 2 * coll.tp_allreduce_time(act_bytes, tp) if tp > 1 else 0.0
        )

        # Query exchange between masters and the rest of the group,
        # overlapped with the local attention of mastered requests.
        exchange = None
        if sp > 1:
            query_bytes = bs * m.hidden_size * m.dtype_bytes * (sp - 1) / sp
            result_bytes = query_bytes  # partial attention outputs + stats
            per_layer = coll.query_exchange_time(query_bytes, result_bytes, insts, tp)
            exchange = m.num_layers * per_layer
        exposed = 1 - self.decode_overlap
        sync = m.num_layers * self.layer_sync_overhead
        seq_overhead = self.per_seq_overhead * bs / masters
        overhead = self.iteration_overhead

        def price(total: int) -> float:
            attn_compute = attn_per_token * total / attn_scale
            kv_time = (kv_per_token * total / kv_split) / bandwidth
            roofline = max(linear_compute + attn_compute, weight_time + kv_time)
            sp_comm = 0.0
            if exchange is not None:
                sp_comm = max(exchange * exposed, exchange - attn_compute)
                sp_comm += sync
            return roofline + tp_comm + sp_comm + seq_overhead + overhead

        return price

    # -- auxiliary costs ---------------------------------------------------

    def migration_time(
        self,
        num_tokens: int,
        src_instance: int,
        dst_instance: int,
        tensor_parallel: int,
    ) -> float:
        """Seconds to reactively migrate ``num_tokens`` of KV cache."""
        kv_bytes = num_tokens * self.model.kv_bytes_per_token
        return self.collectives.migration_time(
            kv_bytes, src_instance, dst_instance, tensor_parallel
        )

    def decode_step_lower_bound(self, tensor_parallel: int) -> float:
        """Fastest possible decode step (weights read + overhead).

        Useful as the SLO reference scale: the paper sets the SLO to 25x
        the inference latency, which for decode is bounded below by the
        weight-streaming time.
        """
        gpu = self.cluster.gpu
        weight_time = (self.model.weight_bytes / tensor_parallel) / gpu.sustained_bandwidth
        return weight_time + self.iteration_overhead
