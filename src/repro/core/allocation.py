"""Step 2 — elastic instance allocation (§5.2).

Given ``R_p``, pick the final instance set ``E_p`` in three moves:

1. **Idle first** — ``E_p`` starts from the idle (and co-opted)
   instances the dispatch step collected.
2. **Preempt for memory** — while ``R_p``'s KV need exceeds the free
   slots on ``E_p``, take the decode instance with the *most* unused
   slots; its resident KV migrates to other active decode instances when
   they can absorb it (consolidating decode), otherwise the instance is
   skipped.
3. **Grow for compute (Eqs. 3-4)** — repeatedly consider draining the
   decode instance with the *fewest* used slots (``e_min``): take it only
   while the prefill speedup per input token (Eq. 3) exceeds the
   migration volume over average bandwidth per input token (Eq. 4).

Migration bookkeeping is committed against the unified pool immediately;
the serving loop charges the wall-clock migration time as a prefill start
delay and re-homes requests whose batch lost its last instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.batch import DecodeBatch
from repro.costmodel.comm import CollectiveModel
from repro.costmodel.latency import IterationCostModel
from repro.kvcache.migration import plan_eviction_migration
from repro.kvcache.unified import UnifiedKVPool
from repro.model.spec import ModelSpec
from repro.types import Request


@dataclass
class AllocationDecision:
    """Final instance set for the prefill, the time of the KV migrations
    it required, and each decode batch it took an instance from."""

    instances: list[int] = field(default_factory=list)
    migration_time: float = 0.0
    shrunk: list[tuple[DecodeBatch, int]] = field(default_factory=list)


def allocate_instances(
    requests: Sequence[Request],
    base_instances: list[int],
    pool: UnifiedKVPool,
    decode_batches: list[DecodeBatch],
    predictor: IterationCostModel,
    collectives: CollectiveModel,
    model: ModelSpec,
    tensor_parallel: int,
) -> AllocationDecision:
    """Run the allocation step for ``R_p`` = ``requests``."""
    decision = AllocationDecision(instances=sorted(set(base_instances)))
    if not requests:
        return decision

    input_lens = [r.prefill_tokens for r in requests]
    need = sum(r.kv_demand for r in requests)
    # Running batches are preemptable too: the drain takes effect at their
    # iteration boundary, one decode step (~10 ms) away.
    stable_batches = list(decode_batches)

    # Move 2: preempt decode instances (most unused slots first) until the
    # prefill's KV fits.
    while pool.free_on(decision.instances) < need:
        candidates = _preemption_candidates(pool, stable_batches, decision.instances)
        if not candidates:
            break
        taken = False
        for target in candidates:
            if _drain_instance(target, decision, pool, stable_batches,
                               collectives, model, tensor_parallel):
                taken = True
                break
        if not taken:
            break

    # Move 3: grow for compute while Eq. 3 gain exceeds Eq. 4 cost.
    while True:
        drainable = _drainable_instances(pool, stable_batches, decision.instances)
        if not drainable:
            break
        e_min = drainable[0]
        gain = _growth_gain(input_lens, decision.instances, e_min, predictor, tensor_parallel)
        cost = _growth_cost(
            input_lens, e_min, decision.instances, pool, stable_batches,
            collectives, model, tensor_parallel,
        )
        if cost is None or gain <= cost:
            break
        if not _drain_instance(
            e_min, decision, pool, stable_batches, collectives, model, tensor_parallel
        ):
            break

    return decision


def growth_refused(
    requests: Sequence[Request],
    instances: list[int],
    pool: UnifiedKVPool,
    decode_batches: list[DecodeBatch],
    predictor: IterationCostModel,
    collectives: CollectiveModel,
    model: ModelSpec,
    tensor_parallel: int,
) -> bool:
    """Whether Move 3 refuses every drainable instance for ``requests`` on
    ``instances``, not only the fewest-used one it asks.

    Eq. 4's cost grows with the drained instance's KV and Eq. 3's gain
    does not read it, and KV the other decode instances cannot absorb
    stays so as they fill, so the refusal holds while decode KV only
    grows, whichever instance becomes the fewest-used.
    """
    input_lens = [r.prefill_tokens for r in requests]
    pools = pool.pools
    for instance_id in _drainable_instances(pool, decode_batches, instances):
        targets = _migration_targets(instance_id, instances, decode_batches)
        if pools[instance_id].used > sum(pools[t].free for t in targets):
            continue  # no drain: plan_eviction_migration finds no room
        gain = _growth_gain(input_lens, instances, instance_id, predictor, tensor_parallel)
        cost = _growth_cost(
            input_lens, instance_id, instances, pool, decode_batches,
            collectives, model, tensor_parallel,
        )
        if cost is not None and gain > cost:
            return False
    return True


def _growth_gain(
    input_lens: list[int],
    instances: list[int],
    e_min: int,
    predictor: IterationCostModel,
    tensor_parallel: int,
) -> float:
    """Eq. 3: prefill speedup per input token from adding ``e_min``."""
    current = predictor.prefill_time(input_lens, instances, tensor_parallel)
    expanded = predictor.prefill_time(input_lens, instances + [e_min], tensor_parallel)
    speedup = max(0.0, current - expanded)
    return sum(speedup / n for n in input_lens)


def _growth_cost(
    input_lens: list[int],
    e_min: int,
    instances: list[int],
    pool: UnifiedKVPool,
    decode_batches: list[DecodeBatch],
    collectives: CollectiveModel,
    model: ModelSpec,
    tensor_parallel: int,
) -> float | None:
    """Eq. 4: migration time per input token for draining ``e_min``, or
    None when it holds KV and has no bandwidth to move it over."""
    held_tokens = pool.pools[e_min].used
    if held_tokens == 0:
        return 0.0
    targets = _migration_targets(e_min, instances, decode_batches)
    bandwidth = _avg_bandwidth(e_min, targets, collectives, tensor_parallel)
    if bandwidth <= 0:
        return None
    volume_bytes = held_tokens * model.kv_bytes_per_token
    return sum((volume_bytes / bandwidth) / n for n in input_lens)


def _preemption_candidates(
    pool: UnifiedKVPool,
    decode_batches: list[DecodeBatch],
    taken: list[int],
) -> list[int]:
    """Decode instances by most unused slots (the §5.2 preemption order)."""
    taken_set = set(taken)
    candidates = {i for b in decode_batches for i in b.instance_ids} - taken_set
    return sorted(candidates, key=lambda i: -pool.pools[i].free)


def _drainable_instances(
    pool: UnifiedKVPool,
    decode_batches: list[DecodeBatch],
    taken: list[int],
) -> list[int]:
    """Decode instances by fewest *used* slots (the Eq. 3/4 growth order)."""
    taken_set = set(taken)
    candidates = {i for b in decode_batches for i in b.instance_ids} - taken_set
    return sorted(candidates, key=lambda i: pool.pools[i].used)


def _migration_targets(
    instance_id: int, taken: list[int], decode_batches: list[DecodeBatch]
) -> list[int]:
    """Other active decode instances that could absorb the drained KV."""
    taken_set = set(taken)
    targets = {
        i
        for b in decode_batches
        for i in b.instance_ids
        if i != instance_id and i not in taken_set
    }
    return sorted(targets)


def _drain_instance(
    instance_id: int,
    decision: AllocationDecision,
    pool: UnifiedKVPool,
    decode_batches: list[DecodeBatch],
    collectives: CollectiveModel,
    model: ModelSpec,
    tensor_parallel: int,
) -> bool:
    """Take ``instance_id`` for the prefill, migrating its KV away.

    Returns False (no state change) when the instance holds KV that no
    other decode instance can absorb.
    """
    held = pool.pools[instance_id].used
    if held > 0:
        targets = _migration_targets(instance_id, decision.instances, decode_batches)
        migration = plan_eviction_migration(pool, instance_id, targets)
        if migration is None:
            return False
        if not migration.is_empty():
            migration.apply(pool)
            decision.migration_time += migration.cost(
                collectives, model, tensor_parallel
            )
    batch = _batch_of(instance_id, decode_batches)
    if batch is not None:
        _shrink_batch_group(batch, instance_id)
        decision.shrunk.append((batch, instance_id))
    decision.instances = sorted(decision.instances + [instance_id])
    return True


def _batch_of(instance_id: int, decode_batches: list[DecodeBatch]) -> DecodeBatch | None:
    for batch in decode_batches:
        if instance_id in batch.instance_ids:
            return batch
    return None


def _shrink_batch_group(batch: DecodeBatch, instance_id: int) -> None:
    if batch.group is None:
        return
    keep = tuple(i for i in batch.group.instance_ids if i != instance_id)
    if keep:
        batch.group = batch.group.shrunk(keep)
    else:
        batch.group = None


def _avg_bandwidth(
    src: int,
    targets: Sequence[int],
    collectives: CollectiveModel,
    tensor_parallel: int,
) -> float:
    """Eq. 4's avg_bandwidth between ``e_min`` and its migration targets."""
    if not targets:
        return 0.0
    bws = [
        collectives.instance_bandwidth(src, dst, tensor_parallel) for dst in targets
    ]
    return sum(bws) / len(bws)
