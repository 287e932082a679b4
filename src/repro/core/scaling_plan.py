"""Step 4 — elastic scaling plan generation (§5.4).

* **Proactive scale-down** after prefill: the decode phase scales poorly,
  so the target DoP is the *minimum* number of instances whose free KV
  slots fit the batch — preferring instances that already host a decode
  batch (merging avoids extra groups) and instances with the most free
  slots.  The placement is token-granular and balanced by availability,
  which proactive migration makes free (§4.1).
* **Scale-up** during decode: triggered when the group's free slots run
  low (memory pressure) or the batch crosses the compute-bound batch-size
  threshold (profiled in advance; ``SchedulerConfig``).  New instances
  simply join — no KV moves.
* **Master assignment**: multi-master decoding spreads newly generated KV
  and the linear layers across every group instance that has capacity,
  "as uniform as possible".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SchedulerConfig
from repro.core.batch import DecodeBatch
from repro.kvcache.unified import Placement, UnifiedKVPool
from repro.types import Request

# Lookahead (iterations) of decode KV growth when sizing scale-down
# targets and scale-up triggers.
DECODE_HEADROOM_ITERATIONS = 32


@dataclass
class PrefillScaleDown:
    """Placement of a prefill batch's KV for its decoding phase."""

    kept_instances: tuple[int, ...]
    per_request: dict[int, Placement] = field(default_factory=dict)

    @property
    def total_tokens(self) -> int:
        return sum(sum(p.values()) for p in self.per_request.values())


def plan_scale_down(
    requests: list[Request],
    group_instances: list[int],
    pool: UnifiedKVPool,
    decode_instances: set[int],
    config: SchedulerConfig,
) -> PrefillScaleDown:
    """Choose the decode-phase placement for a prefill batch.

    ``group_instances`` is the prefill ESP group; the kept subset must be
    inside it (proactive retention can only keep KV on instances the ring
    passes through).  When scale-down is disabled the whole group is kept
    with a balanced split.
    """
    tokens_needed = sum(r.kv_demand for r in requests)
    headroom = DECODE_HEADROOM_ITERATIONS * len(requests)

    if not config.enable_scale_down:
        kept = list(group_instances)
    else:
        # Preference: decode-hosting instances first (merge-friendly),
        # then most free slots; take the minimum prefix that fits.
        ranked = sorted(
            group_instances,
            key=lambda i: (i not in decode_instances, -pool.pools[i].free),
        )
        kept = []
        capacity = 0
        for instance_id in ranked:
            kept.append(instance_id)
            capacity += pool.pools[instance_id].free
            if capacity >= tokens_needed + headroom:
                break
        if capacity < tokens_needed:
            # Headroom is best-effort; the hard requirement is fitting the
            # prefill KV itself, for which dispatch already checked the
            # whole group.
            kept = list(group_instances)

    return _place_requests(requests, kept, pool)


def _place_requests(
    requests: list[Request], kept: list[int], pool: UnifiedKVPool
) -> PrefillScaleDown:
    """Balanced token-granularity placement of each request on ``kept``.

    Requests are placed longest-first onto the instance with the most
    remaining free slots, splitting across instances when no single one
    fits — allowed because the unified pool has no locality constraint.
    """
    free = {i: pool.pools[i].free for i in kept}
    per_request: dict[int, Placement] = {}
    for request in sorted(requests, key=lambda r: -r.prefill_tokens):
        tokens = request.kv_demand
        placement: Placement = {}
        for instance_id in sorted(free, key=lambda i: -free[i]):
            if tokens == 0:
                break
            take = min(free[instance_id], tokens)
            if take > 0:
                placement[instance_id] = take
                free[instance_id] -= take
                tokens -= take
        if tokens > 0:
            raise ValueError(
                f"request {request.request_id} does not fit on instances {kept}"
            )
        per_request[request.request_id] = placement
    return PrefillScaleDown(kept_instances=tuple(sorted(kept)), per_request=per_request)


@dataclass
class ScaleUpDecision:
    """Instances to add to a decode batch's group this iteration."""

    add_instances: tuple[int, ...]
    reason: str  # "memory" | "compute"


def scale_up_reason(
    batch: DecodeBatch,
    idle_instances: list[int],
    group_free: int,
    config: SchedulerConfig,
) -> str | None:
    """Step 4b's trigger: why the batch would scale up, or None.

    ``"memory"`` when the group's ``group_free`` slots cover fewer than
    :data:`DECODE_HEADROOM_ITERATIONS` iterations of KV growth,
    ``"compute"`` when the batch reaches the compute-bound size — and
    either only while an idle instance exists to join.  Firing at some
    ``group_free``, it fires at every smaller one.  The server's decode
    windows stop where this fires, so it is the one definition.
    """
    if not config.enable_scale_up or not idle_instances or batch.group is None:
        return None
    if group_free < DECODE_HEADROOM_ITERATIONS * max(1, batch.tokens_per_iteration()):
        return "memory"
    if batch.batch_size >= config.decode_compute_bound_bs:
        return "compute"
    return None


def plan_scale_up(
    batch: DecodeBatch,
    idle_instances: list[int],
    pool: UnifiedKVPool,
    config: SchedulerConfig,
) -> ScaleUpDecision | None:
    """Decide whether (and how far) to scale a decode batch up."""
    group_free = sum(pool.pools[i].free for i in batch.instance_ids)
    reason = scale_up_reason(batch, idle_instances, group_free, config)
    if reason is None:
        return None

    candidates = sorted(idle_instances, key=lambda i: -pool.pools[i].free)
    if reason == "memory":
        target = 2 * DECODE_HEADROOM_ITERATIONS * max(1, batch.tokens_per_iteration())
        added: list[int] = []
        capacity = group_free
        for instance_id in candidates:
            added.append(instance_id)
            capacity += pool.pools[instance_id].free
            if capacity >= target:
                break
        return ScaleUpDecision(add_instances=tuple(added), reason="memory")
    return ScaleUpDecision(add_instances=(candidates[0],), reason="compute")


def assign_masters(
    group_instances: tuple[int, ...],
    pool: UnifiedKVPool,
    batch_size: int,
    config: SchedulerConfig,
) -> tuple[int, ...]:
    """Pick master instances for a decode group.

    Masters must absorb ``batch_size`` new KV tokens per iteration; with
    multi-master enabled every instance with spare slots masters a share,
    keeping new-KV growth "as uniform as possible" (§5.4).
    """
    if not group_instances:
        raise ValueError("cannot assign masters to an empty group")
    if len(group_instances) == 1:
        return tuple(group_instances)  # the only instance masters every token
    pools = pool.pools
    return masters_by_free(
        group_instances,
        {i: pools[i].free for i in group_instances},
        batch_size,
        config,
    )


def masters_by_free(
    group_instances: tuple[int, ...],
    free: dict[int, int],
    batch_size: int,
    config: SchedulerConfig,
) -> tuple[int, ...]:
    """:func:`assign_masters`' rule for a multi-instance group, over
    given free-slot counts (a decode window re-picks masters from its
    own running counts, before its appends reach the pool)."""
    # Most free first; a stable sort keeps group order on ties.
    ranked = sorted(group_instances, key=free.__getitem__, reverse=True)
    if not config.enable_multi_master:
        return (ranked[0],)
    share = max(1, -(-batch_size // len(group_instances)))
    masters = tuple(i for i in ranked if free[i] >= share)
    return masters or (ranked[0],)


def pick_append_instance(
    masters: tuple[int, ...], pool: UnifiedKVPool
) -> int:
    """Instance receiving the next generated token's KV: most-free master."""
    if not masters:
        raise ValueError("no masters to append to")
    return max(masters, key=lambda i: pool.pools[i].free)
