"""KV migration planning.

LoongServe avoids migration on the scaling fast paths, but the allocation
step (§5.2) still migrates occasionally: when the prefill phase preempts
an instance, the evicted decode batch's KV moves to the surviving decode
instances.  This module plans such moves and prices them with the
communication model (Eq. 4's volume / avg_bandwidth).

Two granularities exist:

* :class:`MigrationPlan` — intra-deployment: token spans of live requests
  move between one deployment's elastic instances (one shared
  :class:`UnifiedKVPool`).
* :class:`PrefixHandoff` — cross-replica: a cached prefix extent moves
  between two *deployments'* prefix-KV caches (the fleet control plane's
  session rebalancing).  The bookkeeping lives in each side's cache
  (``export_prefix`` / ``import_prefix``); this type carries the volume
  and prices the transfer over the inter-node fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.comm import CollectiveModel
from repro.kvcache.unified import UnifiedKVPool
from repro.model.spec import ModelSpec


@dataclass(frozen=True, slots=True)
class MigrationStep:
    """Move ``num_tokens`` of one request from ``src`` to ``dst``."""

    request_id: int
    src: int
    dst: int
    num_tokens: int


@dataclass(slots=True)
class MigrationPlan:
    """An ordered set of migration steps plus the modelled time cost."""

    steps: list[MigrationStep] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not self.steps

    def apply(self, pool: UnifiedKVPool) -> None:
        """Execute the bookkeeping moves against the unified pool."""
        for step in self.steps:
            pool.move(step.request_id, step.src, step.dst, step.num_tokens)

    def cost(
        self,
        collectives: CollectiveModel,
        model: ModelSpec,
        tensor_parallel: int,
    ) -> float:
        """Wall-clock seconds, assuming steps between distinct pairs overlap
        and steps sharing *either* endpoint serialise (a source's NIC sends
        one stream at a time, and a destination's NIC likewise receives one
        at a time — many-to-one fan-in is not free)."""
        per_endpoint: dict[tuple[str, int], float] = {}
        for step in self.steps:
            kv_bytes = step.num_tokens * model.kv_bytes_per_token
            t = collectives.migration_time(kv_bytes, step.src, step.dst, tensor_parallel)
            src_key = ("src", step.src)
            dst_key = ("dst", step.dst)
            per_endpoint[src_key] = per_endpoint.get(src_key, 0.0) + t
            per_endpoint[dst_key] = per_endpoint.get(dst_key, 0.0) + t
        return max(per_endpoint.values(), default=0.0)


@dataclass(frozen=True, slots=True)
class PrefixHandoff:
    """One cross-replica migration of a cached prefix extent.

    ``num_tokens`` is the span actually installed on the destination
    (the source may hold more; already-resident destination tokens are
    never re-shipped).  ``reprefill_tokens`` is the affinity debt the
    move could not cover: prefix tokens the destination must re-prefill
    because they did not fit or were not migrated.
    """

    request_id: int
    src_replica: int
    dst_replica: int
    num_tokens: int
    reprefill_tokens: int = 0

    def cost(
        self,
        collectives: CollectiveModel,
        model: ModelSpec,
        tensor_parallel: int,
    ) -> float:
        """Wall-clock seconds to ship the extent between replicas."""
        kv_bytes = self.num_tokens * model.kv_bytes_per_token
        return collectives.cross_replica_migration_time(kv_bytes, tensor_parallel)


def plan_eviction_migration(
    pool: UnifiedKVPool,
    vacate_instance: int,
    target_instances: list[int],
) -> MigrationPlan | None:
    """Plan to empty one instance by moving its KV to targets.

    Fills targets most-free-first (the paper: "target instances are always
    instances with the most unused key-value cache slots").  Returns None
    when the targets cannot absorb the vacated tokens.
    """
    targets = [t for t in target_instances if t != vacate_instance]
    source_pool = pool.pools[vacate_instance]
    to_move = source_pool.snapshot()
    total = sum(to_move.values())
    if total == 0:
        return MigrationPlan()
    capacity = sum(pool.pools[t].free for t in targets)
    if capacity < total:
        return None

    plan = MigrationPlan()
    free_left = {t: pool.pools[t].free for t in targets}
    order = sorted(targets, key=lambda t: -free_left[t])
    for request_id, tokens in sorted(to_move.items()):
        remaining = tokens
        for target in order:
            if remaining == 0:
                break
            take = min(free_left[target], remaining)
            if take > 0:
                plan.steps.append(
                    MigrationStep(
                        request_id=request_id,
                        src=vacate_instance,
                        dst=target,
                        num_tokens=take,
                    )
                )
                free_left[target] -= take
                remaining -= take
        if remaining > 0:
            return None
    return plan
