"""The LoongServe global manager (§5): the four-step scheduler.

Each invocation produces a :class:`SchedulePlan` from the current system
state: which pending requests prefill now (step 1, dispatching), on which
instances (step 2, allocation), split into which DoP-annotated batches
(step 3, batching DP), with which post-prefill KV placements and decode
scale-ups (step 4, scaling plans).  The manager *plans* with the fitted
analytical model from the SIB and never mutates server state except for
the migration bookkeeping allocation commits to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.config import SystemConfig
from repro.core.allocation import allocate_instances
from repro.core.batch import DecodeBatch, PrefillTask, next_batch_id
from repro.core.batching_dp import plan_batches
from repro.core.dispatching import select_prefill_requests
from repro.core.elastic_instance import ElasticInstance
from repro.core.scaling_plan import (
    PrefillScaleDown,
    ScaleUpDecision,
    plan_scale_down,
    plan_scale_up,
)
from repro.core.sib import ScalingInformationBase
from repro.costmodel.analytical import AnalyticalModel
from repro.costmodel.latency import RooflineCostModel
from repro.kvcache.unified import UnifiedKVPool
from repro.parallel.groups import ParallelGroup
from repro.parallel.strategy import strategies_for_gpus
from repro.types import Request


@dataclass
class PlannedPrefill:
    """One prefill iteration ready for the server to launch."""

    task: PrefillTask
    scale_down: PrefillScaleDown
    start_delay: float = 0.0


@dataclass
class SchedulePlan:
    """Everything the server must enact after one scheduling pass."""

    prefills: list[PlannedPrefill] = field(default_factory=list)
    scale_ups: list[tuple[DecodeBatch, ScaleUpDecision]] = field(default_factory=list)
    admitted: list[Request] = field(default_factory=list)
    coopted_batches: list[DecodeBatch] = field(default_factory=list)
    decode_scale_downs: list[tuple[DecodeBatch, int]] = field(default_factory=list)
    # Dispatching's phase 1 stopped at the tipping point
    # (:attr:`~repro.core.dispatching.DispatchDecision.tipped`).
    tipped: bool = False

    @property
    def is_empty(self) -> bool:
        """The plan enacts nothing: no prefill, no decode scale-up, and no
        decode scale-down.  Allocation commits a scale-down (and its KV
        migration) even when the batching DP then places nothing."""
        return not (self.prefills or self.scale_ups or self.decode_scale_downs)


class GlobalManager:
    """Stateless-per-tick planner over the server's shared state."""

    def __init__(
        self,
        config: SystemConfig,
        cost_model: RooflineCostModel,
        sib: ScalingInformationBase | None = None,
    ) -> None:
        self.config = config
        self.cost_model = cost_model
        self.sib = sib or ScalingInformationBase()
        self.predictor: AnalyticalModel = self._bootstrap_predictor()

    def _bootstrap_predictor(self) -> AnalyticalModel:
        """Profile every available SP degree into the SIB and fit (§5.5)."""
        strategies = strategies_for_gpus(
            self.config.num_instances * self.config.tensor_parallel,
            self.config.tensor_parallel,
        )
        strategies = [
            s for s in strategies if s.sequence_parallel <= self.config.max_sequence_parallel
        ]
        return self.sib.profile_strategies(
            self.cost_model,
            strategies,
            max_len=min(self.config.model.context_window, 500_000),
        )

    # -- the four steps ------------------------------------------------------

    def schedule(
        self,
        now: float,
        pending: Sequence[Request],
        instances: dict[int, ElasticInstance],
        pool: UnifiedKVPool,
        decode_batches: list[DecodeBatch],
        avg_decode_latency: float,
        prefilling_requests: Sequence[Request] = (),
    ) -> SchedulePlan:
        """Run dispatching, allocation, batching, and scaling generation."""
        plan = SchedulePlan()
        if not pending:
            # Dispatching selects nothing from an empty queue, so a tick
            # with nothing pending — most ticks of a decode-bound run —
            # goes straight to step 4b.
            return self._plan_scale_ups(plan, instances, pool, decode_batches)
        idle = [i for i, inst in instances.items() if inst.is_idle]
        free_slots = pool.free_map()

        # Step 1 — dispatching.
        dispatch = select_prefill_requests(
            pending=pending,
            idle_instances=idle,
            free_slots=free_slots,
            decode_batches=decode_batches,
            predictor=self.predictor,
            tensor_parallel=self.config.tensor_parallel,
            config=self.config.scheduler,
            avg_decode_latency=avg_decode_latency,
            now=now,
            prefilling_requests=prefilling_requests,
        )
        plan.tipped = dispatch.tipped

        if not dispatch.is_empty:
            # Step 2 — elastic instance allocation (may commit migrations).
            allocation = allocate_instances(
                requests=dispatch.requests,
                base_instances=dispatch.instances,
                pool=pool,
                decode_batches=[
                    b for b in decode_batches if b not in dispatch.coopted_batches
                ],
                predictor=self.predictor,
                collectives=self.cost_model.collectives,
                model=self.config.model,
                tensor_parallel=self.config.tensor_parallel,
            )
            free_slots = pool.free_map()  # migrations may have moved KV
            plan.decode_scale_downs = list(allocation.shrunk)

            # Step 3 — batching DP.  The dispatch memory gate is optimistic
            # (allocation may fail to obtain every preemptable slot), so on
            # infeasibility trim R_p from the tail until the DP places it.
            candidates = list(dispatch.requests)
            batch_plan = plan_batches(
                requests=candidates,
                instance_ids=allocation.instances,
                free_slots=free_slots,
                predictor=self.predictor,
                tensor_parallel=self.config.tensor_parallel,
            )
            while batch_plan.is_empty and len(candidates) > 1:
                candidates = candidates[:-1]
                batch_plan = plan_batches(
                    requests=candidates,
                    instance_ids=allocation.instances,
                    free_slots=free_slots,
                    predictor=self.predictor,
                    tensor_parallel=self.config.tensor_parallel,
                )

            # Step 4a — proactive scale-down placement per batch.
            decode_instances = {
                i for b in decode_batches for i in b.instance_ids
            }
            for planned in batch_plan.batches:
                scale_down = plan_scale_down(
                    requests=planned.requests,
                    group_instances=planned.instance_ids,
                    pool=pool,
                    decode_instances=decode_instances,
                    config=self.config.scheduler,
                )
                group = ParallelGroup(
                    instance_ids=tuple(sorted(planned.instance_ids)),
                    tensor_parallel=self.config.tensor_parallel,
                )
                task = PrefillTask(
                    batch_id=next_batch_id(),
                    requests=list(planned.requests),
                    group=group,
                )
                plan.prefills.append(
                    PlannedPrefill(
                        task=task,
                        scale_down=scale_down,
                        start_delay=allocation.migration_time,
                    )
                )
                plan.admitted.extend(planned.requests)
            plan.coopted_batches = list(dispatch.coopted_batches)

        return self._plan_scale_ups(plan, instances, pool, decode_batches)

    def _plan_scale_ups(
        self,
        plan: SchedulePlan,
        instances: dict[int, ElasticInstance],
        pool: UnifiedKVPool,
        decode_batches: list[DecodeBatch],
    ) -> SchedulePlan:
        """Step 4b — decode scale-up for batches under pressure."""
        idle_after = None  # built at the first batch that may scale up
        for batch in decode_batches:
            if batch.running or batch in plan.coopted_batches or not batch.requests:
                continue
            if idle_after is None:
                busy_prefill = {
                    i
                    for planned in plan.prefills
                    for i in planned.task.group.instance_ids
                }
                idle_after = [
                    i
                    for i, inst in instances.items()
                    if inst.is_idle and i not in busy_prefill
                ]
            decision = plan_scale_up(batch, idle_after, pool, self.config.scheduler)
            if decision is not None:
                plan.scale_ups.append((batch, decision))
                idle_after = [
                    i for i in idle_after if i not in decision.add_instances
                ]

        return plan
