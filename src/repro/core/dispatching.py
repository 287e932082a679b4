"""Step 1 — dispatching (§5.1).

Chooses the subset ``R_p`` of pending requests to prefill this iteration,
scanning FCFS under two families of constraints:

* **GPU memory** — a request joins only while ``R_p``'s total KV need fits
  the slots the allocation step could actually obtain: free slots on idle
  instances plus free slots on preemptable (non-running) decode
  instances.  The conservative eviction-avoidance check also reserves the
  request's declared maximum footprint.
* **GPU computing** — stop at the memory→compute tipping point, past
  which batching more prefill work only extends the iteration (profiled
  per instance; the budget scales with the instances executing the
  prefill, starting from the idle base group); and co-opt a decode
  batch's instances — raising the compute budget by the group's share —
  only when the Eq. 2 gain (input latency saved for the extra requests)
  exceeds the Eq. 1 cost (output latency inflicted on the paused decode
  batch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.config import SchedulerConfig
from repro.core.batch import DecodeBatch
from repro.costmodel.latency import IterationCostModel
from repro.types import Request


@dataclass
class DispatchDecision:
    """Output of the dispatching step."""

    requests: list[Request] = field(default_factory=list)
    base_instances: list[int] = field(default_factory=list)
    coopted_batches: list[DecodeBatch] = field(default_factory=list)
    # Phase 1 stopped at the tipping point with requests left, so phase
    # 2 weighed co-opts by Eq. 2.  Only then can phase 2 admit anything:
    # after a memory, eviction-avoidance or batch-size stop its first
    # candidate fails the same gate.
    tipped: bool = False

    @property
    def instances(self) -> list[int]:
        ids = list(self.base_instances)
        for batch in self.coopted_batches:
            ids.extend(batch.instance_ids)
        return sorted(set(ids))

    @property
    def is_empty(self) -> bool:
        return not self.requests


def select_prefill_requests(
    pending: Sequence[Request],
    idle_instances: list[int],
    free_slots: dict[int, int],
    decode_batches: list[DecodeBatch],
    predictor: IterationCostModel,
    tensor_parallel: int,
    config: SchedulerConfig,
    avg_decode_latency: float,
    now: float,
    prefilling_requests: Sequence[Request] = (),
) -> DispatchDecision:
    """Run the dispatching step and return ``R_p`` plus co-opted groups."""
    decision = DispatchDecision(base_instances=list(idle_instances))
    if not pending:
        return decision

    # Decode batches mid-iteration count too: plans take effect at the
    # iteration boundary (~one decode step away, negligible vs. prefill).
    stable_batches = list(decode_batches)
    preemptable = sorted(
        {i for b in stable_batches for i in b.instance_ids} - set(idle_instances)
    )
    # Memory obtainable by allocation: idle slots plus the free slots of
    # preemptable decode instances (their resident KV migrates or stays).
    memory_budget = sum(free_slots.get(i, 0) for i in idle_instances)
    memory_budget += sum(free_slots.get(i, 0) for i in preemptable)
    # Compute budget: the tipping point scales with the instances that
    # will actually execute the prefill — the idle base group.  Decode
    # instances contribute their compute only once co-opted (phase 2),
    # each successful co-opt raising the budget by its group's share.
    token_budget = config.prefill_tipping_tokens * max(1, len(idle_instances))

    # Eviction avoidance (§5.1): resident decoding requests (and requests
    # whose prefill is still in flight) will grow to their declared caps;
    # that future consumption is reserved before admitting new work, so
    # admissions are unlikely to force a recomputation later.
    resident_growth = sum(
        max(0, r.max_total_len + 1 - r.current_len)
        for batch in stable_batches
        for r in batch.requests
    )
    resident_growth += sum(
        max(0, r.max_total_len + 1 - r.current_len) for r in prefilling_requests
    )
    future_budget = memory_budget - resident_growth
    # With an empty system something must be admissible or nothing ever
    # runs; the conservative gate then defers to the hard capacity check.
    system_empty = resident_growth == 0

    committed_slots = 0
    committed_future = 0
    committed_tokens = 0
    queue = list(pending)
    index = 0
    # Phase 1: admit FCFS under the memory budgets and the tipping point.
    while index < len(queue) and len(decision.requests) < config.max_batch_size:
        request = queue[index]
        needed = _slots_needed(request)
        future = request.future_kv_demand
        if committed_slots + needed > memory_budget:
            break
        exempt = system_empty and not decision.requests
        if not exempt and committed_future + future > future_budget:
            break  # would risk a future eviction
        if decision.requests and committed_tokens + request.prefill_tokens > token_budget:
            decision.tipped = True
            break
        decision.requests.append(request)
        committed_slots += needed
        committed_future += future
        committed_tokens += request.prefill_tokens
        index += 1

    if index >= len(queue):
        return decision

    # Phase 2: consider co-opting decode groups' compute for more
    # requests (the paper's worst-case preemption analysis, Eqs. 1-2).
    # Memory is NOT what a co-opt contributes — the decode instances' free
    # slots are already inside ``memory_budget``/``future_budget``, so the
    # hard memory and eviction-avoidance gates stay unchanged; what the
    # paused group adds is its instances' compute, which raises the
    # tipping-point budget by the group's share.
    for batch in sorted(stable_batches, key=lambda b: -_group_free(b, free_slots)):
        if index >= len(queue):
            break
        coopt_token_budget = token_budget + config.prefill_tipping_tokens * len(
            batch.instance_ids
        )
        extra: list[Request] = []
        extra_slots = 0
        extra_tokens = 0
        extra_future = 0
        while index < len(queue) and (
            len(decision.requests) + len(extra) < config.max_batch_size
        ):
            request = queue[index]
            needed = _slots_needed(request)
            future = request.future_kv_demand
            if committed_slots + extra_slots + needed > memory_budget:
                break
            if committed_future + extra_future + future > future_budget:
                break  # would risk a future eviction
            if (
                decision.requests or extra
            ) and committed_tokens + extra_tokens + request.prefill_tokens > coopt_token_budget:
                break  # past the enlarged tipping point
            extra.append(request)
            extra_slots += needed
            extra_tokens += request.prefill_tokens
            extra_future += future
            index += 1
        if not extra:
            continue

        combined_instances = decision.instances + list(batch.instance_ids)
        combined_lens = [r.prefill_tokens for r in decision.requests + extra]
        iter_time = predictor.prefill_time(combined_lens, combined_instances, tensor_parallel)

        cost = _preemption_cost(batch, iter_time)
        gain = _dispatch_gain(extra, batch, avg_decode_latency, now)
        if gain > cost:
            decision.requests.extend(extra)
            decision.coopted_batches.append(batch)
            # All three commitment counters advance, so the next co-opt
            # candidate is gated against what this round actually admitted
            # (stale token/future counts would let successive co-opts push
            # the joint batch past the tipping point and the eviction-
            # avoidance reserve).
            committed_slots += extra_slots
            committed_tokens += extra_tokens
            committed_future += extra_future
            token_budget = coopt_token_budget  # the group's compute now counts
        else:
            index -= len(extra)  # put them back; FCFS order preserved
            break

    return decision


def _slots_needed(request: Request) -> int:
    """KV slots a prefill allocates: the uncached tokens to process plus
    the first generated token.  ``prefill_tokens`` covers preempted
    requests (recomputation re-prefills their generated tokens too) and
    nets out any prefix the KV cache already holds."""
    return request.kv_demand


def _group_free(batch: DecodeBatch, free_slots: dict[int, int]) -> int:
    spare = sum(free_slots.get(i, 0) for i in batch.instance_ids)
    # Keep headroom for the batch's own next iterations so co-opting does
    # not immediately trigger a decode eviction.
    return max(0, spare - 4 * batch.batch_size)


def _preemption_cost(batch: DecodeBatch, iteration_time: float) -> float:
    """Eq. 1: output-latency impact of pausing ``batch`` for the prefill.

    The iteration time is amortised over each paused request's existing
    output tokens (requests with more produced tokens are hurt less per
    token).
    """
    cost = 0.0
    for request in batch.requests:
        produced = max(1, request.generated)
        cost += iteration_time / produced
    return cost


def _dispatch_gain(
    extra: list[Request],
    batch: DecodeBatch,
    avg_decode_latency: float,
    now: float,
) -> float:
    """Eq. 2: input-latency saved by not waiting for ``batch`` to drain.

    ``avg_decode_latency`` is the mean decode-phase time of finished
    requests (AvgLat_d).
    """
    wait = wait_estimate(batch, avg_decode_latency, now)
    gain = 0.0
    for request in extra:
        gain += wait / request.prefill_tokens
    return gain


def wait_estimate(
    batch: DecodeBatch, avg_decode_latency: float, now: float
) -> float:
    """Eq. 2's wait for ``batch`` to drain: AvgLat_d less the youngest
    request's elapsed decode time, the part of that wait already passed.

    It never grows with ``now``: once 0 it stays 0 for as long as
    AvgLat_d holds, and so does every gain priced from it.
    """
    return max(0.0, avg_decode_latency - batch.min_exec_time(now))
