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

When the tick enacts nothing, :func:`refusal_bound` says for how many of
each decode batch's own iteration ends that answer holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

from repro.core.batch import DecodeBatch
from repro.costmodel.latency import IterationCostModel
from repro.types import Request

# Prefill tokens per instance at which a batch stops being memory bound
# (§5.1's tipping point, profiled once per deployment): adding requests
# past it only extends the iteration.
PREFILL_TIPPING_TOKENS = 8192
# Cap on the requests one dispatch admits, mirroring the slot-count cap
# of real systems.
MAX_BATCH_SIZE = 1024
# A co-opt whose Eq. 2 gain comes this close to its Eq. 1 cost, relative
# to both, counts as firing when bounding a refusal: far above the float
# rounding of either sum.
TIE_MARGIN = 1e-9


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
    # What phase 1 left of the memory, eviction-avoidance and token
    # budgets: the room phase 2's extra requests fill.
    room: tuple[int, int, int] = (0, 0, 0)

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
    token_budget = PREFILL_TIPPING_TOKENS * max(1, len(idle_instances))

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
    while index < len(queue) and len(decision.requests) < MAX_BATCH_SIZE:
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

    decision.room = (
        memory_budget - committed_slots,
        future_budget - committed_future,
        token_budget - committed_tokens,
    )
    if not decision.tipped:
        return decision

    # Phase 2: consider co-opting decode groups' compute for more
    # requests (the paper's worst-case preemption analysis, Eqs. 1-2).
    # Memory is NOT what a co-opt contributes — the decode instances' free
    # slots are already inside ``memory_budget``/``future_budget``, so the
    # hard memory and eviction-avoidance gates stay unchanged; what the
    # paused group adds is its instances' compute, which raises the
    # tipping-point budget by the group's share.  Each round gates its
    # candidate against what earlier co-opts admitted (stale counts would
    # let successive co-opts push the joint batch past the tipping point
    # and the eviction-avoidance reserve).
    slots, future, tokens = decision.room
    for batch in sorted(stable_batches, key=lambda b: -_group_free(b, free_slots)):
        if index >= len(queue):
            break
        share = PREFILL_TIPPING_TOKENS * len(batch.instance_ids)
        extra = _extra_requests(
            queue, index, MAX_BATCH_SIZE - len(decision.requests),
            slots, future, tokens + share,
        )
        if not extra:
            continue

        combined_instances = decision.instances + list(batch.instance_ids)
        combined_lens = [r.prefill_tokens for r in decision.requests + extra]
        iter_time = predictor.prefill_time(combined_lens, combined_instances, tensor_parallel)

        cost = _preemption_cost(batch, iter_time)
        gain = _dispatch_gain(extra, batch, avg_decode_latency, now)
        if gain <= cost:
            break  # FCFS: nothing passes the refused requests
        decision.requests.extend(extra)
        decision.coopted_batches.append(batch)
        index += len(extra)
        slots -= sum(_slots_needed(r) for r in extra)
        future -= sum(r.future_kv_demand for r in extra)
        tokens += share - sum(r.prefill_tokens for r in extra)

    return decision


def _extra_requests(
    queue: Sequence[Request],
    start: int,
    seats: int,
    slots: int,
    future: int,
    tokens: int,
) -> list[Request]:
    """Phase 2's FCFS scan from ``queue[start]``: the requests that fit in
    ``slots`` KV slots, ``future`` eviction-avoidance reserve and
    ``tokens`` prefill tokens, at most ``seats`` of them.  Less room
    admits a prefix of what more admits."""
    extra: list[Request] = []
    for request in islice(queue, start, start + seats):
        slots -= _slots_needed(request)
        future -= request.future_kv_demand
        tokens -= request.prefill_tokens
        if slots < 0 or future < 0 or tokens < 0:
            break
        extra.append(request)
    return extra


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


def refusal_bound(
    decision: DispatchDecision,
    pending: Sequence[Request],
    decode_batches: list[DecodeBatch],
    predictor: IterationCostModel,
    tensor_parallel: int,
    avg_decode_latency: float,
    now: float,
    measured: bool,
) -> dict[int, int] | None:
    """How long a dispatch whose tick enacted nothing keeps its answer
    while decode iterations only run: by batch id, the first of the
    batch's own iteration ends from now at which a re-run could admit
    something (batches left out are unbounded), or None when no end is
    covered.  ``measured`` says AvgLat_d is measured, not the warm-up
    seed, which reads the contexts the iterations grow.

    Between re-runs only decode KV is appended and the clock advances:
    the memory budget falls by the slots appended, the eviction-avoidance
    budget by at most as many, and the token budget stays, so phase 1
    admits a prefix of what it admitted here, and phase 2 runs only if
    phase 1 again tips with the same set.  One resident whose declared
    cap covers its output keeps the reserve positive until it completes,
    so the first request stays under the eviction-avoidance gate.  With
    an idle instance, allocation and the batching DP see phase 1's set,
    so it must stay whole: the windows' appends must fit in the slots
    phase 1 left.  Each candidate's extra set then shrinks to a prefix
    of the one scanned here, Eq. 2's wait only falls, and Eq. 1's cost
    changes only at the batch's own ends, where each request's
    ``generated`` grows by one: a co-opt through batch ``b`` can first
    fire at the first end ``k`` at which, for some prefix ``E_j``,
    ``wait_b * sum(1 / p for p in E_j)`` exceeds ``T_j * sum(1 /
    max(1, g + k) for g in b)``.  A co-opt that could fire now gives no
    bound at all: the ``_group_free`` order may put it first at any
    re-run.  Every batch is checked, so that order does not matter.
    """
    if decision.coopted_batches or not any(
        r.max_total_len >= r.input_len + r.output_len
        for batch in decode_batches
        for r in batch.requests
    ):
        return None
    admitted = decision.requests
    slots, future, tokens = decision.room
    holds: dict[int, int] = {}
    if admitted and decision.base_instances:
        ends = min(slots, future) // sum(b.batch_size for b in decode_batches) + 1
        if ends < 1:
            return None
        holds = dict.fromkeys((b.batch_id for b in decode_batches), ends)
    if not decision.tipped:
        return holds
    if not measured:
        return None
    start = len(admitted)
    lens = [r.prefill_tokens for r in admitted]
    for batch in decode_batches:
        wait = wait_estimate(batch, avg_decode_latency, now)
        if wait == 0.0:
            continue  # no gain, now or later
        extra = _extra_requests(
            pending, start, MAX_BATCH_SIZE - start, slots, future,
            tokens + PREFILL_TIPPING_TOKENS * len(batch.instance_ids),
        )
        if not extra:
            continue
        instances = decision.instances + list(batch.instance_ids)
        # Eq. 2's sum over Eq. 1's iteration time, best over the prefixes.
        inverse = best = 0.0
        for request in extra:
            inverse += 1 / request.prefill_tokens
            lens.append(request.prefill_tokens)
            best = max(best, inverse / predictor.prefill_time(lens, instances, tensor_parallel))
        del lens[start:]
        ends = _first_favourable_end(batch, wait * best * (1 + TIE_MARGIN))
        if ends == 0:
            return None
        holds[batch.batch_id] = min(ends, holds.get(batch.batch_id, ends))
    return holds


def _first_favourable_end(batch: DecodeBatch, target: float) -> int:
    """The first own end ``k >= 0`` of ``batch`` at which ``sum(1 /
    max(1, generated + k))`` over its requests falls below ``target``
    (> 0).  The sum only falls with ``k`` and is at most ``batch_size /
    k``, so bisect up to the first ``k`` past ``batch_size / target``."""
    generated = [r.generated for r in batch.requests]

    def below(k: int) -> bool:
        return sum(1 / max(1, g + k) for g in generated) < target

    if below(0):
        return 0
    lo, hi = 0, int(len(generated) / target) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    return hi
