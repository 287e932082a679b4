"""Property-based invariants of the dispatching step (§5.1).

Hypothesis drives randomized pending queues and decode-batch states
through ``select_prefill_requests`` and asserts its two hard budgets:
committed KV slots never exceed the obtainable memory, and committed
tokens never exceed the tipping-point compute budget (modulo the single
oversized-first-request exemption that keeps an empty system live).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.core.batch import DecodeBatch, next_batch_id
from repro.core.dispatching import PREFILL_TIPPING_TOKENS, select_prefill_requests
from repro.costmodel.latency import RooflineCostModel
from repro.model.spec import LWM_7B_1M
from repro.parallel.groups import ParallelGroup
from repro.core.sib import ScalingInformationBase
from repro.parallel.strategy import strategies_for_gpus
from tests.conftest import make_request

NUM_INSTANCES = 4


@pytest.fixture(scope="module")
def predictor():
    cost = RooflineCostModel(cluster=Cluster.homogeneous(8), model=LWM_7B_1M)
    sib = ScalingInformationBase()
    return sib.profile_strategies(cost, strategies_for_gpus(8, 2), max_len=100_000)


def _make_batch(instance_ids, request_specs):
    batch = DecodeBatch(batch_id=next_batch_id())
    batch.group = ParallelGroup(instance_ids=tuple(instance_ids), tensor_parallel=2)
    for input_len, output_len, generated in request_specs:
        request = make_request(input_len=input_len, output_len=output_len)
        request.generated = min(generated, output_len - 1) if output_len > 1 else 0
        request.prefill_end = 0.0
        batch.requests.append(request)
    return batch


pending_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=20_000),  # input_len
        st.integers(min_value=1, max_value=50),      # output_len
    ),
    min_size=1,
    max_size=15,
)

batch_request_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5_000),   # input_len
        st.integers(min_value=1, max_value=200),     # output_len
        st.integers(min_value=0, max_value=199),     # generated
    ),
    min_size=1,
    max_size=3,
)


@given(data=st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_dispatch_never_exceeds_budgets(predictor, data):
    # Up to 60,000 free slots per instance, so the memory gate often
    # leaves room for the tipping point to bind (about a fifth of the
    # examples tip).
    free_slots = {
        i: data.draw(st.integers(min_value=0, max_value=60_000), label=f"free{i}")
        for i in range(NUM_INSTANCES)
    }
    idle_count = data.draw(st.integers(min_value=0, max_value=NUM_INSTANCES), label="idle")
    idle = list(range(idle_count))
    busy = [i for i in range(NUM_INSTANCES) if i not in idle]

    batches = []
    while busy:
        width = data.draw(st.integers(min_value=1, max_value=len(busy)), label="width")
        group, busy = busy[:width], busy[width:]
        batches.append(_make_batch(group, data.draw(batch_request_strategy, label="reqs")))

    pending = [
        make_request(input_len=input_len, output_len=output_len)
        for input_len, output_len in data.draw(pending_strategy, label="pending")
    ]
    avg = data.draw(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False), label="avg"
    )

    decision = select_prefill_requests(
        pending, idle, free_slots, batches, predictor, 2,
        avg_decode_latency=avg, now=0.0,
    )

    # Memory: committed slots fit the obtainable memory (idle free plus
    # preemptable decode instances' free) — co-opting adds compute, never
    # memory, so no decision may commit past it.
    preemptable = {i for b in batches for i in b.instance_ids} - set(idle)
    memory_budget = sum(free_slots[i] for i in idle)
    memory_budget += sum(free_slots[i] for i in preemptable)
    committed_slots = sum(r.current_len + 1 for r in decision.requests)
    assert committed_slots <= memory_budget

    # Compute: committed tokens respect the tipping point of the executing
    # group (idle base + co-opted instances).  A single oversized first
    # request is exempt, otherwise an empty system could never start.
    # Pending prompts reach 20,000 tokens each, past the tipping point.
    token_budget = PREFILL_TIPPING_TOKENS * max(1, len(idle))
    token_budget += PREFILL_TIPPING_TOKENS * sum(
        len(b.instance_ids) for b in decision.coopted_batches
    )
    committed_tokens = sum(r.current_len for r in decision.requests)
    if len(decision.requests) > 1:
        assert committed_tokens <= token_budget

    # Sanity: FCFS subset, no duplicates.
    ids = [r.request_id for r in decision.requests]
    assert len(set(ids)) == len(ids)
    pending_ids = [r.request_id for r in pending]
    assert all(i in pending_ids for i in ids)
