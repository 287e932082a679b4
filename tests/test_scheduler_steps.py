"""Unit tests for the four scheduling steps (§5.1-§5.4)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.config import SchedulerConfig
from repro.core.allocation import allocate_instances
from repro.core.batch import DecodeBatch, next_batch_id
from repro.core.dispatching import (
    MAX_BATCH_SIZE,
    PREFILL_TIPPING_TOKENS,
    select_prefill_requests,
)
from repro.core.scaling_plan import (
    DECODE_COMPUTE_BOUND_BS,
    assign_masters,
    pick_append_instance,
    plan_scale_down,
    plan_scale_up,
)
from repro.core.sib import ScalingInformationBase
from repro.costmodel.latency import RooflineCostModel
from repro.kvcache.unified import UnifiedKVPool
from repro.model.spec import LWM_7B_1M
from repro.parallel.groups import ParallelGroup
from repro.parallel.strategy import strategies_for_gpus
from tests.conftest import make_request

SLOTS = 10_000


@pytest.fixture(scope="module")
def predictor():
    cost = RooflineCostModel(cluster=Cluster.homogeneous(8), model=LWM_7B_1M)
    sib = ScalingInformationBase()
    return sib.profile_strategies(cost, strategies_for_gpus(8, 2), max_len=100_000)


@pytest.fixture(scope="module")
def cost_model():
    return RooflineCostModel(cluster=Cluster.homogeneous(8), model=LWM_7B_1M)


def make_pool(used: dict[int, int] | None = None) -> UnifiedKVPool:
    pool = UnifiedKVPool.create(num_instances=4, slots_per_instance=SLOTS)
    for instance, tokens in (used or {}).items():
        pool.place(9_000 + instance, {instance: tokens})
    return pool


def make_decode_batch(instances: tuple[int, ...], num_requests: int = 2) -> DecodeBatch:
    batch = DecodeBatch(batch_id=next_batch_id())
    batch.group = ParallelGroup(instance_ids=instances, tensor_parallel=2)
    for _ in range(num_requests):
        request = make_request(input_len=50, output_len=20)
        request.generated = 5
        request.prefill_end = 0.0
        batch.requests.append(request)
    return batch


class TestDispatching:
    def test_fcfs_order_preserved(self, predictor):
        pending = [make_request(input_len=100) for _ in range(3)]
        decision = select_prefill_requests(
            pending, [0, 1, 2, 3], {i: SLOTS for i in range(4)}, [],
            predictor, 2, 0.0, 0.0,
        )
        assert [r.request_id for r in decision.requests] == [
            r.request_id for r in pending
        ]

    def test_memory_gate_blocks_oversized(self, predictor):
        pending = [make_request(input_len=5 * SLOTS)]
        decision = select_prefill_requests(
            pending, [0], {0: SLOTS}, [], predictor, 2, 0.0, 0.0,
        )
        assert decision.is_empty

    def test_first_request_bypasses_tipping(self, predictor):
        # Past the four idle instances' joint tipping point on its own.
        pending = [make_request(input_len=5 * PREFILL_TIPPING_TOKENS)]
        decision = select_prefill_requests(
            pending, [0, 1, 2, 3], {i: SLOTS * 10 for i in range(4)}, [],
            predictor, 2, 0.0, 0.0,
        )
        assert len(decision.requests) == 1

    def test_tipping_limits_batch(self, predictor):
        pending = [
            make_request(input_len=PREFILL_TIPPING_TOKENS // 2) for _ in range(20)
        ]
        decision = select_prefill_requests(
            pending, [0], {0: SLOTS * 10}, [], predictor, 2, 0.0, 0.0,
        )
        # Two halves fill one instance's tipping point exactly.
        assert len(decision.requests) == 2
        assert decision.tipped

    def test_preemptable_memory_extends_budget(self, predictor):
        """With no idle instances, decode instances' free slots still
        admit requests (allocation preempts later)."""
        batch = make_decode_batch((0, 1))
        pending = [make_request(input_len=1_000)]
        decision = select_prefill_requests(
            pending, [], {0: SLOTS, 1: SLOTS, 2: 0, 3: 0}, [batch],
            predictor, 2, 0.0, 0.0,
        )
        assert len(decision.requests) == 1

    def test_coopt_requires_gain(self, predictor):
        """With zero AvgLat_d the gain is zero, so no co-opting happens."""
        batch = make_decode_batch((2, 3))
        pending = [make_request(input_len=18_000), make_request(input_len=18_000),
                   make_request(input_len=18_000)]
        decision = select_prefill_requests(
            pending, [0, 1], {0: SLOTS, 1: SLOTS, 2: SLOTS, 3: SLOTS}, [batch],
            predictor, 2, avg_decode_latency=0.0, now=0.0,
        )
        assert batch not in decision.coopted_batches

    def test_coopt_fires_with_large_gain(self, predictor):
        """Phase 1 stops at the idle base group's tipping point; the
        Eq. 1/2 analysis then co-opts the decode group's compute, raising
        the budget enough for the rest of the queue."""
        batch = make_decode_batch((2, 3))
        pending = [make_request(input_len=3_000) for _ in range(4)]
        decision = select_prefill_requests(
            pending, [0], {0: 5_000, 1: 0, 2: 4_000, 3: 4_000}, [batch],
            predictor, 2, avg_decode_latency=1e9, now=0.0,
        )
        assert decision.tipped
        assert batch in decision.coopted_batches
        assert len(decision.requests) == 4

    def test_empty_pending(self, predictor):
        decision = select_prefill_requests(
            [], [0], {0: SLOTS}, [], predictor, 2, 0.0, 0.0
        )
        assert decision.is_empty

    def test_successive_coopts_share_token_budget(self, predictor):
        """Regression: a successful co-opt must advance the committed
        token/future counters.  With stale counters the second co-optable
        batch is gated against undercounted commitments and the joint
        admission sails past the tipping point (``token_budget``)."""
        b1 = make_decode_batch((1,))
        b2 = make_decode_batch((2,))
        pending = [
            make_request(input_len=PREFILL_TIPPING_TOKENS * 3 // 5, output_len=5)
            for _ in range(10)
        ]
        decision = select_prefill_requests(
            pending, [0], {0: 100_000, 1: 100_000, 2: 100_000, 3: 0},
            [b1, b2], predictor, 2, avg_decode_latency=1e9, now=0.0,
        )
        assert len(decision.coopted_batches) == 2
        # Joint compute budget: one share for the idle base instance plus
        # one per co-opted instance — the two co-opts may never jointly
        # admit past it.
        budget = PREFILL_TIPPING_TOKENS * (
            1 + sum(len(b.instance_ids) for b in decision.coopted_batches)
        )
        total = sum(r.current_len for r in decision.requests)
        assert total <= budget

    def test_coopt_respects_max_batch_size(self, predictor):
        """Phase 2 admissions count toward the same batch-size cap that
        phase 1 enforces: phase 1 tips after 819 ten-token prompts, and
        the co-opted group's budget would take every one of these, but
        the cap stops the joint batch first."""
        batch = make_decode_batch((1,))
        pending = [
            make_request(input_len=10, output_len=5)
            for _ in range(MAX_BATCH_SIZE + 76)
        ]
        decision = select_prefill_requests(
            pending, [0], {0: 100_000, 1: 100_000, 2: 0, 3: 0}, [batch],
            predictor, 2, avg_decode_latency=1e9, now=0.0,
        )
        assert decision.tipped
        assert batch in decision.coopted_batches
        assert len(decision.requests) == MAX_BATCH_SIZE

    def test_coopt_memory_gate_stays_hard(self, predictor):
        """Co-opting contributes compute, not memory: phase 2 may never
        admit a request whose KV cannot fit the obtainable slots."""
        batch = make_decode_batch((2, 3))
        pending = [make_request(input_len=3_000) for _ in range(6)]
        decision = select_prefill_requests(
            pending, [0], {0: 5_000, 1: 0, 2: 4_000, 3: 4_000}, [batch],
            predictor, 2, avg_decode_latency=1e9, now=0.0,
        )
        committed = sum(r.current_len + 1 for r in decision.requests)
        assert committed <= 13_000  # idle free + preemptable free


class TestAllocation:
    def test_no_requests_keeps_base(self, predictor, cost_model):
        pool = make_pool()
        decision = allocate_instances(
            [], [0], pool, [], predictor, cost_model.collectives, LWM_7B_1M, 2
        )
        assert decision.instances == [0]

    def test_preempts_for_memory(self, predictor, cost_model):
        """A request too big for idle instances takes a decode instance,
        migrating its KV to the other decode instance."""
        pool = make_pool(used={1: 100, 2: 200})
        batch = make_decode_batch((1, 2))
        request = make_request(input_len=int(1.5 * SLOTS))
        decision = allocate_instances(
            [request], [0], pool, [batch], predictor,
            cost_model.collectives, LWM_7B_1M, 2,
        )
        assert len(decision.instances) >= 2
        drained = set(decision.instances) - {0}
        for instance in drained:
            assert pool.pools[instance].used == 0  # KV migrated away

    def test_growth_drains_cheap_instance(self, predictor, cost_model):
        """Eq. 3/4: a long prefill pulls in a nearly-empty decode instance."""
        pool = make_pool(used={1: 10, 2: 5_000})
        batch = make_decode_batch((1, 2))
        request = make_request(input_len=9_000)
        decision = allocate_instances(
            [request], [0, 3], pool, [batch], predictor,
            cost_model.collectives, LWM_7B_1M, 2,
        )
        assert 1 in decision.instances  # the 10-token instance was drained
        assert pool.pools[1].used == 0
        assert (batch, 1) in decision.shrunk

    def test_never_drains_last_decode_instance(self, predictor, cost_model):
        pool = make_pool(used={2: 50})
        batch = make_decode_batch((2,))
        request = make_request(input_len=9_000)
        decision = allocate_instances(
            [request], [0, 1, 3], pool, [batch], predictor,
            cost_model.collectives, LWM_7B_1M, 2,
        )
        assert 2 not in decision.instances

    def test_migration_time_charged(self, predictor, cost_model):
        pool = make_pool(used={1: 5_000, 2: 100})
        batch = make_decode_batch((1, 2))
        request = make_request(input_len=9_500)
        decision = allocate_instances(
            [request], [0, 3], pool, [batch], predictor,
            cost_model.collectives, LWM_7B_1M, 2,
        )
        # Instance 2's 100 tokens move to instance 1, and the move is
        # charged.
        assert decision.shrunk == [(batch, 2)]
        assert decision.instances == [0, 2, 3]
        assert pool.pools[2].used == 0
        assert pool.pools[1].used == 5_100
        assert decision.migration_time > 0


class TestScaleDownPlanning:
    def test_minimum_instances_kept(self):
        pool = make_pool()
        requests = [make_request(input_len=100) for _ in range(3)]
        plan = plan_scale_down(requests, [0, 1, 2, 3], pool, set())
        assert len(plan.kept_instances) == 1

    def test_large_batch_keeps_more(self):
        pool = make_pool()
        requests = [make_request(input_len=SLOTS - 100) for _ in range(3)]
        plan = plan_scale_down(requests, [0, 1, 2, 3], pool, set())
        assert len(plan.kept_instances) >= 3

    def test_prefers_decode_hosting_instances(self):
        pool = make_pool()
        requests = [make_request(input_len=100)]
        plan = plan_scale_down(requests, [0, 1, 2, 3], pool, {2})
        assert plan.kept_instances == (2,)

    def test_per_request_placement_covers_tokens(self):
        pool = make_pool()
        requests = [make_request(input_len=500), make_request(input_len=300)]
        plan = plan_scale_down(requests, [0, 1, 2, 3], pool, set())
        for request in requests:
            placed = sum(plan.per_request[request.request_id].values())
            assert placed == request.current_len + 1

    def test_oversized_request_raises(self):
        pool = make_pool()
        requests = [make_request(input_len=10 * SLOTS)]
        with pytest.raises(ValueError):
            plan_scale_down(requests, [0], pool, set())


class TestScaleUpPlanning:
    def test_memory_pressure_triggers(self):
        pool = make_pool(used={0: SLOTS - 10})
        batch = make_decode_batch((0,), num_requests=8)
        decision = plan_scale_up(batch, [1, 2], pool, SchedulerConfig())
        assert decision is not None
        assert decision.reason == "memory"

    def test_compute_pressure_triggers(self):
        pool = make_pool()
        batch = make_decode_batch((0,), num_requests=DECODE_COMPUTE_BOUND_BS)
        decision = plan_scale_up(batch, [1], pool, SchedulerConfig())
        assert decision is not None
        assert decision.reason == "compute"

    def test_no_pressure_no_scale_up(self):
        pool = make_pool()
        batch = make_decode_batch((0,), num_requests=2)
        assert plan_scale_up(batch, [1], pool, SchedulerConfig()) is None

    def test_disabled_scale_up(self):
        pool = make_pool(used={0: SLOTS - 10})
        batch = make_decode_batch((0,), num_requests=8)
        config = SchedulerConfig(enable_scale_up=False)
        assert plan_scale_up(batch, [1], pool, config) is None

    def test_no_idle_instances(self):
        pool = make_pool(used={0: SLOTS - 10})
        batch = make_decode_batch((0,), num_requests=8)
        assert plan_scale_up(batch, [], pool, SchedulerConfig()) is None


class TestMasterAssignment:
    def test_single_master_when_disabled(self):
        pool = make_pool()
        config = SchedulerConfig(enable_multi_master=False)
        masters = assign_masters((0, 1, 2), pool, batch_size=50, config=config)
        assert len(masters) == 1

    def test_multi_master_uses_capacity(self):
        pool = make_pool()
        masters = assign_masters((0, 1, 2), pool, batch_size=50, config=SchedulerConfig())
        assert len(masters) == 3

    def test_full_instances_not_masters(self):
        pool = make_pool(used={1: SLOTS})
        masters = assign_masters((0, 1), pool, batch_size=50, config=SchedulerConfig())
        assert 1 not in masters

    def test_append_picks_most_free(self):
        pool = make_pool(used={0: 500})
        assert pick_append_instance((0, 1), pool) == 1

    def test_append_requires_masters(self):
        pool = make_pool()
        with pytest.raises(ValueError):
            pick_append_instance((), pool)
