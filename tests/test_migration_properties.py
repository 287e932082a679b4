"""Property tests for KV migration planning (``repro.kvcache.migration``).

Hypothesis drives randomized pool layouts through
``plan_eviction_migration`` and checks the plan invariants the
allocation step and the fleet control plane rely on: token
conservation, no self-moves, and ``apply()`` leaving per-instance
occupancy exactly consistent with the plan.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.kvcache.migration import (
    MigrationPlan,
    MigrationStep,
    PrefixHandoff,
    plan_eviction_migration,
)
from repro.kvcache.unified import UnifiedKVPool


def build_pool(num_instances: int, capacity: int, placements) -> UnifiedKVPool:
    pool = UnifiedKVPool.create(
        num_instances=num_instances, slots_per_instance=capacity
    )
    for request_id, placement in enumerate(placements):
        trimmed = {}
        for instance_id, tokens in placement.items():
            take = min(tokens, pool.pools[instance_id].free)
            if take > 0:
                trimmed[instance_id] = take
        if trimmed:
            pool.place(request_id, trimmed)
    return pool


# Random pool layouts: 2-5 instances, a handful of requests whose KV is
# scattered across a random subset of instances.
pool_layouts = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(min_value=50, max_value=400),  # capacity per instance
        st.lists(  # placements: request -> {instance: tokens}
            st.dictionaries(
                keys=st.integers(min_value=0, max_value=n - 1),
                values=st.integers(min_value=1, max_value=120),
                min_size=1,
                max_size=n,
            ),
            min_size=0,
            max_size=6,
        ),
        st.integers(min_value=0, max_value=n - 1),  # instance to vacate
    )
)


class TestEvictionMigrationProperties:
    @given(pool_layouts)
    def test_plan_conserves_tokens_and_never_self_moves(self, layout):
        num_instances, capacity, placements, vacate = layout
        pool = build_pool(num_instances, capacity, placements)
        targets = [i for i in range(num_instances) if i != vacate]
        to_move = sum(pool.pools[vacate].snapshot().values())

        plan = plan_eviction_migration(pool, vacate, targets)
        if plan is None:  # targets could not absorb the tokens
            assert sum(pool.pools[t].free for t in targets) < to_move
            return
        # Conservation: the plan moves exactly the vacated occupancy.
        assert sum(step.num_tokens for step in plan.steps) == to_move
        for step in plan.steps:
            assert step.src == vacate
            assert step.src != step.dst
            assert step.num_tokens > 0
            assert step.dst in targets

    @given(pool_layouts)
    def test_apply_leaves_occupancy_consistent_with_plan(self, layout):
        num_instances, capacity, placements, vacate = layout
        pool = build_pool(num_instances, capacity, placements)
        targets = [i for i in range(num_instances) if i != vacate]
        before_used = {i: pool.pools[i].used for i in range(num_instances)}
        before_total = pool.total_used
        before_tokens = {
            rid: pool.tokens_of(rid) for rid in range(len(placements))
        }

        plan = plan_eviction_migration(pool, vacate, targets)
        if plan is None:
            return
        plan.apply(pool)

        # The vacated instance is empty; global occupancy is unchanged.
        assert pool.pools[vacate].used == 0
        assert pool.total_used == before_total
        # Per-instance deltas match the plan's step sums exactly.
        for i in range(num_instances):
            inbound = sum(s.num_tokens for s in plan.steps if s.dst == i)
            outbound = sum(s.num_tokens for s in plan.steps if s.src == i)
            assert pool.pools[i].used == before_used[i] + inbound - outbound
        # No request gained or lost tokens — they only changed homes.
        for rid, tokens in before_tokens.items():
            assert pool.tokens_of(rid) == tokens

    @given(pool_layouts)
    def test_empty_source_yields_empty_plan(self, layout):
        num_instances, capacity, _, vacate = layout
        pool = build_pool(num_instances, capacity, [])
        plan = plan_eviction_migration(
            pool, vacate, [i for i in range(num_instances) if i != vacate]
        )
        assert plan is not None and plan.is_empty()


class TestMigrationPlanBasics:
    def test_cost_serialises_per_source(self, cluster8):
        from repro.costmodel.comm import CollectiveModel
        from repro.model.spec import LWM_7B_1M

        collectives = CollectiveModel(cluster=cluster8)
        plan = MigrationPlan(
            steps=[
                MigrationStep(request_id=1, src=0, dst=1, num_tokens=500),
                MigrationStep(request_id=2, src=0, dst=2, num_tokens=500),
                MigrationStep(request_id=3, src=1, dst=2, num_tokens=100),
            ]
        )
        single = MigrationPlan(steps=plan.steps[:1])
        assert plan.cost(collectives, LWM_7B_1M, 2) > single.cost(
            collectives, LWM_7B_1M, 2
        )
        assert MigrationPlan().cost(collectives, LWM_7B_1M, 2) == 0.0

    def test_cost_serialises_many_to_one_fan_in(self, cluster8):
        from repro.costmodel.comm import CollectiveModel
        from repro.model.spec import LWM_7B_1M

        collectives = CollectiveModel(cluster=cluster8)
        fan_in = MigrationPlan(
            steps=[
                MigrationStep(request_id=i, src=i, dst=3, num_tokens=500)
                for i in range(3)
            ]
        )
        singles = [
            MigrationPlan(steps=[step]).cost(collectives, LWM_7B_1M, 2)
            for step in fan_in.steps
        ]
        # Three sources shipping into one destination serialise on the
        # receiver's NIC: the plan costs the sum of its steps, not the
        # max (which is what distinct-pair overlap would give).
        cost = fan_in.cost(collectives, LWM_7B_1M, 2)
        assert cost == pytest.approx(sum(singles))
        assert cost > max(singles)

    def test_prefix_handoff_cost_scales_with_volume(self, cluster8):
        from repro.costmodel.comm import CollectiveModel
        from repro.model.spec import LWM_7B_1M

        collectives = CollectiveModel(cluster=cluster8)
        small = PrefixHandoff(
            request_id=1, src_replica=0, dst_replica=1, num_tokens=100
        )
        large = PrefixHandoff(
            request_id=1, src_replica=0, dst_replica=1, num_tokens=10_000
        )
        assert 0.0 < small.cost(collectives, LWM_7B_1M, 2) < large.cost(
            collectives, LWM_7B_1M, 2
        )

    def test_prefix_handoff_zero_tokens_is_free(self, cluster8):
        from repro.costmodel.comm import CollectiveModel
        from repro.model.spec import LWM_7B_1M

        collectives = CollectiveModel(cluster=cluster8)
        handoff = PrefixHandoff(
            request_id=1, src_replica=0, dst_replica=1, num_tokens=0
        )
        assert handoff.cost(collectives, LWM_7B_1M, 2) == 0.0


@pytest.mark.parametrize("profile_env", ["ci"])
def test_ci_profile_is_registered(profile_env):
    """The derandomized profile CI selects via ``CI=1`` must exist."""
    from hypothesis import settings

    profile = settings.get_profile(profile_env)
    assert profile.derandomize is True
    assert profile.deadline is None
