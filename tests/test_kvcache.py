"""Tests for the KV cache substrate: pools, unified view, migration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvcache.migration import plan_eviction_migration
from repro.kvcache.pool import InstancePool, PoolExhaustedError
from repro.kvcache.unified import UnifiedKVPool


class TestInstancePool:
    def test_allocate_and_release(self):
        pool = InstancePool(instance_id=0, capacity=100)
        pool.allocate(1, 40)
        assert pool.used == 40
        assert pool.free == 60
        assert pool.release(1) == 40
        assert pool.free == 100

    def test_exhaustion_raises(self):
        pool = InstancePool(instance_id=0, capacity=10)
        with pytest.raises(PoolExhaustedError):
            pool.allocate(1, 11)

    def test_partial_release(self):
        pool = InstancePool(instance_id=0, capacity=100)
        pool.allocate(1, 50)
        assert pool.release(1, 20) == 20
        assert pool.used == 30

    def test_release_unknown_request_is_zero(self):
        pool = InstancePool(instance_id=0, capacity=10)
        assert pool.release(99) == 0

    def test_incremental_allocation(self):
        pool = InstancePool(instance_id=0, capacity=100)
        pool.allocate(1, 10)
        pool.allocate(1, 5)
        assert pool.used == 15

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            InstancePool(instance_id=0, capacity=0)

    @given(allocs=st.lists(st.integers(min_value=1, max_value=30), max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_conservation_property(self, allocs):
        """used + free == capacity under any allocation sequence."""
        pool = InstancePool(instance_id=0, capacity=500)
        for rid, n in enumerate(allocs):
            try:
                pool.allocate(rid, n)
            except PoolExhaustedError:
                pass
            assert pool.used + pool.free == 500

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["alloc", "release", "release_all"]),
                st.integers(min_value=0, max_value=5),   # request id
                st.integers(min_value=0, max_value=40),  # token count
            ),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_used_counter_matches_ownership_map(self, ops):
        """The incremental ``used`` counter (kept because ``used`` sits on
        the hot scheduling path) must track sum(_owned) under any mix of
        allocate / partial release / full release / release_all."""
        pool = InstancePool(instance_id=0, capacity=300)
        for op, rid, n in ops:
            if op == "alloc":
                try:
                    pool.allocate(rid, n)
                except PoolExhaustedError:
                    pass
            elif op == "release":
                pool.release(rid, n if n % 2 else None)
            else:
                pool.release_all()
            assert pool.used == sum(pool.snapshot().values())
            assert pool.used + pool.free == pool.capacity

    def test_post_init_seeds_counter_from_preloaded_map(self):
        pool = InstancePool(instance_id=0, capacity=100, _owned={1: 30, 2: 12})
        assert pool.used == 42
        assert pool.free == 58


class TestUnifiedKVPool:
    def _pool(self) -> UnifiedKVPool:
        return UnifiedKVPool.create(num_instances=4, slots_per_instance=100)

    def test_capacity_totals(self):
        pool = self._pool()
        assert pool.total_capacity == 400
        assert pool.total_free == 400

    def test_place_spanning_instances(self):
        pool = self._pool()
        pool.place(1, {0: 80, 1: 80})
        assert pool.tokens_of(1) == 160
        assert pool.instances_of(1) == [0, 1]

    def test_place_rolls_back_on_failure(self):
        pool = self._pool()
        pool.place(1, {0: 90})
        with pytest.raises(PoolExhaustedError):
            pool.place(2, {0: 50, 1: 50})
        assert pool.pools[1].used == 0  # rollback freed instance 1
        assert pool.tokens_of(2) == 0

    def test_figure4_fragmentation_scenario(self):
        """Figure 4: six free slots spread out; unified fits, grouped not."""
        pool = UnifiedKVPool.create(num_instances=3, slots_per_instance=2)
        assert pool.can_fit_unified(6)
        assert not pool.can_fit_grouped(6)
        assert pool.can_fit_grouped(2)

    def test_extend_appends_tokens(self):
        pool = self._pool()
        pool.place(1, {0: 10})
        pool.extend(1, 2, 3)
        assert pool.placement_of(1) == {0: 10, 2: 3}

    def test_evict_frees_everything(self):
        pool = self._pool()
        pool.place(1, {0: 50, 3: 20})
        assert pool.evict(1) == 70
        assert pool.total_free == 400
        assert pool.placement_of(1) == {}

    def test_move_bookkeeping(self):
        pool = self._pool()
        pool.place(1, {0: 50})
        pool.move(1, 0, 2, 30)
        assert pool.placement_of(1) == {0: 20, 2: 30}

    def test_move_more_than_held_raises(self):
        pool = self._pool()
        pool.place(1, {0: 10})
        with pytest.raises(ValueError):
            pool.move(1, 0, 1, 20)

    def test_double_place_rejected(self):
        pool = self._pool()
        pool.place(1, {0: 10})
        with pytest.raises(ValueError):
            pool.place(1, {1: 10})

    @given(
        tokens=st.integers(min_value=0, max_value=380),
        used=st.lists(
            st.integers(min_value=0, max_value=90), min_size=4, max_size=4
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_balanced_placement_property(self, tokens, used):
        """Balanced placement always fits when total capacity suffices and
        never overflows any instance."""
        pool = UnifiedKVPool.create(num_instances=4, slots_per_instance=100)
        for idx, amount in enumerate(used):
            if amount:
                pool.place(1000 + idx, {idx: amount})
        if tokens > pool.total_free:
            with pytest.raises(PoolExhaustedError):
                pool.balanced_placement(tokens, [0, 1, 2, 3])
            return
        placement = pool.balanced_placement(tokens, [0, 1, 2, 3])
        assert sum(placement.values()) == tokens
        for instance_id, count in placement.items():
            assert count <= pool.pools[instance_id].free


class TestMigrationPlanning:
    def test_plan_moves_everything(self):
        pool = UnifiedKVPool.create(num_instances=3, slots_per_instance=100)
        pool.place(1, {0: 40})
        pool.place(2, {0: 30})
        plan = plan_eviction_migration(pool, vacate_instance=0, target_instances=[1, 2])
        assert plan is not None
        assert sum(step.num_tokens for step in plan.steps) == 70
        plan.apply(pool)
        assert pool.pools[0].used == 0
        assert pool.tokens_of(1) == 40
        assert pool.tokens_of(2) == 30

    def test_plan_none_when_targets_too_small(self):
        pool = UnifiedKVPool.create(num_instances=2, slots_per_instance=100)
        pool.place(1, {0: 80})
        pool.place(2, {1: 50})
        plan = plan_eviction_migration(pool, vacate_instance=0, target_instances=[1])
        assert plan is None

    def test_empty_source_gives_empty_plan(self):
        pool = UnifiedKVPool.create(num_instances=2, slots_per_instance=10)
        plan = plan_eviction_migration(pool, vacate_instance=0, target_instances=[1])
        assert plan is not None and plan.is_empty()

    def test_plan_prefers_most_free_target(self):
        pool = UnifiedKVPool.create(num_instances=3, slots_per_instance=100)
        pool.place(1, {0: 10})
        pool.place(2, {1: 90})  # instance 1 nearly full
        plan = plan_eviction_migration(pool, vacate_instance=0, target_instances=[1, 2])
        assert plan is not None
        assert plan.steps[0].dst == 2

    def test_split_across_targets(self):
        pool = UnifiedKVPool.create(num_instances=3, slots_per_instance=100)
        pool.place(1, {0: 100})
        pool.place(2, {1: 40})
        pool.place(3, {2: 40})
        plan = plan_eviction_migration(pool, vacate_instance=0, target_instances=[1, 2])
        assert plan is not None
        plan.apply(pool)
        assert pool.pools[0].used == 0
        assert sum(pool.placement_of(1).values()) == 100
