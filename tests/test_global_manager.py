"""Unit tests for the GlobalManager's composed scheduling pass."""

import pytest

from repro.config import SchedulerConfig, default_config
from repro.core.batch import DecodeBatch, next_batch_id
from repro.core.elastic_instance import ElasticInstance, InstanceRole
from repro.core.global_manager import GlobalManager
from repro.costmodel.latency import RooflineCostModel
from repro.kvcache.unified import UnifiedKVPool
from repro.parallel.groups import ParallelGroup
from tests.conftest import make_request


@pytest.fixture(scope="module")
def manager_env():
    config = default_config()
    cost = RooflineCostModel(cluster=config.cluster, model=config.model)
    return config, GlobalManager(config, cost)


def fresh_state(config):
    pool = UnifiedKVPool.create(config.num_instances, config.kv_slots_per_instance)
    instances = {
        i: ElasticInstance(instance_id=i, pool=pool.pools[i])
        for i in range(config.num_instances)
    }
    return pool, instances


def decode_batch_on(pool, instances, instance_ids, num_requests=3, tokens_each=2_000):
    batch = DecodeBatch(batch_id=next_batch_id())
    batch.group = ParallelGroup(instance_ids=tuple(instance_ids), tensor_parallel=2)
    for _ in range(num_requests):
        request = make_request(input_len=tokens_each, output_len=100)
        request.generated = 10
        request.prefill_end = 0.0
        batch.requests.append(request)
        share = request.current_len // len(instance_ids)
        placement = {i: share for i in instance_ids}
        placement[instance_ids[0]] += request.current_len - share * len(instance_ids)
        pool.place(request.request_id, placement)
    for i in instance_ids:
        instances[i].assign(InstanceRole.DECODE, batch.batch_id)
    return batch


class TestBootstrap:
    def test_predictor_covers_all_sp_degrees(self, manager_env):
        config, manager = manager_env
        degrees = {s.sequence_parallel for s in manager.predictor.strategies}
        assert degrees == {1, 2, 3, 4}

    def test_sib_populated(self, manager_env):
        _, manager = manager_env
        assert manager.sib.strategies()


class TestSchedulePass:
    def test_empty_state_empty_plan(self, manager_env):
        config, manager = manager_env
        pool, instances = fresh_state(config)
        plan = manager.schedule(0.0, [], instances, pool, [], 0.0)
        assert plan.is_empty

    def test_single_request_dispatched_and_placed(self, manager_env):
        config, manager = manager_env
        pool, instances = fresh_state(config)
        request = make_request(input_len=50_000)
        plan = manager.schedule(0.0, [request], instances, pool, [], 0.0)
        assert len(plan.prefills) == 1
        planned = plan.prefills[0]
        assert planned.task.requests == [request]
        placement = planned.scale_down.per_request[request.request_id]
        assert sum(placement.values()) == request.current_len + 1
        assert set(placement) <= set(planned.task.group.instance_ids)

    def test_long_request_gets_high_dop(self, manager_env):
        config, manager = manager_env
        pool, instances = fresh_state(config)
        request = make_request(input_len=300_000)
        plan = manager.schedule(0.0, [request], instances, pool, [], 0.0)
        assert plan.prefills[0].task.dop == config.num_instances

    def test_short_request_scales_down_to_one_instance(self, manager_env):
        """The prefill DoP for a tiny request is fit-dependent (all
        strategies predict ~the constant overhead), but the proactive
        scale-down must still park its decode on a single instance."""
        config, manager = manager_env
        pool, instances = fresh_state(config)
        request = make_request(input_len=64)
        plan = manager.schedule(0.0, [request], instances, pool, [], 0.0)
        assert len(plan.prefills[0].scale_down.kept_instances) == 1

    def test_batches_use_disjoint_instances(self, manager_env):
        config, manager = manager_env
        pool, instances = fresh_state(config)
        pending = [make_request(input_len=n) for n in (60_000, 59_000, 100, 90)]
        plan = manager.schedule(0.0, pending, instances, pool, [], 0.0)
        used = [
            i for planned in plan.prefills for i in planned.task.group.instance_ids
        ]
        assert len(used) == len(set(used))

    def test_scale_up_planned_under_memory_pressure(self, manager_env):
        config, manager = manager_env
        pool, instances = fresh_state(config)
        filler = make_request(
            input_len=config.kv_slots_per_instance - 20, output_len=500
        )
        filler.generated = 10
        filler.prefill_end = 0.0
        batch = DecodeBatch(batch_id=next_batch_id())
        batch.group = ParallelGroup(instance_ids=(0,), tensor_parallel=2)
        batch.requests.append(filler)
        pool.place(filler.request_id, {0: filler.current_len})
        instances[0].assign(InstanceRole.DECODE, batch.batch_id)
        plan = manager.schedule(0.0, [], instances, pool, [batch], 0.0)
        assert plan.scale_ups
        scaled_batch, decision = plan.scale_ups[0]
        assert scaled_batch is batch
        assert decision.reason == "memory"

    def test_no_scale_up_when_disabled(self):
        config = default_config(scheduler=SchedulerConfig(enable_scale_up=False))
        cost = RooflineCostModel(cluster=config.cluster, model=config.model)
        manager = GlobalManager(config, cost)
        pool, instances = fresh_state(config)
        filler = make_request(
            input_len=config.kv_slots_per_instance - 50, output_len=500
        )
        filler.generated = 10
        batch = DecodeBatch(batch_id=next_batch_id())
        batch.group = ParallelGroup(instance_ids=(0,), tensor_parallel=2)
        batch.requests.append(filler)
        pool.place(filler.request_id, {0: filler.current_len})
        instances[0].assign(InstanceRole.DECODE, batch.batch_id)
        plan = manager.schedule(0.0, [], instances, pool, [batch], 0.0)
        assert not plan.scale_ups

    def test_prefill_consolidates_sparse_decode(self, manager_env):
        """A long prefill drains lightly-used decode instances (Eq. 3/4),
        consolidating their KV onto peers."""
        config, manager = manager_env
        pool, instances = fresh_state(config)
        batch_a = decode_batch_on(pool, instances, [0], tokens_each=200)
        batch_b = decode_batch_on(pool, instances, [1], tokens_each=200)
        request = make_request(input_len=250_000)
        plan = manager.schedule(0.0, [request], instances, pool,
                                [batch_a, batch_b], 1.0)
        assert plan.prefills
        assert plan.prefills[0].task.dop >= 3
        assert plan.decode_scale_downs  # at least one batch shrank

    def test_plan_respects_pool_capacity(self, manager_env):
        config, manager = manager_env
        pool, instances = fresh_state(config)
        total_slots = config.kv_slots_per_instance * config.num_instances
        oversize = make_request(input_len=total_slots + 10)
        plan = manager.schedule(0.0, [oversize], instances, pool, [], 0.0)
        assert not plan.prefills  # cannot place; server aborts it instead
