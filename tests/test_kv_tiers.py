"""Host/SSD KV tiers: victim policies, swap-in pricing, chaos invariants.

Three layers:

* **Store units** — LRU/FIFO/LIFO victim selection, dedup on offload,
  drop-off-the-bottom accounting, and fetch-is-a-move semantics on
  :class:`~repro.kvcache.tiers.TieredKVStore` directly.
* **Cache integration** — a prefix hit on an offloaded extent swaps it
  back up and charges the transfer to the benefiting prefill via the
  swap-debt ledger, measured end-to-end as a finish-time delta against
  an identical run that never evicted.
* **Chaos** — token conservation (every offloaded token is resident,
  swapped back in, or dropped) and no-double-residency hold under
  random store op schedules and under fleet runs with random crash +
  steal schedules.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.gpu import A800_80GB
from repro.config import SchedulerConfig, default_config
from repro.core.server import LoongServeServer
from repro.experiments.systems import make_fleet
from repro.fleet import FaultPlan, ReplicaFault
from repro.kvcache.tiers import VICTIM_POLICIES, TieredKVStore
from repro.kvcache.unified import UnifiedKVPool
from repro.sessions import make_session_trace
from repro.sessions.prefix_cache import PrefixKVCache
from repro.types import Request
from repro.workloads.trace_gen import clone_requests
from tests.conftest import gpu_with_kv_slots

# Three disjoint sequence lines (distinct first tokens), 10 tokens each.
SEQ_A = tuple(range(100, 110))
SEQ_B = tuple(range(200, 210))
SEQ_C = tuple(range(300, 310))


class TestVictimPolicies:
    def _overflow(self, policy):
        """Insert A, B, C (25-token host) with last_access order B < A < C
        and insertion order A < B < C; C's insert overflows the host tier."""
        store = TieredKVStore(
            policy=policy, host_capacity_tokens=25, ssd_capacity_tokens=100
        )
        store.offload(SEQ_A, 0, now=5.0)
        store.offload(SEQ_B, 0, now=1.0)
        store.offload(SEQ_C, 0, now=9.0)
        store.check_invariants()
        return store

    def test_lru_demotes_the_coldest(self):
        store = self._overflow("lru")
        assert [seq for seq, _, _ in store.extents("ssd")] == [SEQ_B]

    def test_fifo_demotes_the_oldest_inserted(self):
        store = self._overflow("fifo")
        assert [seq for seq, _, _ in store.extents("ssd")] == [SEQ_A]

    def test_lifo_demotes_the_newest_inserted(self):
        store = self._overflow("lifo")
        assert [seq for seq, _, _ in store.extents("ssd")] == [SEQ_C]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="victim policy"):
            TieredKVStore(policy="random")
        assert set(VICTIM_POLICIES) == {"lru", "fifo", "lifo"}


class TestStoreSemantics:
    def test_drop_off_the_bottom_is_counted(self):
        store = TieredKVStore(
            policy="fifo", host_capacity_tokens=10, ssd_capacity_tokens=10
        )
        store.offload(SEQ_A, 0, now=1.0)
        store.offload(SEQ_B, 0, now=2.0)  # A demotes to SSD
        store.offload(SEQ_C, 0, now=3.0)  # B demotes, A falls off
        store.check_invariants()
        assert store.stats.dropped_tokens == len(SEQ_A)
        assert store.resident_tokens() == 20

    def test_covered_extent_is_rejected(self):
        store = TieredKVStore(host_capacity_tokens=100)
        assert store.offload(SEQ_A, 0, now=1.0) == 10
        # The same span (and any sub-span) is already resident.
        assert store.offload(SEQ_A, 0, now=2.0) == 0
        assert store.offload(SEQ_A, 5, now=3.0) == 0
        store.check_invariants()

    def test_fetch_is_a_move_with_priced_transfer(self):
        store = TieredKVStore(host_capacity_tokens=100, bytes_per_token=1e6)
        store.offload(SEQ_A, 0, now=1.0)
        assert store.probe(SEQ_A, 0) == len(SEQ_A)
        usable, seconds = store.fetch(SEQ_A, 0, now=2.0)
        assert usable == len(SEQ_A)
        assert seconds > 0.0
        assert len(store) == 0  # swap-in moved the extent, never copied
        assert store.stats.swapped_in_tokens == len(SEQ_A)
        store.check_invariants()
        # Nothing left: a second fetch is a free no-op.
        assert store.fetch(SEQ_A, 0, now=3.0) == (0, 0.0)

    def test_fetch_without_extension_is_free(self):
        store = TieredKVStore(host_capacity_tokens=100, bytes_per_token=1e6)
        store.offload(SEQ_A, 0, now=1.0)
        # GPU residency already covers the extent: no swap.
        assert store.fetch(SEQ_A, len(SEQ_A), now=2.0) == (len(SEQ_A), 0.0)
        assert store.stats.swapped_in_tokens == 0


class TestCacheIntegration:
    def _adopt(self, cache, pool, request_id, tokens, output_len=4, now=0.0):
        prompt = tokens[:-output_len]
        request = Request(
            request_id=request_id, input_len=len(prompt),
            output_len=output_len, token_ids=tuple(prompt),
        )
        request.generated = output_len
        pool.place(request_id, {0: len(tokens) - 1})
        cache.adopt_finished(request, tuple(tokens), now=now)
        return request

    def test_offloaded_hit_swaps_back_and_charges_debt(self):
        pool = UnifiedKVPool.create(num_instances=2, slots_per_instance=1_000)
        tiers = TieredKVStore(policy="lru", bytes_per_token=1e6)
        cache = PrefixKVCache(pool, tiers=tiers)
        tokens = list(range(400, 430))
        self._adopt(cache, pool, 1, tokens, now=1.0)
        assert cache.resident_tokens == 29
        # Evict everything: the extent demotes into the host tier.
        assert cache.evict(10_000) == 29
        assert cache.resident_tokens == 0
        assert tiers.resident_tokens("host") == 29
        # A new request over the same prompt hits the offloaded extent:
        # the match is whole again and the transfer lands in the ledger.
        request = Request(
            request_id=2, input_len=26, output_len=2,
            token_ids=tuple(tokens[:26]),
        )
        matched = cache.match_and_lock(request, now=2.0)
        assert matched == 25  # capped at input_len - 1
        assert tiers.stats.swapped_in_tokens == 29
        debt = cache.take_swap_debt(2)
        assert debt > 0.0
        assert cache.take_swap_debt(2) == 0.0  # charged exactly once

    def test_swap_in_latency_lands_in_the_prefill(self):
        """The same three-request trace on one TP=2 instance, with the
        A800's memory and with a GPU that leaves 1,000 KV slots: the
        small pool holds one conversation's extent, not two, so B's
        prefill evicts (demotes) conversation A's cached KV, and A's
        second turn must swap it back up — its finish shifts by exactly
        the swap time, the only extra work the small pool adds on A's
        critical path."""
        tokens_a = tuple(range(1000, 1600))
        tokens_b = tuple(range(5000, 5600))
        trace = [
            Request(request_id=1, input_len=600, output_len=4,
                    arrival_time=0.0, token_ids=tokens_a),
            Request(request_id=2, input_len=600, output_len=4,
                    arrival_time=30.0, token_ids=tokens_b),
            Request(request_id=3, input_len=600, output_len=4,
                    arrival_time=60.0, token_ids=tokens_a),
        ]

        def run(gpu):
            config = default_config(
                num_gpus=2, gpu=gpu,
                scheduler=SchedulerConfig(
                    enable_prefix_cache=True, kv_tier_policy="lru"
                ),
            )
            server = LoongServeServer(config)
            result = server.run(clone_requests(trace))
            by_id = {r.request_id: r for r in result.requests}
            return by_id, server.prefix_cache.tiers.stats

        pure_hit, pure_stats = run(A800_80GB)
        offloaded, offl_stats = run(gpu_with_kv_slots(1_000))
        assert pure_stats.swapped_in_tokens == 0
        assert offl_stats.swapped_in_tokens == 600
        assert offl_stats.swap_in_seconds > 0.0
        # Turn 3 still hits: the swapped-in extent covers its prompt.
        assert offloaded[3].cached_prefix_len == pure_hit[3].cached_prefix_len > 0
        # Requests 1 and 2 are untouched: a demotion delays no prefill.
        assert offloaded[1].finish_time == pure_hit[1].finish_time
        assert offloaded[2].finish_time == pure_hit[2].finish_time
        delta = offloaded[3].finish_time - pure_hit[3].finish_time
        assert delta == pytest.approx(offl_stats.swap_in_seconds, rel=1e-9)

    def test_stats_dict_carries_tier_counters(self):
        pool = UnifiedKVPool.create(num_instances=2, slots_per_instance=100)
        cache = PrefixKVCache(pool, tiers=TieredKVStore())
        stats = cache.stats_dict()
        assert "tier_offloaded_tokens" in stats
        assert "tier_swapped_in_tokens" in stats
        # Without tiers the cache reports the pre-tier shape.
        bare = PrefixKVCache(UnifiedKVPool.create(2, 100))
        assert "tier_offloaded_tokens" not in bare.stats_dict()


class TestChaosInvariants:
    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=15, deadline=None)
    def test_store_invariants_hold_under_random_op_schedules(self, seed):
        rng = random.Random(seed)
        store = TieredKVStore(
            policy=rng.choice(VICTIM_POLICIES),
            host_capacity_tokens=rng.choice([0, 10, 40]),
            ssd_capacity_tokens=rng.choice([0, 20, 80]),
            bytes_per_token=1e6,
        )
        lines = [tuple(range(base, base + 30)) for base in (0, 1000, 2000)]
        for step in range(60):
            line = rng.choice(lines)
            end = rng.randint(1, len(line))
            if rng.random() < 0.6:
                store.offload(line[:end], rng.randint(0, end - 1), now=float(step))
            else:
                store.fetch(line, rng.randint(0, end), now=float(step))
            store.check_invariants()

    @given(specs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=8.0,
                      allow_nan=False, allow_infinity=False),
            st.integers(min_value=0, max_value=2),
            st.floats(min_value=0.5, max_value=4.0,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1, max_size=4,
    ))
    @settings(max_examples=8, deadline=None)
    def test_fleet_tiers_survive_random_crash_and_steal_schedules(self, specs):
        trace = make_session_trace(rate=4.0, num_sessions=5, seed=22)
        plan = FaultPlan(
            [ReplicaFault(time=t, replica_id=r, downtime_s=d)
             for t, r, d in specs]
        )
        fleet = make_fleet(
            "loongserve", replicas=3, router="affinity", requests=trace,
            num_gpus=4, prefix_cache=True, kv_tiers="lru",
            kv_host_tokens=2_000, kv_ssd_tokens=4_000,
            steal=True, migrate_kv=True, faults=plan,
        )
        result = fleet.run(clone_requests(trace))
        served = [
            r.request_id
            for replica in result.per_replica
            for r in replica.requests + replica.aborted
        ]
        assert sorted(served) == sorted(r.request_id for r in trace)
        assert len(result.finished_requests) == len(trace)
        for handle in fleet.replicas:
            tiers = handle.server.prefix_cache.tiers
            tiers.check_invariants()
            # GPU-side conservation: whatever the pool holds belongs to
            # the prefix cache, with the tiers accounting for the rest.
            assert handle.server.pool.total_used == (
                handle.server.prefix_cache.resident_tokens
            )
