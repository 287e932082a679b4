"""Tests for the elastic fleet control plane: cluster policy, autoscaler,
work stealer, KV migrator, replica mutation surface, and the
bit-identical static gate."""

import hashlib

import pytest

from repro.experiments.systems import make_fleet, make_system
from repro.fleet import (
    ClusterPolicy,
    KVMigrator,
    QueueDepthAutoscaler,
    WorkStealer,
    make_router,
)
from repro.fleet import stealing
from repro.metrics.fleet import ElasticStats, fleet_load_report
from repro.sessions import SessionSpec, make_session_trace
from repro.types import RequestState
from repro.workloads.arrival import BurstyArrivals
from repro.workloads.datasets import MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace
from tests.conftest import StubReplica, make_request


class ElasticStub(StubReplica):
    """Control-plane-facing replica stub with settable probe state."""

    def __init__(self, replica_id, queued=0, kv_used=0.0, tokens=0, free=1000,
                 matches=None):
        super().__init__(replica_id, outstanding=queued, tokens=tokens, free=free)
        self._queued = [make_request() for _ in range(queued)]
        self._kv_used = kv_used
        self._matches = matches or {}

    def queued_requests(self):
        return list(self._queued)

    def kv_used_fraction(self):
        return self._kv_used

    def outstanding_requests(self):
        return len(self._queued)

    def prefix_match_len(self, request):
        return self._matches.get(request.request_id, 0)


class TestClusterPolicy:
    def test_requires_router(self):
        with pytest.raises(ValueError):
            ClusterPolicy(router=None)

    def test_has_actuators_and_name(self):
        bare = ClusterPolicy(make_router("least-kv"))
        assert not bare.has_actuators
        assert bare.name == "least-kv"
        full = ClusterPolicy(
            make_router("affinity"),
            autoscaler=QueueDepthAutoscaler(),
            stealer=WorkStealer(),
        )
        assert full.has_actuators
        assert full.name == "affinity+autoscale+steal"

    def test_place_skips_unavailable_replicas(self):
        replicas = [ElasticStub(0), ElasticStub(1), ElasticStub(2)]
        replicas[0].draining = True
        replicas[2].online = False
        policy = ClusterPolicy(make_router("round-robin"))
        for _ in range(3):
            assert policy.place(make_request(), replicas, 0.0).replica_id == 1

    def test_place_falls_back_to_full_fleet_when_all_parked(self):
        replicas = [ElasticStub(0), ElasticStub(1)]
        for handle in replicas:
            handle.online = False
        policy = ClusterPolicy(make_router("round-robin"))
        assert policy.place(make_request(), replicas, 0.0) in replicas


class TestQueueDepthAutoscaler:
    def test_hysteresis_delays_action(self):
        scaler = QueueDepthAutoscaler()
        replicas = [ElasticStub(0, queued=10), ElasticStub(1, queued=10)]
        replicas.append(ElasticStub(2))
        replicas[2].online = False  # parked spare
        assert scaler.decide(replicas, 0.0) == []  # tick 1 of 2
        actions = scaler.decide(replicas, 0.5)
        assert actions == [("unpark", replicas[2])]

    def test_scale_in_prefers_least_loaded_and_respects_min_online(self):
        scaler = QueueDepthAutoscaler()
        replicas = [
            ElasticStub(0, tokens=500),
            ElasticStub(1, tokens=10),
            ElasticStub(2, tokens=100),
        ]
        assert scaler.decide(replicas, 0.0) == []  # tick 1 of 2
        assert scaler.decide(replicas, 0.5) == [("drain", replicas[1])]
        replicas[1].draining = True
        assert scaler.decide(replicas, 1.0) == []
        assert scaler.decide(replicas, 1.5) == [("drain", replicas[2])]
        replicas[2].draining = True
        # One accepting replica remains: min_online blocks more.
        for now in (2.0, 2.5, 3.0):
            assert scaler.decide(replicas, now) == []

    def test_kv_pressure_alone_triggers_scale_out(self):
        scaler = QueueDepthAutoscaler()
        replicas = [ElasticStub(0, kv_used=0.95), ElasticStub(1)]
        replicas[1].online = False
        assert scaler.decide(replicas, 0.0) == []  # tick 1 of 2
        actions = scaler.decide(replicas, 0.5)
        assert actions == [("unpark", replicas[1])]

    def test_unpark_prefers_cancelling_a_drain(self):
        scaler = QueueDepthAutoscaler()
        draining = ElasticStub(1, queued=0)
        draining.draining = True
        parked = ElasticStub(2)
        parked.online = False
        replicas = [ElasticStub(0, queued=10), draining, parked]
        assert scaler.decide(replicas, 0.0) == []  # tick 1 of 2
        assert scaler.decide(replicas, 0.5) == [("unpark", draining)]


class TestWorkStealer:
    def test_steals_from_deepest_to_shallowest(self):
        stealer = WorkStealer()
        replicas = [ElasticStub(0, queued=6), ElasticStub(1, queued=0)]
        moves = stealer.plan(replicas, 0.0)
        assert moves
        assert all(m.src is replicas[0] and m.dst is replicas[1] for m in moves)
        # Moves stop once the depth gap closes below the threshold.
        assert len(moves) == 3  # 6/0 -> 5/1 -> 4/2 -> 3/3 stops (gap 0 < 2)

    def test_respects_move_budget(self):
        # Closing this gap would take 1.5x the budget.
        budget = stealing.MAX_MOVES_PER_TICK
        replicas = [ElasticStub(0, queued=3 * budget), ElasticStub(1)]
        assert len(WorkStealer().plan(replicas, 0.0)) == budget

    def test_quiet_on_balanced_fleet(self):
        stealer = WorkStealer()
        replicas = [ElasticStub(0, queued=3), ElasticStub(1, queued=2)]
        assert stealer.plan(replicas, 0.0) == []

    def test_affinity_guard_blocks_hot_prefix_steals(self):
        replicas = [ElasticStub(0, queued=4), ElasticStub(1)]
        hot = {r.request_id: 5_000 for r in replicas[0]._queued}
        replicas[0]._matches = hot
        stealer = WorkStealer()
        assert stealer.plan(replicas, 0.0, can_migrate=False) == []
        # With the migrator armed the same moves are allowed (the extent
        # travels with the request).
        moves = stealer.plan(replicas, 0.0, can_migrate=True)
        assert moves and all(m.reprefill_tokens == 5_000 for m in moves)

    def test_never_plans_on_single_available_replica(self):
        replicas = [ElasticStub(0, queued=9), ElasticStub(1)]
        replicas[1].online = False
        assert WorkStealer().plan(replicas, 0.0) == []


class TestReplicaHandleMutation:
    def _handle(self, prefix_cache=False):
        from repro.fleet.server import ReplicaHandle
        from repro.sim.engine import Simulator

        handle = ReplicaHandle(
            0, make_system("loongserve", prefix_cache=prefix_cache)
        )
        handle.prepare(Simulator())
        return handle

    def test_withdraw_round_trip(self):
        src = self._handle()
        dst = self._handle()
        request = make_request(input_len=200, output_len=4)
        src.submit(request)
        assert src.queued_requests() == [request]
        assert src.withdraw(request)
        assert src.queued_requests() == []
        assert request not in src.routed
        assert request not in src.server.pending
        assert request not in src.server._all_requests
        dst.accept_stolen(request)
        assert dst.stolen_in == 1
        assert src.stolen_out == 1
        assert request in dst.routed

    def test_withdraw_refuses_started_requests(self):
        handle = self._handle()
        request = make_request()
        request.state = RequestState.PREFILLING
        assert not handle.withdraw(request)

    def test_drain_park_unpark_lifecycle(self):
        handle = self._handle()
        assert handle.available
        handle.drain()
        assert not handle.available and handle.online
        request = make_request()
        handle.submit(request)
        assert not handle.park()  # outstanding work blocks parking
        request.state = RequestState.FINISHED
        assert handle.park()
        assert not handle.online
        handle.unpark()
        assert handle.available

    def test_kv_probe_values_match_across_shapes(self):
        from repro.fleet.server import ReplicaHandle
        from repro.sim.engine import Simulator

        for name in ("loongserve", "vllm", "distserve", "replicated-tp2"):
            handle = ReplicaHandle(0, make_system(name))
            handle.prepare(Simulator())
            free = {key: pool.free for key, pool in handle.server.kv_pools()}
            assert handle.kv_free() == sum(free.values())
            assert 0.0 <= handle.kv_used_fraction() <= 1.0
            assert handle.kv_capacity() >= handle.kv_free()

    def test_prefix_export_import_between_handles(self):
        src = self._handle(prefix_cache=True)
        dst = self._handle(prefix_cache=True)
        trace = make_session_trace(rate=5.0, num_sessions=4, seed=13)
        follow_ups = [r for r in trace if r.turn > 0]
        assert follow_ups
        # Seed the source cache by serving the trace on its server.
        for request in trace:
            src.server.submit(request)
        src.server.sim.run_until_idle()
        probe = clone_requests([follow_ups[-1]])[0]
        src_match = src.prefix_match_len(probe)
        assert src_match > 0
        assert dst.prefix_match_len(probe) == 0

        tokens = src.export_prefix(probe)
        assert len(tokens) == src_match
        imported = dst.import_prefix(tokens, now=1.0)
        assert imported == src_match
        assert dst.prefix_match_len(probe) == src_match
        # Idempotent: a second import finds everything resident already.
        assert dst.import_prefix(tokens, now=2.0) == 0

    def test_resident_sequences_and_clear(self):
        handle = self._handle(prefix_cache=True)
        trace = make_session_trace(rate=5.0, num_sessions=3, seed=14)
        for request in trace:
            handle.server.submit(request)
        handle.server.sim.run_until_idle()
        sequences = handle.resident_prefix_sequences()
        assert sequences
        stamps = [stamp for stamp, _ in sequences]
        assert stamps == sorted(stamps, reverse=True)  # MRU first
        freed = handle.clear_prefix_cache()
        assert freed > 0
        assert handle.resident_prefix_sequences() == []

    def test_handles_without_cache_degrade_gracefully(self):
        handle = self._handle(prefix_cache=False)
        request = make_request()
        assert handle.export_prefix(request) == ()
        assert handle.import_prefix((1, 2, 3), now=0.0) == 0
        assert handle.resident_prefix_sequences() == []
        assert handle.clear_prefix_cache() == 0
        assert not handle.has_prefix_cache


class TestStaticGate:
    """With every actuator off, fleet behaviour must be bit-identical to
    the pre-control-plane route-once front-end.  The golden hashes are
    per-request timeline signatures recorded on the pre-PR build
    (request ids are excluded — they depend on test execution order).
    Only update them for an *intentional* scheduling change."""

    @staticmethod
    def _signature(result):
        signature = sorted(
            (r.input_len, r.output_len, round(r.arrival_time, 9),
             round(r.prefill_end, 9), round(r.first_token_time, 9),
             round(r.finish_time, 9), r.preemptions)
            for r in result.requests
        )
        return hashlib.md5(repr(signature).encode()).hexdigest()

    def test_mixed_least_kv_fleet_is_bit_identical(self):
        trace = make_trace(MIXED, rate=4.0, num_requests=30, seed=7)
        fleet = make_fleet(
            "loongserve", replicas=3, router="least-kv", requests=trace
        )
        result = fleet.run(clone_requests(trace))
        assert self._signature(result) == "8122bb3adaa19bf6518c165082fbc8a7"
        assert result.elastic is None

    def test_sessions_affinity_fleet_is_bit_identical(self):
        trace = make_session_trace(rate=0.8, num_sessions=10, seed=5)
        fleet = make_fleet(
            "loongserve", replicas=2, router="affinity",
            requests=trace, prefix_cache=True,
        )
        result = fleet.run(clone_requests(trace))
        assert self._signature(result) == "78b843cd0ebb16e37980fdedb9e90ea0"
        assert result.elastic is None

    def test_migrate_kv_requires_prefix_cache(self):
        with pytest.raises(ValueError, match="prefix_cache"):
            make_fleet("loongserve", replicas=2, migrate_kv=True)


class TestControlLoopEndToEnd:
    def _bursty_trace(self, rate=4.0, count=40, seed=17):
        return make_trace(
            MIXED, rate=rate, num_requests=count, seed=seed,
            arrivals=BurstyArrivals(rate=rate),
        )

    def test_every_request_served_exactly_once_with_stealing(self):
        trace = self._bursty_trace()
        fleet = make_fleet(
            "loongserve", replicas=4, router="round-robin",
            requests=trace, steal=True,
        )
        result = fleet.run(clone_requests(trace))
        served = [
            r.request_id
            for replica in result.per_replica
            for r in replica.requests + replica.aborted
        ]
        assert sorted(served) == sorted(r.request_id for r in trace)
        assert len(set(served)) == len(served)
        assert result.elastic.stolen_requests > 0
        assert len(result.finished_requests) == len(trace)

    def test_autoscaler_records_capacity_timeline(self):
        trace = self._bursty_trace()
        fleet = make_fleet(
            "loongserve", replicas=4, router="round-robin",
            requests=trace, autoscale=True,
        )
        result = fleet.run(clone_requests(trace))
        elastic = result.elastic
        assert elastic.control_ticks > 0
        assert elastic.capacity_timeline[0] == (0.0, 4)
        onlines = [online for _, online in elastic.capacity_timeline]
        assert all(1 <= online <= 4 for online in onlines)
        # The cold phases of a bursty trace must trigger scale-in.
        assert elastic.scale_downs > 0
        assert elastic.replica_seconds(result.makespan) < 4 * result.makespan
        assert len(result.finished_requests) == len(trace)

    def test_rerun_is_clean_with_actuators(self):
        trace = self._bursty_trace(count=25)
        fleet = make_fleet(
            "loongserve", replicas=3, router="round-robin",
            requests=trace, autoscale=True, steal=True,
        )
        first = fleet.run(clone_requests(trace))
        second = fleet.run(clone_requests(trace))
        lat_a = sorted(r.normalized_latency for r in first.finished_requests)
        lat_b = sorted(r.normalized_latency for r in second.finished_requests)
        assert lat_a == pytest.approx(lat_b)
        assert (
            first.elastic.capacity_timeline == second.elastic.capacity_timeline
        )

    def test_kv_migration_preserves_hit_rate_after_scale_in(self):
        """Acceptance gate: rebalanced sessions keep >= 80% of the static
        affinity router's token hit rate."""
        spec = SessionSpec(think_time_mean_s=45.0, mean_turns=3.0)
        trace = make_session_trace(spec, rate=3.0, num_sessions=14, seed=11)

        def hit_rate(result):
            cache = result.cache_stats or {}
            total = cache.get("hit_tokens", 0) + cache.get("miss_tokens", 0)
            return cache.get("hit_tokens", 0) / total if total else 0.0

        static = make_fleet(
            "loongserve", replicas=2, router="affinity",
            requests=trace, prefix_cache=True,
        ).run(clone_requests(trace))
        migrated = make_fleet(
            "loongserve", replicas=2, router="affinity",
            requests=trace, prefix_cache=True,
            autoscale=True, steal=True, migrate_kv=True,
        ).run(clone_requests(trace))

        assert hit_rate(static) > 0.5  # the scenario has real affinity value
        assert migrated.elastic.scale_downs > 0  # a rebalance happened
        assert migrated.elastic.migrated_kv_tokens > 0
        assert hit_rate(migrated) >= 0.8 * hit_rate(static)

    def test_migration_charges_wall_clock_on_stolen_requests(self):
        """A steal-coupled migration must delay the stolen request's
        re-submission by the modelled transfer time (not teleport KV)."""
        from repro.fleet.control import FleetController
        from repro.fleet.server import ReplicaHandle
        from repro.sim.engine import Simulator
        from repro.costmodel.comm import CollectiveModel

        sim = Simulator()
        src = ReplicaHandle(0, make_system("loongserve", prefix_cache=True))
        dst = ReplicaHandle(1, make_system("loongserve", prefix_cache=True))
        src.prepare(sim)
        dst.prepare(sim)
        trace = make_session_trace(rate=5.0, num_sessions=4, seed=13)
        for request in trace:
            src.submit(request)
        sim.run_until_idle()

        # Two queued follow-ups on src open the stealer's depth gap; it
        # takes the tail of the queue.
        queued = clone_requests([r for r in trace if r.turn > 0])[-2:]
        for request in queued:
            request.arrival_time = sim.now
            src.submit(request)
        follow_up = queued[-1]
        config = src.server.config
        policy = ClusterPolicy(
            make_router("affinity"),
            stealer=WorkStealer(),
            migrator=KVMigrator(
                collectives=CollectiveModel(cluster=config.cluster),
                model=config.model,
                tensor_parallel=config.tensor_parallel,
            ),
        )
        stats = ElasticStats()
        controller = FleetController(
            policy=policy, replicas=[src, dst], sim=sim, stats=stats,
        )
        # Withdraw-and-migrate directly (one tick's steal execution).
        controller._steal()
        assert stats.stolen_requests == 1
        assert stats.migrated_kv_tokens > 0
        assert stats.migration_seconds > 0
        # The export/import ledger balances: exports are charged only
        # for tokens the destination actually installed.
        assert (
            src.server.prefix_cache.stats.exported_tokens
            == dst.server.prefix_cache.stats.imported_tokens
            == stats.migrated_kv_tokens
        )
        # The request is in flight behind its KV: not yet queued on dst.
        assert follow_up not in dst.routed
        sim.run_until_idle()
        assert follow_up in dst.routed
        assert follow_up.finished


class TestElasticStats:
    def test_capacity_timeline_dedup_and_replica_seconds(self):
        stats = ElasticStats()
        stats.record_capacity(0.0, 4)
        stats.record_capacity(1.0, 4)  # no transition: deduplicated
        stats.record_capacity(10.0, 2)
        stats.record_capacity(20.0, 3)
        assert stats.capacity_timeline == [(0.0, 4), (10.0, 2), (20.0, 3)]
        # 4*10 + 2*10 + 3*10 over a 30s makespan.
        assert stats.replica_seconds(30.0) == pytest.approx(90.0)

    def test_render_mentions_every_actuator(self):
        stats = ElasticStats()
        stats.record_capacity(0.0, 2)
        stats.record_action(1.0, "park", 1)
        stats.stolen_requests = 3
        stats.steal_reprefill_tokens = 1200
        stats.migrated_kv_tokens = 900
        stats.migrations = 2
        rendered = stats.render(makespan=10.0)
        assert "replicas online" in rendered
        assert "work stealing: 3 requests" in rendered
        assert "kv migration: 900 tokens" in rendered

    def test_load_report_includes_elastic_block(self):
        trace = make_trace(SHAREGPT, rate=10.0, num_requests=12, seed=3)
        fleet = make_fleet(
            "loongserve", replicas=2, requests=trace, autoscale=True
        )
        result = fleet.run(clone_requests(trace))
        report = fleet_load_report(
            result.per_replica, elastic=result.elastic, makespan=result.makespan
        )
        rendered = report.render()
        assert "replicas online" in rendered
        assert "work stealing" in rendered
        # Static reports stay unchanged.
        static = fleet_load_report(result.per_replica)
        assert "replicas online" not in static.render()


class TestElasticCLI:
    def test_serve_with_actuators_prints_timeline(self, capsys):
        from repro.__main__ import main as repro_main

        code = repro_main(
            ["serve", "--replicas", "3", "--router", "least-kv",
             "--dataset", "mixed", "--rate", "6", "-n", "15", "--seed", "9",
             "--autoscale", "--steal"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "least-kv+autoscale+steal" in out
        assert "replicas online" in out
        assert "work stealing" in out

    def test_migrate_kv_requires_prefix_cache_flag(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(
            ["serve", "--replicas", "2", "--migrate-kv"]
        ) == 2
        assert "--prefix-cache" in capsys.readouterr().err

    def test_actuators_require_a_fleet(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(["serve", "--steal"]) == 2
        assert "--replicas" in capsys.readouterr().err
