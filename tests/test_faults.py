"""Tests for failure injection: fault plans, the server crash surface,
replica handle lifecycle, controller failover, warm-up-aware
autoscaling, the faults-disabled golden gate, and the CLI flags."""

import hashlib

import pytest

from repro.costmodel.latency import ReplicaLifecycleModel
from repro.experiments.systems import make_fleet, make_system
from repro.fleet import (
    AutoscalerConfig,
    ClusterPolicy,
    FaultInjector,
    FaultPlan,
    FleetController,
    FleetServer,
    QueueDepthAutoscaler,
    ReplicaFault,
    ReplicaHandle,
    StealConfig,
    WorkStealer,
    make_router,
    reset_for_failover,
)
from repro.metrics.fleet import ElasticStats
from repro.sessions import make_session_trace
from repro.sim.engine import Simulator
from repro.types import RequestState
from repro.workloads.datasets import MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace
from tests.conftest import StubReplica, make_request


class TestFaultPlan:
    def test_fault_validation(self):
        with pytest.raises(ValueError):
            ReplicaFault(time=-1.0, replica_id=0)
        with pytest.raises(ValueError):
            ReplicaFault(time=1.0, replica_id=-1)
        with pytest.raises(ValueError):
            ReplicaFault(time=1.0, replica_id=0, downtime_s=0.0)
        # Non-finite times would poison the simulator's event heap.
        with pytest.raises(ValueError):
            ReplicaFault(time=float("nan"), replica_id=0)
        with pytest.raises(ValueError):
            ReplicaFault(time=float("inf"), replica_id=0)
        with pytest.raises(ValueError):
            ReplicaFault(time=1.0, replica_id=0, downtime_s=float("inf"))

    def test_plan_sorts_and_reports(self):
        plan = FaultPlan.scripted((9.0, 1), (3.0, 2), (3.0, 0))
        assert [(f.time, f.replica_id) for f in plan] == [
            (3.0, 0), (3.0, 2), (9.0, 1),
        ]
        assert len(plan) == 3 and plan
        assert plan.max_replica_id == 2
        empty = FaultPlan()
        assert not empty and len(empty) == 0
        assert empty.max_replica_id == -1

    def test_poisson_is_deterministic_in_seed(self):
        a = FaultPlan.poisson(num_replicas=4, horizon_s=300.0, mtbf_s=60.0, seed=7)
        b = FaultPlan.poisson(num_replicas=4, horizon_s=300.0, mtbf_s=60.0, seed=7)
        c = FaultPlan.poisson(num_replicas=4, horizon_s=300.0, mtbf_s=60.0, seed=8)
        assert a.faults == b.faults
        assert a.faults != c.faults
        assert a  # a 300s horizon at 60s MTBF essentially always crashes
        assert all(0 <= f.time < 300.0 for f in a)
        assert all(0 <= f.replica_id < 4 for f in a)

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.poisson(num_replicas=0, horizon_s=10.0, mtbf_s=5.0)
        with pytest.raises(ValueError):
            FaultPlan.poisson(num_replicas=1, horizon_s=-1.0, mtbf_s=5.0)
        with pytest.raises(ValueError):
            FaultPlan.poisson(num_replicas=1, horizon_s=10.0, mtbf_s=0.0)

    def test_injector_reset_clears_ledger(self):
        injector = FaultInjector(plan=FaultPlan.scripted((1.0, 0)))
        injector.note_injected(injector.plan.faults[0])
        injector.note_skipped(injector.plan.faults[0])
        injector.reset()
        assert injector.injected == [] and injector.skipped == []


class TestResetForFailover:
    def test_queued_request_charges_nothing(self):
        request = make_request(input_len=500, output_len=10)
        assert reset_for_failover(request) == 0
        assert request.state == RequestState.PENDING
        assert request.preemptions == 0

    def test_inflight_request_charges_full_recompute(self):
        request = make_request(input_len=500, output_len=10)
        request.state = RequestState.DECODING
        request.generated = 4
        request.cached_prefix_len = 100
        assert reset_for_failover(request) == 504
        assert request.state == RequestState.PENDING
        assert request.generated == 0
        assert request.cached_prefix_len == 0
        assert request.preemptions == 1


class TestServerCrash:
    def test_crash_orphans_unfinished_and_wipes_kv(self):
        server = make_system("loongserve")
        trace = make_trace(SHAREGPT, rate=50.0, num_requests=8, seed=3)
        sim = Simulator()
        server.use_simulator(sim)
        for request in trace:
            server.submit(request)
        sim.run(until=1.0)  # mid-flight: some prefilled, none finished all
        assert server.pool.total_used > 0
        orphans, lost = server.crash()
        finished_before = len(server.finished)
        assert lost > 0
        assert server.pool.total_used == 0
        assert not server.pending and not server.decode_batches
        assert {r.request_id for r in orphans} == {
            r.request_id for r in trace if not r.finished
        }
        assert all(not r.finished for r in orphans)
        # Stale completions from before the crash must be dead: draining
        # the queue neither serves the orphans nor corrupts anything.
        sim.run_until_idle()
        assert len(server.finished) == finished_before
        assert server.pool.total_used == 0

    def test_crash_preserves_finished_history_and_cache_ledger(self):
        server = make_system("loongserve", prefix_cache=True)
        trace = make_session_trace(rate=5.0, num_sessions=3, seed=14)
        sim = Simulator()
        server.use_simulator(sim)
        for request in trace:
            server.submit(request)
        sim.run_until_idle()
        finished = len(server.finished)
        stats_before = server.prefix_cache.stats
        assert finished == len(trace)
        assert server.prefix_cache.resident_tokens > 0
        orphans, lost = server.crash()
        assert orphans == []  # everything had finished
        assert lost > 0  # the cache extents died with the pool
        assert server.prefix_cache.resident_tokens == 0
        assert server.prefix_cache.stats is stats_before  # ledger survives
        assert len(server.finished) == finished

    def test_crashed_server_serves_fresh_work(self):
        server = make_system("loongserve")
        sim = Simulator()
        server.use_simulator(sim)
        server.submit(make_request(input_len=100, output_len=4))
        sim.run(until=0.001)
        server.crash()
        fresh = make_request(input_len=100, output_len=4)
        server.submit(fresh)
        sim.run_until_idle()
        assert fresh.finished


class TestReplicaHandleCrash:
    def test_crash_prunes_routed_and_goes_offline(self):
        handle = ReplicaHandle(0, make_system("loongserve"))
        handle.prepare(Simulator())
        request = make_request()
        handle.submit(request)
        free_before = handle.kv_free()
        orphans, _ = handle.crash()
        assert orphans == [request]
        assert handle.routed == []
        assert handle.crashed and not handle.online and not handle.placeable
        assert handle.kv_free() == free_before  # probes see the fresh pool

    def test_warmup_lifecycle(self):
        handle = ReplicaHandle(0, make_system("loongserve"))
        handle.prepare(Simulator())
        handle.crash()
        handle.begin_warmup()
        assert handle.warming and not handle.online and not handle.placeable
        handle.complete_warmup()
        assert handle.available and handle.placeable
        assert not handle.crashed and not handle.warming

    def test_prepare_clears_fault_state(self):
        handle = ReplicaHandle(0, make_system("loongserve"))
        handle.prepare(Simulator())
        handle.crash()
        handle.prepare(Simulator())
        assert handle.available and not handle.crashed and not handle.warming

    def test_uncrashable_server_raises(self):
        handle = ReplicaHandle(0, make_system("vllm"))
        handle.prepare(Simulator())
        with pytest.raises(TypeError, match="failure injection"):
            handle.crash()

    def test_make_fleet_rejects_uncrashable_systems(self):
        with pytest.raises(ValueError, match="crashable"):
            make_fleet("vllm", replicas=2, faults=FaultPlan.scripted((1.0, 0)))

    def test_make_fleet_rejects_out_of_range_fault_targets(self):
        with pytest.raises(ValueError, match="only 2 replicas"):
            make_fleet("loongserve", replicas=2,
                       faults=FaultPlan.scripted((1.0, 5)))


class TestControllerFailover:
    def _run_faulted(self, faults, *, trace=None, replicas=3, **kwargs):
        trace = trace if trace is not None else make_trace(
            MIXED, rate=6.0, num_requests=24, seed=7
        )
        fleet = make_fleet(
            "loongserve", replicas=replicas, router="round-robin",
            requests=trace, faults=faults, **kwargs,
        )
        return trace, fleet.run(clone_requests(trace))

    def test_no_request_lost_or_duplicated(self):
        trace, result = self._run_faulted(FaultPlan.scripted((4.0, 0)))
        served = [
            r.request_id
            for replica in result.per_replica
            for r in replica.requests + replica.aborted
        ]
        assert sorted(served) == sorted(r.request_id for r in trace)
        assert len(set(served)) == len(served)
        assert len(result.finished_requests) == len(trace)

    def test_crash_ledger_and_availability_timeline(self):
        _, result = self._run_faulted(
            FaultPlan.scripted((4.0, 0), downtime_s=5.0)
        )
        elastic = result.elastic
        assert elastic.crashes == 1
        assert elastic.lost_kv_tokens > 0
        assert elastic.failovers > 0
        actions = [a for _, a, _ in elastic.scaling_log]
        assert "crash" in actions and "recover" in actions and "online" in actions
        onlines = [n for _, n in elastic.capacity_timeline]
        assert min(onlines) == 2  # the dip
        assert onlines[-1] == 3  # and the recovery
        assert elastic.availability(result.makespan) < 1.0
        assert elastic.warmup_seconds > 0  # recovery paid the warm-up

    def test_recovered_replica_serves_again(self):
        trace = make_trace(MIXED, rate=4.0, num_requests=40, seed=9)
        _, result = self._run_faulted(
            FaultPlan.scripted((3.0, 1), downtime_s=2.0), trace=trace
        )
        crashed_replica = result.per_replica[1]
        late = [
            r for r in crashed_replica.requests
            if r.arrival_time > 3.0 + 2.0
        ]
        assert late  # round-robin sent it fresh work after recovery

    def test_fault_on_offline_replica_is_absorbed(self):
        # Two faults on the same replica, the second inside the first's
        # downtime window: it must be skipped, not double-crash.
        trace, result = self._run_faulted(
            FaultPlan.scripted((4.0, 0), (5.0, 0), downtime_s=30.0)
        )
        elastic = result.elastic
        assert elastic.crashes == 1
        assert ("crash-skipped" in [a for _, a, _ in elastic.scaling_log])
        assert len(result.finished_requests) == len(trace)

    def test_all_replicas_crashed_holds_arrivals_in_limbo(self):
        trace = make_trace(SHAREGPT, rate=2.0, num_requests=10, seed=5)
        plan = FaultPlan.scripted((0.5, 0), (0.5, 1), downtime_s=4.0)
        trace, result = self._run_faulted(plan, trace=trace, replicas=2)
        elastic = result.elastic
        assert elastic.crashes == 2
        assert 0 in [n for _, n in elastic.capacity_timeline]
        # Arrivals during the outage waited in limbo and were served
        # after recovery — none lost.
        assert len(result.finished_requests) == len(trace)

    def test_instant_recovery_records_capacity_at_fire_time(self):
        """With warm-up modelling off, a crash recovery must still land
        on the capacity/availability timeline the moment it fires, not a
        control tick later."""
        trace = make_trace(MIXED, rate=6.0, num_requests=24, seed=7)
        fleet = FleetServer(
            [make_system("loongserve", requests=trace) for _ in range(3)],
            policy=ClusterPolicy(
                make_router("round-robin"),
                injector=FaultInjector(
                    plan=FaultPlan.scripted((4.0, 0), downtime_s=5.0)
                ),
                lifecycle=None,
            ),
        )
        result = fleet.run(clone_requests(trace))
        elastic = result.elastic
        assert elastic.warmup_seconds == 0.0
        times = {a: t for t, a, _ in elastic.scaling_log}
        assert times["online"] == pytest.approx(times["recover"])
        recovery_entry = next(
            (t, n) for t, n in elastic.capacity_timeline if n == 3 and t > 0
        )
        assert recovery_entry[0] == pytest.approx(times["recover"])

    def test_crash_changes_behaviour(self):
        trace = make_trace(MIXED, rate=6.0, num_requests=24, seed=7)
        _, faulted = self._run_faulted(FaultPlan.scripted((4.0, 0)), trace=trace)
        clean = make_fleet(
            "loongserve", replicas=3, router="round-robin", requests=trace
        ).run(clone_requests(trace))
        lat_faulted = sorted(r.end_to_end_latency for r in faulted.finished_requests)
        lat_clean = sorted(r.end_to_end_latency for r in clean.finished_requests)
        assert lat_faulted != lat_clean


class TestMidMigrationRescue:
    def test_destination_crash_rescues_inflight_stolen_request(self):
        from repro.costmodel.comm import CollectiveModel
        from repro.fleet import KVMigrator

        sim = Simulator()
        src = ReplicaHandle(0, make_system("loongserve", prefix_cache=True))
        dst = ReplicaHandle(1, make_system("loongserve", prefix_cache=True))
        src.prepare(sim)
        dst.prepare(sim)
        trace = make_session_trace(rate=5.0, num_sessions=4, seed=13)
        for request in trace:
            src.submit(request)
        sim.run_until_idle()

        follow_up = clone_requests([r for r in trace if r.turn > 0])[-1]
        follow_up.arrival_time = sim.now
        src.submit(follow_up)
        config = src.server.config
        policy = ClusterPolicy(
            make_router("affinity"),
            stealer=WorkStealer(StealConfig(min_queue_gap=1)),
            migrator=KVMigrator(
                collectives=CollectiveModel(cluster=config.cluster),
                model=config.model,
                tensor_parallel=config.tensor_parallel,
            ),
            injector=FaultInjector(plan=FaultPlan()),
        )
        stats = ElasticStats()
        controller = FleetController(
            policy=policy, replicas=[src, dst], sim=sim, stats=stats,
        )
        controller._steal()
        assert stats.stolen_requests == 1
        assert controller._deliveries  # the rider is in flight toward dst
        # dst dies before the KV lands: the rider must be rescued, and
        # with affinity placement it goes home to src's surviving copy.
        controller._inject(ReplicaFault(time=sim.now, replica_id=1))
        assert stats.rescued_inflight == 1
        assert not controller._deliveries
        assert follow_up in src.routed
        sim.run_until_idle()
        assert follow_up.finished
        # The request never reached dst's ledger.
        assert follow_up not in dst.routed


class LifecycleStub(StubReplica):
    """Controller-facing replica stub with the full mutation surface."""

    def __init__(self, replica_id, queued=0):
        super().__init__(replica_id)
        self.queued = queued
        self.log = []
        self.submitted = []

    def queued_requests(self):
        return [object()] * self.queued

    def kv_used_fraction(self):
        return 0.0

    def outstanding_requests(self):
        return self.queued

    def outstanding_tokens(self):
        return self.queued * 100

    def drain(self):
        self.draining = True
        self.log.append("drain")

    def park(self):
        self.online = False
        self.draining = False
        self.log.append("park")
        return True

    def unpark(self):
        self.online = True
        self.draining = False
        self.log.append("unpark")

    def begin_warmup(self):
        self.warming = True
        self.online = False
        self.draining = False
        self.log.append("begin_warmup")

    def complete_warmup(self):
        self.warming = False
        self.crashed = False
        self.online = True
        self.log.append("complete_warmup")

    def clear_prefix_cache(self):
        return 0

    def submit(self, request):
        self.submitted.append(request)


class TestFailoverPlacementFallback:
    def test_orphans_reach_parked_replica_not_limbo(self):
        """Orphans must take the same placement fallback arrivals do: a
        parked-but-healthy replica serves them, limbo is only for the
        everything-dead case."""
        sim = Simulator()
        parked = LifecycleStub(0)
        parked.online = False  # healthy, just scaled in: placeable
        dead = LifecycleStub(1)
        dead.online = False
        dead.crashed = True
        policy = ClusterPolicy(
            make_router("round-robin"),
            injector=FaultInjector(plan=FaultPlan()),
        )
        controller = FleetController(
            policy=policy, replicas=[parked, dead], sim=sim,
            stats=ElasticStats(),
        )
        orphan = make_request()
        controller._failover([orphan], now=0.0)
        assert parked.submitted == [orphan]
        assert controller._limbo == []
        # With the parked replica also gone, limbo catches the orphan.
        parked.crashed = True
        other = make_request()
        controller._failover([other], now=0.0)
        assert controller._limbo == [other]


class TestAvailabilityAccounting:
    def test_autoscaler_parking_is_not_unavailability(self):
        stats = ElasticStats()
        stats.record_capacity(0.0, 4)
        stats.record_capacity(10.0, 2)  # two replicas parked on purpose
        assert stats.availability(100.0) == 1.0

    def test_fault_outages_lower_availability(self):
        stats = ElasticStats()
        stats.record_capacity(0.0, 4)
        stats.note_outage_start(10.0, 0)
        stats.note_outage_end(30.0, 0)
        stats.note_outage_start(90.0, 1)  # still down when the run ends
        # (20 + 10) lost of 4 * 100 peak replica-seconds.
        assert stats.fault_downtime_seconds(100.0) == pytest.approx(30.0)
        assert stats.availability(100.0) == pytest.approx(1.0 - 30.0 / 400.0)

    def test_outage_end_ignores_plain_unparks(self):
        stats = ElasticStats()
        stats.record_capacity(0.0, 2)
        stats.note_outage_end(5.0, 0)  # autoscaler unpark: no open outage
        assert stats.fault_outages == []
        assert stats.availability(10.0) == 1.0


class TestWarmupAwareAutoscaling:
    def test_unpark_target_skips_warming_and_crashed(self):
        scaler = QueueDepthAutoscaler(AutoscalerConfig(hysteresis_ticks=1))
        busy = LifecycleStub(0, queued=10)
        warming = LifecycleStub(1)
        warming.begin_warmup()
        crashed = LifecycleStub(2)
        crashed.online = False
        crashed.crashed = True
        assert scaler.decide([busy, warming, crashed], 0.0) == []
        parked = LifecycleStub(3)
        parked.online = False
        actions = scaler.decide([busy, warming, crashed, parked], 0.5)
        assert actions == [("unpark", parked)]

    def test_warming_replica_suppresses_scale_in(self):
        scaler = QueueDepthAutoscaler(AutoscalerConfig(hysteresis_ticks=1))
        idle_a, idle_b = LifecycleStub(0), LifecycleStub(1)
        warming = LifecycleStub(2)
        warming.begin_warmup()
        # Underloaded, but capacity is in flight: no drain, cold streak
        # stays at zero until the warm-up lands.
        for now in (0.0, 0.5, 1.0):
            assert scaler.decide([idle_a, idle_b, warming], now) == []
        assert scaler._cold_ticks == 0
        warming.complete_warmup()
        assert scaler.decide([idle_a, idle_b, warming], 1.5) != []

    def test_unpark_pays_warmup_before_coming_online(self):
        sim = Simulator()
        busy = LifecycleStub(0, queued=10)
        parked = LifecycleStub(1)
        parked.online = False
        policy = ClusterPolicy(
            make_router("round-robin"),
            autoscaler=QueueDepthAutoscaler(AutoscalerConfig(hysteresis_ticks=1)),
            lifecycle=ReplicaLifecycleModel(warmup_s=2.0, cooldown_s=0.5),
        )
        stats = ElasticStats()
        controller = FleetController(
            policy=policy, replicas=[busy, parked], sim=sim, stats=stats,
            interval=0.5, work_remaining=lambda: True,
        )
        controller.start()
        sim.run(until=1.0)
        assert parked.warming and not parked.online  # decided, not yet up
        sim.run(until=2.4)
        assert parked.warming  # 2s warm-up spans four control intervals
        sim.run(until=2.6)
        assert parked.online and not parked.warming
        assert stats.warmup_seconds == pytest.approx(2.0)
        times = dict((a, t) for t, a, _ in stats.scaling_log)
        assert times["online"] - times["unpark"] == pytest.approx(2.0)

    def test_no_flap_park_when_warmup_exceeds_control_interval(self):
        """The satellite gate: a replica whose warm-up spans several
        control intervals must not be drained the moment it lands, even
        though the fleet looked cold for the whole warm-up."""
        sim = Simulator()
        busy = LifecycleStub(0, queued=10)
        parked = LifecycleStub(1)
        parked.online = False
        hysteresis = 2
        policy = ClusterPolicy(
            make_router("round-robin"),
            autoscaler=QueueDepthAutoscaler(
                AutoscalerConfig(hysteresis_ticks=hysteresis)
            ),
            lifecycle=ReplicaLifecycleModel(warmup_s=3.0, cooldown_s=0.0),
        )
        stats = ElasticStats()
        controller = FleetController(
            policy=policy, replicas=[busy, parked], sim=sim, stats=stats,
            interval=0.5, work_remaining=lambda: True,
        )
        controller.start()
        sim.run(until=1.6)  # hysteresis x interval: the unpark decision fires
        assert parked.warming
        busy.queued = 0  # the burst ends while the replica still warms
        online_at = None
        drain_at = None
        t = 1.6
        while t < 8.0 and drain_at is None:
            t += 0.1
            sim.run(until=t)
            if parked.online and online_at is None:
                online_at = sim.now
            if any(a == "drain" for _, a, _ in stats.scaling_log):
                drain_at = sim.now
        assert online_at is not None
        assert drain_at is not None  # the idle replica is eventually drained
        # ...but never while it was still warming (without the guard the
        # cold streak would have drained it at ~2.5s, mid-warm-up), and
        # only after the cold hysteresis re-accumulated from zero once
        # it came online.
        assert drain_at > online_at
        assert drain_at - online_at >= (hysteresis - 1) * 0.5 - 1e-9

    def test_park_charges_cooldown(self):
        sim = Simulator()
        draining = LifecycleStub(0)
        draining.draining = True
        other = LifecycleStub(1, queued=1)
        policy = ClusterPolicy(
            make_router("round-robin"),
            autoscaler=QueueDepthAutoscaler(),
            lifecycle=ReplicaLifecycleModel(warmup_s=1.0, cooldown_s=0.7),
        )
        stats = ElasticStats()
        controller = FleetController(
            policy=policy, replicas=[draining, other], sim=sim, stats=stats,
        )
        controller._park_drained()
        assert not draining.online
        assert stats.cooldown_seconds == pytest.approx(0.7)
        assert stats.paid_replica_seconds(0.0) == pytest.approx(0.7)


class TestFaultsDisabledGoldenGate:
    """FaultInjector disabled ⇒ bit-identical to the pre-fault build.
    The stored hashes are the PR 3 static-gate signatures; an empty
    fault plan must reproduce them exactly (same pattern as the
    all-actuators-off gate in test_elastic_fleet.py)."""

    @staticmethod
    def _signature(result):
        signature = sorted(
            (r.input_len, r.output_len, round(r.arrival_time, 9),
             round(r.prefill_end, 9), round(r.first_token_time, 9),
             round(r.finish_time, 9), r.preemptions)
            for r in result.requests
        )
        return hashlib.md5(repr(signature).encode()).hexdigest()

    def test_empty_plan_arms_no_injector(self):
        fleet = make_fleet("loongserve", replicas=2, faults=FaultPlan())
        assert fleet.policy.injector is None
        assert not fleet.policy.has_actuators

    def test_empty_plan_keeps_pr3_static_signature(self):
        trace = make_trace(MIXED, rate=4.0, num_requests=30, seed=7)
        fleet = make_fleet(
            "loongserve", replicas=3, router="least-kv", requests=trace,
            faults=FaultPlan(),
        )
        result = fleet.run(clone_requests(trace))
        assert self._signature(result) == "8122bb3adaa19bf6518c165082fbc8a7"

    def test_empty_plan_keeps_pr3_sessions_signature(self):
        trace = make_session_trace(rate=0.8, num_sessions=10, seed=5)
        fleet = make_fleet(
            "loongserve", replicas=2, router="affinity",
            requests=trace, prefix_cache=True, faults=FaultPlan(),
        )
        result = fleet.run(clone_requests(trace))
        assert self._signature(result) == "78b843cd0ebb16e37980fdedb9e90ea0"

    def test_armed_injector_with_unreached_fault_matches_fault_free(self):
        """A fault scheduled far beyond the trace horizon never fires
        (the controller cancels it once the fleet drains): per-request
        timelines must match the injector-free run bit for bit."""
        trace = make_trace(MIXED, rate=6.0, num_requests=20, seed=3)
        armed = make_fleet(
            "loongserve", replicas=3, router="least-kv", requests=trace,
            faults=FaultPlan.scripted((1e9, 0)),
        )
        bare = make_fleet(
            "loongserve", replicas=3, router="least-kv", requests=trace,
        )
        armed_result = armed.run(clone_requests(trace))
        bare_result = bare.run(clone_requests(trace))
        assert self._signature(armed_result) == self._signature(bare_result)
        assert armed_result.elastic.crashes == 0
        # The cancelled fault must not stretch the simulation.
        assert armed_result.makespan < 1e9


class TestRerunIndependence:
    """The reset() audit satellite: injector, migration, stealing, and
    autoscaler state must all clear between runs of one fleet object, so
    repeated experiment invocations in one process are independent."""

    def test_faulted_fleet_reruns_identically(self):
        trace = make_session_trace(rate=3.0, num_sessions=8, seed=11)
        fleet = make_fleet(
            "loongserve", replicas=3, router="affinity", requests=trace,
            prefix_cache=True, autoscale=True, steal=True, migrate_kv=True,
            faults=FaultPlan.scripted((5.0, 0), downtime_s=8.0),
        )
        first = fleet.run(clone_requests(trace))
        first_injected = list(fleet.policy.injector.injected)
        second = fleet.run(clone_requests(trace))
        lat_a = sorted(r.normalized_latency for r in first.finished_requests)
        lat_b = sorted(r.normalized_latency for r in second.finished_requests)
        assert lat_a == pytest.approx(lat_b)
        assert first.elastic.capacity_timeline == second.elastic.capacity_timeline
        assert first.elastic.scaling_log == second.elastic.scaling_log
        assert first.elastic.crashes == second.elastic.crashes == 1
        assert fleet.policy.injector.injected == first_injected

    def test_policy_reset_reaches_injector(self):
        injector = FaultInjector(plan=FaultPlan.scripted((1.0, 0)))
        injector.note_injected(injector.plan.faults[0])
        policy = ClusterPolicy(make_router("round-robin"), injector=injector)
        policy.reset()
        assert injector.injected == []


class TestFaultCLI:
    def test_serve_with_scripted_fault_prints_fault_block(self, capsys):
        from repro.__main__ import main as repro_main

        code = repro_main(
            ["serve", "--replicas", "2", "--dataset", "mixed", "--rate", "6",
             "-n", "16", "--seed", "9", "--fault-at", "2:0",
             "--fault-downtime", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "+faults" in out
        assert "faults: 1 crashes" in out
        assert "availability" in out

    def test_fault_flags_need_a_fleet(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(["serve", "--fault-at", "2:0"]) == 2
        assert "--replicas" in capsys.readouterr().err

    def test_fault_flags_need_crashable_system(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(
            ["serve", "--system", "vllm", "--replicas", "2",
             "--fault-at", "2:0"]
        ) == 2
        assert "crashable" in capsys.readouterr().err

    def test_fault_target_out_of_range(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(
            ["serve", "--replicas", "2", "--fault-at", "2:7"]
        ) == 2
        assert "only 2 replicas" in capsys.readouterr().err

    def test_bad_fault_at_format_rejected(self, capsys):
        from repro.__main__ import main as repro_main

        with pytest.raises(SystemExit):
            repro_main(["serve", "--replicas", "2", "--fault-at", "nope"])
        assert "TIME:REPLICA" in capsys.readouterr().err

    def test_negative_fault_at_rejected_cleanly(self, capsys):
        from repro.__main__ import main as repro_main

        with pytest.raises(SystemExit):
            repro_main(["serve", "--replicas", "2", "--fault-at=-1:0"])
        assert "non-negative" in capsys.readouterr().err

    def test_non_finite_fault_flags_rejected_cleanly(self, capsys):
        from repro.__main__ import main as repro_main

        with pytest.raises(SystemExit):
            repro_main(["serve", "--replicas", "2", "--fault-at", "nan:0"])
        assert "finite" in capsys.readouterr().err
        assert repro_main(
            ["serve", "--replicas", "2", "--fault-at", "2:0",
             "--fault-downtime", "inf"]
        ) == 2
        assert "finite" in capsys.readouterr().err
        assert repro_main(
            ["serve", "--replicas", "2", "--fault-mtbf", "nan"]
        ) == 2
        assert "finite" in capsys.readouterr().err
