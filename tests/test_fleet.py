"""Tests for fleet-scale serving: routers, replica handles, FleetServer."""

import pytest

from repro.experiments.systems import make_fleet, make_system
from repro.fleet import (
    LONG_INPUT_THRESHOLD,
    ROUTERS,
    CacheAffinityRouter,
    ClusterPolicy,
    FleetServer,
    LeastKVRouter,
    LeastOutstandingRouter,
    LengthAwareRouter,
    ReplicaHandle,
    RoundRobinRouter,
    make_router,
)
from repro.metrics.fleet import fleet_load_report, merge_serve_results
from repro.metrics.latency import summarize_latency
from repro.sim.engine import Simulator
from repro.types import Request, RequestState, ServeResult
from repro.workloads.datasets import MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace
from tests.conftest import StubReplica, make_request, with_rows


class TestRouters:
    def test_registry_has_six_policies(self):
        assert set(ROUTERS) == {
            "round-robin", "least-outstanding", "least-kv", "length-aware",
            "affinity", "slo",
        }
        for name in ROUTERS:
            assert make_router(name).name == name

    def test_unknown_router_rejected(self):
        with pytest.raises(ValueError, match="unknown router"):
            make_router("magic")

    def test_round_robin_cycles(self):
        replicas = [StubReplica(i) for i in range(3)]
        router = RoundRobinRouter()
        chosen = [
            router.route(make_request(), replicas, 0.0).replica_id for _ in range(6)
        ]
        assert chosen == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_picks_idle_replica(self):
        replicas = [
            StubReplica(0, outstanding=5),
            StubReplica(1, outstanding=1),
            StubReplica(2, outstanding=3),
        ]
        chosen = LeastOutstandingRouter().route(make_request(), replicas, 0.0)
        assert chosen.replica_id == 1

    def test_least_kv_picks_most_free(self):
        replicas = [
            StubReplica(0, free=100),
            StubReplica(1, free=900),
            StubReplica(2, free=400),
        ]
        chosen = LeastKVRouter().route(make_request(), replicas, 0.0)
        assert chosen.replica_id == 1

    def test_least_kv_tie_breaks_by_outstanding(self):
        replicas = [
            StubReplica(0, free=500, outstanding=4),
            StubReplica(1, free=500, outstanding=1),
        ]
        chosen = LeastKVRouter().route(make_request(), replicas, 0.0)
        assert chosen.replica_id == 1

    def test_length_aware_separates_populations(self):
        replicas = [StubReplica(i) for i in range(4)]
        router = LengthAwareRouter()
        long_request = make_request(input_len=LONG_INPUT_THRESHOLD + 1)
        short_request = make_request(input_len=100)
        assert router.route(long_request, replicas, 0.0).replica_id in (0, 1)
        assert router.route(short_request, replicas, 0.0).replica_id in (2, 3)

    def test_length_aware_balances_within_pool(self):
        replicas = [
            StubReplica(0), StubReplica(1),
            StubReplica(2, tokens=5_000), StubReplica(3, tokens=10),
        ]
        chosen = LengthAwareRouter().route(make_request(input_len=50), replicas, 0.0)
        assert chosen.replica_id == 3

    def test_length_aware_single_replica_degenerates(self):
        replicas = [StubReplica(0)]
        router = LengthAwareRouter()
        for input_len in (10, 100_000):
            assert router.route(
                make_request(input_len=input_len), replicas, 0.0
            ).replica_id == 0

    def test_length_aware_custom_threshold(self):
        """--long-threshold must move the long/short boundary."""
        replicas = [StubReplica(i) for i in range(4)]
        router = LengthAwareRouter(long_threshold=500)
        assert router.route(make_request(input_len=600), replicas, 0.0).replica_id in (0, 1)
        assert router.route(make_request(input_len=400), replicas, 0.0).replica_id in (2, 3)

    def test_affinity_prefers_longest_match(self):
        replicas = [
            StubReplica(0, match=10, free=100),
            StubReplica(1, match=500, free=1),
            StubReplica(2, match=90, free=900),
        ]
        chosen = CacheAffinityRouter().route(make_request(), replicas, 0.0)
        assert chosen.replica_id == 1

    def test_affinity_falls_back_to_least_kv(self):
        replicas = [
            StubReplica(0, match=0, free=100),
            StubReplica(1, match=0, free=900),
        ]
        chosen = CacheAffinityRouter().route(make_request(), replicas, 0.0)
        assert chosen.replica_id == 1

    def test_affinity_handles_probe_less_replicas(self):
        """Replicas without a prefix cache score a zero match (their
        server says ``prefix_cache is None``) and fall back to least-kv."""
        replicas = [ReplicaHandle(i, make_system("vllm")) for i in range(2)]
        sim = Simulator()
        for handle in replicas:
            handle.prepare(sim)
        replicas[0].submit(make_request(input_len=5_000))  # fills some KV
        request = make_request()
        request.token_ids = tuple(range(request.input_len))
        assert [r.prefix_match_len(request) for r in replicas] == [0, 0]
        chosen = CacheAffinityRouter().route(request, replicas, 0.0)
        assert chosen.replica_id == 1


class TestReplicaHandle:
    def test_kv_probe_across_server_shapes(self):
        shapes = {
            "loongserve": 4,      # UnifiedKVPool: one entry per instance
            "vllm": 1,            # single engine pool
            "distserve": 2,       # prefill + decode engines
            "replicated-tp2": 4,  # four TP=2 engines
        }
        for name, expected_entries in shapes.items():
            handle = ReplicaHandle(0, make_system(name))
            free = {key: pool.free for key, pool in handle.server.kv_pools()}
            assert len(free) == expected_entries, name
            assert handle.kv_free() == sum(free.values())
            assert handle.kv_free() > 0

    def test_outstanding_tracks_routed_lifecycle(self):
        handle = ReplicaHandle(0, make_system("loongserve"))
        request = make_request(input_len=100, output_len=4)
        handle.submit(request)
        assert handle.outstanding_requests() == 1
        assert handle.outstanding_tokens() == request.current_len
        request.state = RequestState.FINISHED
        assert handle.outstanding_requests() == 0
        # The live set lazily pruned the finished request; the routed
        # ledger (the fleet's result surface) still remembers it.
        assert handle._active == []
        assert handle.routed == [request]


class TestFleetServer:
    @pytest.mark.parametrize("system", ["loongserve", "vllm", "distserve"])
    def test_fleet_serves_trace_on_any_system(self, system):
        trace = make_trace(SHAREGPT, rate=8.0, num_requests=24, seed=21)
        fleet = make_fleet(system, replicas=2, router="round-robin", requests=trace)
        result = fleet.run(clone_requests(trace))
        assert len(result.finished_requests) == 24
        assert len(result.per_replica) == 2
        assert result.makespan > 0

    def test_every_request_served_exactly_once(self):
        trace = make_trace(MIXED, rate=5.0, num_requests=30, seed=22)
        fleet = make_fleet("loongserve", replicas=3, router="least-kv",
                           requests=trace)
        result = fleet.run(clone_requests(trace))
        served = [
            r.request_id
            for replica in result.per_replica
            for r in replica.requests + replica.aborted
        ]
        assert sorted(served) == sorted(r.request_id for r in trace)
        assert len(set(served)) == len(served)

    def test_shared_clock_and_global_makespan(self):
        trace = make_trace(SHAREGPT, rate=10.0, num_requests=20, seed=23)
        fleet = make_fleet("loongserve", replicas=2, requests=trace)
        result = fleet.run(clone_requests(trace))
        finish_times = [r.finish_time for r in result.finished_requests]
        assert result.makespan >= max(finish_times) - 1e-9
        for replica in result.per_replica:
            assert replica.makespan == result.makespan

    def test_length_aware_fleet_isolates_long_requests(self):
        trace = make_trace(MIXED, rate=6.0, num_requests=40, seed=24)
        fleet = make_fleet("loongserve", replicas=4, router="length-aware",
                           requests=trace)
        result = fleet.run(clone_requests(trace))
        long_pool = {0, 1}
        for replica_id, replica in enumerate(result.per_replica):
            for request in replica.requests + replica.aborted:
                expected = replica_id in long_pool
                assert (request.input_len >= LONG_INPUT_THRESHOLD) == expected

    def test_fleet_rerun_is_clean(self):
        """A second run must not inherit the first run's state."""
        trace = make_trace(SHAREGPT, rate=8.0, num_requests=15, seed=25)
        fleet = make_fleet("loongserve", replicas=2, requests=trace)
        first = fleet.run(clone_requests(trace))
        second = fleet.run(clone_requests(trace))
        assert len(second.requests) == len(first.requests)
        lat_a = sorted(r.normalized_latency for r in first.finished_requests)
        lat_b = sorted(r.normalized_latency for r in second.finished_requests)
        assert lat_a == pytest.approx(lat_b)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetServer([], ClusterPolicy(make_router("round-robin")))
        with pytest.raises(ValueError):
            make_fleet(replicas=0)


class TestFleetMetrics:
    def _results(self):
        trace = make_trace(SHAREGPT, rate=10.0, num_requests=30, seed=26)
        fleet = with_rows(make_fleet("loongserve", replicas=3, requests=trace))
        return fleet.run(clone_requests(trace))

    def test_merge_preserves_counts_and_makespan(self):
        result = self._results()
        merged = merge_serve_results(result.per_replica, system="fleet")
        assert len(merged.requests) == len(result.requests)
        assert merged.makespan == result.makespan
        starts = [s.start_time for s in merged.iterations.rows]
        assert starts == sorted(starts)

    def test_merge_requires_results(self):
        with pytest.raises(ValueError):
            merge_serve_results([])

    def test_latency_summary_over_merged_result(self):
        result = self._results()
        summary = summarize_latency(result)
        assert summary.finished == 30
        assert summary.per_token > 0

    def test_load_report_accounts_every_request(self):
        result = self._results()
        report = fleet_load_report(result.per_replica)
        assert len(report.replicas) == 3
        assert sum(load.routed for load in report.replicas) == 30
        assert report.token_imbalance >= 1.0
        assert report.request_cv >= 0.0
        rendered = report.render()
        assert "token imbalance" in rendered
        assert "LoongServe" in rendered

    def test_perfectly_balanced_report(self):
        def result_with(tokens):
            request = Request(request_id=tokens, input_len=tokens, output_len=1)
            return ServeResult(system="stub", requests=[request])

        report = fleet_load_report([result_with(100), result_with(100)])
        assert report.token_imbalance == pytest.approx(1.0)
        assert report.request_cv == pytest.approx(0.0)
