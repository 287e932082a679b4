"""Disaggregated prefill/decode dispatch and warm standby pools.

Contracts pinned here:

* **Exactly-once serving** — every arrival rides the two-stage path
  (prefill clone → priced handoff → decode submission) and lands in the
  fleet result exactly once; shadow clones never appear.
* **Pool separation** — prefill replicas route nothing in the result,
  and the decode side recomputes exactly one prompt token per request
  (the imported prefix covers ``input_len - 1``).
* **Degraded, never lost** — a clone abort (prompt too large for the
  prefill replica) falls back to a direct decode-pool submission.
* **Config gates** — the invalid combinations raise instead of serving
  silently-wrong results.
* **Composition** — work stealing and fault injection run alongside the
  two-stage path: steals never cross the pool split or move a clone,
  and crashes on either side degrade to fallbacks instead of losing
  requests.
* **Warm standby** — a standby replica promoted by the autoscaler pays
  zero warm-up (weights stayed resident).
"""

import pytest

from repro.experiments.systems import make_fleet
from repro.fleet import DisaggDispatcher, FaultPlan, ReplicaFault
from repro.fleet.stealing import WorkStealer
from repro.obs import Observability
from repro.obs.tracer import SHADOW_REQUEST_OFFSET
from repro.workloads.arrival import BurstyArrivals
from repro.workloads.datasets import LEVAL, MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace

TRACE = make_trace(SHAREGPT, rate=10.0, num_requests=24, seed=13)
# A Mixed burst that least-kv spreads unevenly enough over the decode
# pool for steals to land.
STEAL_TRACE = make_trace(MIXED, rate=40.0, num_requests=40, seed=7)


def disagg_fleet(replicas=3, prefill=1, **kwargs):
    return make_fleet(
        "loongserve", replicas=replicas, router="round-robin",
        requests=TRACE, num_gpus=4, prefix_cache=True, disagg=prefill,
        **kwargs,
    )


class TestDisaggDispatch:
    def test_every_request_served_exactly_once(self):
        fleet = disagg_fleet()
        result = fleet.run(clone_requests(TRACE))
        served = [
            r.request_id
            for replica in result.per_replica
            for r in replica.requests + replica.aborted
        ]
        assert sorted(served) == sorted(r.request_id for r in TRACE)
        assert len(set(served)) == len(served)
        assert not result.aborted
        assert len(result.finished_requests) == len(TRACE)
        # No shadow clone leaks into any ledger.
        assert all(rid < SHADOW_REQUEST_OFFSET for rid in served)

    def test_prefill_pool_routes_nothing_in_the_result(self):
        fleet = disagg_fleet()
        result = fleet.run(clone_requests(TRACE))
        prefill_side = result.per_replica[0]
        assert not prefill_side.requests
        assert not prefill_side.aborted
        # The prefill work happened there all the same: the replica's
        # cache adopted every clone's KV and exported it onward.
        assert prefill_side.cache_stats["exported_tokens"] > 0
        # Synthetic prompts of different requests start with different
        # ids, so no clone ever matched another request's extent.
        assert prefill_side.cache_stats["hit_tokens"] == 0

    def test_decode_side_recomputes_one_prompt_token(self):
        fleet = disagg_fleet()
        result = fleet.run(clone_requests(TRACE))
        decode_stats = [r.cache_stats for r in result.per_replica[1:]]
        hits = sum(s["hits"] for s in decode_stats)
        hit_tokens = sum(s["hit_tokens"] for s in decode_stats)
        assert hits == len(TRACE)
        assert hit_tokens == sum(r.input_len - 1 for r in TRACE)

    def test_handoffs_are_counted_and_priced(self):
        fleet = disagg_fleet()
        result = fleet.run(clone_requests(TRACE))
        elastic = result.elastic
        assert elastic.disagg_handoffs == len(TRACE)
        # The clone's adopted extent covers the whole prompt (its one
        # generated token's KV is the prompt's last slot), so the fabric
        # carries input_len tokens per request even though the decode
        # side can only use input_len - 1 of them.
        assert elastic.disagg_handoff_tokens == sum(r.input_len for r in TRACE)
        assert elastic.disagg_handoff_seconds > 0.0
        assert fleet.disagg.inflight == 0

    def test_rerun_is_deterministic(self):
        fleet = disagg_fleet()
        first = fleet.run(clone_requests(TRACE))
        second = fleet.run(clone_requests(TRACE))
        times_a = sorted(
            (r.request_id, round(r.finish_time, 12))
            for r in first.finished_requests
        )
        times_b = sorted(
            (r.request_id, round(r.finish_time, 12))
            for r in second.finished_requests
        )
        assert times_a == times_b

    def test_oversized_prompt_falls_back_to_direct_decode(self):
        fleet = disagg_fleet()
        capacity = fleet.replicas[0].kv_capacity()
        giant = make_trace(SHAREGPT, rate=10.0, num_requests=1, seed=99)[0]
        giant.input_len = capacity + 10
        giant.token_ids = None
        obs = Observability()
        fleet.observe(obs)
        trace = [giant] + clone_requests(TRACE)
        result = fleet.run(trace)
        # The clone aborted on the prefill side, the original took the
        # fallback path and aborted on a decode replica — exactly once,
        # while every normal request still finished.
        assert [r.request_id for r in result.aborted] == [giant.request_id]
        assert len(result.finished_requests) == len(TRACE)
        fallbacks = [r for r in obs.tracer.records if r.kind == "disagg_fallback"]
        assert [r.payload["request"] for r in fallbacks] == [giant.request_id]
        assert fleet.disagg.inflight == 0


class TestDisaggGates:
    def test_requires_prefix_cache(self):
        with pytest.raises(ValueError, match="prefix_cache"):
            make_fleet("loongserve", replicas=3, disagg=1)

    def test_requires_a_decode_pool(self):
        with pytest.raises(ValueError, match="disagg"):
            make_fleet("loongserve", replicas=2, prefix_cache=True, disagg=2)

    def test_dispatcher_needs_a_prefill_replica(self):
        with pytest.raises(ValueError, match="prefill"):
            DisaggDispatcher(num_prefill=0, pricing=())

    def test_standby_requires_an_autoscaler(self):
        with pytest.raises(ValueError, match="standby"):
            make_fleet("loongserve", replicas=2, standby=1)


class TestDisaggComposition:
    def assert_served_exactly_once(self, result, trace):
        served = [
            r.request_id
            for replica in result.per_replica
            for r in replica.requests + replica.aborted
        ]
        assert sorted(served) == sorted(r.request_id for r in trace)
        assert len(set(served)) == len(served)
        assert len(result.finished_requests) + len(result.aborted) == len(trace)

    def steal_fleet(self):
        return make_fleet(
            "loongserve", replicas=4, router="least-kv",
            requests=STEAL_TRACE, num_gpus=4, prefix_cache=True, disagg=1,
            steal=True,
        )

    def test_composes_with_stealing(self):
        fleet = self.steal_fleet()
        obs = Observability()
        fleet.observe(obs)
        result = fleet.run(clone_requests(STEAL_TRACE))
        self.assert_served_exactly_once(result, STEAL_TRACE)
        assert not result.aborted
        steals = [r for r in obs.tracer.records if r.kind == "steal"]
        assert steals, "the burst landed no steal"
        # Steals stay inside one pool and never touch a shadow clone.
        num_prefill = fleet.disagg.num_prefill
        for record in steals:
            assert record.payload["request"] < SHADOW_REQUEST_OFFSET
            assert (record.payload["src"] < num_prefill) == (
                record.payload["dst"] < num_prefill
            )
        assert fleet.disagg.inflight == 0

    def test_steals_are_planned_within_each_pool(self, monkeypatch):
        # A prefill replica's queue holds only clones, which are never
        # stealable, so a fleet-wide plan keeps picking it as the
        # shallowest destination; each pool must be planned on its own.
        planned = []
        plan = WorkStealer.plan

        def spy(stealer, replicas, now, can_migrate=False):
            moves = plan(stealer, replicas, now, can_migrate=can_migrate)
            planned.extend(moves)
            return moves

        monkeypatch.setattr(WorkStealer, "plan", spy)
        fleet = self.steal_fleet()
        fleet.run(clone_requests(STEAL_TRACE))
        assert planned
        num_prefill = fleet.disagg.num_prefill
        for move in planned:
            assert (move.src.replica_id < num_prefill) == (
                move.dst.replica_id < num_prefill
            )

    def test_autoscaling_parks_no_replica_a_handoff_reaches(self):
        """With disaggregation the autoscaler scales the decode pool
        alone and never parks a replica a handoff is riding toward, so
        no decode submission lands on a parked replica (where its work
        would go unbilled) and the prefill pool never parks."""
        trace = make_trace(
            MIXED, rate=1.0, num_requests=120, seed=0,
            arrivals=BurstyArrivals(rate=1.0),
        )
        fleet = make_fleet(
            "loongserve", replicas=5, router="least-kv", requests=trace,
            prefix_cache=True, disagg=1, autoscale=True,
        )
        obs = Observability()
        fleet.observe(obs)
        result = fleet.run(clone_requests(trace))
        self.assert_served_exactly_once(result, trace)
        num_prefill = fleet.disagg.num_prefill
        parked: set[int] = set()
        deliveries = 0
        for record in obs.tracer.records:
            if record.kind == "park":
                assert record.replica >= num_prefill
                parked.add(record.replica)
            elif record.kind == "online":
                parked.discard(record.replica)
            elif record.kind == "arrival" and record.replica >= num_prefill:
                deliveries += 1
                assert record.replica not in parked, record.payload
        assert deliveries == len(trace)
        assert result.elastic.scale_downs > 0, "nothing was parked"

    def test_decode_crash_reroutes_over_surviving_pool(self):
        plan = FaultPlan([ReplicaFault(time=0.5, replica_id=2, downtime_s=2.0)])
        fleet = disagg_fleet(faults=plan)
        obs = Observability()
        fleet.observe(obs)
        result = fleet.run(clone_requests(TRACE))
        self.assert_served_exactly_once(result, TRACE)
        assert not result.aborted
        assert [r.kind for r in obs.tracer.records].count("crash") == 1
        assert fleet.disagg.inflight == 0

    def test_prefill_crash_degrades_to_direct_decode(self):
        # Take down the only prefill replica mid-run: orphaned clones and
        # arrivals during the outage both fall back to direct decode.
        plan = FaultPlan([ReplicaFault(time=0.5, replica_id=0, downtime_s=5.0)])
        fleet = disagg_fleet(faults=plan)
        obs = Observability()
        fleet.observe(obs)
        result = fleet.run(clone_requests(TRACE))
        self.assert_served_exactly_once(result, TRACE)
        assert not result.aborted
        fallbacks = [
            r for r in obs.tracer.records if r.kind == "disagg_fallback"
        ]
        assert fallbacks, "prefill-pool outage produced no fallbacks"
        # Fallback requests are real arrivals, each one served.
        finished = {r.request_id for r in result.finished_requests}
        fallen_back = {r.payload["request"] for r in fallbacks}
        assert fallen_back <= finished
        # The crash caught clones mid-prefill; each one's original took
        # the fallback path.
        orphaned = {
            r.payload["request"] - SHADOW_REQUEST_OFFSET
            for r in obs.tracer.records
            if r.kind == "crash_orphan" and r.payload["request"] >= SHADOW_REQUEST_OFFSET
        }
        assert orphaned, "the crash orphaned no clone"
        assert orphaned <= fallen_back
        assert fleet.disagg.inflight == 0


class TestWarmStandby:
    def test_standby_promotion_pays_zero_warmup(self):
        # Long prompts build prefill queues two replicas cannot drain,
        # so the autoscaler must reach for the parked standby.
        burst = make_trace(LEVAL, rate=30.0, num_requests=24, seed=7)
        fleet = make_fleet(
            "loongserve", replicas=2, router="round-robin",
            requests=burst, num_gpus=4, autoscale=True, standby=1,
        )
        standby_id = fleet.replicas[-1].replica_id
        assert fleet.replicas[-1].standby
        obs = Observability()
        fleet.observe(obs)
        result = fleet.run(clone_requests(burst))
        assert len(result.finished_requests) == len(burst)
        promotions = [
            r for r in obs.tracer.records
            if r.kind == "warmup"
            and r.replica == standby_id
            and r.payload["action"] == "unpark"
        ]
        assert promotions, "the burst never promoted the standby replica"
        for record in promotions:
            assert record.payload["standby"] is True
            assert record.payload["warmup_s"] == 0.0

    def test_standby_starts_parked(self):
        trace = make_trace(SHAREGPT, rate=4.0, num_requests=4, seed=3)
        fleet = make_fleet(
            "loongserve", replicas=2, router="round-robin",
            requests=trace, num_gpus=4, autoscale=True, standby=1,
        )
        result = fleet.run(clone_requests(trace))
        # A gentle trace never needs the third replica: the capacity
        # timeline starts (and stays) at the two online replicas.
        assert result.elastic.capacity_timeline[0] == (0.0, 2)
        assert len(result.finished_requests) == len(trace)
