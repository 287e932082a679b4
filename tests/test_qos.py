"""QoS subsystem tests: classes, admission, scheduling, routing,
predictive autoscaling, ledgers, closed-loop sessions, and the
golden-signature off gates."""

import hashlib
from dataclasses import replace

import pytest

from repro.baselines.no_scaleup import build_loongserve
from repro.config import default_config
from repro.experiments.endtoend import reference_ideal_model
from repro.experiments.systems import make_fleet, make_system
from repro.fleet import PredictiveAutoscaler, SLORouter
from repro.metrics.qos import QoSLedger, merge_qos_stats, per_class_report
from repro.qos import (
    BATCH,
    INTERACTIVE,
    QOS_CLASSES,
    STANDARD,
    QoSClass,
    QoSPolicy,
    assign_qos,
    parse_qos_mix,
    resolve_qos_class,
)
from repro.qos.classes import qos_mix_sampler
from repro.sessions import (
    ClosedLoopDriver,
    make_session_trace,
    plan_sessions,
    tag_session_plans,
)
from repro.types import ServeResult
from repro.workloads.datasets import MIXED, SHAREGPT
from repro.workloads.serialization import records_to_trace, trace_to_records
from repro.workloads.trace_gen import clone_requests, make_trace
from tests.conftest import StubReplica, gpu_with_kv_slots, make_request

QOS_MIX = {"interactive": 0.4, "standard": 0.4, "batch": 0.2}


@pytest.fixture(scope="module")
def policy() -> QoSPolicy:
    config = default_config(num_gpus=4, tensor_parallel=2)
    from repro.costmodel.latency import RooflineCostModel

    cost = RooflineCostModel(cluster=config.cluster, model=config.model)
    return QoSPolicy.for_config(config, cost, admission=True)


class TestClasses:
    def test_standard_registry(self):
        assert set(QOS_CLASSES) == {"interactive", "standard", "batch"}
        assert INTERACTIVE.priority < STANDARD.priority < BATCH.priority
        assert INTERACTIVE.deadline_scale < STANDARD.deadline_scale
        assert BATCH.preemptible and not INTERACTIVE.preemptible

    def test_resolve_defaults_untagged_to_standard(self):
        assert resolve_qos_class(None) is STANDARD
        assert resolve_qos_class("batch") is BATCH
        with pytest.raises(ValueError, match="unknown QoS class"):
            resolve_qos_class("platinum")

    def test_parse_qos_mix_normalises(self):
        mix = parse_qos_mix("interactive:1,batch:3")
        assert mix == {"interactive": 0.25, "batch": 0.75}

    def test_parse_qos_mix_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_qos_mix("interactive:nope")
        with pytest.raises(ValueError):
            parse_qos_mix("platinum:1")
        with pytest.raises(ValueError):
            parse_qos_mix("")
        with pytest.raises(ValueError):
            parse_qos_mix("batch:-1")
        for weight in ("nan", "inf"):
            with pytest.raises(ValueError):
                parse_qos_mix(f"interactive:{weight}")
            with pytest.raises(ValueError):
                qos_mix_sampler({"interactive": float(weight)})

    def test_invalid_class_definitions_rejected(self):
        with pytest.raises(ValueError):
            QoSClass(name="x", priority=0, deadline_scale=0.0)
        with pytest.raises(ValueError):
            QoSClass(name="x", priority=0, deadline_scale=1.0, admission="maybe")
        with pytest.raises(ValueError):
            QoSClass(
                name="x", priority=0, deadline_scale=1.0, admission="downgrade"
            )

    def test_assign_qos_is_deterministic_and_session_consistent(self):
        trace = make_session_trace(rate=2.0, num_sessions=8, seed=3)
        assign_qos(trace, QOS_MIX, seed=7)
        by_session = {}
        for request in trace:
            assert request.qos in QOS_MIX
            by_session.setdefault(request.session_id, set()).add(request.qos)
        assert all(len(classes) == 1 for classes in by_session.values())
        again = make_session_trace(rate=2.0, num_sessions=8, seed=3)
        assign_qos(again, QOS_MIX, seed=7)
        # Same sampled conversations in both traces => same tags per
        # position (ids differ across process-global counters).
        assert [r.qos for r in trace] == [r.qos for r in again]

    def test_tagging_never_perturbs_the_workload(self):
        plain = make_trace(MIXED, rate=3.0, num_requests=40, seed=9)
        tagged = make_trace(
            MIXED, rate=3.0, num_requests=40, seed=9, qos_mix=QOS_MIX
        )
        assert [
            (r.input_len, r.output_len, r.arrival_time) for r in plain
        ] == [(r.input_len, r.output_len, r.arrival_time) for r in tagged]
        assert all(r.qos is None for r in plain)
        assert all(r.qos is not None for r in tagged)

    def test_session_tagging_never_perturbs_the_workload(self):
        plain = make_session_trace(rate=1.0, num_sessions=6, seed=4)
        tagged = make_session_trace(
            rate=1.0, num_sessions=6, seed=4, qos_mix=QOS_MIX
        )
        assert [
            (r.input_len, r.output_len, r.arrival_time, r.turn) for r in plain
        ] == [(r.input_len, r.output_len, r.arrival_time, r.turn) for r in tagged]


class TestSerialization:
    def test_qos_round_trips_through_jsonl_records(self):
        trace = make_trace(
            SHAREGPT, rate=5.0, num_requests=10, seed=2, qos_mix=QOS_MIX
        )
        restored = records_to_trace(trace_to_records(trace))
        assert [r.qos for r in sorted(restored, key=lambda r: r.request_id)] == [
            r.qos for r in sorted(trace, key=lambda r: r.request_id)
        ]

    def test_untagged_records_stay_unchanged(self):
        trace = make_trace(SHAREGPT, rate=5.0, num_requests=4, seed=2)
        records = trace_to_records(trace)
        assert all("qos" not in record for record in records)

    def test_clone_copies_the_tag(self):
        trace = make_trace(
            SHAREGPT, rate=5.0, num_requests=5, seed=2, qos_mix=QOS_MIX
        )
        clones = clone_requests(trace)
        assert [r.qos for r in clones] == [r.qos for r in trace]
        # Runtime QoS state is never cloned — it belongs to one run.
        assert all(r.deadline is None and r.downgraded_to is None for r in clones)


class TestAdmission:
    def test_feasible_request_admitted_at_its_tier(self, policy):
        request = make_request(input_len=1_000, output_len=20)
        request.qos = "interactive"
        decision = policy.admission.decide(request, now=0.0, wait_s=0.0, policy=policy)
        assert decision.admitted
        assert decision.qos_class.name == "interactive"
        assert decision.deadline == pytest.approx(
            10.0 * policy.ideal_latency(request)
        )

    def test_infeasible_interactive_downgrades_then_rejects(self, policy):
        request = make_request(input_len=1_000, output_len=20)
        request.qos = "interactive"
        ideal = policy.ideal_latency(request)
        # Wait long enough to bust the 10x interactive budget but not
        # the 25x standard one: downgrade.
        decision = policy.admission.decide(
            request, now=0.0, wait_s=15.0 * ideal, policy=policy
        )
        assert decision.admitted
        assert decision.qos_class.name == "standard"
        # Bust the standard budget too: reject (standard does not chain).
        decision = policy.admission.decide(
            request, now=0.0, wait_s=40.0 * ideal, policy=policy
        )
        assert not decision.admitted
        assert decision.action == "reject"

    def test_batch_always_admitted(self, policy):
        request = make_request(input_len=1_000, output_len=20)
        request.qos = "batch"
        ideal = policy.ideal_latency(request)
        decision = policy.admission.decide(
            request, now=0.0, wait_s=1e4 * ideal, policy=policy
        )
        assert decision.admitted
        assert decision.qos_class.name == "batch"

    def test_prefix_bias_admits_hot_prefix_under_contention(self, policy):
        cold = make_request(input_len=2_000, output_len=20)
        cold.qos = "standard"
        ideal = policy.ideal_latency(cold)
        wait = 24.5 * ideal  # just past the 25x budget net of service time
        assert not policy.admission.decide(
            cold, now=0.0, wait_s=wait, policy=policy
        ).admitted
        hot = make_request(input_len=2_000, output_len=20)
        hot.qos = "standard"
        hot.cached_prefix_len = 1_900  # ~95% resident
        assert policy.admission.decide(
            hot, now=0.0, wait_s=wait, policy=policy
        ).admitted

    def test_every_downgrade_chain_lowers_and_ends(self):
        """Admission walks a class's downgrade chain until a tier admits
        or rejects; each step must strictly lower the tier, so every
        chain ends."""
        for qos_class in QOS_CLASSES.values():
            current = qos_class
            while current.admission == "downgrade":
                target = resolve_qos_class(current.downgrade_to)
                assert target.priority > current.priority
                current = target


class TestPolicy:
    def test_dispatch_key_orders_by_tier_then_slack(self, policy):
        now = 0.0
        interactive = make_request(input_len=1_000, output_len=20)
        interactive.qos = "interactive"
        batch_early = make_request(input_len=1_000, output_len=20, arrival=0.0)
        batch_early.qos = "batch"
        tight = make_request(input_len=50_000, output_len=20)
        tight.qos = "interactive"
        order = sorted(
            [batch_early, tight, interactive],
            key=lambda r: policy.dispatch_key(r, now),
        )
        # Interactive before batch regardless of arrival; within the
        # tier... both interactive requests sort by slack.
        assert order[-1] is batch_early
        assert {order[0].request_id, order[1].request_id} == {
            interactive.request_id, tight.request_id,
        }

    def test_slack_uses_stamped_deadline_when_present(self, policy):
        request = make_request(input_len=1_000, output_len=20)
        request.qos = "interactive"
        free = policy.slack(request, now=0.0)
        request.deadline = 1e6
        assert policy.slack(request, now=0.0) > free

    def test_downgrade_moves_the_effective_class(self, policy):
        request = make_request(input_len=1_000, output_len=20)
        request.qos = "interactive"
        assert policy.qos_class(request) is INTERACTIVE
        request.downgraded_to = "standard"
        assert policy.qos_class(request) is STANDARD
        assert request.qos == "interactive"  # the workload tag survives


class TestServerScheduling:
    def _qos_server(self, num_gpus=4, admission=True):
        server = build_loongserve(num_gpus=num_gpus)
        server.qos = QoSPolicy.for_config(
            server.config, server.cost_model, admission=admission
        )
        return server

    def test_interactive_overtakes_queued_batch_work(self):
        # One long batch prefill arrives first, then a burst of
        # interactive turns; with QoS armed the interactive requests
        # reach their first token ahead of later batch work.
        requests = []
        for i in range(4):
            r = make_request(input_len=20_000, output_len=30, arrival=0.01 * i)
            r.qos = "batch"
            requests.append(r)
        for i in range(4):
            r = make_request(input_len=500, output_len=20, arrival=0.05 + 0.01 * i)
            r.qos = "interactive"
            requests.append(r)
        server = self._qos_server(admission=False)
        result = server.run(requests)
        finished = {r.request_id: r for r in result.finished_requests}
        assert len(finished) == len(requests)
        interactive_first = max(
            finished[r.request_id].first_token_time
            for r in requests
            if r.qos == "interactive"
        )
        batch_last = max(
            finished[r.request_id].first_token_time
            for r in requests
            if r.qos == "batch"
        )
        assert interactive_first <= batch_last

    def test_admission_rejects_and_ledger_reconciles(self):
        trace = make_trace(
            MIXED, rate=40.0, num_requests=60, seed=5, max_input_len=30_000,
            qos_mix={"interactive": 0.5, "standard": 0.5},
        )
        server = self._qos_server()
        result = server.run(clone_requests(trace))
        ledger = result.qos_stats
        assert ledger is not None
        total_submitted = sum(
            int(c.get("submitted", 0)) for c in ledger.values()
        )
        total_admitted = sum(int(c.get("admitted", 0)) for c in ledger.values())
        total_rejected = sum(int(c.get("rejected", 0)) for c in ledger.values())
        assert total_submitted == total_admitted + total_rejected
        # Exactly-once: every trace request is finished or aborted.
        assert len(result.finished_requests) + len(result.aborted) == len(trace)
        assert total_rejected == len(
            [r for r in result.aborted if r.max_total_len < 1e9]
        )

    @staticmethod
    def _memory_pressure_run(decode_class: str):
        # A deliberately tiny KV pool: two long decodes tagged
        # ``decode_class`` occupy nearly everything when the interactive
        # request arrives, so only preempting one frees the slots in time.
        config = default_config(
            num_gpus=4, tensor_parallel=2, gpu=gpu_with_kv_slots(603)
        )
        from repro.core.server import LoongServeServer

        server = LoongServeServer(config)
        server.qos = QoSPolicy.for_config(
            server.config, server.cost_model, admission=False
        )
        pool_slots = config.kv_slots_per_instance * config.num_instances
        batch_output = 300
        batch_input = int(pool_slots * 0.45) - batch_output
        assert batch_input > 0
        decode_a = make_request(
            input_len=batch_input, output_len=batch_output, arrival=0.0
        )
        decode_a.qos = decode_class
        decode_b = make_request(
            input_len=batch_input, output_len=batch_output, arrival=0.0
        )
        decode_b.qos = decode_class
        interactive = make_request(
            input_len=int(pool_slots * 0.25), output_len=4, arrival=1.0
        )
        interactive.qos = "interactive"
        result = server.run([decode_a, decode_b, interactive])
        assert not result.aborted
        return result, interactive

    def test_deadline_preemption_saves_the_interactive_prefill(self):
        protected, interactive = self._memory_pressure_run("batch")
        assert int(protected.qos_stats["batch"].get("preempted", 0)) >= 1
        assert interactive.finished
        protected_ttft = interactive.first_token_time

        # Standard-tier decodes are not preemptible: the interactive
        # prefill waits for one to finish.
        starved, interactive = self._memory_pressure_run("standard")
        assert "preempted" not in starved.qos_stats.get("standard", {})
        assert interactive.finished
        # The memory-blocked interactive prefill reaches its first token
        # materially earlier when the long decodes are preemptible.
        assert protected_ttft < interactive.first_token_time

    def test_impossible_abort_counts_in_the_ledger(self):
        # A request too large for the cluster aborts before admission
        # ever prices it; the ledger must still reconcile with the
        # trace (submitted = admitted + rejected).
        server = self._qos_server(num_gpus=2)
        impossible = make_request(input_len=5_000_000, output_len=10)
        impossible.qos = "interactive"
        fine = make_request(input_len=500, output_len=10)
        fine.qos = "interactive"
        result = server.run([impossible, fine])
        counters = result.qos_stats["interactive"]
        assert counters["submitted"] == 2.0
        assert counters["admitted"] == 1.0
        assert counters["rejected"] == 1.0
        assert len(result.aborted) == 1


class TestSLORouter:
    def test_prefers_replica_with_least_predicted_wait(self):
        router = SLORouter()
        replicas = [
            StubReplica(0, tokens=10_000, free=100),
            StubReplica(1, tokens=100, free=100),
        ]
        request = make_request(input_len=1_000, output_len=10)
        assert router.route(request, replicas, now=0.0).replica_id == 1

    def test_prefix_match_offsets_backlog(self):
        # Replica 0 is busier but holds the whole prompt; the netted
        # work is smaller there.
        router = SLORouter()
        request = make_request(input_len=8_000, output_len=10)
        busy_with_cache = StubReplica(0, tokens=5_000, free=100, match=8_000)
        idle_cold = StubReplica(1, tokens=0, free=100, match=0)
        assert router.route(request, [busy_with_cache, idle_cold], now=0.0).replica_id == 0

    def test_deterministic_tie_break_on_replica_id(self):
        router = SLORouter()
        replicas = [StubReplica(i, tokens=50, free=10) for i in range(3)]
        request = make_request(input_len=100, output_len=10)
        assert router.route(request, replicas, now=0.0).replica_id == 0

    def test_predicted_slack_in_seconds_with_cost_model(self):
        ideal = reference_ideal_model(num_gpus=4)
        router = SLORouter(ideal=ideal, token_rate=10_000.0)
        request = make_request(input_len=1_000, output_len=10)
        request.qos = "interactive"
        empty = StubReplica(0, tokens=0, free=100)
        [score] = router.probe_scores(request, [empty], now=0.0)
        slack = score["slack"]
        budget = INTERACTIVE.deadline_scale * ideal.ideal_latency(request)
        assert 0.0 < slack < budget

    def test_registered_and_constructible_by_name(self):
        from repro.fleet import make_router

        assert make_router("slo").name == "slo"


class TestPredictiveAutoscaler:
    def _fleet(self, n=3):
        return [StubReplica(i) for i in range(n)]

    def _feed(self, replicas, tokens):
        replicas[0].routed_tokens += tokens + 1  # input + one output token

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PredictiveAutoscaler(token_rate=0.0)

    def test_scale_out_on_forecast_before_queues_exist(self):
        replicas = self._fleet(3)
        replicas[1].online = False  # parked
        replicas[2].online = False
        scaler = PredictiveAutoscaler(token_rate=1_000.0)
        assert scaler.decide(replicas, now=0.0) == []  # first observation
        # 5k tokens/s forecast >> one replica's 1k tokens/s service rate.
        self._feed(replicas, 5_000)
        actions = scaler.decide(replicas, now=1.0)
        assert actions == [("unpark", replicas[1])]
        # No queue ever existed: the stub reports zero outstanding work.

    def test_warming_capacity_suppresses_double_unpark(self):
        replicas = self._fleet(3)
        replicas[1].online = False
        replicas[1].warming = True
        replicas[2].online = False
        scaler = PredictiveAutoscaler(token_rate=1_000.0)
        scaler.decide(replicas, now=0.0)
        self._feed(replicas, 1_000)  # wants 2 replicas; 1 already warming
        assert scaler.decide(replicas, now=1.0) == []

    def test_scale_in_waits_for_agreement(self):
        replicas = self._fleet(2)
        scaler = PredictiveAutoscaler(token_rate=1_000.0)
        scaler.decide(replicas, now=0.0)
        for now in (1.0, 2.0):  # ticks 1 and 2 of 3
            self._feed(replicas, 100)  # ~100 tokens/s << capacity
            assert scaler.decide(replicas, now=now) == []
        self._feed(replicas, 100)
        actions = scaler.decide(replicas, now=3.0)
        assert len(actions) == 1 and actions[0][0] == "drain"

    def test_forces_capacity_back_when_nothing_accepts(self):
        replicas = self._fleet(2)
        replicas[0].online = False
        replicas[1].online = False
        scaler = PredictiveAutoscaler(token_rate=1_000.0)
        actions = scaler.decide(replicas, now=0.0)
        assert actions == [("unpark", replicas[0])]

    def test_reset_clears_the_estimate(self):
        replicas = self._fleet(2)
        scaler = PredictiveAutoscaler(token_rate=1_000.0)
        scaler.decide(replicas, now=0.0)
        self._feed(replicas, 5_000)
        scaler.decide(replicas, now=1.0)
        assert scaler.last_signals["rate"] > 0.0
        scaler.reset()
        assert scaler.last_signals == {}
        # With no estimate left, the next tick is a first observation again.
        self._feed(replicas, 5_000)
        assert scaler.decide(replicas, now=2.0) == []
        assert scaler.last_signals == {}


class TestLedgersAndMetrics:
    def test_ledger_event_validation(self):
        ledger = QoSLedger()
        with pytest.raises(ValueError):
            ledger.note("interactive", "teleported")
        ledger.note(None, "submitted")
        assert ledger.as_dict() == {"untagged": {"submitted": 1.0}}

    def test_merge_qos_stats_sums_and_skips_none(self):
        a = ServeResult(system="a", qos_stats={"interactive": {"admitted": 2.0}})
        b = ServeResult(system="b", qos_stats={"interactive": {"admitted": 3.0},
                                               "batch": {"rejected": 1.0}})
        c = ServeResult(system="c")
        merged = merge_qos_stats([a, b, c])
        assert merged == {
            "interactive": {"admitted": 5.0},
            "batch": {"rejected": 1.0},
        }
        assert merge_qos_stats([c]) is None

    def test_per_class_report_scores_each_tier_against_its_scale(self):
        ideal = reference_ideal_model(num_gpus=4)
        fast = make_request(input_len=1_000, output_len=10)
        fast.qos = "interactive"
        latency = ideal.ideal_latency(fast)
        fast.prefill_end = 0.5 * latency
        fast.finish_time = 5.0 * latency  # inside 10x, outside nothing
        fast.generated = 10
        from repro.types import RequestState

        fast.state = RequestState.FINISHED
        slow = make_request(input_len=1_000, output_len=10)
        slow.qos = "batch"
        slow.prefill_end = 0.5 * latency
        slow.finish_time = 60.0 * latency  # misses 25x, inside batch 100x
        slow.generated = 10
        slow.state = RequestState.FINISHED
        result = ServeResult(system="x", requests=[fast, slow], makespan=1.0)
        outcomes = per_class_report(result, ideal)
        assert outcomes["interactive"].attainment == 1.0
        assert outcomes["batch"].attainment == 1.0
        # The same slow request would miss as standard.
        slow.qos = "standard"
        outcomes = per_class_report(result, ideal)
        assert outcomes["standard"].attainment == 0.0

    def test_fleet_report_renders_qos_block(self):
        trace = make_trace(MIXED, rate=6.0, num_requests=20, seed=7,
                           max_input_len=20_000, qos_mix=QOS_MIX)
        fleet = make_fleet("loongserve", replicas=2, requests=trace,
                           num_gpus=4, qos=True, admission=True, router="slo")
        result = fleet.run(clone_requests(trace))
        assert result.qos_stats is not None
        from repro.metrics.fleet import fleet_load_report

        report = fleet_load_report(result.per_replica, makespan=result.makespan)
        assert report.qos_stats is not None
        assert "qos interactive" in report.render()


class TestClosedLoop:
    def test_next_turn_arrives_think_time_after_previous_finish(self):
        plans = plan_sessions(rate=2.0, num_sessions=5, seed=11)
        server = build_loongserve(num_gpus=8)
        driver = ClosedLoopDriver(plans)
        result = server.run_driven(driver)
        assert len(result.finished_requests) == driver.total_requests
        by_session = {}
        for request in driver.requests:
            by_session.setdefault(request.session_id, []).append(request)
        plan_by_id = {plan.session_id: plan for plan in plans}
        chained = 0
        for session_id, turns in by_session.items():
            turns.sort(key=lambda r: r.turn)
            plan = plan_by_id[session_id]
            for prev, nxt in zip(turns, turns[1:]):
                gap = plan.turns[prev.turn].think_gap
                assert nxt.arrival_time == pytest.approx(
                    prev.finish_time + gap
                )
                chained += 1
        assert chained > 0  # the trace actually exercised multi-turn chains

    def test_driver_is_single_use(self):
        plans = plan_sessions(rate=2.0, num_sessions=2, seed=12)
        driver = ClosedLoopDriver(plans)
        build_loongserve(num_gpus=8).run_driven(driver)
        with pytest.raises(RuntimeError, match="single-use"):
            build_loongserve(num_gpus=8).run_driven(driver)

    def test_fleet_run_driven_serves_every_turn_once(self):
        plans = tag_session_plans(
            plan_sessions(rate=2.0, num_sessions=6, seed=13),
            {"interactive": 1.0}, seed=13,
        )
        driver = ClosedLoopDriver(plans)
        fleet = make_fleet("loongserve", replicas=2, num_gpus=4,
                           prefix_cache=True, router="slo",
                           qos=True, admission=False)
        result = fleet.run_driven(driver)
        served = [r.request_id for rep in result.per_replica
                  for r in rep.requests + rep.aborted]
        assert sorted(served) == sorted(r.request_id for r in driver.requests)
        assert len(served) == len(set(served)) == driver.total_requests

    def test_session_spec_closed_loop_knob_dispatches_the_workload(self):
        from repro.sessions import SESSIONS, make_session_workload

        open_loop = make_session_workload(rate=2.0, num_sessions=3, seed=21)
        assert isinstance(open_loop, list)
        spec = replace(SESSIONS, closed_loop=True)
        driver = make_session_workload(spec, rate=2.0, num_sessions=3, seed=21)
        assert isinstance(driver, ClosedLoopDriver)
        # Same seed, same conversations: only the arrival coupling differs.
        assert driver.total_requests == len(open_loop)
        with pytest.raises(ValueError, match="closed-loop"):
            make_session_trace(spec, rate=2.0, num_sessions=3, seed=21)

    def test_cli_closed_loop_serve(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(
            ["serve", "--replicas", "2", "--dataset", "sessions",
             "--closed-loop", "--rate", "2", "-n", "4", "--num-gpus", "4",
             "--prefix-cache", "--router", "affinity"]
        ) == 0
        out = capsys.readouterr().out
        assert "finished" in out

    def test_cli_closed_loop_validation(self):
        from repro.__main__ import main as repro_main

        assert repro_main(
            ["serve", "--dataset", "sharegpt", "-n", "4", "--closed-loop"]
        ) == 2
        assert repro_main(
            ["serve", "--replicas", "2", "--dataset", "sessions",
             "--closed-loop", "-n", "4", "--fault-mtbf", "60"]
        ) == 2

    def test_cli_closed_loop_serves_an_engine(self, capsys):
        """Every shape has ``run_driven`` now, so one vLLM deployment
        serves closed-loop sessions too."""
        from repro.__main__ import main as repro_main

        assert repro_main(
            ["serve", "--system", "vllm", "--dataset", "sessions",
             "--closed-loop", "-n", "12", "--seed", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "system:   vLLM" in out and "stranded" not in out

    def test_aborted_turn_still_chains_the_session(self):
        # A turn too large for the replica aborts, but the session's
        # next turn must still be submitted (the client moves on).
        from repro.sessions.workload import SessionPlan, TurnPlan

        plan = SessionPlan(
            session_id=99_991,
            start_time=0.0,
            turns=(
                TurnPlan(prompt=tuple(range(400_000)), output=(1, 2),
                         arrival_time=0.0, think_gap=1.0),
                TurnPlan(prompt=tuple(range(100)), output=(3, 4),
                         arrival_time=2.0, think_gap=1.0),
            ),
        )
        server = build_loongserve(num_gpus=2)
        driver = ClosedLoopDriver([plan])
        result = server.run_driven(driver)
        assert len(driver.requests) == 2
        assert len(result.aborted) == 1
        assert len(result.finished_requests) == 1


class TestGoldenGates:
    """QoS off must be bit-identical to the pre-QoS build — the same
    stored hashes the PR 3/PR 4 static gates assert, now reproduced on
    *tagged* traces with every QoS feature disarmed (tags alone must
    never steer the scheduler)."""

    @staticmethod
    def _signature(result):
        signature = sorted(
            (r.input_len, r.output_len, round(r.arrival_time, 9),
             round(r.prefill_end, 9), round(r.first_token_time, 9),
             round(r.finish_time, 9), r.preemptions)
            for r in result.requests
        )
        return hashlib.md5(repr(signature).encode()).hexdigest()

    def test_tagged_trace_with_qos_off_keeps_static_fleet_signature(self):
        trace = make_trace(MIXED, rate=4.0, num_requests=30, seed=7,
                           qos_mix=QOS_MIX)
        fleet = make_fleet(
            "loongserve", replicas=3, router="least-kv", requests=trace
        )
        result = fleet.run(clone_requests(trace))
        assert self._signature(result) == "8122bb3adaa19bf6518c165082fbc8a7"
        assert result.qos_stats is None

    def test_tagged_sessions_with_qos_off_keep_affinity_signature(self):
        trace = make_session_trace(rate=0.8, num_sessions=10, seed=5,
                                   qos_mix=QOS_MIX)
        fleet = make_fleet(
            "loongserve", replicas=2, router="affinity",
            requests=trace, prefix_cache=True,
        )
        result = fleet.run(clone_requests(trace))
        assert self._signature(result) == "78b843cd0ebb16e37980fdedb9e90ea0"
        assert result.qos_stats is None

    def test_single_server_ignores_tags_without_a_policy(self):
        plain = make_trace(MIXED, rate=4.0, num_requests=25, seed=8)
        tagged = make_trace(MIXED, rate=4.0, num_requests=25, seed=8,
                            qos_mix=QOS_MIX)
        server = build_loongserve(num_gpus=8)
        first = self._signature(server.run(clone_requests(plain)))
        second = self._signature(server.run(clone_requests(tagged)))
        assert first == second

    def test_make_system_gates_qos_args_cli_too(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(
            ["serve", "--replicas", "2", "--dataset", "sharegpt",
             "--rate", "5", "-n", "8", "--num-gpus", "4",
             "--qos-mix", "interactive:0.5,batch:0.5",
             "--qos", "--admission", "--router", "slo"]
        ) == 0
        out = capsys.readouterr().out
        assert "per-class SLO attainment" in out
        assert "interactive" in out

    def test_cli_rejects_inconsistent_qos_flags(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(
            ["serve", "--dataset", "sharegpt", "-n", "4", "--admission"]
        ) == 2
        assert repro_main(
            ["serve", "--system", "vllm", "--dataset", "sharegpt", "-n", "4",
             "--qos"]
        ) == 2
        assert repro_main(
            ["serve", "--dataset", "sharegpt", "-n", "4",
             "--qos-mix", "platinum:1"]
        ) == 2
        assert repro_main(
            ["serve", "--replicas", "2", "--dataset", "sharegpt", "-n", "4",
             "--autoscale", "--autoscale-predictive"]
        ) == 2
        assert repro_main(
            ["serve", "--dataset", "sharegpt", "-n", "4",
             "--autoscale-predictive"]
        ) == 2

    def test_gen_trace_round_trips_qos_tags(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main
        from repro.workloads.serialization import load_trace

        path = tmp_path / "tagged.jsonl"
        assert repro_main(
            ["gen-trace", "--dataset", "sharegpt", "--rate", "2", "-n", "6",
             "--qos-mix", "interactive:0.6,batch:0.4", "-o", str(path)]
        ) == 0
        restored = load_trace(path)
        assert all(r.qos in ("interactive", "batch") for r in restored)

    def test_make_system_gates_qos_args(self):
        with pytest.raises(ValueError, match="requires the QoS policy"):
            make_system("loongserve", admission=True)
        with pytest.raises(ValueError, match="LoongServe"):
            make_system("vllm", qos=True)
        with pytest.raises(ValueError, match="at most one"):
            make_fleet("loongserve", replicas=2, autoscale=True,
                       autoscale_predictive=True)
