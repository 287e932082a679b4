"""Simulation modes: the optimised discrete path stays bit-identical and
hybrid fluid mode tracks it within tolerance.

The golden-signature gates themselves live with their subsystems
(``test_elastic_fleet.TestStaticGate``, ``test_faults``, ``test_qos``);
this module covers the mode switch, the arrival-grouping fast path, the
fluid stepper's closed-form algebra, and the hybrid-vs-discrete
aggregate tolerances on the seeded Mixed / sessions / QoS traces.
"""

import hashlib
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SchedulerConfig, default_config
from repro.core.server import LoongServeServer
from repro.experiments.systems import make_fleet, make_system
from repro.qos import QoSPolicy
from repro.sessions import make_session_trace
from repro.sim.fluid import FluidStepper, _max_iterations_within, _stretch_time
from repro.types import Request
from repro.workloads.datasets import MIXED
from repro.workloads.trace_gen import clone_requests, make_trace
from tests.test_replica_contract import SYSTEMS


def _signature(requests):
    signature = sorted(
        (r.input_len, r.output_len, round(r.arrival_time, 9),
         round(r.prefill_end, 9), round(r.first_token_time, 9),
         round(r.finish_time, 9), r.preemptions)
        for r in requests if r.finished
    )
    return hashlib.md5(repr(signature).encode()).hexdigest()


def _run(mode: str, trace, qos: bool = False):
    config = default_config(scheduler=SchedulerConfig(sim_mode=mode))
    server = LoongServeServer(config)
    if qos:
        server.qos = QoSPolicy.for_config(config, server.cost_model)
    result = server.run(clone_requests(trace))
    return result, server


def _steady_trace(num_requests=600, cluster=48, interval=8.0, output_len=300):
    return [
        Request(request_id=i, input_len=512, output_len=output_len,
                arrival_time=(i // cluster) * interval)
        for i in range(num_requests)
    ]


class TestModeSwitch:
    def test_default_is_discrete_with_no_stepper(self):
        assert SchedulerConfig().sim_mode == "discrete"
        server = LoongServeServer(default_config())
        assert server._fluid is None

    def test_hybrid_arms_the_stepper(self):
        config = default_config(scheduler=SchedulerConfig(sim_mode="hybrid"))
        server = LoongServeServer(config)
        assert isinstance(server._fluid, FluidStepper)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="sim_mode"):
            SchedulerConfig(sim_mode="continuous")

    def test_explicit_discrete_matches_default_bit_for_bit(self):
        trace = make_trace(MIXED, rate=4.0, num_requests=25, seed=7)
        default_result, _ = _run("discrete", trace)
        explicit = LoongServeServer(default_config())
        explicit_result = explicit.run(clone_requests(trace))
        assert _signature(default_result.requests) == _signature(
            explicit_result.requests
        )


class PerRequestArrivals:
    """A driver posting one arrival event per request: the uncoalesced
    reference for the serving loop's grouped arrivals."""

    def __init__(self, requests):
        self.requests = requests

    @property
    def total_requests(self) -> int:
        """Requests still to arrive at the start (a fleet's control loop
        ticks until they all have)."""
        return len(self.requests)

    def install(self, sim, submit):
        for request in self.requests:
            sim.call_at(
                request.arrival_time, partial(submit, request), label="arrival"
            )


# Fleets the serving loop drives: route-once placement, disagg pools
# (whose handoffs the elastic counters record), and a control loop that
# must keep ticking while arrivals remain.
FLEETS = {
    "route-once": dict(replicas=2, router="round-robin"),
    "disagg": dict(replicas=3, disagg=1, prefix_cache=True),
    "steal-autoscale": dict(replicas=3, router="least-kv", steal=True,
                            autoscale=True),
}


def _clock(server):
    """The simulator the server's last run used."""
    return server.ledgers()[0].sim


class TestArrivalGrouping:
    """``run()`` coalesces same-timestamp arrivals into one event, on
    every shape and on fleets; the outcome must be bit-identical to
    per-request arrival events."""

    def _grouped_and_ungrouped(self, trace, system="loongserve"):
        grouped_server = make_system(system, requests=trace)
        grouped = grouped_server.run(clone_requests(trace))
        ungrouped_server = make_system(system, requests=trace)
        ungrouped = ungrouped_server.run_driven(
            PerRequestArrivals(clone_requests(trace))
        )
        return grouped, ungrouped, _clock(grouped_server), _clock(ungrouped_server)

    def test_clustered_timestamps_identical(self):
        trace = _steady_trace(num_requests=200, cluster=25, interval=5.0,
                              output_len=40)
        grouped, ungrouped, gs, us = self._grouped_and_ungrouped(trace)
        assert _signature(grouped.requests) == _signature(ungrouped.requests)
        assert grouped.makespan == ungrouped.makespan
        # The grouping is the whole point: fewer arrival events fired.
        assert gs.events_processed < us.events_processed

    def test_distinct_timestamps_identical(self):
        trace = make_trace(MIXED, rate=4.0, num_requests=30, seed=7)
        grouped, ungrouped, gs, us = self._grouped_and_ungrouped(trace)
        assert _signature(grouped.requests) == _signature(ungrouped.requests)
        # Poisson arrivals never tie, so grouping changes nothing at all.
        assert gs.events_processed == us.events_processed

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_shape_groups_identically(self, system):
        trace = _steady_trace(num_requests=60, cluster=12, interval=3.0,
                              output_len=40)
        trace.append(Request(request_id=60, input_len=2_000_000,
                             output_len=4, arrival_time=3.0))  # aborts
        grouped, ungrouped, gs, us = self._grouped_and_ungrouped(trace, system)
        assert _outcomes(grouped) == _outcomes(ungrouped)
        assert [r.request_id for r in grouped.aborted] == [60]
        assert gs.events_processed < us.events_processed

    @pytest.mark.parametrize("fleet", sorted(FLEETS))
    def test_every_fleet_groups_identically(self, fleet):
        trace = _steady_trace(num_requests=60, cluster=12, interval=3.0,
                              output_len=40)
        trace.append(Request(request_id=60, input_len=2_000_000,
                             output_len=4, arrival_time=3.0))  # aborts
        runs = []
        for grouped in (True, False):
            system = make_fleet("loongserve", requests=trace, num_gpus=4,
                                **FLEETS[fleet])
            requests = clone_requests(trace)
            result = (
                system.run(requests) if grouped
                else system.run_driven(PerRequestArrivals(requests))
            )
            runs.append((result, system.sim.events_processed))
        (grouped, grouped_events), (ungrouped, ungrouped_events) = runs
        assert _outcomes(grouped) == _outcomes(ungrouped)
        assert list(map(_outcomes, grouped.per_replica)) == list(
            map(_outcomes, ungrouped.per_replica)
        )
        assert grouped.elastic == ungrouped.elastic
        assert [r.request_id for r in grouped.aborted] == [60]
        assert grouped_events < ungrouped_events


def _outcomes(result):
    """Everything a run serves, requests named by id."""
    return (
        [(r.request_id, r.prefill_start, r.first_token_time, r.finish_time,
          r.generated, r.preemptions) for r in result.requests],
        [r.request_id for r in result.aborted],
        result.stranded,
        result.iteration_stats,
        result.scaling_events,
        result.makespan,
    )


class TestHybridTolerance:
    """Hybrid is an approximation; its aggregates must stay close to the
    discrete reference on the seeded traces the suite gates on."""

    def test_steady_trace_matches_tightly(self):
        trace = _steady_trace()
        discrete, _ = _run("discrete", trace)
        hybrid, hs = _run("hybrid", trace)
        d_tokens = sum(r.generated for r in discrete.requests if r.finished)
        h_tokens = sum(r.generated for r in hybrid.requests if r.finished)
        assert h_tokens == d_tokens
        assert abs(hybrid.makespan - discrete.makespan) <= 0.02 * discrete.makespan
        # Counted in simulated work, not discrete events: a decode window
        # runs many discrete iterations inside one event.
        assert hs.sim.events_processed <= len(discrete.iteration_stats) / 5
        assert hs._fluid.windows > 0

    def test_mixed_trace_within_tolerance(self):
        trace = make_trace(MIXED, rate=4.0, num_requests=60, seed=7)
        discrete, _ = _run("discrete", trace)
        hybrid, _ = _run("hybrid", trace)
        d_fin = [r for r in discrete.requests if r.finished]
        h_fin = [r for r in hybrid.requests if r.finished]
        assert len(h_fin) == len(d_fin)
        assert sum(r.generated for r in h_fin) == sum(r.generated for r in d_fin)
        assert abs(hybrid.makespan - discrete.makespan) <= 0.15 * discrete.makespan
        d_lat = sum(r.end_to_end_latency for r in d_fin) / len(d_fin)
        h_lat = sum(r.end_to_end_latency for r in h_fin) / len(h_fin)
        assert abs(h_lat - d_lat) <= 0.25 * d_lat

    def test_sessions_trace_within_tolerance(self):
        trace = make_session_trace(rate=0.8, num_sessions=10, seed=5)
        discrete, _ = _run("discrete", trace)
        hybrid, _ = _run("hybrid", trace)
        d_fin = [r for r in discrete.requests if r.finished]
        h_fin = [r for r in hybrid.requests if r.finished]
        assert len(h_fin) == len(d_fin)
        assert sum(r.generated for r in h_fin) == sum(r.generated for r in d_fin)
        assert abs(hybrid.makespan - discrete.makespan) <= 0.15 * discrete.makespan

    def test_qos_trace_attainment_within_tolerance(self):
        from repro.experiments.qos import make_qos_trace

        trace = make_qos_trace(scale=0.25)
        discrete, _ = _run("discrete", trace, qos=True)
        hybrid, _ = _run("hybrid", trace, qos=True)
        assert discrete.qos_stats is not None and hybrid.qos_stats is not None
        for cls, counters in discrete.qos_stats.items():
            submitted = counters.get("submitted", 0)
            if submitted == 0:
                continue
            d_att = counters.get("attained", 0) / submitted
            h_counters = hybrid.qos_stats.get(cls, {})
            h_submitted = h_counters.get("submitted", 0) or 1
            h_att = h_counters.get("attained", 0) / h_submitted
            assert abs(h_att - d_att) <= 0.15, (
                f"{cls}: hybrid attainment {h_att:.3f} vs discrete {d_att:.3f}"
            )
        assert abs(hybrid.makespan - discrete.makespan) <= 0.15 * discrete.makespan

    @settings(max_examples=5, deadline=None)
    @given(
        cluster=st.integers(min_value=16, max_value=64),
        output_len=st.integers(min_value=100, max_value=500),
        interval=st.floats(min_value=4.0, max_value=12.0),
    )
    def test_steady_family_tokens_exact_makespan_close(
        self, cluster, output_len, interval
    ):
        trace = _steady_trace(num_requests=300, cluster=cluster,
                              interval=interval, output_len=output_len)
        discrete, _ = _run("discrete", trace)
        hybrid, _ = _run("hybrid", trace)
        d_tokens = sum(r.generated for r in discrete.requests if r.finished)
        h_tokens = sum(r.generated for r in hybrid.requests if r.finished)
        assert h_tokens == d_tokens
        assert abs(hybrid.makespan - discrete.makespan) <= 0.05 * discrete.makespan


class TestFluidAlgebra:
    @given(
        k=st.integers(min_value=1, max_value=2_000),
        d_start=st.floats(min_value=1e-4, max_value=1.0),
        slope=st.floats(min_value=0.0, max_value=1e-3),
    )
    @settings(max_examples=50, deadline=None)
    def test_stretch_time_is_the_trapezoid_sum(self, k, d_start, slope):
        direct = sum(d_start + slope * i for i in range(k))
        assert _stretch_time(k, d_start, slope) == pytest.approx(direct, rel=1e-9)

    @given(
        budget=st.floats(min_value=1e-3, max_value=100.0),
        d_start=st.floats(min_value=1e-4, max_value=0.5),
        slope=st.floats(min_value=0.0, max_value=1e-2),
        cap=st.integers(min_value=1, max_value=100_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_max_iterations_is_the_stretch_inverse(
        self, budget, d_start, slope, cap
    ):
        k = _max_iterations_within(budget, d_start, slope, cap)
        assert 0 <= k <= cap
        if k >= 1:
            assert _stretch_time(k, d_start, slope) <= budget * (1 + 1e-9)
        if k < cap:
            assert _stretch_time(k + 1, d_start, slope) >= budget * (1 - 1e-9)

    def test_zero_budget_yields_no_iterations(self):
        assert _max_iterations_within(0.0, 0.01, 0.0, 100) == 0
        assert _max_iterations_within(-1.0, 0.01, 0.0, 100) == 0


class TestFluidWindows:
    def test_windows_absorb_most_decode_iterations(self):
        trace = _steady_trace(num_requests=500)
        _, ds = _run("discrete", trace)
        _, hs = _run("hybrid", trace)
        stepper = hs._fluid
        assert stepper.windows > 0
        # Most of the discrete run's iterations are decode iterations,
        # and the windows soak up the bulk of them.  (The counts need not
        # reconcile exactly: windows freeze batch membership, so hybrid
        # runs fewer, larger batches than the discrete reference.)
        assert stepper.iterations_absorbed >= 0.5 * len(ds.iteration_stats)
        assert len(ds.iteration_stats) >= 5 * hs.sim.events_processed

    def test_kv_fully_released_after_hybrid_run(self):
        trace = _steady_trace(num_requests=300)
        _, server = _run("hybrid", trace)
        assert server.pool.total_free == server.config.total_kv_slots

    def test_no_window_without_ready_decode_batches(self):
        # Backlog alone no longer disengages fluid mode (PR 8), but with
        # nothing decoding there is still nothing to advance.
        config = default_config(scheduler=SchedulerConfig(sim_mode="hybrid"))
        server = LoongServeServer(config)
        server._reset()
        server.pending.append(
            Request(request_id=0, input_len=8, output_len=8, arrival_time=0.0)
        )
        assert server._fluid.try_window() is False


class ImportSpy(LoongServeServer):
    """Counts the prefix imports (and their tokens) that land while one
    of this replica's fluid windows is open, its KV growth already
    allocated on the premise that no event competes for it."""

    imports = 0
    inside = 0
    inside_tokens = 0

    def import_prefix(self, token_ids, now) -> int:
        placed = super().import_prefix(token_ids, now)
        self.imports += 1
        if any(
            timer.active and timer.event.label == "fluid_done" and timer.event.time > now
            for timer in self._timers
        ):
            self.inside += 1
            self.inside_tokens += placed
        return placed


class TestHybridFleetHorizon:
    def test_disagg_imports_never_land_inside_a_fluid_window(self):
        """A disagg handoff imports into a decode replica from inside a
        prefill replica's event.  The prefill replicas serve hooked
        clones, so their events bound every decode replica's fluid
        windows: no import lands inside one.  (Bounded by its own shard
        and shard 0 only, 142 of these 200 imports, 3,200,876 tokens,
        landed inside a window.)"""
        spies = []
        for seed in range(4):
            fleet = make_fleet(
                "loongserve", replicas=5, disagg=2, prefix_cache=True,
                router="least-kv", sim_mode="hybrid",
            )
            for handle in fleet.replicas:
                handle.server.__class__ = ImportSpy
                spies.append(handle.server)
            fleet.run(clone_requests(make_trace(MIXED, rate=10.0, num_requests=50, seed=seed)))
        assert sum(spy.imports for spy in spies) == 200
        assert sum(spy._fluid.windows for spy in spies) > 0
        assert sum(spy.inside for spy in spies) == 0
        assert sum(spy.inside_tokens for spy in spies) == 0


def _backlogged_trace(num_requests=80, input_len=1024, output_len=300):
    """Everything arrives at t=0: admission is memory-gated, so the
    pending queue stays deep while the first cohorts decode."""
    return [
        Request(request_id=i, input_len=input_len, output_len=output_len,
                arrival_time=0.0)
        for i in range(num_requests)
    ]


class TestBacklogWindows:
    """Fluid windows under a non-empty pending queue (PR 8)."""

    def test_windows_launch_while_queue_is_backlogged(self, monkeypatch):
        # Patch the class: ``run()`` rebuilds the stepper in ``_reset``.
        original = FluidStepper.try_window
        backlog_at_launch = []

        def spy(stepper):
            before = stepper.windows
            engaged = original(stepper)
            if engaged and stepper.windows > before and stepper.server.pending:
                backlog_at_launch.append(len(stepper.server.pending))
            return engaged

        monkeypatch.setattr(FluidStepper, "try_window", spy)
        _run("hybrid", _backlogged_trace())
        assert backlog_at_launch, (
            "no fluid window launched while requests were queued — the "
            "backlog path has disengaged"
        )

    def test_backlogged_tokens_exact_and_makespan_bounded(self):
        trace = _backlogged_trace()
        discrete, ds = _run("discrete", trace)
        hybrid, hs = _run("hybrid", trace)
        d_fin = [r for r in discrete.requests if r.finished]
        h_fin = [r for r in hybrid.requests if r.finished]
        assert len(h_fin) == len(d_fin)
        assert sum(r.generated for r in h_fin) == sum(r.generated for r in d_fin)
        assert abs(hybrid.makespan - discrete.makespan) <= 0.15 * discrete.makespan
        assert hs._fluid.windows > 0
        assert hs.sim.events_processed < len(ds.iteration_stats)

    def test_admission_horizon_infinite_without_qos_preemption(self):
        config = default_config(scheduler=SchedulerConfig(sim_mode="hybrid"))
        server = LoongServeServer(config)
        server._reset()
        server.pending.append(
            Request(request_id=0, input_len=8, output_len=8, arrival_time=0.0)
        )
        assert server._fluid._admission_horizon(1.0) == float("inf")
        server.qos = QoSPolicy.for_config(config, server.cost_model,
                                          preemption=False)
        assert server._fluid._admission_horizon(1.0) == float("inf")

    def test_admission_horizon_prices_the_slack_crossing(self):
        config = default_config(scheduler=SchedulerConfig(sim_mode="hybrid"))
        server = LoongServeServer(config)
        server.qos = QoSPolicy.for_config(config, server.cost_model)
        server._reset()
        top = Request(request_id=0, input_len=64, output_len=32,
                      arrival_time=0.0, qos="interactive")
        top.deadline = 30.0
        lower = Request(request_id=1, input_len=64, output_len=32,
                        arrival_time=0.0, qos="batch")
        lower.deadline = 2.0  # urgent but not top-tier: never preempts
        server.pending.extend([top, lower])
        now = 5.0
        threshold = server.qos.preempt_slack_fraction * (
            top.deadline - top.arrival_time
        )
        expected = now + server.qos.slack(top, now) - threshold
        assert server._fluid._admission_horizon(now) == pytest.approx(expected)

    @settings(max_examples=5, deadline=None)
    @given(
        num_requests=st.integers(min_value=40, max_value=100),
        output_len=st.integers(min_value=100, max_value=300),
        stagger=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_backlogged_family_tokens_exact_makespan_bounded(
        self, num_requests, output_len, stagger
    ):
        trace = [
            Request(request_id=i, input_len=512, output_len=output_len,
                    arrival_time=(i % 8) * stagger)
            for i in range(num_requests)
        ]
        discrete, _ = _run("discrete", trace)
        hybrid, _ = _run("hybrid", trace)
        d_tokens = sum(r.generated for r in discrete.requests if r.finished)
        h_tokens = sum(r.generated for r in hybrid.requests if r.finished)
        assert h_tokens == d_tokens
        assert abs(hybrid.makespan - discrete.makespan) <= 0.15 * discrete.makespan


class TestKVWindowShrink:
    """The window launcher must shrink to the pool's live budget instead
    of overrunning ``_bulk_extend``'s free-slot invariant (PR 8 fix)."""

    def test_planned_appends_counts_finishing_requests_once_less(self):
        from types import SimpleNamespace

        batch = SimpleNamespace(requests=[
            SimpleNamespace(output_len=100, generated=10),   # survives: n
            SimpleNamespace(output_len=100, generated=95),   # finishes at 5: n-1
            SimpleNamespace(output_len=100, generated=100),  # done: n-1
        ])
        assert FluidStepper._planned_appends(batch, 5) == 5 + 4 + 4
        # At n=1 the middle request (5 remaining) no longer finishes
        # inside the window, so it appends the full n.
        assert FluidStepper._planned_appends(batch, 1) == 1 + 1 + 0

    def test_launch_shrinks_to_the_live_kv_budget(self, monkeypatch):
        """Starve the pool right before each launch: the window must
        shrink (or skip) deterministically, never raise, and the run
        must still finish every request."""
        original = FluidStepper._launch
        sentinel = 10**9
        squeezed = []

        def starving_launch(stepper, final, now):
            pool = stepper.server.pool
            batch = final[0][0]
            ids = list(batch.instance_ids)
            free = pool.free_on(ids)
            # Leave roughly one iteration of headroom — far less than
            # the n the planner just sized against the pre-squeeze pool.
            hold = max(0, free - 2 * batch.batch_size)
            taken = 0
            for instance_id in ids:
                take = min(hold - taken, pool.pools[instance_id].free)
                if take > 0:
                    pool.extend(sentinel, instance_id, take)
                    taken += take
                if taken >= hold:
                    break
            if taken:
                squeezed.append(taken)
            try:
                return original(stepper, final, now)
            finally:
                pool.evict(sentinel)

        monkeypatch.setattr(FluidStepper, "_launch", starving_launch)
        trace = _steady_trace(num_requests=120, cluster=24, interval=8.0,
                              output_len=200)
        result, server = _run("hybrid", trace)
        assert squeezed, "starvation never applied — test setup is broken"
        assert all(r.finished for r in result.requests)
        assert server.pool.total_free == server.config.total_kv_slots
