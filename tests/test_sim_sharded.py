"""Sharded event calendars serve exactly what the single heap serves.

The sharded engine (``Simulator.create_shard`` + ``ShardClock``) pops in
the single heap's order — same ``(time, priority, seq)`` tie-breaks,
same weak/cancelled handling — while each replica's events sift in a
heap of their own.  A replica's server may also run its own work ahead
of other replicas' events, up to its horizon
(``ShardClock.horizon_key``): the earliest event on its own shard, on
shard 0 (the control plane) or on a shard whose replica holds a request
with a completion hook.  So a sharded fleet keeps every outcome, not
every event.  This module pins both promises: unit tests on the
coordination machinery and the horizon rules, a hypothesis differential
harness replaying random programs on both layouts, golden-signature
gates on elastic fleets (observability on and off), and a hypothesis
property serving random fleet compositions on both layouts.
"""

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.systems import make_fleet
from repro.fleet import FaultPlan
from repro.fleet.disagg import CLONE_ID_OFFSET
from repro.obs import Observability
from repro.sessions import ClosedLoopDriver, make_session_trace, plan_sessions
from repro.sim.engine import ShardClock, Simulator
from repro.types import Request
from repro.workloads.datasets import MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace
from tests.conftest import make_request


class TestShardClock:
    def test_create_shard_returns_clock_facade(self):
        sim = Simulator()
        clock = sim.create_shard()
        assert isinstance(clock, ShardClock)
        assert clock.shard_id == 1
        assert clock.now == sim.now
        assert sim.create_shard().shard_id == 2

    def test_scheduling_in_the_past_raises_like_the_simulator(self):
        sim = Simulator()
        clock = sim.create_shard()
        sim.call_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="cannot schedule"):
            clock.call_at(0.5, lambda: None)
        with pytest.raises(ValueError, match="non-negative"):
            clock.call_after(-1.0, lambda: None)

    def test_timer_cancellation_routes_to_the_owning_shard(self):
        sim = Simulator()
        clock = sim.create_shard()
        log = []
        timer = clock.call_at(1.0, lambda: log.append("dead"))
        clock.call_at(2.0, lambda: log.append("live"))
        timer.cancel()
        sim.run()
        assert log == ["live"]
        assert sim.now == 2.0

    def test_next_event_time_is_the_replica_local_horizon(self):
        sim = Simulator()
        clock_a = sim.create_shard()
        clock_b = sim.create_shard()
        sim.call_at(5.0, lambda: None)      # control plane (shard 0)
        clock_a.call_at(3.0, lambda: None)  # own work
        clock_b.call_at(1.0, lambda: None)  # another replica's work
        # A's horizon sees its own head and the control plane's — not B's:
        # B holds no hooked request, so it reaches A only through shard 0.
        assert clock_a.horizon_key()[0] == 3.0
        assert clock_b.horizon_key()[0] == 1.0
        assert sim.horizon_key()[0] == 1.0

    def test_the_horizon_is_the_minimum_of_own_control_and_reaching_shards(self):
        sim = Simulator()
        own, reaching, other = (sim.create_shard() for _ in range(3))
        own.call_at(4.0, lambda: None)
        reaching.call_at(3.0, lambda: None)
        other.call_at(1.0, lambda: None)
        control = sim.call_at(5.0, lambda: None)
        assert own.horizon_key() == (4.0, 0, 0)  # own head under shard 0's
        reaching.mark_reaching()
        assert own.horizon_key() == (3.0, 0, 1)
        assert other.horizon_key() == (1.0, 0, 2)  # its own head
        control.cancel()
        sim.call_at(2.0, lambda: None, priority=1)
        assert own.horizon_key() == (2.0, 1, 4)
        # The simulator's key stays global: it sees the other shard too.
        assert sim.horizon_key() == (1.0, 0, 2)

    def test_a_reaching_shards_horizon_is_the_global_key(self):
        sim = Simulator()
        clock_a = sim.create_shard()
        clock_b = sim.create_shard()
        sim.call_at(5.0, lambda: None)
        clock_a.call_at(3.0, lambda: None)
        first = clock_b.call_at(1.0, lambda: None)
        clock_a.mark_reaching()
        for clock in (sim, clock_a, clock_b):
            assert clock.horizon_key() == sim.horizon_key() == (1.0, 0, 2)
        first.cancel()  # a dead global head falls through to the live one
        for clock in (sim, clock_a, clock_b):
            assert clock.horizon_key() == (3.0, 0, 1)

    def test_stop_from_a_shard_action_halts_the_run(self):
        sim = Simulator()
        clock = sim.create_shard()
        log = []
        clock.call_at(1.0, lambda: (log.append(1), clock.stop()))
        clock.call_at(2.0, lambda: log.append(2))
        sim.run()
        assert log == [1]
        assert sim.now == 1.0


class TestHorizons:
    """Who reaches whom, where the run ends, and the loud violation."""

    @pytest.mark.parametrize("submit", ["submit", "submit_shadow"])
    def test_a_hooked_submit_through_the_handle_marks_the_replica(self, submit):
        fleet = make_fleet("loongserve", replicas=2)
        sim = Simulator()
        fleet.use_simulator(sim)
        plain, hooked = fleet.replicas
        plain.submit(make_request(input_len=100, output_len=4))
        getattr(hooked, submit)(make_request(input_len=100, output_len=4))
        assert sim._reaches == [True, False, False]
        request = make_request(input_len=100, output_len=4)
        fired = []
        request.on_finish = fired.append
        getattr(hooked, submit)(request)
        assert sim._reaches == [True, False, True]
        sim.run_until_idle()
        # The hook fired, and the replica reaches for the rest of the run.
        assert fired == [request.finish_time]
        assert sim._reaches == [True, False, True]
        clock = hooked.server.sim
        clock.call_at(sim.now + 1.0, lambda: None)
        plain.server.sim.call_at(sim.now + 0.5, lambda: None)
        assert clock.horizon_key() == sim.horizon_key()

    def test_a_run_ends_at_the_latest_time_reached(self):
        sim = Simulator()
        clock_a, clock_b = sim.create_shard(), sim.create_shard()
        seen = []
        clock_a.call_at(1.0, lambda: clock_a.advance_to(5.0))
        clock_b.call_at(2.0, lambda: seen.append(sim.now))
        assert sim.run() == 5.0
        assert seen == [2.0]  # the clock stepped back for B's event
        assert sim.now == 5.0

    @pytest.mark.parametrize("cut", ["stop", "max_events"])
    def test_a_cut_leaves_a_replica_that_ran_ahead_where_it_is(self, cut):
        sim = Simulator()
        clock_a, clock_b = sim.create_shard(), sim.create_shard()
        clock_a.call_at(1.0, lambda: clock_a.advance_to(5.0))
        clock_b.call_at(2.0, (sim.stop if cut == "stop" else lambda: None))
        clock_b.call_at(3.0, lambda: None)
        assert sim.run(max_events=2 if cut == "max_events" else None) == 5.0
        assert sim.run() == 5.0  # B's later event runs behind the clock

    def test_a_non_reaching_shards_post_to_another_calendar_raises(self):
        for target in ("other", "control"):
            sim = Simulator()
            clock_a, clock_b = sim.create_shard(), sim.create_shard()
            post = clock_b.call_at if target == "other" else sim.call_at
            clock_a.call_at(1.0, lambda: post(2.0, lambda: None))
            with pytest.raises(RuntimeError, match="completion hook"):
                sim.run()
        # Its own calendar, and any calendar once it reaches, are fine.
        sim = Simulator()
        clock_a, clock_b = sim.create_shard(), sim.create_shard()
        log = []
        clock_a.call_at(1.0, lambda: clock_a.call_at(1.5, lambda: log.append("own")))
        clock_b.call_at(2.0, lambda: clock_a.call_at(3.0, lambda: log.append("a")))
        clock_b.mark_reaching()
        sim.run()
        assert log == ["own", "a"]


class TestShardedOrdering:
    def test_cross_shard_events_pop_in_global_time_order(self):
        sim = Simulator()
        clocks = [sim.create_shard() for _ in range(3)]
        log = []
        clocks[2].call_at(3.0, lambda: log.append("c"))
        clocks[0].call_at(1.0, lambda: log.append("a"))
        sim.call_at(4.0, lambda: log.append("d"))
        clocks[1].call_at(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c", "d"]

    def test_timestamp_ties_break_by_priority_then_program_order(self):
        sim = Simulator()
        clocks = [sim.create_shard() for _ in range(2)]
        log = []
        clocks[1].call_at(1.0, lambda: log.append("late-priority"), priority=9)
        clocks[0].call_at(1.0, lambda: log.append("first"))
        sim.call_at(1.0, lambda: log.append("second"))
        clocks[0].call_at(1.0, lambda: log.append("third"))
        sim.run()
        # Shared seq counter: insertion order breaks the tie exactly as
        # one heap would, and priority sorts after time.
        assert log == ["first", "second", "third", "late-priority"]

    def test_actions_can_schedule_across_shards_mid_run(self):
        sim = Simulator()
        clock_a = sim.create_shard()
        clock_b = sim.create_shard()
        clock_a.mark_reaching()  # its event posts to B and to shard 0
        log = []

        def first():
            log.append("first")
            clock_b.call_after(0.5, lambda: log.append("nested-b"))
            sim.call_after(1.0, lambda: log.append("nested-0"))

        clock_a.call_at(1.0, first)
        clock_b.call_at(3.0, lambda: log.append("last"))
        sim.run()
        assert log == ["first", "nested-b", "nested-0", "last"]

    def test_cancelled_shard_head_does_not_block_other_shards(self):
        sim = Simulator()
        clock_a = sim.create_shard()
        clock_b = sim.create_shard()
        log = []
        dead = clock_a.call_at(1.0, lambda: log.append("dead"))
        clock_b.call_at(2.0, lambda: log.append("b"))
        clock_a.call_at(3.0, lambda: log.append("a"))
        dead.cancel()
        sim.run()
        assert log == ["b", "a"]
        assert sim.now == 3.0

    def test_trailing_weak_event_is_discarded_across_shards(self):
        sim = Simulator()
        clock = sim.create_shard()
        log = []
        clock.call_at(1.0, lambda: log.append("real"))
        clock.call_at(5.0, lambda: log.append("weak"), weak=True)
        sim.run()
        assert log == ["real"]
        assert sim.now == 1.0

    def test_weak_event_runs_when_another_shard_has_live_work(self):
        sim = Simulator()
        clock_a = sim.create_shard()
        clock_b = sim.create_shard()
        log = []
        clock_a.call_at(1.0, lambda: log.append("weak"), weak=True)
        clock_b.call_at(2.0, lambda: log.append("real"))
        sim.run()
        assert log == ["weak", "real"]

    def test_run_until_leaves_later_shard_events_queued(self):
        sim = Simulator()
        clock = sim.create_shard()
        log = []
        clock.call_at(1.0, lambda: log.append(1))
        clock.call_at(5.0, lambda: log.append(5))
        assert sim.run(until=2.0) == 2.0
        assert log == [1]
        assert sim.run() == 5.0
        assert log == [1, 5]

    def test_max_events_budget_counts_across_shards(self):
        sim = Simulator()
        clocks = [sim.create_shard() for _ in range(2)]
        log = []
        for i in range(6):
            clocks[i % 2].call_at(float(i), lambda i=i: log.append(i))
        sim.run(max_events=4)
        assert log == [0, 1, 2, 3]


# -- differential harness: random programs, both layouts -------------------

_program = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),          # target shard
        st.floats(min_value=0.0, max_value=10.0),       # event time
        st.integers(min_value=0, max_value=2),          # priority
        st.booleans(),                                  # cancel after scheduling
        st.booleans(),                                  # weak
        st.integers(min_value=0, max_value=2),          # children to spawn
    ),
    min_size=1,
    max_size=30,
)


def _replay(program, shards: int):
    """Run ``program`` on a simulator with ``shards`` extra calendars
    (0 = plain single heap) and return the execution log + final clock.
    Every shard's events post across calendars, so every shard reaches,
    and every horizon is the global key."""
    sim = Simulator()
    clocks = [sim] + [sim.create_shard() for _ in range(shards)]
    for clock in clocks:
        clock.mark_reaching()
    log = []

    def schedule(index, target, time, priority, cancel, weak, children):
        clock = clocks[target % len(clocks)]

        def action():
            # The horizon every layout must agree on, read mid-action.
            log.append((index, sim.now, clock.horizon_key()))
            for child in range(children):
                child_clock = clocks[(target + child + 1) % len(clocks)]
                child_clock.call_after(
                    0.25 * (child + 1),
                    lambda: log.append((f"{index}.{child}", sim.now)),
                    priority=child,
                )

        timer = clock.call_at(time, action, priority=priority, weak=weak)
        if cancel:
            timer.cancel()

    for index, step in enumerate(program):
        schedule(index, *step)
    final = sim.run()
    return log, final, sim.events_processed


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(program=_program)
    def test_sharded_replays_the_single_heap_exactly(self, program):
        single = _replay(program, shards=0)
        for shards in (1, 3):
            assert _replay(program, shards) == single

    def test_run_until_then_resume_matches(self):
        program = [
            (s % 4, float(t), t % 3, False, False, 1)
            for s, t in enumerate(range(10))
        ]

        def split_run(shards):
            sim = Simulator()
            clocks = [sim] + [sim.create_shard() for _ in range(shards)]
            log = []
            for index, (target, time, priority, _, _, _) in enumerate(program):
                clocks[target % len(clocks)].call_at(
                    time, lambda i=index: log.append((i, sim.now)),
                    priority=priority,
                )
            sim.run(until=4.5)
            mid = list(log)
            sim.run()
            return mid, log, sim.now

        assert split_run(3) == split_run(0)


# -- golden gates: elastic fleet, sharded vs shared heap -------------------


def _fleet_signature(requests):
    """Outcome digest; request ids excluded (the global id counter moves
    between trace rebuilds, the workload tuple + timestamps pin the run)."""
    rows = sorted(
        (r.input_len, r.output_len, round(r.arrival_time, 9),
         round(r.prefill_end, 9) if r.prefill_end is not None else -1.0,
         round(r.finish_time, 9) if r.finish_time is not None else -1.0,
         r.generated, r.preemptions)
        for r in requests
    )
    return hashlib.md5(repr(rows).encode()).hexdigest()


def _run_fleet(sharded: bool, observe: bool):
    fleet = make_fleet(
        "loongserve", replicas=4, router="least-kv", num_gpus=4,
        autoscale=True, steal=True, sharded=sharded,
    )
    obs = None
    if observe:
        obs = Observability()
        fleet.observe(obs)
    trace = clone_requests(make_trace(MIXED, rate=4.0, num_requests=60, seed=7))
    result = fleet.run(trace)
    return result, fleet, obs


class TestFleetGoldenGates:
    def test_elastic_fleet_bit_identical_obs_off(self):
        unsharded, uf, _ = _run_fleet(sharded=False, observe=False)
        sharded, sf, _ = _run_fleet(sharded=True, observe=False)
        assert _fleet_signature(sharded.requests) == _fleet_signature(
            unsharded.requests
        )
        assert sharded.makespan == unsharded.makespan
        # Replicas run ahead of each other's events: fewer events.
        assert sf.sim.events_processed < uf.sim.events_processed
        assert sf.sim._multi and not uf.sim._multi

    def test_elastic_fleet_bit_identical_obs_on(self):
        unsharded, _, uobs = _run_fleet(sharded=False, observe=True)
        sharded, _, sobs = _run_fleet(sharded=True, observe=True)
        assert _fleet_signature(sharded.requests) == _fleet_signature(
            unsharded.requests
        )
        assert sharded.makespan == unsharded.makespan
        # The same decisions observe identically.
        assert len(sobs.tracer.spans) == len(uobs.tracer.spans)
        assert len(sobs.tracer.records) == len(uobs.tracer.records)
        assert len(sobs.metrics.sample_times) == len(uobs.metrics.sample_times)

    def test_observability_never_perturbs_the_sharded_fleet(self):
        plain, _, _ = _run_fleet(sharded=True, observe=False)
        observed, _, _ = _run_fleet(sharded=True, observe=True)
        assert _fleet_signature(observed.requests) == _fleet_signature(
            plain.requests
        )

    def test_single_server_keeps_the_single_heap_fast_path(self):
        from repro.config import default_config
        from repro.core.server import LoongServeServer

        server = LoongServeServer(default_config())
        server.run(clone_requests(make_trace(MIXED, rate=4.0, num_requests=10, seed=7)))
        assert not server.sim._multi


# -- random fleet compositions, both layouts --------------------------------


@st.composite
def _fleet_runs(draw):
    """A random fleet composition and its workload: ``(make_fleet
    kwargs, observe, workload)``, where the workload is a trace or a
    closed-loop session plan list."""
    replicas = draw(st.integers(min_value=2, max_value=4))
    prefix_cache = draw(st.booleans())
    disagg = draw(st.integers(min_value=1, max_value=replicas - 1)) if (
        prefix_cache and draw(st.booleans())
    ) else 0
    qos = draw(st.booleans())
    faults = None
    if draw(st.booleans()):
        faults = FaultPlan.poisson(
            replicas, horizon_s=40.0, mtbf_s=30.0, downtime_s=4.0,
            seed=draw(st.integers(min_value=0, max_value=99)),
        )
    kwargs = dict(
        replicas=replicas, num_gpus=draw(st.sampled_from([2, 4])),
        router=draw(st.sampled_from(
            ["round-robin", "least-kv"] + (["affinity"] if prefix_cache else [])
        )),
        prefix_cache=prefix_cache, disagg=disagg,
        steal=draw(st.booleans()), autoscale=draw(st.booleans()),
        migrate_kv=prefix_cache and draw(st.booleans()),
        kv_tiers="lru" if prefix_cache and draw(st.booleans()) else None,
        kv_host_tokens=20_000, kv_ssd_tokens=60_000,
        qos=qos, admission=qos and draw(st.booleans()), faults=faults,
    )
    seed = draw(st.integers(min_value=0, max_value=10_000))
    qos_mix = {"interactive": 0.4, "standard": 0.4, "batch": 0.2} if qos else None
    kind = draw(st.sampled_from(["closed-loop", "sessions", "mixed", "sharegpt"]))
    if kind == "closed-loop":
        workload = plan_sessions(rate=3.0, num_sessions=6, seed=seed, qos_mix=qos_mix)
    elif kind == "sessions":
        workload = make_session_trace(rate=3.0, num_sessions=6, seed=seed, qos_mix=qos_mix)
    else:
        dataset, rate = (MIXED, 2.0) if kind == "mixed" else (SHAREGPT, 20.0)
        workload = make_trace(dataset, rate=rate, num_requests=16, seed=seed, qos_mix=qos_mix)
    return kwargs, draw(st.booleans()), workload


def _serve_composition(kwargs, observe, workload, sharded):
    """Serve one composition; returns what both layouts must agree on."""
    fleet = make_fleet("loongserve", sharded=sharded, **kwargs)
    obs = None
    if observe:
        obs = Observability()
        fleet.observe(obs)
    if isinstance(workload[0], Request):
        result = fleet.run(clone_requests(workload))
    else:
        result = fleet.run_driven(ClosedLoopDriver(workload))
    served = {
        # Request ids are drawn from a process-wide counter by the
        # closed-loop driver, so rows go by content.
        "requests": sorted(
            (r.session_id or -1, r.turn, r.input_len, r.output_len,
             r.arrival_time, r.prefill_end or -1.0, r.first_token_time or -1.0,
             r.finish_time or -1.0, r.generated, r.preemptions)
            for r in result.requests
        ),
        "aborted": len(result.aborted),
        "stranded": len(result.stranded),
        "iterations": [
            (s.phase, s.batch_size, s.total_tokens, s.dop, s.duration, s.start_time)
            for s in result.iteration_stats
        ],
        "scaling": [
            (e.time, e.kind, e.group_before, e.group_after, e.batch_size)
            for e in result.scaling_events
        ],
        "makespan": result.makespan,
    }
    if obs is not None:
        # Batch labels come from the process-wide batch counter, whose
        # draws interleave differently when replicas run ahead; request
        # ids are named by content, as above (a disagg clone by its
        # original's).
        names = {
            r.request_id: (r.session_id, r.turn, r.arrival_time, r.input_len)
            for r in result.requests + result.aborted
        }

        def payload(audit):
            items = dict(audit.payload)
            items.pop("batch", None)
            if "request" in items:
                rid = items["request"]
                items["request"] = (rid >= CLONE_ID_OFFSET, names.get(rid % CLONE_ID_OFFSET))
            return tuple(sorted((k, repr(v)) for k, v in items.items()))

        served["audits"] = Counter(
            (a.time, a.kind, a.component, a.replica, payload(a))
            for a in obs.tracer.records
        )
    return served


class TestRandomFleets:
    @settings(max_examples=25, deadline=None)
    @given(run=_fleet_runs())
    def test_sharded_and_unsharded_fleets_serve_alike(self, run):
        """Closed-loop sessions, disagg pools, steal, autoscale, KV
        migration, faults, KV tiers, QoS and obs, in random compositions:
        replicas that run ahead of each other's events serve exactly
        what the single heap serves."""
        kwargs, observe, workload = run
        unsharded = _serve_composition(kwargs, observe, workload, sharded=False)
        sharded = _serve_composition(kwargs, observe, workload, sharded=True)
        for field, expected in unsharded.items():
            assert sharded[field] == expected, field
        assert unsharded["requests"], "the fleet served nothing"
