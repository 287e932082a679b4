"""Sharded event calendars stay bit-identical to the single heap.

The sharded engine (``Simulator.create_shard`` + ``ShardClock``) promises
the exact single-heap pop order — same ``(time, priority, seq)``
tie-breaks, same weak/cancelled handling, same final clock — while each
replica's events sift in a heap of their own.  This module pins that
promise three ways: unit tests on the coordination machinery, a
hypothesis differential harness replaying random programs on both
layouts, and golden-signature gates on elastic fleets (observability on
and off).
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import ShardClock, Simulator
from repro.workloads.datasets import MIXED
from repro.workloads.trace_gen import clone_requests, make_trace


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
        # B can only affect A through a shard-0 event.
        assert clock_a.next_event_time() == 3.0
        assert clock_b.next_event_time() == 1.0
        assert sim.next_event_time() == 1.0

    def test_next_global_event_time_sees_every_shard(self):
        sim = Simulator()
        clock_a = sim.create_shard()
        clock_b = sim.create_shard()
        sim.call_at(5.0, lambda: None)
        clock_a.call_at(3.0, lambda: None)
        first = clock_b.call_at(1.0, lambda: None)
        for clock in (sim, clock_a, clock_b):
            assert clock.next_global_event_time() == 1.0
        first.cancel()  # a dead global head falls through to the live one
        for clock in (sim, clock_a, clock_b):
            assert clock.next_global_event_time() == 3.0

    def test_stop_from_a_shard_action_halts_the_run(self):
        sim = Simulator()
        clock = sim.create_shard()
        log = []
        clock.call_at(1.0, lambda: (log.append(1), clock.stop()))
        clock.call_at(2.0, lambda: log.append(2))
        sim.run()
        assert log == [1]
        assert sim.now == 1.0


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
    (0 = plain single heap) and return the execution log + final clock."""
    sim = Simulator()
    clocks = [sim] + [sim.create_shard() for _ in range(shards)]
    log = []

    def schedule(index, target, time, priority, cancel, weak, children):
        clock = clocks[target % len(clocks)]

        def action():
            # The horizon every layout must agree on, read mid-action.
            log.append((
                index, sim.now, clock.next_global_event_time(),
                clock.next_global_event_key(),
            ))
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
    from repro.experiments.systems import make_fleet

    fleet = make_fleet(
        "loongserve", replicas=4, router="least-kv", num_gpus=4,
        autoscale=True, steal=True, sharded=sharded,
    )
    obs = None
    if observe:
        from repro.obs import Observability

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
        assert sf.sim.events_processed == uf.sim.events_processed
        assert sf.sim._multi and not uf.sim._multi

    def test_elastic_fleet_bit_identical_obs_on(self):
        unsharded, _, uobs = _run_fleet(sharded=False, observe=True)
        sharded, _, sobs = _run_fleet(sharded=True, observe=True)
        assert _fleet_signature(sharded.requests) == _fleet_signature(
            unsharded.requests
        )
        assert sharded.makespan == unsharded.makespan
        # Identical event sequences observe identically.
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
