"""Inline scheduler ticks are exact.

A decode completion on a quiet replica (nothing pending, unvetted or
prefilling, no tick queued) runs its scheduler tick inline when no other
live event on any calendar is due at the same instant.  A queued
zero-delay tick would have been the very next event, so the served
program must not change — only the event count falls.

Each setup here is replayed on :class:`QueuedTickServer`, a reference
whose decode completions always queue the tick, and must match it on
per-request outcomes, iteration stats, scaling events and makespan.
"""

import pytest

from repro.config import SchedulerConfig, default_config
from repro.core.server import LoongServeServer
from repro.experiments.systems import make_fleet
from repro.fleet import FaultPlan, ReplicaFault
from repro.sessions import make_session_trace
from repro.sim.engine import Simulator
from repro.types import Request
from repro.workloads.datasets import MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace


class QueuedTickServer(LoongServeServer):
    """Reference: every decode completion queues its tick as an event."""

    def _can_tick_inline(self, now: float) -> bool:
        return False


def _record(result) -> dict:
    """Everything the inline tick must leave unchanged, compared exactly."""
    return {
        "requests": sorted(
            (r.request_id, r.arrival_time, r.prefill_end, r.first_token_time,
             r.finish_time, r.generated, r.preemptions)
            for r in result.requests
        ),
        "aborted": sorted(r.request_id for r in result.aborted),
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


def _serve(server_cls, trace, sim_mode: str = "discrete"):
    server = server_cls(default_config(scheduler=SchedulerConfig(sim_mode=sim_mode)))
    result = server.run(clone_requests(trace))
    return _record(result), server.sim.events_processed


def _serve_fleet(reference: bool, trace, **fleet_kwargs):
    fleet = make_fleet("loongserve", **fleet_kwargs)
    if reference:
        for handle in fleet.replicas:
            handle.server.__class__ = QueuedTickServer
    result = fleet.run(clone_requests(trace))
    assert result.requests, "the fleet served nothing"
    return _record(result), fleet.last_sim.events_processed


QUIET_MIXED = make_trace(MIXED, rate=0.15, num_requests=40, seed=3)


class TestInlineTickMatchesTheQueuedTick:
    def test_quiet_single_server(self):
        inline, inline_events = _serve(LoongServeServer, QUIET_MIXED)
        queued, queued_events = _serve(QueuedTickServer, QUIET_MIXED)
        assert inline == queued
        assert inline_events < queued_events
        # Nearly every decode iteration of a quiet run drops its tick event.
        assert queued_events - inline_events > 0.8 * len(inline["iterations"])

    def test_sharded_disagg_prefix_cache_fleet(self):
        trace = make_trace(MIXED, rate=10.0, num_requests=40, seed=5)
        kwargs = dict(replicas=4, disagg=2, prefix_cache=True, router="least-kv")
        inline, inline_events = _serve_fleet(False, trace, **kwargs)
        queued, queued_events = _serve_fleet(True, trace, **kwargs)
        assert inline == queued
        assert inline_events < queued_events
        # The horizon is global, so both calendar layouts inline alike.
        unsharded, unsharded_events = _serve_fleet(False, trace, sharded=False, **kwargs)
        assert unsharded == inline
        assert unsharded_events == inline_events

    def test_qos_faults_steal_fleet(self):
        trace = make_session_trace(
            rate=4.0, num_sessions=6, seed=31,
            qos_mix={"interactive": 0.4, "standard": 0.4, "batch": 0.2},
        )
        faults = FaultPlan([
            ReplicaFault(time=2.0, replica_id=1, downtime_s=3.0),
            ReplicaFault(time=6.0, replica_id=0, downtime_s=2.0),
        ])
        kwargs = dict(
            replicas=3, requests=trace, num_gpus=2, prefix_cache=True,
            router="slo", qos=True, admission=True, steal=True,
            migrate_kv=True, faults=faults,
        )
        inline, inline_events = _serve_fleet(False, trace, **kwargs)
        queued, queued_events = _serve_fleet(True, trace, **kwargs)
        assert inline == queued
        assert inline_events < queued_events

    def test_hybrid_mode(self):
        inline, inline_events = _serve(LoongServeServer, QUIET_MIXED, "hybrid")
        queued, queued_events = _serve(QueuedTickServer, QUIET_MIXED, "hybrid")
        assert inline == queued
        assert inline_events < queued_events


class TestSameInstantCompletions:
    """Two replicas serving identical requests finish every decode
    iteration at the same instant.  Each completion then sees the other
    replica's event (or its queued tick) due now, so no tick may run
    inline — in either calendar layout."""

    @staticmethod
    def _twinned_trace():
        base = make_trace(SHAREGPT, rate=2.0, num_requests=8, seed=5)
        return [
            Request(
                request_id=2 * i + twin, input_len=r.input_len,
                output_len=r.output_len, arrival_time=r.arrival_time,
            )
            for i, r in enumerate(base)
            for twin in (0, 1)
        ]

    def test_coinciding_completions_keep_the_tick_queued(self):
        trace = self._twinned_trace()
        runs = {}
        for sharded in (True, False):
            kwargs = dict(replicas=2, router="round-robin", num_gpus=4, sharded=sharded)
            inline = _serve_fleet(False, trace, **kwargs)
            queued = _serve_fleet(True, trace, **kwargs)
            assert inline == queued
            runs[sharded] = inline
        assert runs[True] == runs[False]
        record = runs[True][0]
        finish = {r[0]: r[4] for r in record["requests"]}
        assert all(finish[2 * i] == finish[2 * i + 1] for i in range(len(trace) // 2))


class TestCanTickInline:
    """The quiet-replica rule itself, condition by condition."""

    def test_quiet_replica_with_nothing_due_now_ticks_inline(self):
        server = LoongServeServer(default_config())
        assert server._can_tick_inline(0.0)
        server.sim.call_at(1.0, lambda: None)
        assert server._can_tick_inline(0.0)

    def test_an_event_due_now_keeps_the_tick_queued(self):
        server = LoongServeServer(default_config())
        # Even one that would sort after the tick: it is due now.
        server.sim.call_at(0.0, lambda: None, priority=9)
        assert not server._can_tick_inline(0.0)

    @pytest.mark.parametrize("busy", ["pending", "unvetted", "prefilling", "tick"])
    def test_a_busy_replica_keeps_the_tick_queued(self, busy):
        server = LoongServeServer(default_config())
        request = Request(request_id=0, input_len=10, output_len=2, arrival_time=0.0)
        if busy == "pending":
            server.pending.append(request)
        elif busy == "unvetted":
            server._unvetted.append(request)
        elif busy == "prefilling":
            server._prefilling[request.request_id] = request
        else:
            server._tick_pending = True
        assert not server._can_tick_inline(0.0)

    def test_another_shards_event_due_now_keeps_the_tick_queued(self):
        sim = Simulator()
        own, other = sim.create_shard(), sim.create_shard()
        server = LoongServeServer(default_config())
        server.use_simulator(own)
        other.call_at(0.0, lambda: None)
        assert own.next_event_time() is None  # the replica-local view is blind
        assert not server._can_tick_inline(0.0)
