"""Inline scheduler ticks and multi-iteration decode windows are exact.

A replica keeps its in-flight decode iterations on a private decode
calendar and posts only the head on the simulator calendar.  A wake
runs every own iteration end that is the next event of the whole run,
a quiet one-instance batch advances consecutive iterations in one tight
loop, and a decode completion runs its scheduler tick inline when
nothing else is due at the same instant.  Each of these is the program
the event-per-iteration scheduling runs, so only the event count may
fall.

Every setup here is replayed on :class:`WindowlessServer`, which keeps
that older scheduling — one calendar event per decode iteration, every
tick queued — and must match it on per-request outcomes, iteration
stats, scaling events and makespan.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SchedulerConfig, default_config
from repro.core.batch import DecodeBatch, next_batch_id
from repro.core.elastic_instance import InstanceRole
from repro.core.server import LoongServeServer
from repro.experiments.systems import make_fleet
from repro.fleet import FaultPlan, ReplicaFault
from repro.serving import collect
from repro.sessions import make_session_trace
from repro.sim.engine import Simulator
from repro.types import Request, RequestState
from repro.workloads.datasets import MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace
from tests.conftest import make_request
from tests.test_sim_modes import _steady_trace as steady_trace


class WindowlessServer(LoongServeServer):
    """Reference: one calendar event per decode iteration, every tick
    queued, and a fluid horizon taken from the calendar alone.

    Windows are switched off where they start: no iteration ever enters
    the decode calendar, so no wake exists to run one inline.
    """

    def _schedule_decode_end(self, end, batch, masters, group) -> None:
        self.sim.call_at(
            end,
            self._guarded(lambda: self._on_decode_done(batch, masters, group)),
            label="decode_done",
        )

    def _can_tick_inline(self, now: float) -> bool:
        return False

    def _next_event_time(self):
        return self.sim.next_event_time()


def _record(result) -> dict:
    """Everything windows and inline ticks must leave unchanged."""
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


def _serve(server_cls, trace, sim_mode: str = "discrete", **scheduler):
    config = default_config(
        scheduler=SchedulerConfig(sim_mode=sim_mode, **scheduler)
    )
    server = server_cls(config)
    result = server.run(clone_requests(trace))
    return _record(result), server.sim.events_processed


def _serve_fleet(reference: bool, trace, **fleet_kwargs):
    fleet = make_fleet("loongserve", **fleet_kwargs)
    if reference:
        for handle in fleet.replicas:
            handle.server.__class__ = WindowlessServer
    result = fleet.run(clone_requests(trace))
    assert result.requests, "the fleet served nothing"
    return _record(result), fleet.last_sim.events_processed


def _matches_the_reference(trace, sim_mode: str = "discrete", **scheduler):
    """Serve ``trace`` both ways; returns (record, events, reference events)."""
    windowed, events = _serve(LoongServeServer, trace, sim_mode, **scheduler)
    reference, reference_events = _serve(WindowlessServer, trace, sim_mode, **scheduler)
    assert windowed == reference
    assert events <= reference_events
    return windowed, events, reference_events


def _steady_trace(num_requests: int) -> list[Request]:
    """``bench_sim_speed``'s steady trace, 48 requests of 1,024 output
    tokens every 8 s: each cluster's prefills co-opt running batches."""
    return steady_trace(num_requests, output_len=1024)


QUIET_MIXED = make_trace(MIXED, rate=0.15, num_requests=40, seed=3)
# TestIterationGolden's traces: Mixed preempts, ShareGPT scales up.
GOLDEN_MIXED = make_trace(MIXED, rate=8.0, num_requests=120, seed=7)
GOLDEN_SHAREGPT = make_trace(SHAREGPT, rate=40.0, num_requests=400, seed=7)
# Each scheduler switch the quiet loop must honour, one at a time.
SWITCHES = {
    "defaults": {},
    "no_multi_master": {"enable_multi_master": False},
    "no_scale_up": {"enable_scale_up": False},
    "no_scale_down": {"enable_scale_down": False},
    "compute_bound_16": {"decode_compute_bound_bs": 16},
}


class TestInlineTickMatchesTheQueuedTick:
    def test_quiet_single_server(self):
        inline, inline_events, queued_events = _matches_the_reference(QUIET_MIXED)
        # A quiet run spends almost no events per decode iteration.
        assert inline_events < 0.2 * queued_events
        assert queued_events - inline_events > 0.8 * len(inline["iterations"])

    def test_sharded_disagg_prefix_cache_fleet(self):
        trace = make_trace(MIXED, rate=10.0, num_requests=40, seed=5)
        kwargs = dict(replicas=4, disagg=2, prefix_cache=True, router="least-kv")
        inline, inline_events = _serve_fleet(False, trace, **kwargs)
        queued, queued_events = _serve_fleet(True, trace, **kwargs)
        assert inline == queued
        assert inline_events < queued_events
        # The horizon is global, so both calendar layouts decide alike.
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
        _, inline_events, queued_events = _matches_the_reference(QUIET_MIXED, "hybrid")
        assert inline_events < queued_events


class TestDecodeWindowsMatchTheWindowlessReference:
    """Multi-iteration windows replay the event-per-iteration program."""

    @pytest.mark.parametrize("sim_mode", ["discrete", "hybrid"])
    def test_steady_trace_with_coopted_batches(self, sim_mode):
        _matches_the_reference(_steady_trace(300), sim_mode)

    def test_fluid_windows_see_unposted_decode_ends(self):
        """A fluid window's horizon includes the replica's in-flight decode
        ends that are not on the calendar — here the iteration of a batch
        whose instances allocation drained mid-flight, which no longer
        counts as running — as the event-per-iteration calendar did."""
        record, _, _ = _matches_the_reference(_steady_trace(2_000), "hybrid")
        assert len(record["iterations"]) == 2_294

    def test_golden_traces(self):
        mixed, _, _ = _matches_the_reference(GOLDEN_MIXED)
        sharegpt, events, reference_events = _matches_the_reference(GOLDEN_SHAREGPT)
        assert any(r[-1] for r in mixed["requests"]), "Mixed should preempt"
        assert any(e[1] == "scale_up" for e in sharegpt["scaling"])
        assert events < reference_events

    @pytest.mark.parametrize("switch", sorted(SWITCHES))
    def test_scheduler_switches(self, switch):
        trace = make_trace(SHAREGPT, rate=40.0, num_requests=150, seed=7)
        _matches_the_reference(trace, **SWITCHES[switch])

    def test_master_kv_runs_out_mid_stretch(self):
        """With scale-up off nothing rescues a full instance: the stretch
        must stop where the next start lacks master KV, and the full
        path preempts exactly there."""
        capacity = default_config().kv_slots_per_instance
        trace = [make_request(input_len=capacity - 2_000, output_len=3_000)]
        record, _, _ = _matches_the_reference(trace, enable_scale_up=False)
        assert record["requests"][0][-1] == 1  # preempted once

    def test_until_stops_a_stretch_and_crash_resets_the_calendar(self):
        """``run(until=t)`` stops inside a quiet stretch exactly where the
        event loop would; a crash there leaves nothing in flight."""
        states = {}
        for server_cls in (LoongServeServer, WindowlessServer):
            server = server_cls(default_config())
            sim = Simulator()
            server.use_simulator(sim)
            server.submit(make_request(input_len=2_000, output_len=400))
            late = make_request(input_len=300, output_len=900, arrival=0.5)
            sim.call_at(late.arrival_time, lambda: server.submit(late))
            seen = []
            for until in (1.0, 2.5, 2.5 + 1e-9, 4.0):
                sim.run(until=until)
                seen.append((
                    sim.now, len(server.iteration_stats),
                    [r.generated for r in server._all_requests],
                    server.pool.total_used,
                ))
            orphans, lost = server.crash()
            seen.append(([r.generated for r in orphans], lost))
            assert not server._decode_ends
            sim.run_until_idle()
            seen.append((len(server.finished), server.pool.total_used, sim.now))
            states[server_cls] = (seen, sim.events_processed)
        (windowed, events), (reference, reference_events) = states.values()
        assert windowed == reference
        assert events < reference_events
        # The 2.5 s stop caught both requests decoding, mid-output.
        first, second = windowed[1][2]
        assert 1 < first < 400 and 1 < second < 900

    def test_two_batches_with_coinciding_ends(self):
        """Two one-instance batches with identical shapes end every
        iteration at the same instant.  While both decode, each end finds
        the other due now, so neither may tick inline or run a window;
        once the shorter one finishes, the other runs alone."""
        runs = {}
        for server_cls in (LoongServeServer, WindowlessServer):
            server = server_cls(default_config())
            requests = []
            for instance_id, output_len in ((0, 40), (1, 70)):
                request = make_request(input_len=1_000, output_len=output_len)
                request.state = RequestState.DECODING
                request.generated = 1
                request.prefill_end = 0.0
                request.record_first_token(0.0)
                requests.append(request)
                server.pool.place(request.request_id, {instance_id: request.current_len})
                batch = DecodeBatch(batch_id=next_batch_id())
                batch.group = server._make_group((instance_id,))
                batch.admit([request])
                server.decode_batches.append(batch)
                server.instances[instance_id].assign(InstanceRole.DECODE, batch.batch_id)
            server._tick()
            server.sim.run_until_idle()
            record = _record(collect(server, requests, server.sim.now))
            runs[server_cls] = (
                [row[1:] for row in record["requests"]],
                {k: v for k, v in record.items() if k != "requests"},
                server.sim.events_processed,
            )
        windowed, reference = runs[LoongServeServer], runs[WindowlessServer]
        assert windowed[:2] == reference[:2]
        assert windowed[2] < reference[2]
        starts = [row[-1] for row in windowed[1]["iterations"]]
        assert starts[0] == starts[1]  # both batches start together

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rate=st.sampled_from([0.3, 2.0, 12.0]),
        num_requests=st.integers(min_value=2, max_value=24),
        switch=st.sampled_from(sorted(SWITCHES)),
    )
    def test_random_traces_match(self, seed, rate, num_requests, switch):
        trace = make_trace(SHAREGPT, rate=rate, num_requests=num_requests, seed=seed)
        _matches_the_reference(trace, **SWITCHES[switch])


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
    """The inline-tick rule itself, condition by condition."""

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

    @pytest.mark.parametrize("busy", ["tick", "decode_end"])
    def test_a_busy_replica_keeps_the_tick_queued(self, busy):
        server = LoongServeServer(default_config())
        if busy == "tick":
            server._tick_pending = True
        else:
            # An own in-flight end due now, held off the calendar: the
            # wake runs it before a tick queued now would run.
            server._in_wake = True
            server._schedule_decode_end(
                0.0, DecodeBatch(batch_id=next_batch_id()), (0,), None
            )
            assert server.sim.next_event_time() is None
        assert not server._can_tick_inline(0.0)

    def test_work_in_the_queue_does_not_keep_the_tick_queued(self):
        """Pending, unvetted or prefilling requests do not matter: a tick
        queued with nothing else due now would run next all the same."""
        server = LoongServeServer(default_config())
        request = Request(request_id=0, input_len=10, output_len=2, arrival_time=0.0)
        server.pending.append(request)
        server._unvetted.append(request)
        server._prefilling[request.request_id] = request
        assert server._can_tick_inline(0.0)

    def test_another_shards_event_due_now_keeps_the_tick_queued(self):
        sim = Simulator()
        own, other = sim.create_shard(), sim.create_shard()
        server = LoongServeServer(default_config())
        server.use_simulator(own)
        other.call_at(0.0, lambda: None)
        assert own.next_event_time() is None  # the replica-local view is blind
        assert not server._can_tick_inline(0.0)
