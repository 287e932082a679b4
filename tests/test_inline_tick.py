"""Inline scheduler ticks and multi-iteration decode windows are exact.

A replica keeps its in-flight decode iterations on a private decode
calendar and posts only the head on the simulator calendar.  A wake
runs every own iteration end that is the next event of the whole run;
each run of quiet ends shares one window, which advances every batch
of the replica that owns its group, whatever the group's size, in one
loop, handing off at each end another batch owns and stopping before
the first end that needs the full path; and a decode completion runs
its scheduler tick inline when nothing else is due at the same
instant.  Each of these is the program the event-per-iteration
scheduling runs, so only the event count may fall.

Windows open with work queued for as long as the last tick's refusal
provably holds (``SchedulePlan.holds``: each batch's ends up to its
bound), and multi-instance groups join them, crediting each token to
the most-free master, re-picking masters every iteration and looking a
decode pricer up only when the master count changes.  The last tick's
bound lasts across events, so a wake's posted end joins a window too,
until a peer writes through the replica contract (``withdraw``,
``crash``, ``import_prefix``, ``clear_prefix_cache``).

"The next event" is the next event that can touch the replica: on a
sharded fleet, a replica's windows and inline ticks run past other
replicas' events, unless those replicas hold requests with completion
hooks (a disagg prefill clone's handoff, a closed-loop session's next
turn), which may write to it.  So a fleet's event count falls further,
and sharded and unsharded fleets serve alike with different counts.

Every setup here is replayed on :class:`WindowlessServer`, which keeps
that older scheduling — one calendar event per decode iteration, every
tick queued — and must match it on per-request outcomes, iteration
stats, scaling events and makespan; the group cases also compare every
request's KV placement at stops inside windows, which no outcome
record holds.  :class:`WindowSpy` records which batches each window ran,
whether work was queued, which ends took the full path, each queued
tick's bound, whether each wake's posted end ran in a window, and how
many windows ran past another replica's event, so the cases built to
reach a window can show they did.
"""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.config import SchedulerConfig, default_config
from repro.core.batch import DecodeBatch, PrefillTask, next_batch_id
from repro.core.dispatching import select_prefill_requests, wait_estimate
from repro.core.elastic_instance import InstanceRole
from repro.core.global_manager import PlannedPrefill
from repro.core.scaling_plan import (
    DECODE_COMPUTE_BOUND_BS,
    DECODE_HEADROOM_ITERATIONS,
    PrefillScaleDown,
    masters_by_free,
)
from repro.core.server import LoongServeServer
from repro.costmodel.latency import RooflineCostModel
from repro.experiments.systems import make_fleet, make_system
from repro.fleet import FaultPlan, ReplicaFault
from repro.serving import collect
from repro.sessions import ClosedLoopDriver, SessionPlan, make_session_trace, plan_sessions
from repro.sim.engine import ShardClock, Simulator
from repro.types import Phase, Request, RequestState
from repro.workloads.datasets import MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace
from tests.conftest import make_request, with_rows
from tests.test_serve_loop import _steady_trace as steady_trace


class WindowlessServer(LoongServeServer):
    """Reference: one calendar event per decode iteration and every
    tick queued.

    Windows are switched off where they start: no iteration ever enters
    the decode calendar, so no wake exists to run one inline.
    """

    def _schedule_decode_end(self, end, batch, masters, group) -> None:
        self._post(end, lambda: self._on_decode_done(batch, masters, group))

    def _can_tick_inline(self, now: float) -> bool:
        return False


def _all_calendars(sim):
    """The whole simulator behind a replica's clock."""
    return sim._sim if isinstance(sim, ShardClock) else sim


def _dispatch(server):
    """Dispatching's decision on the server's state, as its next tick
    would take it."""
    return select_prefill_requests(
        server.pending,
        [i for i, instance in server.instances.items() if instance.is_idle],
        server.pool.free_map(), server.decode_batches, server.manager.predictor,
        server.config.tensor_parallel, server._avg_decode_latency(), server.sim.now,
        list(server._prefilling.values()),
    )


class WindowSpy(LoongServeServer):
    """The windowed server, recording each quiet window's hand-offs (the
    ids of the batches it ran, in order), those of the windows that ran
    with work queued, how many hand-offs were of multi-instance groups,
    how many decode ends took the full path (and how many of those with
    work queued), each queued full-path end as ``(time, batch id,
    generated of its first request before the credit)``, each tick's
    bound with work queued as ``(time, marks)`` (``_holds``, None when
    none) and how many of them a co-opt refusal bounded, each prefill
    launch as ``(time, group)``, for each wake its time and whether its
    posted end ran in a window, how many windows ran past an event on
    another replica's calendar, and how many prefix imports landed
    while decode iterations were in flight."""

    _window = None
    _wake = None
    windows: tuple = ()
    queued_windows: tuple = ()
    group_hand_offs = 0
    full_path_ends = 0
    queued_ends = 0
    hand_backs: tuple = ()
    bounds: tuple = ()
    coopt_bounds = 0
    launches: tuple = ()
    wakes: tuple = ()
    past_peers = 0
    imports_in_flight = 0

    def _tick(self) -> None:
        super()._tick()
        if self.pending:
            marks = None if self._holds is None else dict(self._holds)
            self.bounds += ((self.sim.now, marks),)
            self.coopt_bounds += bool(marks) and _dispatch(self).tipped

    def _launch_prefill(self, planned) -> None:
        self.launches += ((self.sim.now, planned.task.group.instance_ids),)
        super()._launch_prefill(planned)

    def import_prefix(self, token_ids, now) -> int:
        placed = super().import_prefix(token_ids, now)
        self.imports_in_flight += bool(placed and self._decode_ends)
        return placed

    def _on_decode_wake(self) -> None:
        self._wake = self.sim.now
        super()._on_decode_wake()

    def _note_wake(self, windowed: bool) -> None:
        if self._wake is not None:
            self.wakes += ((self._wake, windowed),)
            self._wake = None

    def _run_quiet_window(self, key, until):
        self._window = []
        # Events on the horizon ``key`` bounds the window by; any other
        # event due sooner is another replica's.
        peers = _all_calendars(self.sim).next_event_time()
        try:
            return super()._run_quiet_window(key, until)
        finally:
            self.past_peers += peers is not None and self.sim.now > peers
            self._note_wake(bool(self._window))
            if self._window:
                self.windows += (tuple(self._window),)
                if self.pending:
                    self.queued_windows += (tuple(self._window),)
            self._window = None

    def _on_decode_done(self, batch, masters, group) -> None:
        self._note_wake(False)
        self.full_path_ends += 1
        self.queued_ends += bool(self.pending)
        if self.pending and batch.requests:
            self.hand_backs += (
                (self.sim.now, batch.batch_id, batch.requests[0].generated),
            )
        super()._on_decode_done(batch, masters, group)

    def _schedule_decode_end(self, end, batch, masters, group) -> None:
        if self._window is not None:
            self._window.append(batch.batch_id)
            self.group_hand_offs += len(group.instance_ids) > 1
        super()._schedule_decode_end(end, batch, masters, group)


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
            for s in result.iterations.rows
        ],
        "scaling": [
            (e.time, e.kind, e.group_before, e.group_after, e.batch_size)
            for e in result.scaling_events
        ],
        "makespan": result.makespan,
    }


def _assert_same(windowed: dict, reference: dict) -> None:
    """``windowed == reference`` for two :func:`_record` dicts, failing
    on the first differing field and row: pytest's own diff of two long
    records can take minutes."""
    for field, expected in reference.items():
        got = windowed[field]
        if got == expected:
            continue
        if isinstance(expected, list):
            row = next(
                (i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                min(len(got), len(expected)),
            )
            got = got[row:row + 1], len(windowed[field])
            expected = expected[row:row + 1], len(reference[field])
            field = f"{field}[{row}] (row, length)"
        raise AssertionError(f"{field}: windowed {got} != reference {expected}")


def _serve(server_cls, trace, **scheduler):
    config = default_config(scheduler=SchedulerConfig(**scheduler))
    server = with_rows(server_cls(config))
    result = server.run(clone_requests(trace))
    return _record(result), server.sim.events_processed


def _run_fleet(server_cls, workload, hooked: bool = False, **fleet_kwargs):
    """Serve a trace, or closed-loop session plans, on a fleet of
    ``server_cls`` replicas; returns the record and the fleet.

    ``hooked`` gives every trace request a completion hook that does
    nothing.  The closed-loop driver draws request ids from a
    process-wide counter, so its rows go without them."""
    fleet = with_rows(make_fleet("loongserve", **fleet_kwargs))
    for handle in fleet.replicas:
        handle.server.__class__ = server_cls
    if isinstance(workload[0], SessionPlan):
        record = _record(fleet.run_driven(ClosedLoopDriver(workload)))
        record["requests"] = sorted(row[1:] for row in record["requests"])
    else:
        requests = clone_requests(workload)
        for request in requests if hooked else ():
            request.on_finish = lambda now: None
        record = _record(fleet.run(requests))
    assert record["requests"], "the fleet served nothing"
    return record, fleet


def _serve_fleet(reference: bool, trace, **fleet_kwargs):
    record, fleet = _run_fleet(
        WindowlessServer if reference else LoongServeServer, trace, **fleet_kwargs
    )
    return record, fleet.sim.events_processed


def _matches_the_reference(trace, **scheduler):
    """Serve ``trace`` both ways; returns (record, events, reference events)."""
    windowed, events = _serve(LoongServeServer, trace, **scheduler)
    reference, reference_events = _serve(WindowlessServer, trace, **scheduler)
    _assert_same(windowed, reference)
    assert events <= reference_events
    return windowed, events, reference_events


def _decode_group(server, instance_ids, members) -> tuple[list[Request], int]:
    """One decode batch on ``instance_ids``, a request per ``(split,
    output_len)`` whose KV lies ``split`` (instance -> tokens), one token
    into its output as a prefill's scale-down leaves it; returns the
    requests and the batch id."""
    batch = DecodeBatch(batch_id=next_batch_id())
    batch.group = server._make_group(tuple(instance_ids))
    requests = []
    for split, output_len in members:
        request = make_request(input_len=sum(split.values()) - 1, output_len=output_len)
        request.state = RequestState.DECODING
        request.generated = 1
        request.prefill_end = 0.0
        request.record_first_token(0.0)
        server.pool.place(request.request_id, dict(split))
        server._all_requests.append(request)
        server._generated_total += request.generated
        requests.append(request)
    batch.admit(requests)
    server.decode_batches.append(batch)
    for instance_id in instance_ids:
        server.instances[instance_id].assign(InstanceRole.DECODE, batch.batch_id)
    return requests, batch.batch_id


def _decoding_batches(server, shapes) -> tuple[list[Request], list[int]]:
    """One one-instance decode batch per ``(instance, input_len,
    output_len)`` (:func:`_decode_group`); returns the requests and the
    batch ids."""
    requests, batch_ids = [], []
    for instance_id, input_len, output_len in shapes:
        (request,), batch_id = _decode_group(
            server, (instance_id,), [({instance_id: input_len + 1}, output_len)]
        )
        requests.append(request)
        batch_ids.append(batch_id)
    return requests, batch_ids


def _serve_both(build, stops=(), mixin=None, **scheduler):
    """Serve the state ``build(server)`` sets up windowed and windowless.

    ``build`` returns the requests to record and what the caller wants
    back of the windowed run (batch ids, say).  After a first tick each
    run stops at every time in ``stops``, where the clock, the iteration
    count and each request's progress and KV placement must agree too;
    the windowed server's ``stop_spans`` lists, per stop, the batches
    windowed since the previous one.  A ``mixin`` class goes in front of
    both servers.  Returns the windowed server, its record (request ids
    dropped) and ``build``'s second value; with a ``mixin``, the
    windowless server too.
    """
    runs = {}
    classes = (WindowSpy, WindowlessServer)
    if mixin is not None:
        classes = tuple(type(c.__name__, (mixin, c), {}) for c in classes)
    for server_cls in classes:
        server = with_rows(
            server_cls(default_config(scheduler=SchedulerConfig(**scheduler)))
        )
        requests, info = build(server)
        server._tick()
        seen, spans = [], []
        for until in stops:
            before = len(getattr(server, "windows", ()))
            server.sim.run(until=until)
            seen.append((
                server.sim.now, server.iterations.count,
                [(r.generated, server.pool.placement_of(r.request_id)) for r in requests],
            ))
            spans.append(set().union(*getattr(server, "windows", ())[before:]))
        server.stop_spans = spans
        server.sim.run_until_idle()
        record = _record(collect(server, requests, server.sim.now))
        record["requests"] = [row[1:] for row in record["requests"]]
        runs[server_cls] = (server, record, seen, info)
    (server, windowed, seen, info), (reference, expected, expected_seen, _) = (
        runs.values()
    )
    _assert_same(windowed, expected)
    assert seen == expected_seen
    assert server.sim.events_processed < reference.sim.events_processed
    if mixin is not None:
        return server, windowed, info, reference
    return server, windowed, info


def _serve_batches(shapes):
    """Serve :func:`_decoding_batches` windowed and windowless; returns
    the windowed server, its record (request ids dropped) and batch ids."""
    return _serve_both(lambda server: _decoding_batches(server, shapes))


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
        # Both calendar layouts serve alike; on the sharded one the
        # decode pool runs past the other decode replicas' events.
        unsharded, unsharded_events = _serve_fleet(False, trace, sharded=False, **kwargs)
        assert unsharded == inline
        assert inline_events < unsharded_events

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


class TestDecodeWindowsMatchTheWindowlessReference:
    """Multi-iteration windows replay the event-per-iteration program."""

    def test_steady_trace_with_coopted_batches(self):
        _matches_the_reference(_steady_trace(300))

    def test_golden_traces(self):
        mixed, _, _ = _matches_the_reference(GOLDEN_MIXED)
        sharegpt, events, reference_events = _matches_the_reference(GOLDEN_SHAREGPT)
        assert any(r[-1] for r in mixed["requests"]), "Mixed should preempt"
        # ShareGPT's decode batches reach the compute-bound size and
        # scale up there too, not only under memory pressure.
        assert any(
            e[1] == "scale_up" and e[4] >= DECODE_COMPUTE_BOUND_BS
            for e in sharegpt["scaling"]
        )
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
                    sim.now, server.iterations.count,
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
            server = with_rows(server_cls(default_config()))
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

    def test_a_window_spans_staggered_batches(self):
        """Three one-instance batches whose ends interleave share one
        window, handing off at each end.  It stops before the shortest
        one's completion, and the other two run on in later windows."""
        server, record, (short, *others) = _serve_batches(
            [(0, 1_000, 60), (1, 3_000, 200), (2, 7_000, 150)]
        )
        spans = [set(window) for window in server.windows]
        assert max(len(span) for span in spans) == 3
        first_without = next(i for i, span in enumerate(spans) if short not in span)
        assert all(short in span for span in spans[:first_without])
        assert set(others) in spans[first_without:]
        assert not record["scaling"]

    def test_step_4b_fires_for_one_batch_mid_window(self):
        """A batch on a nearly full instance runs windowed until step 4b
        would fire for it; the full path there scales it up onto the idle
        instance, and the other batches keep their windows."""
        capacity = default_config().kv_slots_per_instance
        server, record, (full, *others) = _serve_batches(
            [(0, capacity - 600, 2_000), (1, 1_000, 5_000), (2, 3_000, 5_000)]
        )
        (grown, *scale_up), = record["scaling"]
        assert scale_up == ["scale_up", (0,), (0, 3), 1]
        assert any(
            dop == 2 and start > grown
            for _, _, _, dop, _, start in record["iterations"]
        )
        spans = [set(window) for window in server.windows]
        assert {full, *others} in spans
        assert set(others) in spans

    def test_until_stops_a_window_across_batches_then_crash(self):
        """``run(until=t)`` stops a window that spans three batches exactly
        where the event loop would, with every batch's credits landed; a
        crash there leaves nothing in flight or on the calendar."""
        shapes = [(0, 1_000, 400), (1, 3_000, 500), (2, 7_000, 450)]
        states = {}
        for server_cls in (WindowSpy, WindowlessServer):
            server = server_cls(default_config())
            requests, _ = _decoding_batches(server, shapes)
            server._tick()
            sim = server.sim
            seen = []
            for until in (0.5, 1.25, 1.25 + 1e-9, 2.0):
                sim.run(until=until)
                seen.append((
                    sim.now, server.iterations.count,
                    [r.generated for r in requests], server.pool.total_used,
                    server.generated_tokens(),
                ))
                if server_cls is WindowSpy:
                    assert len(set(server.windows[-1])) == 3
            orphans, lost = server.crash()
            seen.append(([r.generated for r in orphans], lost))
            assert not server._decode_ends
            sim.run_until_idle()
            seen.append((sim.now, len(server.finished), server.pool.total_used))
            states[server_cls] = (seen, sim.events_processed)
        (windowed, events), (reference, reference_events) = states.values()
        assert windowed == reference
        assert events < reference_events
        # The 2 s stop caught every request decoding, mid-output, and
        # draining the crashed server leaves the clock there.
        assert all(1 < generated < 400 for generated in windowed[3][2])
        assert windowed[-1][0] == 2.0

    def test_two_replica_fleets_sharded_and_unsharded(self):
        """On both calendar layouts, each replica's windows span its
        concurrent batches.  The sharded layout needs fewer windows and
        events, since its windows and inline ticks also run past the
        other replica's events."""
        trace = make_trace(MIXED, rate=2.0, num_requests=20, seed=1)
        runs = {}
        for sharded in (True, False):
            for server_cls in (WindowSpy, WindowlessServer):
                fleet = with_rows(make_fleet(
                    "loongserve", replicas=2, router="round-robin", sharded=sharded
                ))
                for handle in fleet.replicas:
                    handle.server.__class__ = server_cls
                result = fleet.run(clone_requests(trace))
                windows = [
                    getattr(handle.server, "windows", None) for handle in fleet.replicas
                ]
                runs[sharded, server_cls] = (
                    _record(result), fleet.sim.events_processed, windows,
                )
        records = {key: run[0] for key, run in runs.items()}
        assert all(record == records[True, WindowSpy] for record in records.values())
        for sharded in (True, False):
            events = runs[sharded, WindowSpy][1]
            assert events < runs[sharded, WindowlessServer][1]
        assert runs[True, WindowSpy][1] < runs[False, WindowSpy][1]
        for sharded, unsharded in zip(runs[True, WindowSpy][2], runs[False, WindowSpy][2]):
            assert len(sharded) < len(unsharded)
            for windows in (sharded, unsharded):
                assert max(len(set(window)) for window in windows) >= 2

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shape=st.one_of(
            st.tuples(
                st.sampled_from(["ShareGPT", "Mixed"]),
                st.sampled_from([0.3, 2.0, 12.0]),
                st.integers(min_value=2, max_value=24),
            ),
            # Overloaded Mixed: the queue outlasts many decode ends.
            st.tuples(st.just("Mixed"), st.just(4.0), st.integers(min_value=20, max_value=40)),
        ),
        switch=st.sampled_from(sorted(SWITCHES)),
    )
    def test_random_traces_match(self, seed, shape, switch):
        """Mixed's long prompts queue behind busy instances and decode on
        multi-instance groups, so its examples reach windows with work
        queued, group windows and, overloaded, co-opt refusals that bound
        a window (counted in the hypothesis statistics)."""
        dataset, rate, num_requests = shape
        lengths = {"ShareGPT": SHAREGPT, "Mixed": MIXED}[dataset]
        trace = make_trace(lengths, rate=rate, num_requests=num_requests, seed=seed)
        config = default_config(scheduler=SchedulerConfig(**SWITCHES[switch]))
        server = with_rows(WindowSpy(config))
        windowed = _record(server.run(clone_requests(trace)))
        reference, reference_events = _serve(WindowlessServer, trace, **SWITCHES[switch])
        _assert_same(windowed, reference)
        assert server.sim.events_processed <= reference_events
        if server.queued_windows:
            event("a window ran with work queued")
        if server.group_hand_offs:
            event("a multi-instance group ran in a window")
        if server.coopt_bounds:
            event("a co-opt refusal bounded a window")


def _filled_batches(server, used, output_len=400) -> list[Request]:
    """A one-instance decode batch on every instance, its one request
    holding ``used[i]`` KV slots of instance ``i``."""
    requests = []
    for instance_id, tokens in enumerate(used):
        batch_requests, _ = _decode_group(
            server, (instance_id,), [({instance_id: tokens}, output_len)]
        )
        requests += batch_requests
    return requests


def _two_instance_group(server, free, output_lens) -> tuple[list[Request], int]:
    """A decode group on instances 0 and 1, leaving ``free`` slots on
    each; every request's KV is split across both."""
    capacity = server.config.kv_slots_per_instance
    n = len(output_lens)
    shares = []
    for instance_id in (0, 1):
        used = capacity - free[instance_id]
        row = [used // n] * n
        row[0] += used - sum(row)
        shares.append(row)
    members = [
        ({0: a, 1: b}, output_len)
        for a, b, output_len in zip(*shares, output_lens)
    ]
    return _decode_group(server, (0, 1), members)


class ProofSpy(LoongServeServer):
    """The windowed server, recording each scheduler pass with work
    queued as ``(phase 1 tipped, AvgLat_d, SchedulePlan.holds)``."""

    proofs: tuple = ()

    def __init__(self, config) -> None:
        super().__init__(config)
        schedule = self.manager.schedule

        def spy(**kwargs):
            plan = schedule(**kwargs)
            if kwargs["pending"]:
                self.proofs += (
                    (_dispatch(self).tipped, kwargs["avg_decode_latency"], plan.holds),
                )
            return plan

        self.manager.schedule = spy


class PhaseOneSpy:
    """Put in front of a server: records, at each tick with work queued
    and nothing unvetted, ``(time, requests phase 1 admits)``."""

    phase_one: tuple = ()

    def _tick(self) -> None:
        if self.pending and not self._unvetted:
            self.phase_one += ((self.sim.now, len(_dispatch(self).requests)),)
        super()._tick()


class PricerSpy:
    """Put in front of a server: counts, inside its quiet windows, the
    multi-instance groups that join (``joins``), their master picks
    (:meth:`pick`; one per iteration, and one per start that finds no
    master KV), the times a pick's master count differs from the join's
    or the last pick's (``changes``), and the decode pricer lookups for
    a multi-instance group (:meth:`lookup`)."""

    joins = picks = changes = lookups = 0
    _masters = None  # the group's master count, inside a window

    def _run_quiet_window(self, key, until):
        self._masters = 0
        try:
            return super()._run_quiet_window(key, until)
        finally:
            self._masters = None

    def _join_window(self, batch, masters, group, idle):
        window = super()._join_window(batch, masters, group, idle)
        if window is not None and len(group.instance_ids) > 1:
            self.joins += 1
            self._masters = len(masters)
        return window

    def pick(self, masters) -> None:
        self.picks += 1
        self.changes += len(masters) != self._masters
        self._masters = len(masters)

    def lookup(self, instances) -> None:
        self.lookups += self._masters is not None and len(instances) > 1


def _over_cap(requests):
    """Declare a one-token output cap on each of ``requests``, which
    decode past it: they reserve no eviction-avoidance growth, so each
    token they append takes a slot from that reserve too."""
    for request in requests:
        request.max_tokens = 1
    return requests


class TestQueuedAndGroupWindows:
    """Windows open with work queued up to where the last tick's refusal
    provably holds, and run multi-instance groups, exactly."""

    def test_a_blocked_queue_runs_in_windows(self):
        """A head needing nearly the whole cluster waits while every
        instance decodes.  Dispatching stops on memory, which a window
        only shrinks, so windows run all four batches with the head and
        a request behind it queued, across completions, until a batch
        drains and leaves its instance idle."""
        capacity = default_config().kv_slots_per_instance

        def build(server):
            requests = []
            for instance_id, input_len in enumerate((1_000, 3_000, 7_000, 2_000)):
                members = [
                    ({instance_id: input_len + 1}, output_len)
                    for output_len in (90, 200, 310)
                ]
                requests += _decode_group(server, (instance_id,), members)[0]
            head = make_request(input_len=4 * capacity - 30_000, output_len=400)
            behind = make_request(input_len=2_000, output_len=50)
            for request in (head, behind):
                server.submit(request)
            return requests + [head, behind], None

        server, record, _ = _serve_both(build)
        spans = [set(window) for window in server.queued_windows]
        assert len(spans) >= 3  # reopened after the first two completions
        assert max(len(span) for span in spans) == 4
        head_start = record["requests"][-2][1]
        assert head_start > max(row[3] for row in record["requests"][:-2])

    def test_a_coopt_turning_favourable_mid_stall_takes_the_full_path(self):
        """Phase 1 stops at the tipping point with a measured AvgLat_d
        far above the batches' decode time: Eq. 2 gains, and Eq. 1's
        cost falls as the outputs grow, so the co-opt the first tick
        refuses fires some ends later.  That tick bounds every batch at
        the same end (same progress, same wait), and here the bound is
        exact: queued windows run every earlier end, and the most-free
        batch, the first to reach it, takes the full path there.  The
        co-opt fires at that end, the only queued one off the windows,
        long before any decode completes."""

        def build(server):
            # Each instance holds more than the others have free, so
            # allocation drains none, and staggered contexts keep the
            # four batches' ends apart.
            requests = _filled_batches(server, (165_000, 163_000, 161_000, 167_000))
            server._decode_latency_sum, server._decode_latency_count = 100.0, 1
            queued = [make_request(input_len=5_000, output_len=50) for _ in range(2)]
            for request in queued:
                server.submit(request)
            return requests + queued, None

        server, record, _ = _serve_both(build)
        (_, marks), *_ = server.bounds
        (mark,) = set(marks.values())  # each first request's last windowed count
        assert mark > 10
        assert server.queued_windows and server.queued_ends == 1
        ((time, batch_id, generated),) = server.hand_backs
        assert generated == mark  # its end at the bound
        ((launched, group),) = server.launches
        assert launched == time and group == (2,)  # the most free
        coopted_start = min(row[1] for row in record["requests"][4:])
        assert coopted_start < 0.2 * min(row[3] for row in record["requests"][:4])

    def test_a_coopt_through_a_shrunken_extra_set_fires_k_ends_in(self):
        """The co-opt candidate's extra set is ``[small, large]``, the
        small one alone the better Eq. 2 gain per Eq. 1 second.  The
        most-free batch's one request decodes past its declared cap, so
        each of its tokens takes a slot of the eviction-avoidance
        reserve, and a few ends in the large request no longer fits:
        the co-opt fires with the small one alone, k ends in, about half
        as many as the whole set would need.  Every bound the ticks give
        hands that batch over at end k or before, the last one at k, and
        the co-opted prefill runs the small request without the large
        one."""
        capacity = default_config().kv_slots_per_instance
        sizes = (8_000, 500, 7_800)
        # The reserve phase 1 leaves fits both extras with 6 slots to
        # spare; each request reserves its input, output and one slot.
        reserve = sizes[1] + sizes[2] + 2 * 51 + 6
        growth = 1 + 3 * 400  # the capped request's one token, the others' outputs
        free = [1_000, 1_100, 1_200]
        free.insert(0, reserve + growth + sizes[0] + 51 - sum(free))

        def build(server):
            requests = _filled_batches(server, [capacity - f for f in free])
            _over_cap(requests[:1])
            server._decode_latency_sum, server._decode_latency_count = 6.4, 1
            queued = [make_request(input_len=n, output_len=50) for n in sizes]
            for request in queued:
                server.submit(request)
            decision = _dispatch(server)
            assert decision.tipped and decision.room[1] == reserve
            return requests + queued, server.decode_batches[0].batch_id

        server, record, first = _serve_both(build)
        (launched, group), *_ = server.launches
        assert group == (0,)
        (k,) = [g for time, _, g in server.hand_backs if time == launched]
        assert 10 < k < 50
        marks = [m[first] for time, m in server.bounds if m and time < launched]
        assert marks[0] < k and max(marks) == marks[-1] == k
        assert first in set().union(*server.queued_windows)
        head, small, large = (row[1] for row in record["requests"][4:])
        assert launched < head == small < large

    def test_an_idle_instance_with_a_head_that_does_not_fit(self):
        """Instance 3 idles, and the queued head needs more KV than it
        has: allocation can drain no decode instance (none's KV fits on
        the others) and the batching DP places nothing.  Queued windows
        run every batch until step 4b fires for the one whose instance
        fills up, whose full-path end scales it onto the idle instance."""
        capacity = default_config().kv_slots_per_instance

        def build(server):
            requests = _filled_batches(
                server, (capacity - 60, 160_000, 161_000), output_len=2_000
            )
            head = make_request(input_len=capacity + 1_000, output_len=400)
            server.submit(head)
            return requests + [head], server.decode_batches[0].batch_id

        server, record, first = _serve_both(build)
        grown, *_ = record["scaling"]
        assert grown[1:] == ("scale_up", (0,), (0, 3), 1)
        (_, marks), *_ = server.bounds
        assert min(marks.values()) > 1_000  # the memory slack is no limit
        hand_back, *_ = server.hand_backs
        assert hand_back[:2] == (grown[0], first)
        assert {first, first + 1, first + 2} in map(set, server.queued_windows)

    def test_the_memory_slack_runs_out_mid_window(self):
        """As the idle-instance case, but phase 1 admits the head with 40
        slots of eviction-avoidance reserve to spare, and two of the
        three decode requests run past their declared caps, taking two
        slots of it per round of ends.  The bound lets every batch's
        appends use at most the reserve, so windows stop before the end
        at which phase 1 would stop admitting the head: the windowed run
        ticks at that end as the event-per-iteration one does."""
        capacity = default_config().kv_slots_per_instance
        spare = (5_000, 5_100, 5_200)  # staggered, so the ends do not coincide

        def build(server):
            requests = _filled_batches(
                server, [capacity - f for f in spare], output_len=2_000
            )
            _over_cap(requests[1:])
            growth = 2_000 + 1 + 1
            head = make_request(output_len=400)
            head.input_len = capacity + sum(spare) - growth - 400 - 1 - 40
            server.submit(head)
            assert _dispatch(server).room[1] == 40
            return requests + [head], None

        server, _, _, reference = _serve_both(build, mixin=PhaseOneSpy)
        shrunk = next(time for time, admitted in reference.phase_one if not admitted)
        windowed = dict(server.phase_one)
        assert windowed[shrunk] == 0
        assert all(
            admitted for time, admitted in server.phase_one if time < shrunk
        )
        assert any(
            marks for time, marks in server.bounds if time < shrunk
        )
        assert server.queued_windows

    def test_a_warm_up_tick_never_uses_the_gain_0_proof(self):
        """The AvgLat_d seed reads the contexts a window grows.  Halfway
        through the outputs every seeded Eq. 2 wait is 0, yet a tick
        whose phase 1 tipped gives no bound; with a measured AvgLat_d,
        equally spent, the same tick leaves every batch unbounded."""

        def build(server, measured=False):
            requests = _filled_batches(server, (165_000, 163_000, 161_000, 167_000))
            if measured:
                server._decode_latency_sum, server._decode_latency_count = 5.0, 1
            queued = [
                make_request(input_len=5_000, output_len=50, arrival=8.0)
                for _ in range(2)
            ]
            for request in queued:
                server.sim.call_at(8.0, lambda r=request: server.submit(r))
            return requests + queued, None

        for measured in (False, True):
            server = ProofSpy(default_config())
            build(server, measured)
            server._tick()
            server.sim.run(until=8.0)
            tipped, avg, holds = server.proofs[-1]
            assert tipped
            assert all(
                wait_estimate(batch, avg, 8.0) == 0.0
                for batch in server.decode_batches
            )
            assert holds == ({} if measured else None)
        _serve_both(build)

    @pytest.mark.parametrize("switch", sorted(SWITCHES))
    def test_two_instance_group_with_levelling_masters(self, switch):
        """A five-request group on instances 0 and 1, one instance busy
        and one idle.  Tokens go to the more free master until the two
        level, then alternate, the masters re-picked at every start;
        step 4b later grows the group onto the idle instance, and the
        three-instance group runs in windows too.  Every request's KV
        placement matches at stops inside the windows."""

        def build(server):
            requests, group_id = _two_instance_group(
                server, (700, 900), [300, 340, 380, 420, 460]
            )
            requests += _decode_group(server, (2,), [({2: 5_001}, 300)])[0]
            return requests, group_id

        server, record, group_id = _serve_both(
            build, stops=(1.0, 3.2, 4.0, 5.5), **SWITCHES[switch]
        )
        assert all(group_id in span for span in server.stop_spans)
        grown = [e for e in record["scaling"] if e[1] == "scale_up"]
        if SWITCHES[switch].get("enable_scale_up", True):
            assert [e[2:4] for e in grown] == [((0, 1), (0, 1, 2))]
            assert any(
                dop == 3 and start > grown[0][0]
                for _, _, _, dop, _, start in record["iterations"]
            )
        else:
            assert not grown

    @pytest.mark.parametrize("switch", sorted(SWITCHES))
    def test_two_instance_group_filling_up(self, switch):
        """A four-request group on instances 0 and 1 with a few dozen free
        slots each, and no idle instance.  Both fill; once one falls
        below a master's share the masters change, and when the next
        start lacks master KV the full path preempts there.  Every
        request's KV placement matches at stops inside the windows."""

        def build(server):
            requests, group_id = _two_instance_group(
                server, (40, 70), [200, 260, 330, 390]
            )
            requests += _decode_group(server, (2,), [({2: 5_001}, 300)])[0]
            requests += _decode_group(server, (3,), [({3: 9_001}, 250)])[0]
            return requests, group_id

        server, record, group_id = _serve_both(
            build, stops=(0.1, 0.25, 0.4, 0.6), **SWITCHES[switch]
        )
        assert all(group_id in span for span in server.stop_spans)
        assert sum(row[-1] for row in record["requests"]) == 1  # one preemption

    @pytest.mark.parametrize("shape", ["levelling", "filling", "shrinking"])
    def test_a_group_looks_its_pricer_up_once_per_master_count(self, shape, monkeypatch):
        """The two group setups above (levelling with an idle instance,
        filling up without one), and five requests on all four
        instances with three slots free on each, whose first windowed
        credit leaves one instance below a master's share: in a window
        a group looks a decode pricer up when it joins and when its
        master count changes, not at every iteration."""
        servers = []
        decode_pricer = RooflineCostModel.decode_pricer

        def pick(*args):
            masters = masters_by_free(*args)
            servers[0].pick(masters)
            return masters

        def lookup(cost_model, batch_size, instances, *args):
            servers[0].lookup(instances)
            return decode_pricer(cost_model, batch_size, instances, *args)

        def build(server):
            servers.insert(0, server)
            if shape == "shrinking":
                used = server.config.kv_slots_per_instance - 3
                splits = [{i: used // 5 for i in range(4)} for _ in range(5)]
                for i in range(4):
                    splits[0][i] += used % 5
                return _decode_group(server, (0, 1, 2, 3), [(s, 400) for s in splits])
            if shape == "levelling":
                requests, group_id = _two_instance_group(
                    server, (700, 900), [300, 340, 380, 420, 460]
                )
            else:
                requests, group_id = _two_instance_group(
                    server, (40, 70), [200, 260, 330, 390]
                )
                requests += _decode_group(server, (3,), [({3: 9_001}, 250)])[0]
            requests += _decode_group(server, (2,), [({2: 5_001}, 300)])[0]
            return requests, group_id

        monkeypatch.setattr("repro.core.server.masters_by_free", pick)
        monkeypatch.setattr(RooflineCostModel, "decode_pricer", lookup)
        server, _, _, _ = _serve_both(build, mixin=PricerSpy)
        assert (server.changes > 0) is (shape == "shrinking")
        assert 0 < server.lookups <= server.joins + server.changes
        assert server.joins + server.changes < server.picks

    def test_prefix_cache_and_qos_replicas_open_no_window_with_a_queue(self):
        """Prefix-cache replicas re-pin (and may evict) and QoS replicas
        re-admit and re-order at every tick, so with work queued their
        ends take the full path; the plain replica windows the same
        trace's queued stretches."""
        trace = make_trace(MIXED, rate=2.0, num_requests=40, seed=7)
        for kwargs in ({}, {"prefix_cache": True}, {"qos": True}):
            records = []
            for server_cls in (WindowSpy, WindowlessServer):
                server = with_rows(make_system("loongserve", **kwargs))
                server.__class__ = server_cls
                records.append(_record(server.run(clone_requests(trace))))
                if server_cls is WindowSpy:
                    spy = server
            _assert_same(*records)
            assert spy.queued_ends > 0
            assert bool(spy.queued_windows) is not bool(kwargs)

    def test_allocation_without_a_launch_is_not_quiet(self):
        """Allocation drains a decode instance for a queued request, but
        the batching DP cannot place it there: the tick launches nothing,
        yet it committed a KV migration and a decode scale-down, so it
        is not quiet.  Shaped like two ticks of ``mixed_paper`` (seed 1,
        episode 5): the request needs 261,122 slots, and the instance
        drained for it, whose 14,269 tokens the others absorb, has
        211,382 free."""
        server = with_rows(LoongServeServer(default_config()))
        capacity = server.config.kv_slots_per_instance
        _filled_batches(server, (150_000, 150_000, 150_000, 14_269), output_len=300)
        request = make_request(input_len=261_121, output_len=100)
        server.submit(request)
        server._tick()
        assert server.pending == [request]
        assert all(s.phase is Phase.DECODE for s in server.iterations.rows)
        (drained,) = server.scaling_events
        assert (drained.kind, drained.group_before, drained.group_after) == (
            "scale_down", (3,), (),
        )
        assert server.pool.pools[3].free == capacity < request.kv_demand
        assert server._holds is None

    def test_full_path_ends_on_a_fixed_trace(self):
        """The quiet Mixed trace runs 9,877 decode iterations, of which
        56 end on the full path.  It was 100 while every wake's first
        end took the full path, and 193 with windows open only on an
        empty queue and for one-instance batches (46 with work queued,
        51 of multi-instance groups).  Its queue is empty at every
        decode end, so bounding refusals left it at 56.  The golden
        Mixed trace (8 req/s) keeps a queue: of its 8,828 decode
        iterations 205 end on the full path, 195 with work queued.  They
        were 6,261 and 6,251 while a queue stayed out of windows unless
        the tick proved it blocked at every end, since phase 1 mostly
        tips with Eq. 2's wait still positive; each tick now bounds
        how long its refusal holds.  A change that stops a kind of
        window from opening moves these counts."""
        server = with_rows(WindowSpy(default_config()))
        result = server.run(clone_requests(QUIET_MIXED))
        assert sum(s.phase is Phase.DECODE for s in result.iterations.rows) == 9_877
        assert server.full_path_ends == 56
        server = with_rows(WindowSpy(default_config()))
        result = server.run(clone_requests(GOLDEN_MIXED))
        assert sum(s.phase is Phase.DECODE for s in result.iterations.rows) == 8_828
        assert (server.full_path_ends, server.queued_ends) == (205, 195)


class TestWakesStartInWindows:
    """A wake's posted end joins a window while the last full tick's
    proof holds, however many other events ran since; a peer's write
    through the replica contract drops the proof."""

    def test_on_a_two_replica_fleet(self):
        """Most of each replica's wakes start in a window, and the fleet
        serves what the windowless one does."""
        trace = make_trace(MIXED, rate=2.0, num_requests=20, seed=1)
        kwargs = dict(replicas=2, router="round-robin")
        fleet = with_rows(make_fleet("loongserve", **kwargs))
        for handle in fleet.replicas:
            handle.server.__class__ = WindowSpy
        windowed = _record(fleet.run(clone_requests(trace)))
        _assert_same(windowed, _serve_fleet(True, trace, **kwargs)[0])
        for handle in fleet.replicas:
            in_window = [in_window for _, in_window in handle.server.wakes]
            assert sum(in_window) > 0.5 * len(in_window)

    @pytest.mark.parametrize(
        "write", ["withdraw", "crash", "import_prefix", "clear_prefix_cache"]
    )
    def test_a_peer_write_sends_the_next_wake_down_the_full_path(self, write):
        """No-op events every 0.25 s, standing in for other replicas',
        split a quiet replica's wakes, and each wake's posted end runs
        in a window until a peer writes through the replica contract at
        1 s.  The next wake's posted end takes the full path, whose tick
        proves the replica quiet again, and later wakes window again.
        ``withdraw`` takes back a queued head that left the queue
        blocked.  A crash leaves nothing decoding, so a batch starts on
        the rebuilt replica without a tick: only the crash's drop keeps
        the dead replica's proof from opening a window for it."""
        cached = write in ("import_prefix", "clear_prefix_cache")
        server = WindowSpy(
            default_config(scheduler=SchedulerConfig(enable_prefix_cache=cached))
        )
        capacity = server.config.kv_slots_per_instance
        _filled_batches(server, (1_000, 3_000, 7_000, 2_000), output_len=2_000)
        head = make_request(input_len=4 * capacity - 10_000, output_len=400)
        if write == "withdraw":
            server.submit(head)

        def peer_write():
            if write == "withdraw":
                assert server.withdraw(head)
            elif write == "crash":
                server.crash()
                _filled_batches(server, (1_000,), output_len=2_000)
                server._start_decode_iterations()
            elif write == "import_prefix":
                assert server.import_prefix(tuple(range(100)), server.sim.now) == 100
            else:
                server.clear_prefix_cache()

        server._tick()
        for k in range(1, 9):
            server.sim.call_at(0.25 * k, peer_write if k == 4 else (lambda: None))
        server.sim.run(until=2.0)
        in_window = [in_window for _, in_window in server.wakes]
        written = sum(time <= 1.0 for time, _ in server.wakes)
        assert len(in_window) > written + 3
        assert in_window == [True] * written + [False] + [True] * (
            len(in_window) - written - 1
        )

    @pytest.mark.parametrize("sharded", [True, False])
    def test_prefix_imports_between_wakes_on_a_session_fleet(self, sharded):
        """KV migration imports session prefixes into replicas with decode
        iterations in flight, and the autoscaler clears parked replicas'
        caches; on both calendar layouts the fleet serves what the
        windowless one does, with most wakes starting in windows."""
        trace = make_session_trace(rate=4.0, num_sessions=16, seed=11)
        kwargs = dict(
            replicas=3, requests=trace, router="affinity", prefix_cache=True,
            autoscale=True, steal=True, migrate_kv=True, sharded=sharded,
        )
        fleet = with_rows(make_fleet("loongserve", **kwargs))
        for handle in fleet.replicas:
            handle.server.__class__ = WindowSpy
        windowed = _record(fleet.run(clone_requests(trace)))
        reference, reference_events = _serve_fleet(True, trace, **kwargs)
        _assert_same(windowed, reference)
        assert fleet.sim.events_processed < reference_events
        spies = [handle.server for handle in fleet.replicas]
        assert sum(spy.imports_in_flight for spy in spies) >= 5
        in_window = [in_window for spy in spies for _, in_window in spy.wakes]
        assert sum(in_window) > 0.8 * len(in_window)
        if sharded:
            # Open-loop requests carry no completion hook: only the
            # control plane reaches across replicas.
            assert fleet.sim._reaches == [True, False, False, False]

    def test_an_import_under_a_paused_batch_headroom_scales_it_up_next_end(self):
        """The case the import's drop exists for.  A prefill co-opts the
        one instance of a decode batch, pausing it 40 slots above step
        4b's headroom of 32; another batch decodes on instance 0, and
        instances 2 and 3 idle.  An import at 0.5 s takes 25 slots of
        every instance, so the discrete tick at instance 0's next end
        scales the paused batch up.  That end takes the full path where
        the wakes before it ran in windows; a window there would leave
        the scale-up to the prefill's completion at 1.89 s."""

        def build(server):
            capacity = server.config.kv_slots_per_instance
            (decoding,), _ = _decode_group(server, (0,), [({0: 1_001}, 2_000)])
            prompt = make_request(input_len=30_000, output_len=100)
            (paused,), _ = _decode_group(
                server, (1,), [({1: capacity - prompt.kv_demand - 40}, 2_000)]
            )
            assert 40 - 25 < DECODE_HEADROOM_ITERATIONS <= 40
            server._all_requests.append(prompt)
            server._launch_prefill(PlannedPrefill(
                task=PrefillTask(
                    batch_id=next_batch_id(), requests=[prompt],
                    group=server._make_group((1,)),
                ),
                scale_down=PrefillScaleDown(
                    kept_instances=(1,),
                    per_request={prompt.request_id: {1: prompt.kv_demand}},
                ),
            ))
            server.sim.call_at(
                0.5, lambda: server.import_prefix(tuple(range(100)), server.sim.now)
            )
            return [decoding, paused, prompt], None

        server, record, _ = _serve_both(build, enable_prefix_cache=True)
        (scale_up,) = record["scaling"]
        assert scale_up[1:] == ("scale_up", (1,), (1, 2), 1)
        first_after = next(time for time, _ in server.wakes if time > 0.5)
        assert scale_up[0] == first_after
        before = [in_window for time, in_window in server.wakes if time <= 0.5]
        assert before and all(before)
        assert (first_after, False) in server.wakes


class TestReplicaLocalHorizons:
    """A sharded replica runs ahead of every event that cannot touch it:
    other replicas' events, unless they hold requests with completion
    hooks.  Every fleet serves what the windowless one does, on both
    calendar layouts."""

    def test_windows_run_past_the_other_replicas_events(self):
        """Without completion hooks neither replica can touch the
        other, so each one's windows run past the other's events."""
        trace = make_trace(MIXED, rate=2.0, num_requests=20, seed=1)
        kwargs = dict(replicas=2, router="round-robin")
        windowed, fleet = _run_fleet(WindowSpy, trace, **kwargs)
        _assert_same(windowed, _serve_fleet(True, trace, **kwargs)[0])
        assert fleet.sim._reaches == [True, False, False]
        for handle in fleet.replicas:
            assert handle.server.past_peers > 0

    @pytest.mark.parametrize("sharded", [True, False])
    def test_closed_loop_sessions_fleet(self, sharded):
        """Each session's next turn chains off its previous turn's
        completion hook, so every replica reaches, and none runs past
        another's events."""
        plans = plan_sessions(rate=4.0, num_sessions=12, seed=6)
        kwargs = dict(
            replicas=3, router="affinity", prefix_cache=True, steal=True,
            sharded=sharded,
        )
        windowed, fleet = _run_fleet(WindowSpy, plans, **kwargs)
        reference, reference_fleet = _run_fleet(WindowlessServer, plans, **kwargs)
        _assert_same(windowed, reference)
        assert fleet.sim.events_processed < reference_fleet.sim.events_processed
        spies = [handle.server for handle in fleet.replicas]
        assert sum(spy.wakes != () for spy in spies) == 3
        assert sum(spy.past_peers for spy in spies) == 0
        if sharded:
            assert fleet.sim._reaches == [True] * 4

    @pytest.mark.parametrize("sharded", [True, False])
    def test_disagg_fleet_with_steal_and_faults(self, sharded):
        """The prefill pool serves hooked clones and reaches; the decode
        pool runs past its own peers' events, but not the prefill
        pool's, whose handoffs import into it.  A crash hits each pool."""
        trace = make_trace(MIXED, rate=10.0, num_requests=40, seed=5)
        faults = FaultPlan([
            ReplicaFault(time=2.0, replica_id=0, downtime_s=3.0),
            ReplicaFault(time=4.0, replica_id=3, downtime_s=2.0),
        ])
        kwargs = dict(
            replicas=5, disagg=2, prefix_cache=True, router="least-kv",
            steal=True, faults=faults, sharded=sharded,
        )
        windowed, fleet = _run_fleet(WindowSpy, trace, **kwargs)
        reference, reference_fleet = _run_fleet(WindowlessServer, trace, **kwargs)
        _assert_same(windowed, reference)
        assert fleet.sim.events_processed < reference_fleet.sim.events_processed
        assert fleet.policy.injector is not None
        decode = [handle.server for handle in fleet.replicas[2:]]
        if sharded:
            assert fleet.sim._reaches == [True, True, True, False, False, False]
            assert sum(spy.past_peers for spy in decode) > 0
        else:
            assert sum(spy.past_peers for spy in decode) == 0


class InlineSpy(LoongServeServer):
    """The windowed server, counting the ticks it ran inline while an
    event on another replica's calendar was due at the same instant."""

    contested_inline = 0

    def _can_tick_inline(self, now: float) -> bool:
        inline = super()._can_tick_inline(now)
        peers = _all_calendars(self.sim).next_event_time()
        self.contested_inline += inline and peers is not None and peers <= now
        return inline


class TestSameInstantCompletions:
    """Two replicas serving identical requests finish every decode
    iteration at the same instant, and serve alike whether each tick
    runs inline or queued, on either calendar layout.  Where the twins
    can touch each other, each completion sees the other replica's
    event (or its queued tick) due now, so no tick may run inline:
    always on the unsharded layout, whose horizon is global, and on the
    sharded one once the requests carry completion hooks."""

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

    def _serve_twins(self, hooked: bool) -> dict:
        """(record, contested inline ticks) per layout; the record is the
        one the windowless fleet serves."""
        trace = self._twinned_trace()
        runs = {}
        for sharded in (True, False):
            kwargs = dict(
                replicas=2, router="round-robin", num_gpus=4, sharded=sharded,
                hooked=hooked,
            )
            inline, fleet = _run_fleet(InlineSpy, trace, **kwargs)
            queued, _ = _run_fleet(WindowlessServer, trace, **kwargs)
            assert inline == queued
            contested = sum(h.server.contested_inline for h in fleet.replicas)
            runs[sharded] = (inline, contested)
        assert runs[True][0] == runs[False][0]
        finish = {r[0]: r[4] for r in runs[True][0]["requests"]}
        assert all(finish[2 * i] == finish[2 * i + 1] for i in range(len(trace) // 2))
        return runs

    def test_coinciding_completions_keep_the_tick_queued(self):
        runs = self._serve_twins(hooked=False)
        assert runs[False][1] == 0
        # Sharded, neither twin can touch the other: ticks run inline.
        assert runs[True][1] > 0

    def test_hooked_twins_keep_the_tick_queued_on_both_layouts(self):
        runs = self._serve_twins(hooked=True)
        assert runs[True][1] == runs[False][1] == 0


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
        """...when that replica holds hooked requests, which may write
        to this one."""
        sim = Simulator()
        own, other = sim.create_shard(), sim.create_shard()
        server = LoongServeServer(default_config())
        server.use_simulator(own)
        other.call_at(0.0, lambda: None)
        other.mark_reaching()
        assert not server._can_tick_inline(0.0)

    def test_a_non_reaching_shards_event_due_now_does_not(self):
        """An event of a replica holding no hooked request cannot touch
        this one: the tick runs before anything that can."""
        sim = Simulator()
        own, other = sim.create_shard(), sim.create_shard()
        server = LoongServeServer(default_config())
        server.use_simulator(own)
        other.call_at(0.0, lambda: None)
        assert own.horizon_key() is None
        assert server._can_tick_inline(0.0)
        sim.call_at(0.0, lambda: None)  # the control plane's does
        assert not server._can_tick_inline(0.0)
