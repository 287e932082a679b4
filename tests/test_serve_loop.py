"""One serving loop for every server shape (``repro.serving``).

Pinned here:

* **Standalone golden matrix** — all eight ``make_system`` shapes on
  Mixed, ShareGPT and a clustered-timestamp ShareGPT trace serve
  exactly what their own ``run()`` loops served before the shared loop
  replaced them: per-request timelines, aborted requests in order,
  iteration stats, scaling events and makespan.
* **The loop's contract** — start-ordered iteration stats and
  ``run_driven`` on every shape, event budgets (on a fleet too), and
  the observability bundle sampled where a shape has one.
* **Arrival grouping** — same-timestamp arrivals coalesce into one
  event, on every shape and on fleets, bit-identically to one arrival
  event per request.
"""

import hashlib
import math
from dataclasses import replace
from functools import partial

import pytest

from repro.experiments.systems import make_fleet, make_system
from repro.obs import Observability
from repro.serving import serve
from repro.sessions import ClosedLoopDriver, plan_sessions
from repro.types import Request
from repro.workloads.datasets import MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace
from tests.test_replica_contract import SYSTEMS

SHAREGPT_TRACE = make_trace(SHAREGPT, rate=12.0, num_requests=150, seed=5)
TRACES = {
    "mixed": make_trace(MIXED, rate=2.0, num_requests=60, seed=3),
    "sharegpt": SHAREGPT_TRACE,
    # Whole-second timestamps: ~12 arrivals share each one.
    "clustered": [
        replace(r, arrival_time=float(math.floor(r.arrival_time)))
        for r in SHAREGPT_TRACE
    ],
}

# (system, trace) -> signature digest, recorded on the per-shape run()
# loops the shared loop replaced, with their iteration stats put in
# stable start-time order.  That order changed nothing except on
# DistServe, whose loop listed the prefill engine's stats before the
# decode engine's.
GOLDEN = {
    ("loongserve", "mixed"): "bf301863b9c691b0",
    ("loongserve", "sharegpt"): "be15b7e2b37eaff7",
    ("loongserve", "clustered"): "c98298e2518be48e",
    ("loongserve-no-scaleup", "mixed"): "e35c72ff7f997edd",
    ("loongserve-no-scaleup", "sharegpt"): "45a6ad7bf0c10f18",
    ("loongserve-no-scaleup", "clustered"): "d3d13c441ed82bf7",
    ("vllm", "mixed"): "b2f5e3d6afba4d1d",
    ("vllm", "sharegpt"): "c02ebc9b037ddf9a",
    ("vllm", "clustered"): "84ea25b0a05a4e58",
    ("deepspeed-mii", "mixed"): "2c2d21f712fdf488",
    ("deepspeed-mii", "sharegpt"): "2ea9b23f7989dda7",
    ("deepspeed-mii", "clustered"): "8e19d3da74d30aa0",
    ("splitfuse", "mixed"): "0419eb907e47dec0",
    ("splitfuse", "sharegpt"): "834a4ff51106f993",
    ("splitfuse", "clustered"): "45d0dc068bab22f5",
    ("distserve", "mixed"): "4e5899ce83f8080f",
    ("distserve", "sharegpt"): "207ac9cc7d137111",
    ("distserve", "clustered"): "7fcb7a45b7aa5e80",
    ("static-sp", "mixed"): "0573e525ae86c7af",
    ("static-sp", "sharegpt"): "2697c7e407965c0c",
    ("static-sp", "clustered"): "9b9e452ce10e4a56",
    ("replicated-tp2", "mixed"): "617c34235e1f47da",
    ("replicated-tp2", "sharegpt"): "73c1b3b984e45c41",
    ("replicated-tp2", "clustered"): "a1685049e9f5733d",
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _signature(result, trace) -> str:
    """Digest of a standalone run, with requests named by trace position
    (request ids come from a process-wide counter)."""
    index = {r.request_id: i for i, r in enumerate(trace)}
    return _digest((
        result.system,
        [(index[r.request_id], r.prefill_start, r.first_token_time,
          r.finish_time, r.generated, r.preemptions) for r in result.requests],
        [index[r.request_id] for r in result.aborted],
        [(s.iteration, s.phase.name, s.batch_size, s.total_tokens, s.dop,
          s.duration, s.start_time) for s in result.iteration_stats],
        [(e.time, e.kind, e.group_before, e.group_after, e.batch_size)
         for e in result.scaling_events],
        result.makespan,
    ))


@pytest.mark.parametrize(("system", "trace"), list(GOLDEN))
def test_standalone_matrix_matches_golden(system, trace):
    requests = TRACES[trace]
    result = make_system(system, requests=requests).run(clone_requests(requests))
    assert result.stranded == []
    starts = [s.start_time for s in result.iteration_stats]
    assert starts == sorted(starts)
    assert _signature(result, requests) == GOLDEN[system, trace]


@pytest.mark.parametrize("system", SYSTEMS)
def test_run_driven_serves_every_shape(system):
    driver = ClosedLoopDriver(plan_sessions(rate=2.0, num_sessions=4, seed=11))
    result = make_system(system).run_driven(driver)
    assert result.requests == driver.requests
    assert all(r.finish_time is not None for r in driver.requests)
    assert result.stranded == [] and result.aborted == []
    turns = {}
    for request in driver.requests:
        turns.setdefault(request.session_id, []).append(request)
    for session in turns.values():  # each follow-up waited for its answer
        for prev, nxt in zip(session, session[1:]):
            assert nxt.arrival_time > prev.finish_time
    assert any(len(session) > 1 for session in turns.values())


def _serve_counting_events(system, trace, max_events=None):
    """:func:`serve`, returning the result and the events processed."""
    sims = []
    use_simulator = system.use_simulator
    system.use_simulator = lambda sim: (sims.append(sim), use_simulator(sim))
    result = serve(system, clone_requests(trace), max_events=max_events)
    return result, sims[0].events_processed


def test_event_budget_cut_reports_partial_work_and_strands_nothing():
    """A budget of half the full run's events cuts the run mid-way."""
    trace = make_trace(SHAREGPT, rate=10.0, num_requests=12, seed=21)
    for build in (lambda: make_system("distserve"), lambda: make_fleet("loongserve", replicas=2)):
        _, events = _serve_counting_events(build(), trace)
        result, cut = _serve_counting_events(build(), trace, max_events=events // 2)
        assert cut == events // 2
        assert 0 < len(result.finished_requests) < len(trace)
        assert result.stranded == []


@pytest.mark.parametrize("system", ["loongserve", "vllm"])
def test_observed_run_samples_where_the_shape_can(system):
    """LoongServe's telemetry is sampled and its spans finalized; an
    engine routes audits only, and its result carries no bundle."""
    server = make_system(system)
    obs = Observability()
    server.observe(obs)
    result = server.run(clone_requests(TRACES["mixed"][:20]))
    assert (result.obs is obs) == (system == "loongserve")
    assert bool(obs.metrics.sample_times) == (system == "loongserve")


def _finished_signature(requests):
    signature = sorted(
        (r.input_len, r.output_len, round(r.arrival_time, 9),
         round(r.prefill_end, 9), round(r.first_token_time, 9),
         round(r.finish_time, 9), r.preemptions)
        for r in requests if r.finished
    )
    return hashlib.md5(repr(signature).encode()).hexdigest()


def _steady_trace(num_requests=600, cluster=48, interval=8.0, output_len=300):
    return [
        Request(request_id=i, input_len=512, output_len=output_len,
                arrival_time=(i // cluster) * interval)
        for i in range(num_requests)
    ]


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
        assert _finished_signature(grouped.requests) == _finished_signature(
            ungrouped.requests
        )
        assert grouped.makespan == ungrouped.makespan
        # The grouping is the whole point: fewer arrival events fired.
        assert gs.events_processed < us.events_processed

    def test_distinct_timestamps_identical(self):
        trace = make_trace(MIXED, rate=4.0, num_requests=30, seed=7)
        grouped, ungrouped, gs, us = self._grouped_and_ungrouped(trace)
        assert _finished_signature(grouped.requests) == _finished_signature(
            ungrouped.requests
        )
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
