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
"""

import hashlib
import math
from dataclasses import replace

import pytest

from repro.experiments.systems import make_fleet, make_system
from repro.obs import Observability
from repro.serving import serve
from repro.sessions import ClosedLoopDriver, plan_sessions
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
