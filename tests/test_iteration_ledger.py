"""The iteration ledger: what a run folds its iterations into.

Every server folds each executed iteration into its
:class:`~repro.types.IterationLedger` (a count and the busy seconds,
summed in execution order) and keeps a ``BatchStats`` row per iteration
only when asked (:func:`repro.serving.keep_iteration_rows`).  Pinned
here:

* **The ledger agrees with the rows** — on every standalone shape, a
  sharded fleet and a disagg fleet, a run with rows serves what a run
  without serves, its count is the number of rows, and its busy seconds
  are the in-order sum of the rows' durations, bit for bit, also where
  ``fleet_load_report`` reads them and at stops inside decode windows;
  a crash keeps the ledger.
* **No row on the default path** — a run that did not ask keeps no
  ``BatchStats`` alive.
"""

import gc

import pytest

from repro.config import default_config
from repro.core.server import LoongServeServer
from repro.experiments.systems import make_fleet, make_system
from repro.metrics.fleet import fleet_load_report
from repro.serving import Fleet, keep_iteration_rows
from repro.sim.engine import Simulator
from repro.types import BatchStats
from repro.workloads.datasets import MIXED
from repro.workloads.trace_gen import clone_requests, make_trace
from tests.test_replica_contract import SYSTEMS

TRACE = make_trace(MIXED, rate=6.0, num_requests=40, seed=3)

FLEETS = {
    "sharded-fleet": dict(replicas=3, router="least-kv"),
    "disagg-fleet": dict(replicas=3, disagg=1, prefix_cache=True),
}


def _build(shape: str):
    if shape in FLEETS:
        return make_fleet("loongserve", requests=TRACE, **FLEETS[shape])
    return make_system(shape, requests=TRACE)


def _in_order_sum(values) -> float:
    """Floats added left to right, as the ledger adds them (``sum``
    compensates its float additions from Python 3.12 on)."""
    total = 0.0
    for value in values:
        total += value
    return total


def _served(result) -> tuple:
    """The run's outcomes, requests named by content."""
    return (
        sorted(
            (r.input_len, r.output_len, r.arrival_time, r.prefill_start,
             r.first_token_time, r.finish_time, r.generated, r.preemptions)
            for r in result.requests
        ),
        len(result.aborted),
        len(result.stranded),
        [(e.time, e.kind, e.group_before, e.group_after, e.batch_size)
         for e in result.scaling_events],
        result.makespan,
    )


def _replica_ledgers(system) -> list[list]:
    """Each replica's iteration ledgers, in replica order (a standalone
    system is one replica; an engine group has one per engine)."""
    servers = (
        [handle.server for handle in system.replicas]
        if isinstance(system, Fleet) else [system]
    )
    return [[ledger.iterations for ledger in server.ledgers()] for server in servers]


def _assert_agrees(ledger) -> None:
    rows = ledger.rows
    assert ledger.count == len(rows)
    assert [row.iteration for row in rows] == list(range(len(rows)))
    assert ledger.busy_seconds == _in_order_sum(row.duration for row in rows)


@pytest.mark.parametrize("shape", [*SYSTEMS, *FLEETS])
def test_the_ledger_agrees_with_the_rows(shape):
    plain = _build(shape)
    plain_result = plain.run(clone_requests(TRACE))
    recorded = _build(shape)
    keep_iteration_rows(recorded)
    result = recorded.run(clone_requests(TRACE))

    assert _served(result) == _served(plain_result)
    assert plain_result.iterations.rows is None
    assert plain_result.iterations.count == result.iterations.count > 0
    assert plain_result.iterations.busy_seconds == result.iterations.busy_seconds
    assert result.iterations.count == len(result.iterations.rows)
    per_replica = result.per_replica if isinstance(recorded, Fleet) else [result]
    report = fleet_load_report(per_replica)
    replicas = _replica_ledgers(recorded)
    for load, replica, ledgers in zip(report.replicas, per_replica, replicas, strict=True):
        for ledger in ledgers:
            _assert_agrees(ledger)
        assert load.busy_seconds == _in_order_sum(
            _in_order_sum(row.duration for row in ledger.rows) for ledger in ledgers
        )
        assert replica.iterations.count == len(replica.iterations.rows)
    assert result.iterations.busy_seconds == _in_order_sum(
        load.busy_seconds for load in report.replicas
    )


def _recorded_server() -> tuple[LoongServeServer, Simulator]:
    """A LoongServe server keeping rows, with a small Mixed trace posted."""
    server = LoongServeServer(default_config())
    keep_iteration_rows(server)
    sim = Simulator()
    server.use_simulator(sim)
    requests = clone_requests(make_trace(MIXED, rate=0.5, num_requests=6, seed=2))
    for request in requests:
        sim.call_at(request.arrival_time, lambda r=request: server.submit(r))
    return server, sim


def test_the_count_lands_at_every_stop():
    """Stopped inside quiet decode windows, the ledger has taken every
    hand-off's count and busy seconds."""
    server, sim = _recorded_server()
    counts = []
    for until in (5.0, 10.0, 10.0 + 1e-9, 20.0, 40.0):
        sim.run(until=until)
        _assert_agrees(server.iterations)
        counts.append(server.iterations.count)
    assert counts == sorted(counts) and counts[0] > 0
    assert sim.events_processed < counts[-1]  # windows ran in between


def test_a_crash_keeps_the_ledger():
    """The iterations a crashed replica ran stay counted, rows and all,
    as its ``finished`` requests stay."""
    server, sim = _recorded_server()
    sim.run(until=10.0)
    ledger, count = server.iterations, server.iterations.count
    orphans, _ = server.crash()
    assert orphans and count > 0  # the crash cut work in flight
    assert server.iterations is ledger and ledger.count == count
    _assert_agrees(ledger)


def test_rows_are_asked_for_before_the_first_iteration():
    server = LoongServeServer(default_config())
    server.run(clone_requests(TRACE[:4]))
    with pytest.raises(ValueError, match="without rows"):
        keep_iteration_rows(server)


@pytest.mark.parametrize("fleet", [False, True])
def test_a_default_run_keeps_no_row_alive(fleet):
    """An unrecorded run of a small Mixed trace leaves no ``BatchStats``
    behind, on LoongServe and on a two-replica fleet (before the ledger,
    every executed iteration stayed a tracked ``BatchStats``)."""
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, BatchStats)]
    seen = {id(o) for o in before}  # ``before`` keeps their ids unique
    trace = make_trace(MIXED, rate=2.0, num_requests=20, seed=4)
    server = (
        make_fleet("loongserve", replicas=2, router="round-robin")
        if fleet else LoongServeServer(default_config())
    )
    result = server.run(clone_requests(trace))
    gc.collect()
    left = [
        o for o in gc.get_objects() if isinstance(o, BatchStats) and id(o) not in seen
    ]
    assert result.iterations.count > 0
    assert left == []
    del before
