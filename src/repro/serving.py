"""One serving loop for every server shape and for fleets.

:func:`serve` runs one :class:`~repro.fleet.server.ServingReplica` —
LoongServe or a baseline engine group (vLLM, SplitFuse, DeepSpeed-MII,
static SP, DistServe, replicated engines) — or a :class:`Fleet` of them
(:class:`~repro.fleet.server.FleetServer`) to completion on a fresh
:class:`~repro.sim.engine.Simulator`, fed by a trace or a closed-loop
driver.  :func:`collect` builds a replica's
:class:`~repro.types.ServeResult` from its ledgers; a fleet builds each
of its replicas' results with it.

Every run ends with each submitted request finished, aborted, or listed
in ``ServeResult.stranded``: a run that goes idle with work left says
which requests can never finish.

This module imports only the simulator and the shared types, so the
servers in ``repro.core`` and ``repro.baselines`` and the fleet in
``repro.fleet`` can delegate to it.
"""

from __future__ import annotations

from functools import partial
from itertools import groupby
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.sim.engine import Simulator
from repro.types import Request, ServeResult

if TYPE_CHECKING:
    from repro.fleet.server import ServingReplica

_arrival_time = attrgetter("arrival_time")
_start_time = attrgetter("start_time")


class Fleet:
    """A server that places each arrival on replicas of its own.

    Besides ``use_simulator``, ``submit`` and ``obs``, the loop reads
    two things of a fleet (:class:`~repro.fleet.server.FleetServer`)
    that it reads of no replica: :meth:`start`, called once the run's
    arrivals are posted, and :meth:`result`.
    """

    def start(self, arrivals: int, driver) -> None:
        """Start the fleet's own timers: ``arrivals`` trace arrivals are
        posted and ``driver`` (None without one) is installed."""
        raise NotImplementedError

    def result(self, requests: list[Request]) -> ServeResult:
        """The run's result over every request submitted to the fleet,
        with ``stranded`` filled when the run went idle."""
        raise NotImplementedError


def serve(
    replica: ServingReplica | Fleet,
    requests: Iterable[Request] = (),
    driver=None,
    max_events: int | None = None,
) -> ServeResult:
    """Serve ``requests`` or ``driver`` on ``replica`` to completion.

    Consecutive requests sharing an arrival time arrive as one event
    calling ``submit`` for each in order, which is what one event per
    request would do.  The driver (e.g.
    :class:`repro.sessions.ClosedLoopDriver`) schedules its own
    submissions on the run's clock, so their arrival times are run
    outcomes.  A replica with an observability bundle (``obs``) gets
    its telemetry sampled and its tracer finalized; a fleet starts its
    control loop, or samples its telemetry on a timer, in
    :meth:`Fleet.start`.

    ``max_events`` bounds the simulator events processed; the partial
    result still reports whatever finished by the cut, and strands
    nothing.  An event is not a unit of work: one may carry many decode
    iterations (a LoongServe decode window or inline tick), so to time a
    fixed amount of work, bound the trace, not the events.
    """
    sim = Simulator()
    replica.use_simulator(sim)
    submitted = list(requests)
    for time, group in groupby(submitted, key=_arrival_time):
        sim.call_at(time, partial(_arrive, replica, list(group)), label="arrival")
    if driver is not None:

        def _submit(request: Request) -> None:
            submitted.append(request)
            replica.submit(request)

        driver.install(sim, _submit)
    obs = replica.obs
    fleet = isinstance(replica, Fleet)
    if fleet:
        replica.start(len(submitted), driver)
    elif obs is not None:
        obs.arm_standalone_sampler(sim, (lambda now: obs.sample_server(replica, now)))
    if max_events is None:
        sim.run_until_idle()
    else:
        sim.run(max_events=max_events)
    if obs is not None:
        obs.tracer.finalize(sim.now)
    if fleet:
        return replica.result(submitted)
    result = collect(replica, submitted, sim.now)
    if sim.next_event_time() is None:
        # The run ended because nothing was left to happen, not at an
        # event budget: any request still unfinished can never finish.
        result.stranded = _stranded(replica, result.requests, sim.now)
    result.obs = obs
    return result


def _arrive(replica: ServingReplica, group: list[Request]) -> None:
    for request in group:
        replica.submit(request)


def _stranded(
    replica: ServingReplica, requests: Sequence[Request], now: float
) -> list[Request]:
    """The unfinished ``requests``, each audited as ``stranded``."""
    stranded = [r for r in requests if not r.finished]
    ledger = replica.ledgers()[0]
    if ledger.trace.enabled:
        for request in stranded:
            ledger.trace.audit(
                now, "stranded", component="server",
                replica=ledger.obs_replica, request=request.request_id,
                state=request.state.name,
            )
    return stranded


def collect(
    replica: ServingReplica, requests: Sequence[Request], makespan: float
) -> ServeResult:
    """``replica``'s result over the ``requests`` submitted to it.

    ``aborted`` keeps only those requests' aborts, in ledger order (a
    disaggregated fleet's shadow prefill clones are never submitted
    through the handle, so their aborts stay out); ``requests`` is the
    rest.  Each ledger appends its iteration stats in start order; a
    group's are merged into one stable start-time order.
    """
    parts = replica.ledgers()
    submitted = {r.request_id for r in requests}
    aborted = [r for part in parts for r in part.aborted if r.request_id in submitted]
    aborted_ids = {r.request_id for r in aborted}
    if len(parts) == 1:
        stats = parts[0].iteration_stats
    else:
        stats = [s for part in parts for s in part.iteration_stats]
        stats.sort(key=_start_time)
    cache = replica.prefix_cache
    ledger = replica.qos_ledger
    return ServeResult(
        system=replica.name,
        requests=[r for r in requests if r.request_id not in aborted_ids],
        scaling_events=[e for part in parts for e in part.scaling_events],
        iteration_stats=stats,
        makespan=makespan,
        aborted=aborted,
        cache_stats=cache.stats_dict() if cache is not None else None,
        qos_stats=ledger.as_dict() if ledger is not None else None,
    )
