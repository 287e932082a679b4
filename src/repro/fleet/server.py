"""N replica serving systems behind one router on a shared clock.

``FleetServer`` is the fleet-scale counterpart of a single system's
``run``: every replica (any system built by
``repro.experiments.systems.make_system`` — LoongServe, vLLM,
DistServe, a replicated engine group, …) is reset onto one shared
:class:`~repro.sim.engine.Simulator`, arrivals fire on that clock, and
the placement side of a :class:`~repro.fleet.control.ClusterPolicy`
places each request using the replicas' *live* state (queue depths, KV
pool occupancy) exactly as a fleet front-end would.

Placement is no longer the whole story: when the policy carries
actuators (autoscaler / work stealer / KV migrator), a
:class:`~repro.fleet.control.FleetController` runs periodic control
ticks on the same clock and moves capacity, queued work, and cached
session KV *after* arrival — the closed control loop.  With no
actuators armed, no ticks are scheduled and fleet behaviour is
bit-identical to pure route-once placement.

Every server shape implements :class:`ServingReplica`, the one contract
the fleet and obs layers read.  ``ReplicaHandle`` keeps the fleet's own
books on top of it (routed ledger, lifecycle flags, steal counts) and
rebuilds a per-replica :class:`~repro.types.ServeResult` afterwards;
``FleetResult`` is the merged fleet view plus the per-replica breakdown
the load-imbalance metrics read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence, runtime_checkable

from repro.fleet.control import DEFAULT_CONTROL_INTERVAL, ClusterPolicy, FleetController
from repro.fleet.disagg import CLONE_ID_OFFSET
from repro.fleet.router import Router
from repro.metrics.fleet import ElasticStats, merge_serve_results
from repro.sim.engine import Simulator
from repro.types import Request, RequestState, ServeResult

if TYPE_CHECKING:
    from repro.kvcache.pool import InstancePool
    from repro.metrics.qos import QoSLedger
    from repro.sessions.prefix_cache import PrefixKVCache


@runtime_checkable
class ServingReplica(Protocol):
    """What the fleet and obs layers read of one replica's server.

    Implemented by ``LoongServeServer`` and the baselines'
    ``EngineGroup`` (a lone ``EngineServer`` — vLLM, SplitFuse,
    DeepSpeed-MII, static SP — or DistServe and the replicated
    engines).  A shape without a capability says so in its own code:
    ``prefix_cache``/``qos_ledger`` are None and ``crash()`` raises
    ``TypeError``.  ``ledgers()`` returns the objects holding the
    append-only ``finished``/``aborted``/``iteration_stats``/
    ``scaling_events`` lists, in result order (the server, or a group's
    engines); observers keep a cursor per list, so no list is ever a
    fresh concatenation.
    """

    name: str
    prefix_cache: PrefixKVCache | None
    qos_ledger: QoSLedger | None

    def use_simulator(self, sim) -> None:
        """Reset to an empty server on ``sim``'s clock."""

    def observe(self, obs, replica: int = 0) -> None:
        """Send spans and audits to ``obs.tracer``, tagged ``replica``."""

    def submit(self, request: Request) -> None: ...

    def queued(self) -> Iterable[Request]:
        """Requests waiting to start, in queue order."""

    def withdraw(self, request: Request) -> bool:
        """Undo ``submit`` for a queued request; False if not queued."""

    def kv_pools(self) -> Iterable[tuple[int, InstancePool]]:
        """``(key, pool)`` per KV pool, read live."""

    def crash(self) -> tuple[list[Request], int]:
        """Fail atomically: (orphaned requests, lost KV tokens)."""

    def ledgers(self) -> Sequence: ...

    def decode_batch_size(self) -> int: ...

    def generated_tokens(self) -> int:
        """Running total of output tokens (the throughput read)."""


class ReplicaHandle:
    """Fleet-side view of one replica: its server plus the fleet's books.

    Routers read the *probe* surface (queue depth, KV occupancy, prefix
    matches); the control plane additionally drives the *mutation*
    surface: ``drain``/``park``/``unpark`` for autoscaling,
    ``withdraw``/``accept_stolen`` for work stealing, and
    ``export_prefix``/``import_prefix`` for cross-replica session-KV
    migration.  Every read of the server goes through
    :class:`ServingReplica`.
    """

    def __init__(self, replica_id: int, server: ServingReplica) -> None:
        self.replica_id = replica_id
        self.server = server
        self.routed: list[Request] = []
        # Live subset of ``routed``: finished requests are lazily pruned
        # the next time a probe scans, so ``outstanding_*`` cost tracks
        # the in-flight population instead of the whole routing history
        # (which made every control tick quadratic in trace length).
        self._active: list[Request] = []
        # Cumulative token work ever submitted here (input + declared
        # output).  Unlike summing ``routed``, the counter is O(1) to
        # read and stable across crashes (orphans are pruned from the
        # list but their arrival still happened) — the predictive
        # autoscaler's arrival signal.  Withdrawals net out so a stolen
        # request counts once fleet-wide.
        self.routed_tokens = 0
        self.stolen_in = 0
        self.stolen_out = 0
        # Elastic lifecycle: an offline (parked) replica receives no
        # placements; a draining one finishes resident work first.
        # ``crashed`` marks an offline replica that *failed* (its KV is
        # gone and it cannot be unparked — recovery replaces it);
        # ``warming`` marks one loading weights on its way back online.
        self.online = True
        self.draining = False
        self.crashed = False
        self.warming = False
        # Warm standby (repro.fleet.disagg / make_fleet(standby=N)): the
        # replica starts parked with weights resident, so an autoscaler
        # promotion skips the weight-load warm-up entirely.
        self.standby = False

    @property
    def name(self) -> str:
        return self.server.name

    @property
    def available(self) -> bool:
        """Eligible for new placements (online and not draining)."""
        return self.online and not self.draining

    @property
    def placeable(self) -> bool:
        """Can serve work if something is submitted to it.

        Parked (but healthy) replicas still count — their server state
        is intact, which is the pre-fault fallback when every replica is
        draining.  Crashed and warming replicas do not: submitting to
        them would serve requests on hardware the simulation just
        declared dead or still loading weights.
        """
        return not self.crashed and not self.warming

    # -- lifecycle -----------------------------------------------------------

    def prepare(self, sim) -> None:
        """Reset the replica onto the shared clock (a :class:`Simulator`,
        or one replica's ``ShardClock`` view of it when the fleet runs
        sharded calendars)."""
        self.server.use_simulator(sim)
        self.routed = []
        self._active = []
        self.routed_tokens = 0
        self.stolen_in = 0
        self.stolen_out = 0
        self.online = not self.standby  # standby replicas start parked
        self.draining = False
        self.crashed = False
        self.warming = False

    def submit(self, request: Request) -> None:
        self.routed.append(request)
        self._active.append(request)
        self.routed_tokens += request.input_len + request.output_len
        self.server.submit(request)

    def submit_shadow(self, request: Request) -> None:
        """Submit a request that must not appear in the fleet result.

        The disaggregated dispatcher's prefill-stage clones run here for
        real — they occupy the queue, the pool, and the probe surface
        (``_active``/``routed_tokens``), so routers and the autoscaler
        see the load — but stay out of ``routed``, which is what
        :meth:`result` reports: each arrival is counted exactly once
        fleet-wide, by the decode replica that serves its real decode.
        """
        self._active.append(request)
        self.routed_tokens += request.input_len + request.output_len
        self.server.submit(request)

    def drain(self) -> None:
        """Stop placements here; resident work runs to completion."""
        self.draining = True

    def park(self) -> bool:
        """Take the drained replica offline; False while work remains."""
        if self.outstanding_requests() > 0:
            return False
        self.online = False
        self.draining = False
        return True

    def unpark(self) -> None:
        """Bring a parked (or draining) replica back into rotation."""
        self.online = True
        self.draining = False

    # -- failure injection -----------------------------------------------------

    def crash(self) -> tuple[list[Request], int]:
        """Kill this replica; returns (orphaned requests, lost KV tokens).

        The server wipes its own state atomically (a shape that cannot
        fail raises ``TypeError``); the handle prunes the orphans from
        the routed ledger so the fleet result cannot double-count them
        after failover, and takes the replica offline until recovery.
        """
        orphans, lost_tokens = self.server.crash()
        orphan_ids = {r.request_id for r in orphans}
        self.routed = [r for r in self.routed if r.request_id not in orphan_ids]
        self._active = []  # every unfinished resident is an orphan now
        self.online = False
        self.draining = False
        self.crashed = True
        self.warming = False
        return orphans, lost_tokens

    def begin_warmup(self) -> None:
        """Start loading weights (crash recovery or autoscaler unpark).

        The replica stays out of the placement pool until
        :meth:`complete_warmup`; the autoscaler sees ``warming`` and
        neither double-unparks it nor scales in while capacity is in
        flight.
        """
        self.warming = True
        self.online = False
        self.draining = False

    def complete_warmup(self) -> None:
        """Warm-up finished: rejoin the placement pool (empty-handed)."""
        self.warming = False
        self.crashed = False
        self.online = True
        self.draining = False

    # -- live probes (read by routers and the control plane) -------------------

    def outstanding_requests(self) -> int:
        """Routed requests not yet finished (aborts count as finished)."""
        active = [r for r in self._active if not r.finished]
        self._active = active
        return len(active)

    def outstanding_tokens(self) -> int:
        """Token-weighted outstanding work (queued + resident lengths)."""
        active = [r for r in self._active if not r.finished]
        self._active = active
        return sum(r.current_len for r in active)

    def kv_free_map(self) -> dict[int, int]:
        """Free KV slots per instance/engine."""
        return {key: pool.free for key, pool in self.server.kv_pools()}

    def kv_free(self) -> int:
        return sum(pool.free for _, pool in self.server.kv_pools())

    def kv_capacity(self) -> int:
        return sum(pool.capacity for _, pool in self.server.kv_pools())

    def kv_used_fraction(self) -> float:
        """KV pressure: fraction of this replica's slots in use."""
        capacity = self.kv_capacity()
        if capacity <= 0:
            return 0.0
        return 1.0 - self.kv_free() / capacity

    def prefix_match_len(self, request: Request) -> int:
        """Longest prompt prefix resident in this replica's prefix-KV
        cache (0 for replicas without one, or token-less requests)."""
        cache = self.server.prefix_cache
        if cache is None or request.token_ids is None:
            return 0
        return cache.peek_match(request.token_ids)

    @property
    def has_prefix_cache(self) -> bool:
        return self.server.prefix_cache is not None

    # -- work stealing ---------------------------------------------------------

    @staticmethod
    def _stealable(request: Request) -> bool:
        """Still-queued work with no resident state anywhere: safe to
        re-submit on any replica.  Shadow prefill clones are pinned —
        their KV must finish where the disaggregated handoff will export
        it, so relocating one would strand the original's transfer."""
        return (
            request.state == RequestState.PENDING
            and request.generated == 0
            and request.preemptions == 0
            and request.request_id < CLONE_ID_OFFSET
        )

    def queued_requests(self) -> list[Request]:
        """Requests queued here that a steal could relocate."""
        return [r for r in self.server.queued() if self._stealable(r)]

    def withdraw(self, request: Request) -> bool:
        """Remove a still-queued request from this replica entirely.

        The server undoes its own side of ``submit`` (queue entry,
        bookkeeping, prefix-cache pins); the handle drops the request
        from the routed ledger.  Returns False when the request already
        left the queue (it started prefilling between plan and
        execution).
        """
        if not self._stealable(request) or not self.server.withdraw(request):
            return False
        if request in self.routed:
            self.routed.remove(request)
            self.routed_tokens -= request.input_len + request.output_len
        if request in self._active:
            self._active.remove(request)
        self.stolen_out += 1
        return True

    def accept_stolen(self, request: Request) -> None:
        """Enqueue a request withdrawn from an overloaded peer."""
        self.stolen_in += 1
        self.submit(request)

    # -- cross-replica KV migration --------------------------------------------

    def export_prefix(self, request: Request) -> tuple[int, ...]:
        """Read this replica's resident prefix of ``request`` for handoff."""
        cache = self.server.prefix_cache
        if cache is None or request.token_ids is None:
            return ()
        return cache.export_prefix(request.token_ids)

    def import_prefix(self, token_ids: tuple[int, ...], now: float) -> int:
        """Install a migrated prefix extent; returns tokens placed."""
        cache = self.server.prefix_cache
        if cache is None:
            return 0
        return cache.import_prefix(token_ids, now)

    def note_prefix_export(self, num_tokens: int) -> None:
        """Charge a successful handoff against this side's export ledger."""
        cache = self.server.prefix_cache
        if cache is not None:
            cache.note_export(num_tokens)

    def resident_prefix_sequences(self) -> list[tuple[float, tuple[int, ...]]]:
        cache = self.server.prefix_cache
        if cache is None:
            return []
        return cache.resident_sequences()

    def clear_prefix_cache(self) -> int:
        cache = self.server.prefix_cache
        if cache is None:
            return 0
        return cache.clear()

    # -- result assembly -----------------------------------------------------

    def result(self, makespan: float) -> ServeResult:
        """Per-replica ``ServeResult`` over the requests routed here."""
        server = self.server
        parts = server.ledgers()
        # Shadow prefill clones (disaggregated dispatch) never appear in
        # the fleet result: their original is delivered elsewhere, so an
        # aborted clone here would double-count the request.
        aborted = [
            r for part in parts for r in part.aborted
            if r.request_id < CLONE_ID_OFFSET
        ]
        aborted_ids = {r.request_id for r in aborted}
        stats = [s for part in parts for s in part.iteration_stats]
        cache = server.prefix_cache
        ledger = server.qos_ledger
        return ServeResult(
            system=self.name,
            requests=[r for r in self.routed if r.request_id not in aborted_ids],
            scaling_events=[e for part in parts for e in part.scaling_events],
            iteration_stats=sorted(stats, key=lambda s: s.start_time),
            makespan=makespan,
            aborted=aborted,
            cache_stats=cache.stats_dict() if cache is not None else None,
            qos_stats=ledger.as_dict() if ledger is not None else None,
        )


@dataclass
class FleetResult(ServeResult):
    """Fleet-merged ``ServeResult`` plus the per-replica breakdown.

    ``elastic`` carries the control plane's recorder when the run used
    one (None on static route-once fleets).  ``stranded`` is fleet-wide
    (the per-replica results leave it empty): a request can strand
    between the disagg pools, where no replica reports it.
    """

    per_replica: list[ServeResult] = field(default_factory=list)
    elastic: ElasticStats | None = None


class FleetServer:
    """Serve one workload trace across replicas under a cluster policy."""

    def __init__(
        self,
        replicas: Sequence[ServingReplica],
        router: Router | None = None,
        name: str | None = None,
        policy: ClusterPolicy | None = None,
        control_interval: float = DEFAULT_CONTROL_INTERVAL,
        sharded: bool = True,
        disagg=None,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one replica")
        if (router is None) == (policy is None):
            raise ValueError("pass exactly one of router= or policy=")
        self.replicas = [
            ReplicaHandle(i, server) for i, server in enumerate(replicas)
        ]
        # Disaggregated two-stage dispatch (repro.fleet.disagg): when
        # armed, arrivals prefill on one pool and hand their KV to a
        # decode pool over the fabric instead of taking the policy's
        # route-once path.
        self.disagg = disagg
        if disagg is not None and len(self.replicas) < 2:
            raise ValueError("disaggregated dispatch needs at least 2 replicas")
        self.policy = policy if policy is not None else ClusterPolicy(router)
        self.router = self.policy.router  # back-compat alias
        self.control_interval = control_interval
        # Sharded calendars: each replica schedules on its own event
        # queue (bit-identical to the shared heap — same tie-break
        # order); the control plane keeps the simulator's own queue.
        self.sharded = sharded
        self.name = name or (
            f"{replicas[0].name} x{len(replicas)} [{self.policy.name}]"
        )
        self._remaining_arrivals = 0
        # Every request placed this run (trace arrivals and driver
        # submissions, never shadow clones): the run-end liveness check
        # reads it, since a request between the disagg pools sits in no
        # replica's ledger.
        self._placed: list[Request] = []
        self._controller: FleetController | None = None
        self._obs = None
        # The most recent run's simulator (events_processed, final
        # clock) — benchmark instrumentation; None before the first run.
        self.last_sim = None

    def observe(self, obs) -> None:
        """Attach an :class:`~repro.obs.observe.Observability` bundle.

        Every replica's spans/audits land in the shared tracer (tagged
        with its replica id), the control plane audits its decisions,
        and telemetry samples ride the control ticks (or a standalone
        timer on static fleets).
        """
        self._obs = obs

    def run(self, requests: list[Request]) -> FleetResult:
        """Serve a trace across the fleet; returns the merged result."""
        return self._serve(requests, driver=None)

    def run_driven(self, driver) -> FleetResult:
        """Serve a closed-loop workload driver across the fleet.

        The driver (e.g. :class:`repro.sessions.ClosedLoopDriver`)
        submits requests on its own schedule — each submission takes the
        same placement path trace arrivals do, limbo-hold included.
        """
        return self._serve([], driver=driver)

    def _serve(self, requests: list[Request], driver) -> FleetResult:
        sim = Simulator()
        self.last_sim = sim
        self.policy.reset()
        for handle in self.replicas:
            handle.prepare(sim.create_shard() if self.sharded else sim)
        obs = self._obs
        self.policy.tracer = obs.tracer if obs is not None else None
        if obs is not None:
            for handle in self.replicas:
                handle.server.observe(obs, replica=handle.replica_id)
        self._remaining_arrivals = len(requests) + (
            driver.total_requests if driver is not None else 0
        )
        self._placed = []
        controller: FleetController | None = None
        elastic: ElasticStats | None = None
        self._controller = None
        if self.policy.has_actuators or self.disagg is not None:
            elastic = ElasticStats()
        if self.policy.has_actuators:
            controller = self._controller = FleetController(
                policy=self.policy,
                replicas=self.replicas,
                sim=sim,
                stats=elastic,
                interval=self.control_interval,
                work_remaining=self._work_remaining,
                obs=obs,
                disagg=self.disagg,
            )
        if self.disagg is not None:
            self.disagg.reset(
                sim=sim,
                replicas=self.replicas,
                elastic=elastic,
                obs=obs,
            )
        for request in requests:
            sim.call_at(
                request.arrival_time,
                self._make_arrival(request, sim),
                label=f"arrival:{request.request_id}",
            )
        if driver is not None:
            driver.install(sim, (lambda req: self._place_arrival(req, sim)))
        if controller is not None:
            controller.start()
        elif obs is not None:
            # No control loop to ride: sample on a standalone timer.
            obs.arm_standalone_sampler(
                sim, (lambda now: obs.sample_fleet(self.replicas, now))
            )
        sim.run_until_idle()
        stranded = self._stranded(sim)
        if obs is not None:
            obs.tracer.finalize(sim.now)

        per_replica = [handle.result(sim.now) for handle in self.replicas]
        merged = merge_serve_results(per_replica, system=self.name)
        return FleetResult(
            system=merged.system,
            requests=merged.requests,
            scaling_events=merged.scaling_events,
            iteration_stats=merged.iteration_stats,
            makespan=merged.makespan,
            aborted=merged.aborted,
            stranded=stranded,
            cache_stats=merged.cache_stats,
            qos_stats=merged.qos_stats,
            obs=obs,
            per_replica=per_replica,
            elastic=elastic,
        )

    def _work_remaining(self) -> bool:
        """Anything left for the control loop to manage?"""
        if self._remaining_arrivals > 0:
            return True
        if self.disagg is not None and self.disagg.inflight > 0:
            return True
        return any(h.outstanding_requests() > 0 for h in self.replicas)

    def _stranded(self, sim: Simulator) -> list[Request]:
        """Placed requests the run left unfinished after going idle.

        Covers every replica plus the gap between the disagg pools; a
        run stopped by the event guard is not idle and lists none.
        """
        if sim.next_event_time() is not None:
            return []
        stranded = [r for r in self._placed if not r.finished]
        tracer = self._obs.tracer if self._obs is not None else None
        if stranded and tracer is not None and tracer.enabled:
            where = {
                r.request_id: h.replica_id for h in self.replicas for r in h.routed
            }
            for request in stranded:
                tracer.audit(
                    sim.now, "stranded", component="fleet",
                    replica=where.get(request.request_id, -1),
                    request=request.request_id, state=request.state.name,
                )
        return stranded

    def _place_arrival(self, request: Request, sim: Simulator) -> None:
        """One arrival's placement path (trace and driver submissions)."""
        self._placed.append(request)
        self._remaining_arrivals -= 1
        if self._controller is not None and self._controller.try_hold_arrival(
            request
        ):
            return  # every replica is dead or warming; limbo holds it
        if self.disagg is not None:
            self.disagg.dispatch(request)
            return
        handle = self.policy.place(request, self.replicas, sim.now)
        handle.submit(request)

    def _make_arrival(self, request: Request, sim: Simulator):
        def _on_arrival() -> None:
            self._place_arrival(request, sim)

        return _on_arrival
