"""N replica serving systems behind one router on a shared clock.

``FleetServer`` serves a workload across replicas on the one serving
loop, :func:`repro.serving.serve`: every replica (any system built by
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
the serving loop, the fleet and obs layers read.  ``ReplicaHandle``
keeps the fleet's own books on top of it (routed ledger, lifecycle
flags, steal counts) and builds a per-replica
:class:`~repro.types.ServeResult` afterwards with the serving loop's
collector (:func:`repro.serving.collect`);
``FleetResult`` is the merged fleet view plus the per-replica breakdown
the load-imbalance metrics read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence, runtime_checkable

from repro.fleet.control import DEFAULT_CONTROL_INTERVAL, ClusterPolicy, FleetController
from repro.fleet.disagg import CLONE_ID_OFFSET
from repro.metrics.fleet import ElasticStats, merge_serve_results
from repro.serving import Fleet, collect, serve
from repro.sim.engine import Simulator
from repro.types import Request, RequestState, ServeResult

if TYPE_CHECKING:
    from repro.kvcache.pool import InstancePool
    from repro.metrics.qos import QoSLedger
    from repro.obs.observe import Observability
    from repro.sessions.prefix_cache import PrefixKVCache


@runtime_checkable
class ServingReplica(Protocol):
    """What the serving loop, the fleet and the obs layers read of one
    replica's server.

    Implemented by ``LoongServeServer`` and the baselines'
    ``EngineGroup`` (a lone ``EngineServer`` — vLLM, SplitFuse,
    DeepSpeed-MII, static SP — or DistServe and the replicated
    engines).  A shape without a capability says so in its own code:
    ``prefix_cache``/``qos_ledger``/``obs`` are None, the prefix-cache
    writes place and free nothing, and ``crash()`` raises
    ``TypeError``.  ``obs`` is the bundle ``observe`` attached,
    whose telemetry a standalone run (:func:`repro.serving.serve`)
    samples; engine groups only route audits to it.  ``ledgers()``
    returns the objects holding the append-only ``finished``/
    ``aborted``/``iteration_stats``/``scaling_events`` lists, in result
    order (the server, or a group's engines), each with the ``trace``
    its audits go to, tagged ``obs_replica``; observers keep a cursor
    per list, so no list is ever a fresh concatenation.
    """

    name: str
    prefix_cache: PrefixKVCache | None
    qos_ledger: QoSLedger | None
    obs: Observability | None

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

    def import_prefix(self, token_ids: tuple[int, ...], now: float) -> int:
        """Install a peer's prefix extent; tokens placed (0 without a cache)."""

    def clear_prefix_cache(self) -> int:
        """Evict every unlocked prefix extent; slots freed (0 without a cache)."""

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
        # The clock the server runs on (see :meth:`prepare`).
        self._clock = None
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
        self._clock = sim
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
        """Route ``request`` here.  Every fleet submission passes this
        method or :meth:`submit_shadow`, so a request's completion hook,
        which may write to other replicas, marks the replica's clock
        reaching here (``ShardClock.mark_reaching``)."""
        self.routed.append(request)
        self.submit_shadow(request)

    def submit_shadow(self, request: Request) -> None:
        """Submit a request that must not appear in the fleet result.

        The disaggregated dispatcher's prefill-stage clones run here for
        real — they occupy the queue, the pool, and the probe surface
        (``_active``/``routed_tokens``), so routers and the autoscaler
        see the load — but stay out of ``routed``, which is what
        :meth:`result` reports: each arrival is counted exactly once
        fleet-wide, by the decode replica that serves its real decode.
        """
        if request.on_finish is not None:
            self._clock.mark_reaching()
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
        return self.server.import_prefix(token_ids, now)

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
        return self.server.clear_prefix_cache()

    # -- result assembly -----------------------------------------------------

    def result(self, makespan: float) -> ServeResult:
        """Per-replica ``ServeResult`` over the requests routed here."""
        return collect(self.server, self.routed, makespan)


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


class FleetServer(Fleet):
    """Serve one workload across replicas under a cluster policy, on the
    one serving loop (:func:`repro.serving.serve`)."""

    def __init__(
        self,
        replicas: Sequence[ServingReplica],
        policy: ClusterPolicy,
        control_interval: float = DEFAULT_CONTROL_INTERVAL,
        sharded: bool = True,
        disagg=None,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one replica")
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
        self.policy = policy
        self.control_interval = control_interval
        # Sharded calendars: each replica schedules on its own event
        # queue and runs ahead to its own horizon (the same outcomes as
        # the shared heap, in fewer events); the control plane keeps the
        # simulator's own queue.
        self.sharded = sharded
        self.name = f"{replicas[0].name} x{len(replicas)} [{policy.name}]"
        self.obs = None
        # The current (or last) run's simulator; None before the first.
        self.sim = None
        self._controller: FleetController | None = None
        self._elastic: ElasticStats | None = None
        self._remaining_arrivals = 0

    def observe(self, obs) -> None:
        """Attach an :class:`~repro.obs.observe.Observability` bundle.

        Every replica's spans/audits land in the shared tracer (tagged
        with its replica id), the control plane audits its decisions,
        and telemetry samples ride the control ticks (or a standalone
        timer on static fleets).
        """
        self.obs = obs

    def run(self, requests: list[Request]) -> FleetResult:
        """Serve a trace across the fleet; returns the merged result."""
        return serve(self, requests)

    def run_driven(self, driver) -> FleetResult:
        """Serve a closed-loop workload driver across the fleet.

        The driver (e.g. :class:`repro.sessions.ClosedLoopDriver`)
        submits requests on its own schedule — each submission takes the
        same placement path trace arrivals do, limbo-hold included.
        """
        return serve(self, driver=driver)

    # -- what the serving loop reads -----------------------------------------

    def use_simulator(self, sim: Simulator) -> None:
        """Reset every replica onto ``sim`` (a shard each when
        ``sharded``), wire the obs bundle, and set up this run's
        controller and disagg dispatcher; nothing is scheduled yet."""
        self.sim = sim
        self.policy.reset()
        for handle in self.replicas:
            handle.prepare(sim.create_shard() if self.sharded else sim)
        obs = self.obs
        self.policy.tracer = obs.tracer if obs is not None else None
        if obs is not None:
            for handle in self.replicas:
                handle.server.observe(obs, replica=handle.replica_id)
        self._controller = None
        self._elastic = None
        if self.policy.has_actuators or self.disagg is not None:
            self._elastic = ElasticStats()
        if self.policy.has_actuators:
            self._controller = FleetController(
                policy=self.policy,
                replicas=self.replicas,
                sim=sim,
                stats=self._elastic,
                interval=self.control_interval,
                work_remaining=self._work_remaining,
                obs=obs,
                disagg=self.disagg,
            )
        if self.disagg is not None:
            self.disagg.reset(
                sim=sim,
                replicas=self.replicas,
                elastic=self._elastic,
                obs=obs,
            )

    def start(self, arrivals: int, driver) -> None:
        """Start the control loop, or sample telemetry on a timer when
        there is none.  The loop keeps ticking while any of the
        ``arrivals`` trace arrivals or the driver's requests are still
        to arrive."""
        self._remaining_arrivals = arrivals + (
            driver.total_requests if driver is not None else 0
        )
        obs = self.obs
        if self._controller is not None:
            self._controller.start()
        elif obs is not None:
            obs.arm_standalone_sampler(
                self.sim, (lambda now: obs.sample_fleet(self.replicas, now))
            )

    def submit(self, request: Request) -> None:
        """Place one arrival: held in limbo while every replica is dead or
        warming, else dispatched through disagg or the placement policy."""
        self._remaining_arrivals -= 1
        if self._controller is not None and self._controller.try_hold_arrival(
            request
        ):
            return
        if self.disagg is not None:
            self.disagg.dispatch(request)
            return
        self.policy.place(request, self.replicas, self.sim.now).submit(request)

    def result(self, requests: list[Request]) -> FleetResult:
        """The merged result, per-replica results and control counters.

        ``stranded`` covers every replica plus the gap between the
        disagg pools; a run stopped by an event budget lists none.
        """
        sim = self.sim
        per_replica = [handle.result(sim.now) for handle in self.replicas]
        merged = merge_serve_results(per_replica, system=self.name)
        stranded = []
        if sim.next_event_time() is None:
            stranded = [r for r in requests if not r.finished]
            self._audit_stranded(stranded)
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
            obs=self.obs,
            per_replica=per_replica,
            elastic=self._elastic,
        )

    def _work_remaining(self) -> bool:
        """Anything left for the control loop to manage?"""
        if self._remaining_arrivals > 0:
            return True
        if self.disagg is not None and self.disagg.inflight > 0:
            return True
        return any(h.outstanding_requests() > 0 for h in self.replicas)

    def _audit_stranded(self, stranded: list[Request]) -> None:
        """One ``stranded`` audit per request, tagged with the replica it
        was routed to (-1 between the disagg pools)."""
        tracer = self.obs.tracer if self.obs is not None else None
        if not stranded or tracer is None or not tracer.enabled:
            return
        where = {r.request_id: h.replica_id for h in self.replicas for r in h.routed}
        for request in stranded:
            tracer.audit(
                self.sim.now, "stranded", component="fleet",
                replica=where.get(request.request_id, -1),
                request=request.request_id, state=request.state.name,
            )
