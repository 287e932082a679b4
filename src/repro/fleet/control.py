"""The fleet's closed control loop.

LoongServe's thesis is that elasticity at serving time beats any static
partition (§4); PR 1–2's fleet tier was still the static antithesis —
a router placed each request once at arrival and replicas never
exchanged work, KV, or capacity afterwards.  This module closes the
loop: a :class:`FleetController` ticks periodically on the shared
simulation clock and evaluates a :class:`ClusterPolicy` over live
:class:`~repro.fleet.server.ReplicaHandle` state.  The policy bundles

* a **placement** component — one of the ``repro.fleet.router`` policies,
  now scoped to the replicas currently accepting work, and
* up to three **actuators** — replica autoscaling
  (:mod:`repro.fleet.autoscaler`), work stealing
  (:mod:`repro.fleet.stealing`), and cross-replica session-KV migration
  (:mod:`repro.fleet.migration`).

With no actuators armed the controller is never constructed and fleet
behaviour is bit-identical to route-once placement — the same gate
pattern as the prefix cache's ``enable_prefix_cache`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.fleet.faults import ReplicaFault, reset_for_failover
from repro.fleet.router import Router
from repro.metrics.fleet import ElasticStats
from repro.sim.engine import Simulator
from repro.sim.events import Timer
from repro.types import Request

# Control ticks per simulated second strike a balance between actuation
# latency (a steal can lag a burst by at most one interval) and event
# overhead; experiments expose it as --control-interval.
DEFAULT_CONTROL_INTERVAL = 0.5

# Ticks run after same-timestamp arrivals and server ticks, so the
# control plane always observes post-placement state.
_CONTROL_PRIORITY = 9

# Faults (and recovery/warm-up completions) fire after server events at
# the same instant — requests finishing exactly at the crash survive —
# but before the control tick, which then observes post-crash state.
_FAULT_PRIORITY = 8


def placement_pool(replicas: Sequence) -> Sequence:
    """The replicas an arrival may be routed over.

    The available ones (online, not draining); if none is, those that
    could still serve (parked but healthy), and never a crashed or
    warming one unless nothing else exists.  The original sequence
    passes through untouched when everyone is available, so a policy
    with no actuators routes exactly like the bare router.
    """
    available = [r for r in replicas if r.available]
    if len(available) == len(replicas):
        return replicas
    if available:
        return available
    return [r for r in replicas if r.placeable] or list(replicas)


@dataclass
class _Delivery:
    """A stolen request riding behind its in-flight KV transfer."""

    request: Request
    src: object  # ReplicaHandle
    dst: object
    timer: Timer | None = None


class ClusterPolicy:
    """Placement plus actuators: the whole cluster-management policy.

    Routers used to *be* the fleet policy; they are now its placement
    component, evaluated per arrival over the replicas currently
    accepting work.  The actuators are evaluated by the
    :class:`FleetController` on every control tick.
    """

    def __init__(
        self,
        router: Router,
        autoscaler=None,
        stealer=None,
        migrator=None,
        injector=None,
        lifecycle=None,
    ) -> None:
        if router is None:
            raise ValueError("a ClusterPolicy needs a placement router")
        self.router = router
        self.autoscaler = autoscaler
        self.stealer = stealer
        self.migrator = migrator
        # Failure injection (repro.fleet.faults.FaultInjector) and the
        # warm-up/cool-down pricing replica lifecycle changes pay
        # (repro.costmodel.latency.ReplicaLifecycleModel, used by both
        # crash recovery and autoscaler unpark).
        self.injector = injector
        self.lifecycle = lifecycle
        # Armed by FleetServer.use_simulator(): routing decisions are
        # audited (with per-replica probe scores) when a tracer is
        # attached.
        self.tracer = None

    @property
    def has_actuators(self) -> bool:
        return any((self.autoscaler, self.stealer, self.migrator, self.injector))

    def reset(self) -> None:
        """Clear any cross-run state (the router's cursor, hysteresis
        counters, the injector's ledger); the stealer and the migrator
        hold only configuration."""
        self.router.reset()
        if self.autoscaler is not None:
            self.autoscaler.reset()
        if self.injector is not None:
            self.injector.reset()

    @property
    def name(self) -> str:
        parts = [self.router.name]
        if self.autoscaler is not None:
            parts.append("+autoscale")
        if self.stealer is not None:
            parts.append("+steal")
        if self.migrator is not None:
            parts.append("+migrate-kv")
        if self.injector is not None:
            parts.append("+faults")
        return "".join(parts)

    def place(self, request: Request, replicas: Sequence, now: float):
        """Route one arrival over :func:`placement_pool` of ``replicas``.

        Arrivals must land somewhere, so an all-draining fleet falls
        back to its parked-but-healthy replicas; the controller's limbo
        queue catches the case where every replica is crashed or warming.
        """
        pool = placement_pool(replicas)
        chosen = self.router.route(request, pool, now)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.audit(
                now, "route", component="router",
                replica=chosen.replica_id, request=request.request_id,
                router=self.router.name,
                scores=self.router.probe_scores(request, pool, now),
            )
        return chosen


class FleetController:
    """Periodic evaluation of a policy's actuators on the shared clock.

    Each tick: refresh the replicas' cached probe structure, let the
    autoscaler adjust capacity (drain → park / unpark with the policy's
    hysteresis), execute the stealer's planned moves (migrating session
    KV alongside a steal when the migrator is armed), park any replica
    that finished draining (rescuing its hot cache extents first), and
    record the capacity timeline.  The loop re-arms only while work
    remains, so the simulation still drains to idle.
    """

    def __init__(
        self,
        policy: ClusterPolicy,
        replicas: Sequence,
        sim: Simulator,
        stats: ElasticStats,
        interval: float = DEFAULT_CONTROL_INTERVAL,
        work_remaining: Callable[[], bool] | None = None,
        obs=None,
        disagg=None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"control interval must be positive, got {interval}")
        self.policy = policy
        self.replicas = list(replicas)
        self.sim = sim
        self.stats = stats
        self.interval = interval
        self._work_remaining = work_remaining or (lambda: False)
        # Disaggregated dispatch (repro.fleet.disagg), when armed: steals
        # must not cross the pool boundary, orphaned shadow clones take
        # the fallback path instead of failover, and limbo flushes ride
        # the two-stage dispatch rather than route-once placement.
        self.disagg = disagg
        # Observability: control-plane decisions are audited into
        # ``obs.tracer`` and telemetry samples ride the control ticks.
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else None
        # Stolen requests currently riding behind a KV transfer: the
        # destination must not park (and wipe the just-imported extent)
        # while a delivery is still in flight, and a destination crash
        # must rescue the rider instead of delivering it to a corpse.
        self._deliveries: list[_Delivery] = []
        # Requests with nowhere to go (every replica crashed or warming)
        # wait here until a recovery or warm-up restores capacity.
        self._limbo: list[Request] = []
        self._fault_timers: list[Timer] = []
        self._lifecycle_timers: list[Timer] = []

    # -- loop ------------------------------------------------------------------

    def start(self) -> None:
        """Record the launch capacity, schedule the fault plan's crash
        events, and arm the first tick."""
        self.stats.record_capacity(self.sim.now, self._online_count())
        if self.policy.injector is not None:
            for fault in self.policy.injector.plan:
                timer = self.sim.call_at(
                    max(fault.time, self.sim.now),
                    (lambda f=fault: self._inject(f)),
                    priority=_FAULT_PRIORITY,
                    label=f"fault:{fault.replica_id}",
                )
                self._fault_timers.append(timer)
        self._arm()

    def _arm(self) -> None:
        self.sim.call_after(
            self.interval, self._tick,
            priority=_CONTROL_PRIORITY, label="fleet-control-tick",
        )

    def _tick(self) -> None:
        self.stats.control_ticks += 1
        self._flush_limbo()
        if self.policy.autoscaler is not None:
            self._autoscale()
        if self.policy.stealer is not None:
            self._steal()
        self._park_drained()
        self.stats.record_capacity(self.sim.now, self._online_count())
        if self.obs is not None:
            self.obs.sample_fleet(self.replicas, self.sim.now)
        if self._work_remaining() or self._deliveries or self._limbo:
            self._arm()
        else:
            self._cancel_outstanding_timers()

    def _cancel_outstanding_timers(self) -> None:
        """The fleet has drained: faults still pending would only crash
        idle replicas while stretching the makespan, and recoveries /
        warm-ups have nothing left to serve — cancel both so the
        simulation can go idle."""
        for timer in self._fault_timers + self._lifecycle_timers:
            if timer.active:
                timer.cancel()
        self._fault_timers = []
        self._lifecycle_timers = []

    def _online_count(self) -> int:
        return sum(1 for r in self.replicas if r.online)

    # -- actuators -------------------------------------------------------------

    def _audit(self, kind: str, *, replica: int = -1, **payload) -> None:
        """Record one control-plane decision (no-op without a tracer)."""
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.audit(
                self.sim.now, kind, component="control", replica=replica,
                **payload,
            )

    def _autoscale(self) -> None:
        now = self.sim.now
        tracing = self._tracer is not None and self._tracer.enabled
        for action, handle in self.policy.autoscaler.decide(self.replicas, now):
            if tracing:
                self._audit(
                    "autoscale", replica=handle.replica_id, action=action,
                    signals=dict(self.policy.autoscaler.last_signals),
                )
            if action == "unpark":
                if handle.online:
                    # Cancelling an in-progress drain brings no replica
                    # back online (it never left), so the ledger logs it
                    # apart from a true unpark — the rendered counts must
                    # reconcile with the capacity timeline.  No warm-up
                    # either: the replica stayed hot.
                    handle.unpark()
                    self.stats.record_action(now, "undrain", handle.replica_id)
                else:
                    self._begin_warmup(handle, "unpark")
            elif action == "drain":
                handle.drain()
                self.stats.record_action(now, "drain", handle.replica_id)

    def _park_drained(self) -> None:
        """Finish the scale-down of replicas whose work has drained."""
        now = self.sim.now
        for handle in self.replicas:
            if not (handle.online and handle.draining):
                continue
            if handle.outstanding_requests() > 0:
                continue
            if any(d.dst is handle for d in self._deliveries):
                continue  # a stolen request's KV is still in flight here
            rescued = 0
            if self.policy.migrator is not None:
                handoffs = self.policy.migrator.rescue_resident(
                    handle,
                    [r for r in self.replicas if r is not handle and r.available],
                    now,
                )
                rescued = len(handoffs)
                for handoff in handoffs:
                    self._charge_migration(handoff)
            handle.clear_prefix_cache()
            handle.park()
            self._audit("park", replica=handle.replica_id, rescued=rescued)
            self.stats.record_action(now, "park", handle.replica_id)
            if self.policy.lifecycle is not None:
                # Cool-down is a capacity charge, not a latency one: the
                # replica-seconds bill grows, nothing waits on it.
                self.stats.cooldown_seconds += self.policy.lifecycle.cooldown_s

    def _steal(self) -> None:
        now = self.sim.now
        # Stealing never crosses the prefill/decode split: each pool is
        # planned on its own, with its own per-tick move budget.
        disagg = self.disagg
        pools = (
            (self.replicas,) if disagg is None
            else (disagg.prefill_pool, disagg.decode_pool)
        )
        can_migrate = self.policy.migrator is not None
        moves = [
            move
            for pool in pools
            for move in self.policy.stealer.plan(pool, now, can_migrate=can_migrate)
        ]
        for move in moves:
            if not move.src.withdraw(move.request):
                continue  # started executing between plan and enact
            reprefill = move.reprefill_tokens
            delay = 0.0
            if self.policy.migrator is not None:
                handoff = self.policy.migrator.migrate_request_prefix(
                    move.request, move.src, move.dst, now
                )
                if handoff is not None:
                    delay = self._charge_migration(handoff)
                    reprefill = handoff.reprefill_tokens
            self.stats.stolen_requests += 1
            self.stats.steal_reprefill_tokens += reprefill
            tracer = self._tracer
            if tracer is not None and tracer.enabled:
                tracer.audit(
                    now, "steal", component="control",
                    replica=move.dst.replica_id, **move.audit_payload(),
                    reprefill=reprefill, delay=round(delay, 6),
                )
                if delay > 0.0:
                    # The request rides behind its KV transfer: a
                    # "migrating" span until the delivery lands.
                    tracer.transition(
                        move.request.request_id, "migrating", now,
                        replica=move.dst.replica_id,
                        src=move.src.replica_id,
                    )
            if delay > 0.0:
                # The stolen request rides behind its KV transfer: it is
                # re-submitted only once the prefix extent has landed.
                record = _Delivery(request=move.request, src=move.src,
                                   dst=move.dst, timer=None)
                record.timer = self.sim.call_after(
                    delay,
                    (lambda r=record: self._deliver(r)),
                    label=f"kv-migrate:{move.request.request_id}",
                )
                self._deliveries.append(record)
            else:
                move.dst.accept_stolen(move.request)

    def _deliver(self, record: _Delivery) -> None:
        self._deliveries.remove(record)
        record.dst.accept_stolen(record.request)

    # -- failure injection -----------------------------------------------------

    def _inject(self, fault: ReplicaFault) -> None:
        """One scheduled crash: kill, fail over, schedule the recovery."""
        now = self.sim.now
        injector = self.policy.injector
        handle = (
            self.replicas[fault.replica_id]
            if fault.replica_id < len(self.replicas)
            else None
        )
        if handle is None or not handle.online:
            # Parked, warming, already crashed, or out of range: nothing
            # left to kill (the fleet absorbed this fault).
            injector.note_skipped(fault)
            self._audit(
                "crash_skipped", replica=fault.replica_id,
                downtime_s=fault.downtime_s,
            )
            self.stats.record_action(now, "crash-skipped", fault.replica_id)
            return
        orphans, lost_tokens = handle.crash()
        self._audit(
            "crash", replica=handle.replica_id, downtime_s=fault.downtime_s,
            orphans=len(orphans), lost_kv_tokens=lost_tokens,
        )
        injector.note_injected(fault)
        self.stats.crashes += 1
        self.stats.lost_kv_tokens += lost_tokens
        self.stats.record_action(now, "crash", handle.replica_id)
        self.stats.note_outage_start(now, handle.replica_id)
        self.stats.record_capacity(now, self._online_count())
        orphans.extend(self._reclaim_deliveries(handle))
        self._failover(orphans, now)
        timer = self.sim.call_after(
            fault.downtime_s,
            (lambda h=handle: self._begin_warmup(h, "recover")),
            priority=_FAULT_PRIORITY,
            label=f"recover:{handle.replica_id}",
        )
        self._lifecycle_timers.append(timer)

    def _reclaim_deliveries(self, dead) -> list[Request]:
        """Rescue stolen requests whose KV was in flight toward a dead
        destination.  The imported extent died with the replica, but the
        source kept its copy (exports are copies), so failover through
        an affinity router can land the rider back on warm KV.  A dead
        *source* needs nothing: its export already completed."""
        rescued: list[Request] = []
        for record in [d for d in self._deliveries if d.dst is dead]:
            record.timer.cancel()
            self._deliveries.remove(record)
            self.stats.rescued_inflight += 1
            rescued.append(record.request)
        return rescued

    def _can_place(self) -> bool:
        """Whether ``policy.place`` has any real candidate: an available
        replica, or the placeable (parked-but-healthy) fallback pool."""
        return any(r.placeable for r in self.replicas)

    def _failover(self, orphans: list[Request], now: float) -> None:
        """Re-dispatch a dead replica's orphans through the placement
        router, charging the full re-prefill their lost KV forces.
        Orphans take the same placement path arrivals do (including the
        parked-but-healthy fallback); limbo is only for the
        nothing-left case."""
        tracer = self._tracer
        tracing = tracer is not None and tracer.enabled
        if self.disagg is not None:
            from repro.fleet.disagg import CLONE_ID_OFFSET

            clones = [r for r in orphans if r.request_id >= CLONE_ID_OFFSET]
            orphans = [r for r in orphans if r.request_id < CLONE_ID_OFFSET]
            for clone in clones:
                # The prefill-stage clone died with its replica: fire the
                # handoff hook in its aborted state so the original falls
                # back to a direct decode-pool submission (audited there
                # as disagg_fallback).
                self.disagg.clone_failover(clone, now)
        for request in orphans:
            self.stats.failovers += 1
            reprefill = reset_for_failover(request)
            self.stats.failover_reprefill_tokens += reprefill
            if tracing:
                # The failover span bridges the crash and the re-dispatch
                # landing; replica -1 = the fleet control plane.
                tracer.transition(
                    request.request_id, "failover", now, replica=-1
                )
            if self._can_place():
                if self.disagg is not None:
                    target = self.disagg.failover_target(request, now)
                else:
                    target = self.policy.place(request, self.replicas, now)
                if tracing:
                    self._audit(
                        "failover", replica=target.replica_id,
                        request=request.request_id, reprefill=reprefill,
                    )
                target.submit(request)
            else:
                if tracing:
                    self._audit(
                        "failover", request=request.request_id,
                        reprefill=reprefill, limbo=True,
                    )
                self._limbo.append(request)

    def try_hold_arrival(self, request: Request) -> bool:
        """Park an arrival in limbo when nothing could serve it.

        True only when every replica is crashed or warming — the one
        situation where the pre-fault fallback (submit to a parked-but-
        healthy replica) has no candidate.  The next recovery, warm-up,
        or control tick re-places held requests.
        """
        if self._can_place():
            return False
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            # Limbo wait is observable: the arrival queues on the control
            # plane (replica -1) until a recovery restores capacity —
            # without this span the request's story would have a hole
            # between arrival and its eventual placement.
            tracer.transition(
                request.request_id, "queued", self.sim.now,
                replica=-1, limbo=True,
            )
        self._limbo.append(request)
        return True

    def _flush_limbo(self) -> None:
        """Re-place held requests once somebody accepts work again."""
        if not self._limbo or not self._can_place():
            return
        held, self._limbo = self._limbo, []
        now = self.sim.now
        for request in held:
            if self.disagg is not None and request.prefill_start is None:
                # A never-started arrival re-enters the two-stage path;
                # failover orphans (whose clone stage already ran) go
                # straight back to the decode pool.
                self.disagg.dispatch(request)
            elif self.disagg is not None:
                self.disagg.failover_target(request, now).submit(request)
            else:
                self.policy.place(request, self.replicas, now).submit(request)

    # -- replica lifecycle -----------------------------------------------------

    def _begin_warmup(self, handle, action: str) -> None:
        """Bring a parked or recovering replica back, paying warm-up.

        Without a lifecycle model the transition is instant — exactly
        the pre-warm-up behaviour, which keeps bare policies
        bit-identical.
        """
        now = self.sim.now
        self.stats.record_action(now, action, handle.replica_id)
        lifecycle = self.policy.lifecycle
        warmup = lifecycle.warmup_s if lifecycle is not None else 0.0
        standby = handle.standby
        if standby and action == "unpark":
            # Warm standby: the parked replica kept its weights resident,
            # so promotion is instant.  Crash recovery still pays — the
            # process died, resident or not.
            warmup = 0.0
            self._audit("standby_promote", replica=handle.replica_id)
        self._audit(
            "warmup", replica=handle.replica_id, action=action,
            warmup_s=warmup, standby=standby,
        )
        if warmup <= 0.0:
            self._complete_warmup(handle)
            return
        handle.begin_warmup()
        self.stats.warmup_seconds += warmup
        timer = self.sim.call_after(
            warmup,
            (lambda h=handle: self._complete_warmup(h)),
            priority=_FAULT_PRIORITY,
            label=f"warmup:{handle.replica_id}",
        )
        self._lifecycle_timers.append(timer)

    def _complete_warmup(self, handle) -> None:
        handle.complete_warmup()
        now = self.sim.now
        self._audit("online", replica=handle.replica_id)
        self.stats.record_action(now, "online", handle.replica_id)
        self.stats.note_outage_end(now, handle.replica_id)  # no-op for unparks
        self.stats.record_capacity(now, self._online_count())
        self._flush_limbo()

    def _charge_migration(self, handoff) -> float:
        """Record one executed handoff; returns its modelled seconds."""
        cost = handoff.cost(*self.policy.migrator.pricing)
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.audit(
                self.sim.now, "migrate_kv", component="control",
                replica=handoff.dst_replica, request=handoff.request_id,
                src=handoff.src_replica, tokens=handoff.num_tokens,
                cost_s=round(cost, 6),
            )
        self.stats.migrations += 1
        self.stats.migrated_kv_tokens += handoff.num_tokens
        self.stats.migration_seconds += cost
        return cost
