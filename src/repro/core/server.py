"""The LoongServe server on the discrete-event simulator.

``LoongServeServer.run`` replays a workload trace through the shared
serving loop (:mod:`repro.serving`): arrivals enqueue
requests, the global manager re-plans on every arrival and iteration
completion, prefill tasks and decode iterations advance the virtual
clock by their roofline durations, and the unified KV pool tracks every
token.  The server enacts the manager's plans — it owns no policy of its
own beyond decode preemption-by-recomputation when a batch truly runs
out of memory (the same last-resort rule vLLM uses).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from repro.config import SystemConfig
from repro.core.batch import DecodeBatch, next_batch_id
from repro.core.elastic_instance import ElasticInstance, InstanceRole
from repro.core.global_manager import GlobalManager, PlannedPrefill, SchedulePlan
from repro.core.scaling_plan import (
    assign_masters,
    masters_by_free,
    pick_append_instance,
    scale_up_reason,
)
from repro.costmodel.latency import SCHEDULING_OVERHEAD_S, RooflineCostModel
from repro.kvcache.unified import UnifiedKVPool
from repro.metrics.qos import QoSLedger
from repro.obs.tracer import Tracer
from repro.parallel.groups import ParallelGroup
from repro.qos.classes import QOS_CLASSES, resolve_qos_class
from repro.qos.policy import QoSPolicy
from repro.serving import serve
from repro.sessions.prefix_cache import PrefixKVCache
from repro.sim.engine import Simulator
from repro.sim.events import Timer
from repro.types import (
    BatchStats,
    IterationLedger,
    Phase,
    Request,
    RequestState,
    ScalingEvent,
    ServeResult,
)

_TICK_PRIORITY = 5  # ticks run after same-timestamp completions


class LoongServeServer:
    """LoongServe: ESP scheduling over elastic instances."""

    name = "LoongServe"
    # Keep a BatchStats row per iteration in ``iterations``
    # (repro.serving.keep_iteration_rows); survives _reset and crash().
    keep_rows = False

    def __init__(
        self,
        config: SystemConfig,
        cost_model: RooflineCostModel | None = None,
        manager: GlobalManager | None = None,
        trace: Tracer | None = None,
    ) -> None:
        self.config = config
        self.cost_model = cost_model or RooflineCostModel(
            cluster=config.cluster, model=config.model
        )
        self.manager = manager or GlobalManager(config, self.cost_model)
        self.trace = trace or Tracer(enabled=False)
        # Observability (repro.obs): :meth:`observe` swaps in a shared
        # Tracer and arms telemetry sampling.  ``obs_replica`` labels
        # this server's spans/audits in fleet runs.  The default (no
        # bundle, disabled tracer) is the bit-identical baseline.
        self.obs = None
        self.obs_replica = 0
        # QoS (repro.qos): with a policy armed (``make_system`` sets
        # ``qos``) the scheduler admits by deadline feasibility, orders
        # dispatch earliest-slack-first within tier priority, and
        # preempts batch-tier decodes for at-risk top-tier prefills.
        # None = pre-QoS behaviour, bit-identical (asserted by the
        # golden-signature gates).
        self.qos: QoSPolicy | None = None
        self._reset()

    def _reset(self) -> None:
        config = self.config
        self.sim = Simulator()
        self.pool = UnifiedKVPool.create(
            num_instances=config.num_instances,
            slots_per_instance=config.kv_slots_per_instance,
        )
        self.instances: dict[int, ElasticInstance] = {
            i: ElasticInstance(instance_id=i, pool=self.pool.pools[i])
            for i in range(config.num_instances)
        }
        self.prefix_cache: PrefixKVCache | None = (
            PrefixKVCache(self.pool, tiers=self._make_tiers())
            if config.scheduler.enable_prefix_cache
            else None
        )
        self.pending: list[Request] = []
        self.decode_batches: list[DecodeBatch] = []
        self.finished: list[Request] = []
        self.aborted: list[Request] = []
        self.scaling_events: list[ScalingEvent] = []
        self.iterations = IterationLedger([] if self.keep_rows else None)
        self._decode_latency_sum = 0.0
        self._decode_latency_count = 0
        self._tick_pending = False
        # The decode calendar: one (end, seq, batch, masters, group)
        # entry per in-flight decode iteration, keyed exactly as its
        # calendar event would be (``seq`` drawn from the simulator's
        # counter when the iteration starts).  Only the head is posted
        # on the simulator calendar, once; ``_posted_ends`` holds the
        # seqs already posted there (see _on_decode_wake).
        self._decode_ends: list[tuple] = []
        self._posted_ends: set[int] = set()
        self._in_wake = False
        # How long the last full scheduler tick's empty plan holds, the
        # precondition of the quiet decode windows (_run_quiet_window):
        # by batch id, the ``generated`` of the batch's first request
        # past which its next end must take the full path (batches left
        # out are unbounded); None when no end is covered.  It holds
        # until the next tick, except that a peer's write through the
        # replica contract (withdraw, crash, import_prefix,
        # clear_prefix_cache) drops it.
        self._holds: dict[int, int] | None = None
        self._all_requests: list[Request] = []
        # Exact running sum of ``generated`` over ``_all_requests``,
        # maintained at every token-credit site so telemetry samplers
        # read throughput in O(1) instead of scanning the whole trace
        # each control tick (the dominant tracing-on overhead pre-PR 8).
        self._generated_total = 0
        # Hot-path caches: arrivals not yet checked against the cluster's
        # (fixed) capacity, and the requests currently in the PREFILLING
        # state (maintained incrementally so a tick never scans
        # ``_all_requests``, which grows with the whole trace).
        self._unvetted: list[Request] = []
        self._prefilling: dict[int, Request] = {}
        self.qos_ledger: QoSLedger | None = (
            QoSLedger() if self.qos is not None else None
        )
        # Bumped by crash(): scheduled callbacks from before the crash
        # must never touch the rebuilt state (see _post).
        self._epoch = 0
        # Posted callbacks that have not run yet; crash() cancels them.
        self._timers: set[Timer] = set()
        # Interference-free decode price per finished (input_len,
        # generated) shape — stamped on the final span for latency
        # forensics (repro.obs.forensics splits decode into ideal vs
        # stretch).  Memoised: traces repeat shapes constantly.
        self._ideal_decode_memo: dict[tuple[int, int], float] = {}

    def _make_tiers(self):
        """Host/SSD offload tiers for the prefix cache, when configured."""
        scheduler = self.config.scheduler
        if scheduler.kv_tier_policy is None:
            return None
        from repro.kvcache.tiers import TieredKVStore

        store = TieredKVStore(
            policy=scheduler.kv_tier_policy,
            host_capacity_tokens=scheduler.kv_host_tokens,
            ssd_capacity_tokens=scheduler.kv_ssd_tokens,
            bytes_per_token=self.config.model.kv_bytes_per_token,
        )
        if self.obs is not None:
            # A standalone run resets (use_simulator) after observe():
            # re-arm the fresh store's sinks here (fleet runs arm them
            # in observe(), which follows use_simulator()'s _reset).
            store.observe(
                self.obs.tracer, self.obs.metrics, replica=self.obs_replica
            )
        return store

    # -- public API -----------------------------------------------------------

    def run(
        self, requests: list[Request], max_events: int | None = None
    ) -> ServeResult:
        """Serve a trace to completion (:func:`repro.serving.serve`)."""
        return serve(self, requests, max_events=max_events)

    def run_driven(self, driver) -> ServeResult:
        """Serve a closed-loop workload driver to completion."""
        return serve(self, driver=driver)

    def use_simulator(self, sim: Simulator) -> None:
        """Reset to an empty server on a shared virtual clock (fleet /
        multi-system runs); external drivers then enqueue work via
        :meth:`submit` instead of :meth:`run`."""
        self._reset()
        self.sim = sim

    def observe(self, obs, replica: int = 0) -> None:
        """Attach an :class:`~repro.obs.observe.Observability` bundle.

        Spans and audits from this server land in the bundle's tracer;
        a standalone :meth:`run`/:meth:`run_driven` samples its
        telemetry.
        Survives :meth:`_reset` — the bundle covers the whole run.
        """
        self.obs = obs
        self.trace = obs.tracer
        self.obs_replica = replica
        if self.prefix_cache is not None and self.prefix_cache.tiers is not None:
            self.prefix_cache.tiers.observe(
                obs.tracer, obs.metrics, replica=replica
            )

    def submit(self, request: Request) -> None:
        """External enqueue from a dispatcher (e.g. a fleet router)."""
        self._all_requests.append(request)
        self._generated_total += request.generated
        self.pending.append(request)
        self._unvetted.append(request)
        if self.trace.enabled:
            now = self.sim.now
            self.trace.audit(
                now, "arrival", component="server", replica=self.obs_replica,
                request=request.request_id,
            )
            self.trace.transition(
                request.request_id, "queued", now, replica=self.obs_replica
            )
        self._request_tick()

    def crash(self) -> tuple[list[Request], int]:
        """Kill the replica atomically (fleet failure injection).

        Everything volatile dies at once: queued requests, running
        prefill tasks and decode batches, and every KV slot — live
        request state and cached prefix extents alike.  Returns the
        orphaned (unfinished) requests for the fleet's failover path to
        re-dispatch, plus the KV tokens lost.

        Every callback the dead server had posted (in-flight
        prefill/decode completions, pending ticks) leaves the calendar,
        so none of them moves the clock; the epoch bump
        keeps any that ran from touching the rebuilt state, a cold,
        empty server on the same shared clock, ready to be recovered.
        Finished/aborted history, the iteration ledger and the
        prefix-cache hit/miss ledger survive — that work happened.
        """
        lost_tokens = self.pool.total_used
        orphans = [r for r in self._all_requests if not r.finished]
        self._all_requests = [r for r in self._all_requests if r.finished]
        self._generated_total -= sum(r.generated for r in orphans)
        if self.trace.enabled:
            now = self.sim.now
            for request in orphans:
                self.trace.audit(
                    now, "crash_orphan", component="server",
                    replica=self.obs_replica, request=request.request_id,
                )
        self._epoch += 1
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self._tick_pending = False
        self._holds = None
        self._prefilling.clear()
        # In-flight iterations die with the instances.
        self._decode_ends.clear()
        self._posted_ends.clear()
        config = self.config
        self.pool = UnifiedKVPool.create(
            num_instances=config.num_instances,
            slots_per_instance=config.kv_slots_per_instance,
        )
        self.instances = {
            i: ElasticInstance(instance_id=i, pool=self.pool.pools[i])
            for i in range(config.num_instances)
        }
        if self.prefix_cache is not None:
            # The offload tiers survive the crash with the ledger: host
            # memory is node-pinned and the SSD is durable, so demoted
            # extents outlive the GPU process that wrote them.
            self.prefix_cache = PrefixKVCache(
                self.pool,
                stats=self.prefix_cache.stats,
                tiers=self.prefix_cache.tiers,
            )
        self.pending = []
        self._unvetted.clear()
        self.decode_batches = []
        return orphans, lost_tokens

    # -- the fleet's replica contract (repro.fleet.server.ServingReplica) ------

    def queued(self) -> list[Request]:
        """Requests waiting for dispatch, in queue order (do not mutate)."""
        return self.pending

    def withdraw(self, request: Request) -> bool:
        """Take a queued request back, undoing :meth:`submit` (its new
        owner vets it, and speculative prefix-cache pins are dropped)."""
        if request not in self.pending:
            return False
        self.pending.remove(request)
        self._holds = None  # a shorter queue may unblock
        if request in self._all_requests:
            self._all_requests.remove(request)
            self._generated_total -= request.generated
        if request in self._unvetted:
            self._unvetted.remove(request)
        if self.prefix_cache is not None:
            self.prefix_cache.release(request.request_id)
            request.cached_prefix_len = 0
        return True

    def import_prefix(self, token_ids: tuple[int, ...], now: float) -> int:
        """Install a peer's prefix extent in the prefix cache (KV
        migration, disaggregated handoff); returns the tokens placed.
        Its slots, and any extents evicted for them, change the free
        KV the last tick planned with."""
        if self.prefix_cache is None:
            return 0
        self._holds = None
        return self.prefix_cache.import_prefix(token_ids, now)

    def clear_prefix_cache(self) -> int:
        """Evict every unlocked prefix extent; returns the slots freed."""
        if self.prefix_cache is None:
            return 0
        self._holds = None
        return self.prefix_cache.clear()

    def kv_pools(self):
        """(instance id, pool) pairs, read live: a crash swaps the pool."""
        return self.pool.pools.items()

    def ledgers(self) -> tuple[LoongServeServer]:
        return (self,)

    def decode_batch_size(self) -> int:
        return sum(batch.batch_size for batch in self.decode_batches)

    def generated_tokens(self) -> int:
        return self._generated_total

    # -- event handlers ----------------------------------------------------------

    def _post(
        self, time: float, action, priority: int = 0, seq: int | None = None
    ) -> None:
        """Post ``action`` on the calendar at ``time``, for :meth:`crash`
        to cancel.

        A crash rebuilds the server's state in place: it takes every
        callback posted against the old state off the calendar, and the
        epoch check keeps one from ever touching the rebuilt state.
        """
        epoch = self._epoch
        timers = self._timers

        def _run() -> None:
            timers.discard(timer)
            if self._epoch == epoch:
                action()

        timer = self.sim.call_at(time, _run, priority=priority, seq=seq)
        timers.add(timer)

    def _request_tick(self) -> None:
        if self._tick_pending:
            return
        self._tick_pending = True
        self._post(self.sim.now, self._tick, priority=_TICK_PRIORITY)

    def _tick(self) -> None:
        self._tick_pending = False
        self._drop_impossible_requests()
        self._match_prefixes()
        if self.qos is not None and self.pending:
            # QoS pipeline: price and admit new arrivals (prefix matches
            # just ran, so the admission bias sees hot prefixes), preempt
            # batch-tier decodes for at-risk top-tier prefills, then
            # order the queue earliest-slack-first within tier priority
            # — dispatching scans FCFS, so queue order *is* the policy.
            self._qos_admit()
            self._qos_preempt_for_deadlines()
            now = self.sim.now
            self.pending.sort(key=lambda r: self.qos.dispatch_key(r, now))
        if self.pending:
            # Only dispatching reads these; an empty queue goes straight
            # to decode scale-up.
            avg_decode_latency = self._avg_decode_latency()
            prefilling = list(self._prefilling.values())
        else:
            avg_decode_latency = 0.0
            prefilling = ()
        plan = self.manager.schedule(
            now=self.sim.now,
            pending=self.pending,
            instances=self.instances,
            pool=self.pool,
            decode_batches=self.decode_batches,
            avg_decode_latency=avg_decode_latency,
            prefilling_requests=prefilling,
            # Prefix-cache replicas re-pin and may evict, and QoS replicas
            # re-admit and re-order, at every tick: no refusal holds.
            bound=self.prefix_cache is None and self.qos is None,
            measured=self._decode_latency_count > 0,
        )
        self._enact(plan)
        queued, batches = len(self.pending), len(self.decode_batches)
        self._start_decode_iterations()
        requeued = len(self.pending) > queued
        holds = plan.holds
        if holds is None or (
            self.pending and (requeued or len(self.decode_batches) < batches)
        ):
            # A preemption, merge or release after planning drops the bound.
            self._holds = None
        else:
            self._holds = {
                batch.batch_id: batch.requests[0].generated + holds[batch.batch_id] - 1
                for batch in self.decode_batches
                if batch.batch_id in holds
            }
        if requeued and not (
            self._prefilling or any(b.running for b in self.decode_batches)
        ):
            # Memory preemption re-queued requests after this tick's
            # dispatch pass, and no iteration is left in flight to tick
            # again: without a tick now they would wait for an unrelated
            # arrival, or strand when none comes.
            self._request_tick()

    def _drop_impossible_requests(self) -> None:
        """Abort requests that could never fit even on an empty cluster.

        Cluster capacity is fixed for the life of a run, so only the
        arrivals since the last tick (``_unvetted``) need checking:
        queue residents were vetted on a prior tick, and preemption
        re-queues only requests that were already scheduled once (which
        implies a past vet).  The common case is an O(new arrivals)
        no-op rather than an O(queue) rebuild — on a backlogged
        million-request trace that rebuild dominated the whole run.
        """
        if not self._unvetted:
            return
        capacity = self.pool.total_capacity
        dropped = set()
        for request in self._unvetted:
            if request.max_total_len + 1 > capacity:
                self._abort_request(request)
                if self.trace.enabled:
                    self.trace.audit(
                        self.sim.now, "abort", component="server",
                        replica=self.obs_replica, request=request.request_id,
                        needed=request.max_total_len, capacity=capacity,
                    )
                dropped.add(id(request))
        self._unvetted.clear()
        if dropped:
            self.pending = [r for r in self.pending if id(r) not in dropped]

    def _abort_request(self, request: Request) -> None:
        """Terminal-abort a queued request (impossible or QoS-rejected)."""
        request.state = RequestState.FINISHED  # terminal, but flagged
        self.aborted.append(request)
        if self.trace.enabled:
            self.trace.end_span(request.request_id, self.sim.now, aborted=True)
        if self.qos_ledger is not None and request.deadline is None:
            # Capacity-impossible drops abort before admission ever
            # prices them (a stamped deadline marks evaluation — the
            # admission path stamps it even on rejection), yet the
            # ledger must still reconcile with the trace: count them
            # submitted-and-rejected here.
            self.qos_ledger.note(request.qos, "submitted")
            self.qos_ledger.note(request.qos, "rejected")
        if self.prefix_cache is not None:
            self.prefix_cache.release(request.request_id)
        self._fire_terminal_hook(request)

    def _fire_terminal_hook(self, request: Request) -> None:
        """Run a request's completion hook exactly once (closed-loop
        drivers chain the session's next turn off it; an abort counts —
        the client gives up on the turn, the conversation goes on)."""
        hook, request.on_finish = request.on_finish, None
        if hook is not None:
            hook(self.sim.now)

    # -- QoS scheduling (repro.qos; self.qos is None = everything off) ---------

    def _qos_backlog_tokens(self) -> int:
        """Prefill tokens committed ahead of any new arrival: in-flight
        prefills plus the already-admitted queue."""
        inflight = sum(r.prefill_tokens for r in self._prefilling.values())
        queued = sum(
            r.prefill_tokens for r in self.pending if r.deadline is not None
        )
        return inflight + queued

    def _qos_admit(self) -> None:
        """Price and admit pending requests that have no deadline yet.

        A stamped ``deadline`` marks a request as evaluated, so
        preempted requests returning to the queue are not re-admitted
        (their contract was set on arrival).
        """
        qos = self.qos
        fresh = [r for r in self.pending if r.deadline is None]
        if not fresh:
            return
        now = self.sim.now
        backlog = self._qos_backlog_tokens()
        rejected: list[Request] = []
        for request in sorted(
            fresh, key=lambda r: (r.arrival_time, r.request_id)
        ):
            self.qos_ledger.note(request.qos, "submitted")
            if qos.admission is None:
                request.deadline = qos.deadline_for(request)
                self.qos_ledger.note(request.qos, "admitted")
                backlog += request.prefill_tokens
                continue
            wait_s = backlog / qos.token_rate if qos.token_rate > 0 else 0.0
            decision = qos.admission.decide(request, now, wait_s, qos)
            if decision.admitted:
                workload_class = resolve_qos_class(request.qos)
                if decision.qos_class.name != workload_class.name:
                    request.downgraded_to = decision.qos_class.name
                    self.qos_ledger.note(request.qos, "downgraded")
                request.deadline = decision.deadline
                self.qos_ledger.note(request.qos, "admitted")
                backlog += request.prefill_tokens
                if self.trace.enabled:
                    self.trace.audit(
                        now, "qos_admit", component="qos",
                        replica=self.obs_replica, request=request.request_id,
                        cls=decision.qos_class.name,
                    )
            else:
                rejected.append(request)
                # Stamp the failed deadline: terminal state either way,
                # and it marks the request as ledger-counted so
                # _abort_request does not count it again.
                request.deadline = decision.deadline
                self.qos_ledger.note(request.qos, "rejected")
                if self.trace.enabled:
                    self.trace.audit(
                        now, "qos_reject", component="qos",
                        replica=self.obs_replica, request=request.request_id,
                        cls=decision.qos_class.name,
                        predicted=round(decision.predicted_completion, 4),
                        deadline=round(decision.deadline, 4),
                    )
        if rejected:
            dropped = set(map(id, rejected))
            self.pending = [r for r in self.pending if id(r) not in dropped]
            for request in rejected:
                self._abort_request(request)

    def _qos_preempt_for_deadlines(self) -> None:
        """Free KV for at-risk top-tier prefills by preempting batch-tier
        decodes (the existing preemption-by-recomputation path).

        Triggered only when both hold: the pool cannot host the prefill,
        and the request's slack has burned below the policy's fraction
        of its deadline budget — a purely memory-blocked request with
        plenty of slack just waits for decodes to finish naturally.
        """
        qos = self.qos
        top = min(c.priority for c in QOS_CLASSES.values())
        now = self.sim.now
        urgent = [
            r for r in self.pending
            if r.deadline is not None and qos.qos_class(r).priority == top
        ]
        if not urgent:
            return
        urgent.sort(key=lambda r: qos.dispatch_key(r, now))
        victims = [
            (batch, r)
            for batch in self.decode_batches
            for r in batch.requests
            if qos.qos_class(r).preemptible and qos.qos_class(r).priority > top
        ]
        # Cheapest sacrifice first: lowest tier, least decode progress
        # lost, youngest arrival.
        victims.sort(
            key=lambda pair: (
                -qos.qos_class(pair[1]).priority,
                pair[1].generated,
                -pair[1].arrival_time,
            )
        )
        budget = qos.max_preemptions_per_tick
        reserved = 0
        for request in urgent:
            demand = request.kv_demand
            free = self.pool.total_free - reserved
            if free >= demand:
                reserved += demand
                continue
            deadline = request.deadline
            slack = qos.slack(request, now)
            if slack >= qos.preempt_slack_fraction * (
                deadline - request.arrival_time
            ):
                continue  # plenty of slack left: wait, don't preempt
            while free < demand and victims and budget > 0:
                batch, victim = victims.pop(0)
                if victim not in batch.requests:
                    continue  # already finished/preempted this tick
                self._preempt_request(victim, batch)
                if self.trace.enabled:
                    self.trace.audit(
                        now, "qos_preempt", component="qos",
                        replica=self.obs_replica, victim=victim.request_id,
                        beneficiary=request.request_id,
                    )
                budget -= 1
                free = self.pool.total_free - reserved
            if free >= demand:
                reserved += demand
            if budget <= 0:
                break

    def _match_prefixes(self) -> None:
        """Match pending prompts against the prefix cache and make room.

        Every tick re-matches (earlier turns may have finished since the
        last one, growing the tree) and pins the matched paths; then LRU
        cache extents are evicted until the pending batch's *uncached*
        KV demand fits the pool — the cache only ever occupies memory no
        live request wants.
        """
        if self.prefix_cache is None or not self.pending:
            return
        for request in self.pending:
            request.cached_prefix_len = self.prefix_cache.match_and_lock(
                request, now=self.sim.now
            )
        demand = sum(r.kv_demand for r in self.pending)
        shortfall = demand - self.pool.total_free
        if shortfall > 0:
            self.prefix_cache.evict(shortfall)

    def _enact(self, plan: SchedulePlan) -> None:
        for batch, instance_id in plan.decode_scale_downs:
            self.scaling_events.append(
                ScalingEvent(
                    time=self.sim.now,
                    kind="scale_down",
                    group_before=batch.instance_ids + (instance_id,),
                    group_after=batch.instance_ids,
                    batch_size=batch.batch_size,
                )
            )
            self.instances[instance_id].release()
            if not batch.instance_ids:
                self._adopt_orphans(batch)
        for planned in plan.prefills:
            self._launch_prefill(planned)
        for batch, decision in plan.scale_ups:
            self._apply_scale_up(batch, decision)

    def _adopt_orphans(self, drained: DecodeBatch) -> None:
        """Re-home requests whose batch lost its last instance.

        Allocation migrated their KV onto other decode instances; each
        request joins the batch hosting (most of) its KV.
        """
        if drained in self.decode_batches:
            self.decode_batches.remove(drained)
        for request in list(drained.requests):
            placement = self.pool.placement_of(request.request_id)
            if not placement:
                # KV vanished (should not happen); recompute from scratch.
                request.state = RequestState.PREEMPTED
                request.preemptions += 1
                if self.prefix_cache is not None:
                    self.prefix_cache.release(request.request_id)
                    request.cached_prefix_len = 0
                self.pending.append(request)
                self.pending.sort(key=lambda r: r.arrival_time)
                if self.trace.enabled:
                    self.trace.transition(
                        request.request_id, "preempted", self.sim.now,
                        replica=self.obs_replica,
                    )
                continue
            home = max(placement, key=placement.get)
            host = next(
                (b for b in self.decode_batches if home in b.instance_ids), None
            )
            if host is None:
                host = DecodeBatch(batch_id=next_batch_id())
                host.group = self._make_group((home,))
                self.decode_batches.append(host)
                self.instances[home].assign(InstanceRole.DECODE, host.batch_id)
            host.admit([request])
        drained.requests = []

    def _launch_prefill(self, planned: PlannedPrefill) -> None:
        task = planned.task
        admitted_ids = {r.request_id for r in task.requests}
        self.pending = [r for r in self.pending if r.request_id not in admitted_ids]

        for request in task.requests:
            request.state = RequestState.PREFILLING
            self._prefilling[request.request_id] = request
            if request.prefill_start is None:
                request.prefill_start = self.sim.now
            self.pool.place(
                request.request_id, planned.scale_down.per_request[request.request_id]
            )
            if self.prefix_cache is not None:
                self.prefix_cache.note_prefill(request)

        # Only the uncached suffix is computed (and was allocated); a
        # matched prefix re-uses its resident KV at zero prefill cost.
        duration = self.cost_model.prefill_time(
            [r.prefill_tokens for r in task.requests],
            task.group.instance_ids,
            self.config.tensor_parallel,
        )
        duration += SCHEDULING_OVERHEAD_S
        swap_debts: list[float] = []
        if self.prefix_cache is not None and self.prefix_cache.tiers is not None:
            # Swap-in debt: extents fetched up from the host/SSD tiers for
            # these requests ride the PCIe/NVMe path before the prefill
            # can read them; the transfers serialise on the local bus.
            swap_debts = [
                self.prefix_cache.take_swap_debt(r.request_id)
                for r in task.requests
            ]
            swap_s = sum(swap_debts)
            if swap_s > 0.0:
                duration += swap_s
                if self.trace.enabled:
                    for request, debt in zip(task.requests, swap_debts):
                        if debt > 0.0:
                            self.trace.audit(
                                self.sim.now, "kv_swap_in",
                                component="kvcache",
                                replica=self.obs_replica,
                                request=request.request_id,
                                seconds=round(debt, 9),
                            )

        for instance_id in task.group.instance_ids:
            self.instances[instance_id].assign(InstanceRole.PREFILL, task.batch_id)

        self.iterations.add(
            phase=Phase.PREFILL,
            batch_size=len(task.requests),
            total_tokens=task.total_tokens,
            dop=task.dop,
            duration=duration,
            start_time=self.sim.now,
        )
        if self.trace.enabled:
            now = self.sim.now
            replica = self.obs_replica
            self.trace.audit(
                now, "prefill_start", component="scheduler", replica=replica,
                batch=task.batch_id, size=len(task.requests),
                tokens=task.total_tokens, dop=task.dop,
                group=list(task.group.instance_ids),
                duration=round(duration, 4),
            )
            for idx, request in enumerate(task.requests):
                attrs = dict(
                    batch=task.batch_id, dop=task.dop,
                    group=list(task.group.instance_ids),
                )
                if idx < len(swap_debts) and swap_debts[idx] > 0.0:
                    # Tier swap-in debt folded into this prefill's
                    # duration — forensics carves it back out of the
                    # span as its own blame category.
                    attrs["swap_s"] = round(swap_debts[idx], 9)
                self.trace.transition(
                    request.request_id, "prefill", now, replica=replica,
                    **attrs,
                )
        # Summed as call_after(start_delay + duration) would: the other
        # association rounds differently and moves the goldens.
        self._post(
            self.sim.now + (planned.start_delay + duration),
            lambda: self._on_prefill_done(planned),
        )

    def _on_prefill_done(self, planned: PlannedPrefill) -> None:
        task = planned.task
        now = self.sim.now
        survivors: list[Request] = []
        for request in task.requests:
            self._prefilling.pop(request.request_id, None)
            request.generated += 1  # the prefill emits the first output token
            self._generated_total += 1
            request.prefill_end = now
            request.record_first_token(now)
            if request.generated >= request.output_len:
                self._finish_request(request)
            else:
                request.state = RequestState.DECODING
                survivors.append(request)

        # Proactive scale-down: released instances go idle, kept ones host
        # the decode phase; the KV is already in place (allocated at launch
        # per the retention placement) — zero migration.
        kept = set(planned.scale_down.kept_instances)
        for instance_id in task.group.instance_ids:
            self.instances[instance_id].release()
        if kept != set(task.group.instance_ids):
            self.scaling_events.append(
                ScalingEvent(
                    time=now,
                    kind="scale_down",
                    group_before=task.group.instance_ids,
                    group_after=tuple(sorted(kept)),
                    batch_size=len(task.requests),
                )
            )
        self._restore_decode_roles()
        if survivors:
            self._join_decode(survivors, sorted(kept))
        if self.trace.enabled:
            replica = self.obs_replica
            self.trace.audit(
                now, "prefill_done", component="scheduler", replica=replica,
                batch=task.batch_id, kept=sorted(kept),
                survivors=len(survivors),
            )
            for request in survivors:
                self.trace.transition(
                    request.request_id, "decode", now, replica=replica,
                )
        self._request_tick()

    def _restore_decode_roles(self) -> None:
        """Re-assert decode roles for batches whose instances were co-opted."""
        for batch in self.decode_batches:
            for instance_id in batch.instance_ids:
                instance = self.instances[instance_id]
                if instance.role != InstanceRole.PREFILL:
                    instance.assign(InstanceRole.DECODE, batch.batch_id)

    def _join_decode(self, requests: list[Request], kept: list[int]) -> None:
        """Merge prefilled requests into the decode batch on ``kept``."""
        touching = [
            b for b in self.decode_batches if set(b.instance_ids) & set(kept)
        ]
        if not touching:
            batch = DecodeBatch(batch_id=next_batch_id())
            batch.group = self._make_group(tuple(sorted(kept)))
            self.decode_batches.append(batch)
        else:
            batch = touching[0]
            merged_instances = set(batch.instance_ids) | set(kept)
            for other in touching[1:]:
                merged_instances |= set(other.instance_ids)
                batch.admit(other.requests)
                self.decode_batches.remove(other)
            batch.group = self._make_group(tuple(sorted(merged_instances)))
        batch.admit(requests)
        for instance_id in batch.instance_ids:
            if self.instances[instance_id].role != InstanceRole.PREFILL:
                self.instances[instance_id].assign(InstanceRole.DECODE, batch.batch_id)

    def _make_group(self, instance_ids: tuple[int, ...]) -> ParallelGroup:
        return ParallelGroup(
            instance_ids=instance_ids, tensor_parallel=self.config.tensor_parallel
        )

    def _apply_scale_up(self, batch: DecodeBatch, decision) -> None:
        if batch.group is None:
            return
        before = batch.group.instance_ids
        batch.group = batch.group.expanded(decision.add_instances)
        for instance_id in decision.add_instances:
            self.instances[instance_id].assign(InstanceRole.DECODE, batch.batch_id)
        self.scaling_events.append(
            ScalingEvent(
                time=self.sim.now,
                kind="scale_up",
                group_before=before,
                group_after=batch.group.instance_ids,
                batch_size=batch.batch_size,
            )
        )
        if self.trace.enabled:
            self.trace.audit(
                self.sim.now, "scale_up", component="scheduler",
                replica=self.obs_replica, batch=batch.batch_id,
                added=list(decision.add_instances), reason=decision.reason,
            )

    # -- decode execution -------------------------------------------------------

    def _start_decode_iterations(self) -> None:
        # Only a running prefill task holds instances in the PREFILL role.
        prefilling = bool(self._prefilling)
        for batch in list(self.decode_batches):
            if batch.running or batch.group is None:
                continue
            if not batch.requests:
                self._remove_batch(batch)
                continue
            if prefilling and any(
                self.instances[i].role == InstanceRole.PREFILL
                for i in batch.instance_ids
            ):
                continue  # paused: instances co-opted by a prefill
            self._run_decode_iteration(batch)

    def _run_decode_iteration(self, batch: DecodeBatch) -> None:
        masters = self._ensure_decode_memory(batch)
        if masters is None:
            return  # batch drained by preemption
        contexts = batch.context_lens
        duration = self.cost_model.decode_time(
            contexts,
            batch.instance_ids,
            self.config.tensor_parallel,
            num_masters=len(masters),
        )
        batch.running = True
        self.iterations.add(
            phase=Phase.DECODE,
            batch_size=len(contexts),
            total_tokens=sum(contexts),
            dop=batch.group.dop,
            duration=duration,
            start_time=self.sim.now,
        )
        self._schedule_decode_end(
            self.sim.now + duration, batch, masters, batch.group
        )

    def _schedule_decode_end(
        self,
        end: float,
        batch: DecodeBatch,
        masters: tuple[int, ...],
        group: ParallelGroup,
    ) -> None:
        """Enter an in-flight iteration on the decode calendar.

        Its seq is drawn now, where a calendar event would draw it, so
        it orders exactly as that event.  Outside a wake a new head is
        posted at once; inside one the wake posts its final head.
        """
        seq = self.sim.next_seq()
        ends = self._decode_ends
        heapq.heappush(ends, (end, seq, batch, masters, group))
        if not self._in_wake and ends[0][1] == seq:
            self._post_decode_head()

    def _post_decode_head(self) -> None:
        """Post the decode calendar's head under its exact key, once.

        A posted entry is never cancelled: the wake consumes only
        unposted ends inline (a posted one is never strictly below the
        global head), and re-posting a key would leave two equal
        ``(time, priority, seq)`` tuples in a heap.
        """
        end, seq = self._decode_ends[0][:2]
        if seq not in self._posted_ends:
            self._posted_ends.add(seq)
            self._post(end, self._on_decode_wake, seq=seq)

    def _on_decode_wake(self) -> None:
        """The decode calendar's posted head is due: run it, then every
        further own end that comes before every event that can touch
        this replica.

        An end keyed ``(end, 0, seq)`` that sorts strictly below the
        clock's horizon (:meth:`~repro.sim.engine.ShardClock.horizon_key`:
        the global key on a standalone server, an unsharded fleet or a
        replica holding hooked requests; else its own shard's, the
        control plane's and the hooked replicas' heads) and within the
        run's ``until`` runs here in the order the run loop would run it
        relative to everything that can write to this replica, so every
        outcome is the discrete one.
        Other replicas' events may come first in the run loop; they
        cannot touch this replica, and it runs ahead of them.  The
        posted head passes these checks (the run loop just popped it),
        so it is the first end the loop runs.  Each run of quiet ends
        shares one window (see :meth:`_run_quiet_window`), the head's
        included while the last tick's bound covers it; every other end
        takes the full path.
        """
        ends = self._decode_ends
        self._posted_ends.remove(ends[0][1])
        sim = self.sim
        self._in_wake = True
        until = sim.until
        while ends:
            end, seq = ends[0][:2]
            if until is not None and end > until:
                break
            key = sim.horizon_key()
            if key is not None and not (end, 0, seq) < key:
                break
            due = self._run_quiet_window(key, until)
            if due is None:
                break
            end, _, batch, masters, group = due
            sim.advance_to(end)
            self._on_decode_done(batch, masters, group)
        self._in_wake = False
        if ends:
            self._post_decode_head()

    def _run_quiet_window(
        self, key: tuple | None, until: float | None
    ) -> tuple | None:
        """Run the due own ends, across the replica's decode batches, in
        one loop.

        Called with the calendar's head due under ``key`` (the clock's
        horizon) and ``until``.  On a quiet replica (no tick queued,
        nothing unvetted, and the last full tick's empty plan saying how
        long it holds, :attr:`~repro.core.global_manager.SchedulePlan.holds`),
        the tick at each end of a batch that owns its whole group, up to
        the batch's bound, only restarts it: every other idle batch keeps
        the inputs that tick found no scale-up for.  The bound lasts
        across events.  Everything the replica runs itself either
        re-plans (a prefill completion queues a tick, a full-path end
        ticks) or, like a window, only appends decode KV; a peer reaches
        the replica only through its contract, where :meth:`submit`
        leaves work unvetted with a tick queued, and :meth:`withdraw`,
        :meth:`crash`, :meth:`import_prefix` and
        :meth:`clear_prefix_cache` drop the bound.  So a wake's posted
        head joins a window like any later end.  Nothing posts to any
        calendar while only such ends run, and nothing ``key`` does not
        bound can touch the replica, so these checks, the idle instances
        and ``key`` hold for the whole window.

        A batch joins at its first end here (:meth:`_join_window`, which
        builds its :class:`_Window`); its later ends pick up from that
        state.  At each end the batch runs its consecutive iterations
        while the next one's end still comes before every other event
        and own end (equal times go to the full path), within ``until``,
        before its first completion and its bound, while the next start
        finds master KV, and before step 4b would fire.  Then it hands
        off, drawing its calendar seq in :meth:`_schedule_decode_end` as
        a full-path start would.  Each iteration is priced from a running
        context total
        (:meth:`~repro.costmodel.latency.RooflineCostModel.decode_pricer`)
        and folded into locals: its duration into the busy seconds, and a
        ``BatchStats`` row only when the server keeps rows.  The ledger
        (:attr:`iterations`) takes the count and the busy seconds at each
        hand-off; the token credits and KV appends land in bulk when the
        window closes (:meth:`_Window.land`), before any full-path end
        runs.

        Returns the first due end that needs the full path, popped from
        the calendar, or None once no own end is due.
        """
        ends = self._decode_ends
        if self._holds is None or self._tick_pending or self._unvetted:
            return heapq.heappop(ends)
        heappop = heapq.heappop
        scheduler = self.config.scheduler
        # Listed at the first join: a head that cannot join never reads it.
        idle = None
        horizon = math.inf if key is None else key[0]
        bound = math.inf if until is None else until
        ledger = self.iterations
        rows = ledger.rows
        busy = ledger.busy_seconds
        decode = Phase.DECODE
        joined: dict[int, _Window] = {}
        last = None
        due = None
        while ends:
            entry = ends[0]
            end, seq, batch, masters, group = entry
            if end > bound or (key is not None and not (end, 0, seq) < key):
                break
            window = joined.get(batch.batch_id)
            if window is None:
                if idle is None:
                    idle = [i for i, inst in self.instances.items() if inst.is_idle]
                window = self._join_window(batch, masters, group, idle)
                if window is None:
                    due = heappop(ends)
                    break
                joined[batch.batch_id] = window
            heappop(ends)
            limit = ends[0][0] if ends and ends[0][0] < horizon else horizon
            bs, cap, free, check_4b, dop, repicks = window.fixed
            n, total, price = window.n, window.total, window.price
            t = end
            first = n
            while (
                t < limit
                and t <= bound
                and n < cap
                and not (
                    check_4b
                    and scale_up_reason(batch, idle, free - (n + 1) * bs, scheduler)
                    is not None
                )
            ):
                # Credit the iteration ending at t, then start the next.
                if repicks:
                    price = window.repick()
                    if price is None:
                        break
                n += 1
                total += bs
                duration = price(total + bs)
                if rows is not None:
                    rows.append(BatchStats(len(rows), decode, bs, total, dop, duration, t))
                busy += duration
                last = t
                t += duration
            if n == first:
                due = entry
                break
            window.n = n
            window.total = total
            ledger.count += n - first
            ledger.busy_seconds = busy
            self._schedule_decode_end(t, batch, window.masters, group)
        for window in joined.values():
            self._generated_total += window.land(self.pool)
        if last is not None:
            self.sim.advance_to(last)
        return due

    def _join_window(
        self,
        batch: DecodeBatch,
        masters: tuple[int, ...],
        group: ParallelGroup,
        idle: list[int],
    ) -> _Window | None:
        """A batch's :class:`_Window` in a quiet window, or None when its
        end must take the full path.

        Only a batch that still owns every instance of its group joins: a
        co-opting prefill holds an instance under its own task id (the
        tick would pause the batch), and a batch merged away no longer
        owns them.  ``cap`` counts the iterations it may run: up to the
        one before its first completion and the one before its bound
        (``_holds``), and the last whose next start the group's free
        slots could still give master KV; a larger group checks each
        start's masters as it picks them.
        """
        ids = group.instance_ids
        requests = batch.requests
        if batch.group is not group or not requests:
            return None
        instances = self.instances
        frees = {}
        for i in ids:
            instance = instances[i]
            if instance.group_id != batch.batch_id:
                return None
            frees[i] = instance.pool.free
        free = sum(frees.values())
        bs = len(requests)
        cap = min(
            min(r.output_len - r.generated for r in requests) - 1,
            free // bs - 1,
            self._holds.get(batch.batch_id, math.inf) - requests[0].generated,
        )
        if cap <= 0:
            return None
        # Step 4b firing at some group_free fires at every smaller one:
        # clear at the lowest free the window can reach, it is clear at
        # every end, and only otherwise is it asked end by end.
        check_4b = (
            scale_up_reason(batch, idle, free - cap * bs, self.config.scheduler)
            is not None
        )
        if sum(map(frees.__getitem__, masters)) < bs:
            return None  # its own appends would spill off the masters
        return _Window(self, batch, masters, frees, free, cap, check_4b)

    def _ensure_decode_memory(self, batch: DecodeBatch) -> tuple[int, ...] | None:
        """Pick masters; merge with a sibling batch or preempt if short.

        When the group's own slots run out, spare capacity may live on
        instances held by *other* decode batches — the unified pool can
        use it by merging the two batches into one larger group (scale-up
        across batch boundaries).  Preemption by recomputation is the
        last resort.
        """
        while batch.requests:
            masters = assign_masters(
                batch.instance_ids, self.pool, batch.batch_size,
                self.config.scheduler,
            )
            master_free = sum(self.pool.pools[i].free for i in masters)
            if master_free >= batch.batch_size:
                return masters
            if self.config.scheduler.enable_scale_up and self._merge_sibling(batch):
                continue
            if self._reclaim_cached(batch.batch_size - master_free, list(masters)):
                continue  # cache extents freed; retry the capacity check
            victim = self._pick_preemption_victim(batch)
            self._preempt_request(victim, batch)
        self._remove_batch(batch)
        return None

    def _merge_sibling(self, batch: DecodeBatch) -> bool:
        """Absorb another idle decode batch whose instances have spare
        slots; returns True when a merge happened."""
        candidates = [
            other
            for other in self.decode_batches
            if other is not batch
            and not other.running
            and other.group is not None
            and all(
                self.instances[i].role != InstanceRole.PREFILL
                for i in other.instance_ids
            )
            and sum(self.pool.pools[i].free for i in other.instance_ids) > 0
        ]
        if not candidates:
            return False
        donor = max(
            candidates,
            key=lambda b: sum(self.pool.pools[i].free for i in b.instance_ids),
        )
        merged = tuple(sorted(set(batch.instance_ids) | set(donor.instance_ids)))
        before = batch.instance_ids
        batch.admit(donor.requests)
        donor.requests = []
        self.decode_batches.remove(donor)
        batch.group = self._make_group(merged)
        for instance_id in merged:
            self.instances[instance_id].assign(InstanceRole.DECODE, batch.batch_id)
        self.scaling_events.append(
            ScalingEvent(
                time=self.sim.now,
                kind="scale_up",
                group_before=before,
                group_after=merged,
                batch_size=batch.batch_size,
            )
        )
        if self.trace.enabled:
            self.trace.audit(
                self.sim.now, "merge_batches", component="scheduler",
                replica=self.obs_replica, into=batch.batch_id,
                donor=donor.batch_id, group=list(merged),
            )
        return True

    def _pick_preemption_victim(self, batch: DecodeBatch) -> Request:
        """Last-resort memory preemption victim.

        Historically the youngest arrival (least FCFS disruption); with
        QoS armed, lower tiers and preemptible contracts go first, the
        arrival order breaking ties within a tier.
        """
        if self.qos is None:
            return max(batch.requests, key=lambda r: r.arrival_time)
        return max(
            batch.requests,
            key=lambda r: (
                self.qos.qos_class(r).priority,
                self.qos.qos_class(r).preemptible,
                r.arrival_time,
            ),
        )

    def _preempt_request(self, request: Request, batch: DecodeBatch) -> None:
        self.pool.evict(request.request_id)
        batch.remove(request)
        request.state = RequestState.PREEMPTED
        request.preemptions += 1
        if self.qos_ledger is not None:
            self.qos_ledger.note(request.qos, "preempted")
        if self.prefix_cache is not None:
            # Unpin the matched prefix; recomputation re-matches whatever
            # is still cached when the request is re-dispatched.
            self.prefix_cache.release(request.request_id)
            request.cached_prefix_len = 0
        self.pending.append(request)
        self.pending.sort(key=lambda r: r.arrival_time)
        if self.trace.enabled:
            now = self.sim.now
            self.trace.audit(
                now, "preempt", component="scheduler",
                replica=self.obs_replica, request=request.request_id,
            )
            self.trace.transition(
                request.request_id, "preempted", now, replica=self.obs_replica
            )

    def _on_decode_done(
        self,
        batch: DecodeBatch,
        masters: tuple[int, ...],
        group: ParallelGroup | None,
    ) -> None:
        """Credit one decode iteration; ``group`` is the batch's parallel
        group when the iteration started."""
        now = self.sim.now
        if batch.group is not group:
            # The allocation step shrank the group mid-iteration; appends
            # must land on instances the batch still owns.
            masters = tuple(i for i in masters if i in batch.instance_ids)
            if not masters and batch.instance_ids:
                masters = assign_masters(
                    batch.instance_ids, self.pool, batch.batch_size,
                    self.config.scheduler,
                )
        if not masters:
            # Batch lost every instance; orphans are re-homed by the tick.
            batch.running = False
            self._adopt_orphans(batch)
            self._request_tick()
            return
        pools = self.pool.pools
        for request in list(batch.requests):
            request.generated += 1
            self._generated_total += 1
            if request.generated >= request.output_len:
                self._finish_request(request)
                continue
            # The most-free master (the first on ties), as
            # pick_append_instance picks it.
            target = max(masters, key=lambda i: pools[i].free)
            if pools[target].free > 0:
                self.pool.extend(request.request_id, target, 1)
                continue
            # The capacity pre-check ran at iteration start; migrations may
            # have filled the masters since, so fall back to any group
            # instance with space, then to preemption.
            candidates = [i for i in batch.instance_ids if pools[i].free > 0]
            if not candidates and self._reclaim_cached(1, list(batch.instance_ids)):
                candidates = [i for i in batch.instance_ids if pools[i].free > 0]
            if candidates:
                target = pick_append_instance(tuple(candidates), self.pool)
                self.pool.extend(request.request_id, target, 1)
            else:
                request.generated -= 1  # token could not be retained
                self._generated_total -= 1
                self._preempt_request(request, batch)
        batch.remove_finished()
        batch.running = False
        if not batch.requests:
            self._remove_batch(batch)
        if self._can_tick_inline(now):
            self._tick()
        else:
            self._request_tick()

    def _can_tick_inline(self, now: float) -> bool:
        """True when a tick queued now would be the next event that
        touches this replica.

        No tick may be queued already, and nothing may be due at
        ``now``: no live event before the clock's horizon
        (:meth:`~repro.sim.engine.ShardClock.horizon_key`) and none of
        this replica's own in-flight decode ends, since one due now
        could run before the queued tick.  Another replica's event due
        now keeps the tick queued only if it can touch this replica
        (the control plane's, or a replica's holding hooked requests),
        or on an unsharded fleet, whose horizon is global.  Running the
        tick inline is then the same program with one event fewer —
        whatever is pending, unvetted or prefilling, because the queued
        tick would have run before anything that can touch the replica
        all the same.
        """
        if self._tick_pending:
            return False
        ends = self._decode_ends
        if ends and ends[0][0] <= now:
            return False
        key = self.sim.horizon_key()
        return key is None or key[0] > now

    def _finish_request(self, request: Request) -> None:
        request.state = RequestState.FINISHED
        request.finish_time = self.sim.now
        if self.prefix_cache is not None and request.token_ids is not None:
            # Donate the KV to the prefix cache: the full sequence (prompt
            # + generated answer) is the prefix of the conversation's next
            # turn.  The cache takes ownership of the slots in place.
            generated = (request.output_token_ids or ())[: request.generated]
            full_tokens = request.token_ids + tuple(generated)
            self.prefix_cache.adopt_finished(request, full_tokens, now=self.sim.now)
        else:
            self.pool.evict(request.request_id)
            if self.prefix_cache is not None:
                self.prefix_cache.release(request.request_id)
        self.finished.append(request)
        if request.prefill_end is not None:
            self._decode_latency_sum += self.sim.now - request.prefill_end
            self._decode_latency_count += 1
        self._fire_terminal_hook(request)
        if self.trace.enabled:
            now = self.sim.now
            self.trace.audit(
                now, "finish", component="server", replica=self.obs_replica,
                request=request.request_id,
            )
            # Stamp the final span with what forensics needs to read a
            # story without the Request object: the QoS class / session
            # for aggregation, and the interference-free decode price
            # for the ideal-vs-stretch split.
            attrs: dict = {}
            if request.effective_qos is not None:
                attrs["qos"] = request.effective_qos
            if request.session_id is not None:
                attrs["session"] = request.session_id
            ideal = self._ideal_decode_s(request)
            if ideal > 0.0:
                attrs["ideal_decode_s"] = round(ideal, 9)
            self.trace.end_span(request.request_id, now, **attrs)

    def _ideal_decode_s(self, request: Request) -> float:
        """Interference-free decode seconds for a finished request: the
        :class:`~repro.metrics.slo.IdealLatencyModel` decode recipe
        (single instance, mean context), priced over the tokens actually
        generated."""
        steps = request.generated - 1
        if steps <= 0:
            return 0.0
        key = (request.input_len, request.generated)
        cached = self._ideal_decode_memo.get(key)
        if cached is None:
            per_step = self.cost_model.decode_time(
                [request.input_len + request.generated // 2],
                [0],
                self.config.tensor_parallel,
            )
            cached = steps * per_step
            self._ideal_decode_memo[key] = cached
        return cached

    def _reclaim_cached(self, num_tokens: int, instance_ids: list[int]) -> bool:
        """Evict unlocked cache extents on ``instance_ids``; True when any
        slots were freed (decode pressure prefers dropping cached prefixes
        over preempting live requests)."""
        if self.prefix_cache is None:
            return False
        return self.prefix_cache.evict(num_tokens, instance_ids=instance_ids) > 0

    def _remove_batch(self, batch: DecodeBatch) -> None:
        if batch in self.decode_batches:
            self.decode_batches.remove(batch)
        for instance_id in batch.instance_ids:
            instance = self.instances[instance_id]
            if instance.group_id == batch.batch_id:
                instance.release()

    def _avg_decode_latency(self) -> float:
        if self._decode_latency_count == 0:
            return self._seed_decode_latency()
        return self._decode_latency_sum / self._decode_latency_count

    def _seed_decode_latency(self) -> float:
        """Cold-start estimate of AvgLat_d (Eq. 2) from the cost model.

        Before the first request finishes its decode phase, a measured
        average does not exist; returning 0.0 would zero the dispatch gain
        and disable co-opting for the entire warm-up of every run.  Seed
        the estimate instead with the resident requests' predicted
        remaining decode time (per-step roofline time x declared remaining
        output tokens).
        """
        total = 0.0
        count = 0
        for batch in self.decode_batches:
            if not batch.requests or batch.group is None:
                continue
            step = self.cost_model.decode_time(
                batch.context_lens, list(batch.instance_ids), self.config.tensor_parallel
            )
            for request in batch.requests:
                remaining = max(1, request.max_total_len - request.current_len)
                total += step * remaining
                count += 1
        return total / count if count else 0.0


class _Window:
    """A decode batch's run in a quiet window
    (:meth:`LoongServeServer._run_quiet_window`).

    The batch owns every instance of its group.  ``fixed`` holds what
    each hand-off reads and no iteration changes: the batch size, its
    iteration cap, the group's free slots at the join, the step-4b flag,
    the DoP and whether the masters are re-picked.  A group of one
    instance masters every token on it, so its iterations only count.
    A larger group's iterations credit and re-pick its masters
    (:meth:`repick`) from the window's own free-slot counts, since the
    appends reach the pool only when the window closes (:meth:`land`).
    """

    __slots__ = (
        "fixed", "n", "total", "price", "masters", "server", "batch", "free",
        "patterns",
    )

    def __init__(
        self,
        server: LoongServeServer,
        batch: DecodeBatch,
        masters: tuple[int, ...],
        free: dict[int, int],
        group_free: int,
        cap: int,
        check_4b: bool,
    ) -> None:
        requests = batch.requests
        bs = len(requests)
        ids = batch.group.instance_ids
        self.fixed = (bs, cap, group_free, check_4b, batch.group.dop, len(ids) > 1)
        self.n = 0
        self.total = sum(r.current_len for r in requests)
        # The pricer of the iteration in flight: its master count's.
        self.price = server.cost_model.decode_pricer(
            bs, ids, server.config.tensor_parallel, len(masters)
        )
        self.masters = masters  # of the iteration in flight
        self.server = server
        self.batch = batch
        self.free = free
        # Each iteration's masters in request order, with how many
        # iterations credited it: distinct patterns in first-use order.
        self.patterns: dict[tuple[int, ...], int] = {}

    def repick(self) -> Callable[[int], float] | None:
        """Credit the iteration ending now and pick the next start's
        masters; returns the next iteration's pricer, or None when that
        start lacks master KV (the credit undone: the full path merges,
        reclaims or preempts there).

        Each token goes, in batch order, to the most-free master (the
        first on ties), as :meth:`LoongServeServer._on_decode_done`
        credits it, and the next masters are picked as
        :func:`~repro.core.scaling_plan.assign_masters` would.  The
        pricer is looked up again only when the master count changes.
        """
        bs = self.fixed[0]
        free, masters = self.free, self.masters
        if len(masters) == 1:
            free[masters[0]] -= bs
            targets = masters * bs
        else:
            targets = []
            for _ in range(bs):
                target = max(masters, key=free.__getitem__)
                free[target] -= 1
                targets.append(target)
            targets = tuple(targets)
        server = self.server
        ids = self.batch.group.instance_ids
        following = masters_by_free(ids, free, bs, server.config.scheduler)
        if sum(free[i] for i in following) < bs:
            for target in targets:
                free[target] += 1
            return None
        patterns = self.patterns
        patterns[targets] = patterns.get(targets, 0) + 1
        if len(following) != len(masters):
            self.price = server.cost_model.decode_pricer(
                bs, ids, server.config.tensor_parallel, len(following)
            )
        self.masters = following
        return self.price

    def land(self, pool: UnifiedKVPool) -> int:
        """Apply the window's credits to the requests and the pool;
        returns the tokens credited.

        Each (request, instance) pair gets its total in one append, and
        the pairs are appended in the order the iterations first touched
        them (patterns in first-use order, requests in batch order), so
        every placement, down to the order of its instances, is the one
        the event-per-iteration program leaves.  A group of one instance
        records no pattern: every token lands on its master.
        """
        n = self.n
        if not n:
            return 0
        requests = self.batch.requests
        for request in requests:
            request.generated += n
        extend = pool.extend
        if not self.patterns:
            (target,) = self.masters
            for request in requests:
                extend(request.request_id, target, n)
        else:
            for targets, count in self.patterns.items():
                for request, target in zip(requests, targets):
                    extend(request.request_id, target, count)
        return n * len(requests)
