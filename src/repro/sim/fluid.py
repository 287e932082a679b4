"""Fluid-approximation stepper for steady-state decode stretches.

The discrete simulator fires one event per decode iteration per batch —
faithful, but a million-request trace spends almost all of its events
ticking batches whose state evolves perfectly predictably: every
iteration each request gains one token and the iteration time creeps up
along the cost model's near-linear ``d_0 + d_1 · tokens`` shape.

The fluid stepper advances such stretches in closed form, one *window*
at a time covering **every** decode batch at once.  Per-batch stretches
do not work: with two or more concurrent batches, each batch's next
completion event is the other's horizon, and the stretches collapse to
single iterations.  A window instead launches when no iteration is in
flight, advances each batch by as many iterations as fit, and schedules
a single shared event at the window's end.

A non-empty pending queue does **not** disengage fluid mode (it did
until PR 8): the scheduler pass that precedes ``try_window`` just
declined to admit the queue, admission is memory-gated, and free KV
next grows at a completion — where every window already ends.  The one
scheduler action that can hit the queue sooner is QoS deadline
preemption, and its trigger is a deterministic slack crossing the
window is additionally bounded by.

A window is bounded conservatively by

* the next scheduled event (arrival, control tick, fault injection,
  prefill completion, a QoS deadline check — every transient in the
  system is an already-queued event, so the queue head is a sound
  horizon; inside a sharded fleet this is the replica-local horizon,
  which includes the next control tick), or the server's own next
  in-flight decode end, whichever is sooner — the server's decode
  calendar posts only its head on the simulator calendar, so the queue
  alone would miss the rest (``LoongServeServer._next_event_time``),
* the first request completion across all batches (completions release
  KV and trigger re-planning, so no window ever glides past one),
* the first QoS slack-threshold crossing of a top-tier pending request
  (the earliest time deadline preemption could act on the backlog), and
* KV exhaustion on any batch's instances (the discrete path would start
  preempting; the fluid path stops one iteration short instead).

Windows shorter than ``min_iterations`` per batch fall back to the
discrete path, so sparse/bursty phases run exactly as before.  Hybrid
mode is an *approximation*: aggregate metrics (goodput, attainment,
makespan) track the discrete reference within tolerance, but per-event
traces differ — golden-signature gates must keep ``sim_mode="discrete"``.
"""

from __future__ import annotations

import math

from repro.core.elastic_instance import InstanceRole
from repro.types import BatchStats, Phase


class FluidStepper:
    """Closed-form decode advancement for one server (``sim_mode="hybrid"``).

    Owned by a ``LoongServeServer``; ``try_window`` is consulted at the
    top of ``_start_decode_iterations`` and returns False whenever the
    discrete path should run instead.
    """

    def __init__(
        self,
        server,
        min_iterations: int = 4,
        max_iterations: int = 1_000_000,
        max_window_s: float = 1.0,
    ):
        self.server = server
        # Below this per-batch average, the closed-form bookkeeping costs
        # more than the events it saves — let the discrete path handle it.
        self.min_iterations = min_iterations
        self.max_iterations = max_iterations
        # Windows freeze each batch's group membership and master set, so
        # scale-up/merge decisions the discrete path would take between
        # iterations are deferred to the window end.  Capping the window
        # bounds that structural drift while still collapsing tens-to-
        # hundreds of iterations per event.
        self.max_window_s = max_window_s
        # Telemetry for benchmarks: windows launched and the discrete
        # iterations they replaced.
        self.windows = 0
        self.iterations_absorbed = 0
        # Per-request fluid-window history, shared by reference with the
        # open decode span's attrs so each new window shows up in the
        # exported span without re-transitioning (tracing-on only).
        self._span_windows: dict[int, list] = {}

    # -- window planning ---------------------------------------------------

    def try_window(self) -> bool:
        """Launch a fluid window if one is worthwhile.

        Returns True when the fluid mode took responsibility for this
        tick's decode work (a window was scheduled, or ready batches are
        deliberately held until in-flight iterations drain so the whole
        server can advance together); False means run the discrete path.
        """
        server = self.server
        now = server.sim.now
        # A non-empty queue is allowed: this tick's scheduler pass just
        # declined to admit anything (try_window runs after it), and
        # admission is memory-gated — free KV next grows at a completion,
        # where every window already ends (the n_finish cap below).  The
        # one way the discrete path could act on the queue *before* a
        # completion is QoS deadline preemption, whose trigger time is a
        # deterministic slack crossing — so the window is bounded there.
        backlog_bound = math.inf
        if server.pending:
            backlog_bound = self._admission_horizon(now)
            if backlog_bound <= now:
                return False  # scheduler would act immediately: stay discrete

        ready = []
        any_running = False
        for batch in list(server.decode_batches):
            if batch.running:
                any_running = True
                continue
            if batch.group is None or not batch.requests:
                continue
            if any(
                server.instances[i].role == InstanceRole.PREFILL
                for i in batch.instance_ids
            ):
                # Paused (instances co-opted by a prefill): neither joins
                # nor blocks a window — exactly as the discrete loop.
                continue
            ready.append(batch)
        if not ready:
            return False
        if any_running:
            # Hold: once the in-flight iterations drain, their completion
            # tick re-enters with every batch idle and the whole server
            # advances in one window.  The held batches lose at most one
            # iteration of wall-clock per transient.
            return True

        # Memory pre-flight exactly as the discrete loop would run it
        # (may merge sibling batches or preempt — both mutate the list).
        planned = []
        for batch in ready:
            if batch not in server.decode_batches or not batch.requests:
                continue
            masters = server._ensure_decode_memory(batch)
            if masters is None:
                continue
            planned.append((batch, masters))
        if not planned:
            return False

        tp = server.config.tensor_parallel
        entries = []
        for batch, masters in planned:
            if batch not in server.decode_batches or not batch.requests:
                continue  # absorbed by a later batch's sibling merge
            bs = batch.batch_size
            # Bound: first completion in the batch, and KV growth on the
            # batch's instances with one iteration of headroom so the
            # post-window discrete step never lands in preemption
            # territory the reference would have avoided.
            n_finish = min(r.output_len - r.generated for r in batch.requests)
            n_kv = server.pool.free_on(list(batch.instance_ids)) // bs - 1
            cap = min(n_finish, n_kv, self.max_iterations)
            if cap < 1:
                return False  # KV-starved; discrete preemption logic decides
            contexts = batch.context_lens
            d_start = server.cost_model.decode_time(
                contexts, batch.instance_ids, tp, num_masters=len(masters)
            )
            if cap > 1:
                d_end = server.cost_model.decode_time(
                    [c + cap - 1 for c in contexts],
                    batch.instance_ids, tp, num_masters=len(masters),
                )
                slope = (d_end - d_start) / (cap - 1)
            else:
                slope = 0.0
            entries.append((batch, masters, cap, d_start, slope))
        if not entries:
            return False

        # Common window end: the earliest batch's natural cap keeps every
        # batch's completions processed close to when the discrete path
        # would have, and the event horizon keeps transients ahead of us.
        t_end = min(
            now + _stretch_time(cap, d, s) for _, _, cap, d, s in entries
        )
        t_end = min(t_end, now + self.max_window_s)
        if backlog_bound < t_end:
            t_end = backlog_bound
        horizon = server._next_event_time()
        if horizon is not None:
            t_end = min(t_end, horizon)
        budget = t_end - now
        final = []
        total = 0
        for batch, masters, cap, d_start, slope in entries:
            n = _max_iterations_within(budget, d_start, slope, cap)
            if n < 1:
                return False
            total += n
            final.append((batch, n, d_start, slope))
        if total < self.min_iterations * len(final):
            return False

        return self._launch(final, now)

    def _admission_horizon(self, now: float) -> float:
        """Earliest time the discrete scheduler could act on the backlog
        before a completion: the first QoS slack-threshold crossing.

        ``_qos_preempt_for_deadlines`` fires for a top-tier pending
        request once ``slack < preempt_slack_fraction * deadline_budget``.
        Slack burns at exactly 1 s/s (deadline and ideal latency are
        fixed once admitted), so the crossing is at
        ``now + slack(now) - threshold`` — deterministic, priced from the
        same policy the discrete path consults.  Without QoS preemption
        nothing can touch the queue before a completion frees KV, and the
        window already ends at the first completion.
        """
        server = self.server
        qos = server.qos
        if qos is None or not qos.preemption:
            return math.inf
        top = min(c.priority for c in qos.classes.values())
        bound = math.inf
        for request in server.pending:
            if request.deadline is None or qos.qos_class(request).priority != top:
                continue
            threshold = qos.preempt_slack_fraction * (
                request.deadline - request.arrival_time
            )
            crossing = now + qos.slack(request, now) - threshold
            if crossing < bound:
                bound = crossing
        return bound

    # -- window execution --------------------------------------------------

    def _launch(self, final, now: float) -> bool:
        """Commit the planned window.  Returns False when every batch had
        to be dropped (the discrete path should run this tick instead)."""
        server = self.server
        pool = server.pool
        window_end = now
        launched = []
        for batch, n, d_start, slope in final:
            # Re-check the KV budget against the pool's *current* free
            # slots before touching it: an earlier batch in this very
            # window (or a sibling merge during memory pre-flight) may
            # share instances, and planning bounds are per-batch.  Shrink
            # deterministically instead of overrunning mid-allocation.
            budget_slots = pool.free_on(list(batch.instance_ids))
            bs = batch.batch_size
            # planned(n) = n*bs - (#requests finishing within the window)
            # >= (n-1)*bs, so nothing above budget//bs + 1 can ever fit.
            n = min(n, budget_slots // bs + 1)
            while n >= 1 and self._planned_appends(batch, n) > budget_slots:
                n -= 1
            if n < 1:
                continue  # KV-starved batch: leave it to the discrete path
            duration = _stretch_time(n, d_start, slope)
            window_end = max(window_end, now + duration)
            # Allocate the whole window's KV growth up front: no event
            # fires inside the window (it ends at or before the queue
            # head), so nothing competes for these slots in the
            # meantime, and a crash wipes the pool wholesale either way.
            # A request finishing exactly at iteration n appends one
            # token fewer — the discrete path never extends KV on the
            # finishing iteration.
            for request in batch.requests:
                appends = n if (request.output_len - request.generated) > n else n - 1
                self._bulk_extend(request.request_id, batch, appends)
            batch.running = True
            batch.iteration += n
            if batch.exec_started_at == 0.0:
                batch.exec_started_at = now
            server.iteration_stats.append(
                BatchStats(
                    iteration=len(server.iteration_stats),
                    phase=Phase.DECODE,
                    batch_size=batch.batch_size,
                    total_tokens=batch.total_context,
                    dop=batch.group.dop if batch.group else 1,
                    duration=duration,
                    start_time=now,
                )
            )
            if server.trace.enabled:
                server.trace.audit(
                    now, "fluid_window", component="scheduler",
                    replica=server.obs_replica,
                    batch=batch.batch_id, iterations=n,
                    duration=round(duration, 4),
                )
                # Sub-divide each member's decode span: one
                # (window_start, window_end, tokens_advanced) entry per
                # window.  The list is shared by reference with the open
                # span's attrs, so a same-phase transition merges and
                # later appends land in the exported span.
                w_start = round(now, 6)
                w_end = round(now + duration, 6)
                for request in batch.requests:
                    left = request.output_len - request.generated
                    advanced = n if left > n else left
                    windows = self._span_windows.setdefault(
                        request.request_id, []
                    )
                    windows.append((w_start, w_end, advanced))
                    server.trace.transition(
                        request.request_id, "decode", now,
                        replica=server.obs_replica, fluid_windows=windows,
                    )
            # Snapshot membership: requests joining at exactly the
            # window-end timestamp (a prefill completing there) must not
            # be credited with this window's tokens.
            launched.append((batch, n, [r.request_id for r in batch.requests]))
        if not launched:
            return False
        self.windows += 1
        self.iterations_absorbed += sum(n for _, n, _ in launched)
        server.sim.call_after(
            window_end - now,
            server._guarded(lambda: self._on_window_done(launched)),
            label="fluid_done",
        )
        return True

    @staticmethod
    def _planned_appends(batch, n: int) -> int:
        """KV slots a window of ``n`` iterations would append for a batch
        (requests finishing inside the window append one fewer)."""
        return sum(
            n if (request.output_len - request.generated) > n else n - 1
            for request in batch.requests
        )

    def _bulk_extend(self, request_id: int, batch, num_tokens: int) -> None:
        """Spread a request's window growth across the group's free slots.

        Total feasibility was established by the KV bound; greedily
        filling the most-free instance keeps shards roughly balanced,
        mirroring the per-token append-instance policy at window scale.
        """
        pool = self.server.pool
        pools = pool.pools
        ids = batch.instance_ids
        remaining = num_tokens
        while remaining > 0:
            target = max(ids, key=lambda i: pools[i].free)
            take = min(remaining, pools[target].free)
            if take <= 0:
                raise RuntimeError(
                    "fluid window KV pre-allocation overran the free-slot "
                    "bound — window sizing is inconsistent with the pool"
                )
            pool.extend(request_id, target, take)
            remaining -= take

    def _on_window_done(self, launched) -> None:
        server = self.server
        for batch, n, member_ids in launched:
            members = set(member_ids)
            for request in list(batch.requests):
                if request.request_id not in members:
                    continue
                request.generated += n
                server._generated_total += n
                if request.generated >= request.output_len:
                    self._span_windows.pop(request.request_id, None)
                    server._finish_request(request)
            batch.remove_finished()
            batch.running = False
            if not batch.requests:
                server._remove_batch(batch)
        server._request_tick()


def _stretch_time(k: int, d_start: float, slope: float) -> float:
    """Exact window time under the linear iteration-time shape:
    iteration i takes ``d_start + slope*i``, summed as a trapezoid."""
    return k * d_start + slope * (k * (k - 1) / 2)


def _max_iterations_within(budget: float, d_start: float, slope: float, cap: int) -> int:
    """Largest k <= cap with ``_stretch_time(k) <= budget``."""
    if budget <= 0 or d_start <= 0:
        return 0
    if slope <= 0:
        # Flat (or shrinking, which the roofline never produces): the
        # linear bound is conservative either way.
        return min(cap, int(budget / d_start))
    # Solve (slope/2)k^2 + (d_start - slope/2)k - budget = 0.  With b > 0
    # the textbook root (-b + sqrt(D))/slope cancels catastrophically for
    # tiny slopes; the conjugate form 2*budget/(b + sqrt(D)) is stable
    # and degrades gracefully to the linear budget/d_start answer.
    b = d_start - slope / 2
    disc = math.sqrt(b * b + 2 * slope * budget)
    if b > 0:
        k = 2 * budget / (b + disc)
    else:
        k = (disc - b) / slope
    return min(cap, int(k))
