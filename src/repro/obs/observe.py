"""The observability bundle and its control-tick samplers.

:class:`Observability` packages the :class:`~repro.obs.tracer.Tracer`
(spans + audit log) with a :class:`~repro.obs.telemetry.MetricsRegistry`
and knows how to sample the standard fleet/server signals:

* with a :class:`~repro.fleet.control.FleetController` running,
  telemetry rides the existing control ticks (one sample per tick, on
  the tick's clock — no extra events);
* without one (single server, static route-once fleet), a standalone
  repeating timer samples every ``telemetry_interval`` seconds and
  disarms itself once the simulation has nothing else scheduled, so a
  run still drains to idle.

One ``Observability`` instance covers one run; attach a fresh one per
run when comparing.
"""

from __future__ import annotations

import math

from repro.obs.telemetry import MetricsRegistry
from repro.obs.tracer import SHADOW_REQUEST_OFFSET, Tracer

#: Default sampling cadence, matching the fleet control interval.
DEFAULT_TELEMETRY_INTERVAL = 0.5

# Samples observe post-placement, post-server state at an instant —
# same slot as the fleet control tick.
_SAMPLE_PRIORITY = 9


class Observability:
    """Tracer + metrics registry + sampling glue for one run."""

    def __init__(self, telemetry_interval: float = DEFAULT_TELEMETRY_INTERVAL) -> None:
        if not 0 < telemetry_interval < math.inf:
            raise ValueError(
                "telemetry interval must be finite and positive, "
                f"got {telemetry_interval}"
            )
        self.tracer = Tracer(enabled=True)
        self.metrics = MetricsRegistry()
        self.telemetry_interval = telemetry_interval
        # (time, cumulative generated tokens) at the previous sample —
        # the finite difference behind the tokens/s gauge.
        self._last_tokens: tuple[float, float] | None = None
        # Per-ledger-owner high-water marks into the append-only
        # ``finished`` lists: each control tick feeds only the newly
        # finished requests into the latency histograms.  Keyed by the
        # owner's id — one Observability covers one run, so ids are
        # stable.
        self._finished_cursors: dict[int, int] = {}
        # Optional SLO burn-rate monitor (off by default; see
        # :meth:`enable_health`).  When armed it observes on the same
        # ticks as the samplers, just before each metrics sample.
        self.health = None

    def enable_health(self) -> None:
        """Arm the SLO burn-rate monitor (see :mod:`repro.obs.health`)."""
        from repro.obs.health import SLOHealthMonitor

        self.health = SLOHealthMonitor()

    # ------------------------------------------------------------------
    # Samplers
    # ------------------------------------------------------------------

    def _tokens_per_s(self, now: float, total: float) -> float:
        prev = self._last_tokens
        self._last_tokens = (now, total)
        if prev is None or now <= prev[0]:
            return 0.0
        return (total - prev[1]) / (now - prev[0])

    def _sample_slack(self, active, now: float) -> None:
        """Per-QoS-class mean deadline slack over in-flight requests."""
        by_class: dict[str, list[float]] = {}
        for request in active:
            if request.deadline is not None:
                cls = request.effective_qos or "default"
                by_class.setdefault(cls, []).append(request.deadline - now)
        for cls, slacks in by_class.items():
            self.metrics.gauge(f"slack.{cls}").set(sum(slacks) / len(slacks))

    def observe_latencies(self, server, prefix: str) -> None:
        """Feed newly finished requests into the latency histograms.

        Each ``finished`` ledger is append-only (it even survives a
        replica crash), so a cursor per ledger owner makes each tick
        O(newly finished): TTFT as first-token minus arrival, and the
        mean per-token decode latency for requests that decoded past
        their first token.  The serving loop calls it once more when
        the run ends, for the finishes after the last sample.
        """
        for part in server.ledgers():
            finished = part.finished
            start = self._finished_cursors.get(id(part), 0)
            end = len(finished)
            if end <= start:
                continue
            ttft = self.metrics.histogram(f"{prefix}.ttft")
            per_token = self.metrics.histogram(f"{prefix}.per_token_latency")
            for i in range(start, end):
                request = finished[i]
                first = request.first_token_time
                if first is None or request.request_id >= SHADOW_REQUEST_OFFSET:
                    continue  # internal shadow clones are not arrivals
                ttft.observe(first - request.arrival_time)
                if request.generated > 1 and request.finish_time is not None:
                    per_token.observe(
                        (request.finish_time - first) / (request.generated - 1)
                    )
            self._finished_cursors[id(part)] = end

    def sample_fleet(self, replicas, now: float) -> None:
        """One telemetry sample over a fleet's replica handles."""
        metrics = self.metrics
        queued = 0
        outstanding = 0
        batch = 0
        tokens = 0.0
        kv_frac = 0.0
        active = []
        for handle in replicas:
            server = handle.server
            queued += len(handle.queued_requests())
            outstanding += handle.outstanding_requests()
            active.extend(r for r in handle._active if not r.finished)
            kv_frac += handle.kv_used_fraction()
            batch += server.decode_batch_size()
            tokens += server.generated_tokens()
            self.observe_latencies(server, "fleet")
        n = len(replicas) or 1
        metrics.gauge("fleet.queue_depth").set(queued)
        metrics.gauge("fleet.outstanding").set(outstanding)
        metrics.gauge("fleet.kv_used_fraction").set(kv_frac / n)
        metrics.gauge("fleet.batch_size").set(batch)
        metrics.gauge("fleet.online_replicas").set(
            sum(1 for r in replicas if r.online)
        )
        metrics.gauge("fleet.tokens_per_s").set(self._tokens_per_s(now, tokens))
        self._sample_slack(active, now)
        if self.health is not None:
            self.health.observe(
                [part for h in replicas for part in h.server.ledgers()], now,
                tracer=self.tracer, metrics=metrics,
            )
        metrics.sample(now)

    def sample_server(self, server, now: float) -> None:
        """One telemetry sample over a single LoongServe server (the
        serving loop, :func:`repro.serving.serve`, arms this sampler)."""
        metrics = self.metrics
        pending = server.pending
        metrics.gauge("server.queue_depth").set(len(pending))
        pool = server.pool
        capacity = pool.total_capacity
        metrics.gauge("server.kv_used_fraction").set(
            1.0 - pool.total_free / capacity if capacity else 0.0
        )
        metrics.gauge("server.batch_size").set(server.decode_batch_size())
        metrics.gauge("server.tokens_per_s").set(
            self._tokens_per_s(now, float(server.generated_tokens()))
        )
        # In-flight requests in O(live): queued + prefilling + decoding
        # are disjoint and cover every unfinished, unaborted request.
        live = list(pending)
        live.extend(server._prefilling.values())
        for decode_batch in server.decode_batches:
            live.extend(decode_batch.requests)
        self._sample_slack(live, now)
        self.observe_latencies(server, "server")
        if self.health is not None:
            self.health.observe(
                server.ledgers(), now, tracer=self.tracer, metrics=metrics
            )
        metrics.sample(now)

    # ------------------------------------------------------------------
    # Standalone sampling timer (runs without a FleetController)
    # ------------------------------------------------------------------

    def arm_standalone_sampler(self, sim, sample) -> None:
        """Sample every ``telemetry_interval`` while the sim has work.

        ``sample`` is a ``(now) -> None`` callback (a bound
        ``sample_fleet``/``sample_server`` partial).  The ticks are
        *weak* events: a tick popped with nothing else queued is
        discarded instead of run, so the sampler neither keeps a
        drained simulation alive nor stretches the final clock (and
        the makespan) past the last real event.
        """
        interval = self.telemetry_interval

        def _tick() -> None:
            sample(sim.now)
            if sim.next_event_time() is not None:
                sim.call_after(
                    interval, _tick, priority=_SAMPLE_PRIORITY, weak=True
                )

        sim.call_after(interval, _tick, priority=_SAMPLE_PRIORITY, weak=True)
