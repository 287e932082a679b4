"""SLO burn-rate monitoring: is the fleet spending its error budget?

Attainment reports (``repro.metrics.slo``) answer *after* a run how many
requests met their deadline; an operator needs the live version — "at
the rate we are missing deadlines right now, how fast is the SLO's
error budget burning?".  :class:`SLOHealthMonitor` is that observer,
implemented in the multi-window burn-rate style the SRE literature
standardised: a **fast** window catches sharp regressions quickly and a
**slow** window keeps one transient miss from paging, and an alert
requires *both* to burn above threshold.

The monitor is a pure observer riding the existing telemetry sampling
path (fleet control ticks, or the standalone sampler): it reads the
append-only ``finished``/``aborted`` ledgers of every server or engine
(``ServingReplica.ledgers()``) through cursors,
maintains per-QoS-class rolling windows of deadline outcomes, publishes
``slo.attainment.<cls>`` / ``slo.burn_fast.<cls>`` /
``slo.burn_slow.<cls>`` gauges, and emits hysteresis-gated ``slo_alert``
audit records on state transitions.  It never schedules simulator
events and never touches serving state, so arming it cannot change a
single finish time — the same inertness guarantee the tracer carries
(asserted by the golden tests).

Burn rate is the error budget's consumption multiple: with a target
attainment ``t``, a window missing fraction ``m`` of its deadlines
burns at ``m / (1 - t)`` — 1.0 means "exactly on budget", the classic
page thresholds sit at small multiples above that.
"""

from __future__ import annotations

from collections import deque

#: (fast, slow) rolling windows, in simulated seconds.
DEFAULT_WINDOWS = (5.0, 30.0)
#: Target attainment per QoS class (fraction of requests in deadline).
DEFAULT_TARGET = 0.9
#: Error-budget consumption multiple that pages (on both windows).
DEFAULT_BURN_THRESHOLD = 2.0
#: Consecutive breaching ticks that raise an alert.
HYSTERESIS_UP = 2
#: Consecutive clear ticks that resolve it.
HYSTERESIS_DOWN = 3


class SLOHealthMonitor:
    """Multi-window, hysteresis-gated SLO burn-rate observer.

    :data:`HYSTERESIS_UP` consecutive breaching ticks raise an alert;
    :data:`HYSTERESIS_DOWN` consecutive clear ticks resolve it — a
    single noisy tick in either direction never flaps the state.
    Requests without a deadline (no QoS policy armed) carry no SLO and
    are ignored; aborted requests with a deadline count as misses.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Clear cursors, windows, and alert state (one monitor = one run)."""
        # (time, met) outcome events per QoS class, time-ordered.
        self._events: dict[str, deque] = {}
        # High-water marks into the append-only ledgers, keyed by
        # (id(owner), ledger name).
        self._cursors: dict[tuple[int, str], int] = {}
        # Alert state machine per class: "ok" or "firing", plus the
        # consecutive-tick streaks feeding the hysteresis gates.
        self._state: dict[str, str] = {}
        self._breach_streak: dict[str, int] = {}
        self._clear_streak: dict[str, int] = {}

    # -- tick entry point ------------------------------------------------------

    def observe(self, ledgers, now: float, tracer=None, metrics=None) -> None:
        """One control-tick observation over the given ledger owners
        (objects with ``finished`` and ``aborted`` lists)."""
        for owner in ledgers:
            self._drain(owner, now)
        horizon = now - DEFAULT_WINDOWS[1]
        for cls in sorted(self._events):
            events = self._events[cls]
            while events and events[0][0] < horizon:
                events.popleft()
            self._evaluate(cls, events, now, tracer, metrics)

    def state(self, cls: str) -> str:
        """Current alert state for one QoS class ("ok" / "firing")."""
        return self._state.get(cls, "ok")

    # -- internals -------------------------------------------------------------

    def _drain(self, owner, now: float) -> None:
        """Pull newly finished/aborted requests into the class windows."""
        for ledger, requests, met_of in (
            ("finished", owner.finished, self._finish_outcome),
            ("aborted", owner.aborted, lambda r: False),
        ):
            key = (id(owner), ledger)
            start = self._cursors.get(key, 0)
            end = len(requests)
            for i in range(start, end):
                request = requests[i]
                if request.deadline is None:
                    continue  # no SLO attached: nothing to burn
                cls = request.effective_qos or "default"
                time = request.finish_time
                self._events.setdefault(cls, deque()).append(
                    (time if time is not None else now, met_of(request))
                )
            self._cursors[key] = end

    @staticmethod
    def _finish_outcome(request) -> bool:
        return request.finish_time is not None and (
            request.finish_time <= request.deadline + 1e-9
        )

    def _window_stats(self, events, now: float, window: float):
        """(total, misses) over the trailing ``window`` seconds."""
        cutoff = now - window
        total = 0
        misses = 0
        for time, met in events:
            if time >= cutoff:
                total += 1
                if not met:
                    misses += 1
        return total, misses

    def _burn(self, total: int, misses: int) -> float:
        if total == 0:
            return 0.0
        return (misses / total) / (1.0 - DEFAULT_TARGET)

    def _evaluate(self, cls, events, now, tracer, metrics) -> None:
        window_fast, window_slow = DEFAULT_WINDOWS
        fast_total, fast_miss = self._window_stats(events, now, window_fast)
        slow_total, slow_miss = self._window_stats(events, now, window_slow)
        burn_fast = self._burn(fast_total, fast_miss)
        burn_slow = self._burn(slow_total, slow_miss)
        attainment = (
            (slow_total - slow_miss) / slow_total if slow_total else 1.0
        )
        if metrics is not None and slow_total:
            metrics.gauge(f"slo.attainment.{cls}").set(attainment)
            metrics.gauge(f"slo.burn_fast.{cls}").set(burn_fast)
            metrics.gauge(f"slo.burn_slow.{cls}").set(burn_slow)
        breaching = (
            fast_total > 0
            and burn_fast >= DEFAULT_BURN_THRESHOLD
            and burn_slow >= DEFAULT_BURN_THRESHOLD
        )
        state = self._state.get(cls, "ok")
        if state == "ok":
            self._breach_streak[cls] = (
                self._breach_streak.get(cls, 0) + 1 if breaching else 0
            )
            if self._breach_streak[cls] >= HYSTERESIS_UP:
                self._state[cls] = "firing"
                self._clear_streak[cls] = 0
                self._alert(
                    tracer, now, cls, "firing",
                    burn_fast, burn_slow, attainment, slow_total,
                )
        else:
            self._clear_streak[cls] = (
                self._clear_streak.get(cls, 0) + 1 if not breaching else 0
            )
            if self._clear_streak[cls] >= HYSTERESIS_DOWN:
                self._state[cls] = "ok"
                self._breach_streak[cls] = 0
                self._alert(
                    tracer, now, cls, "resolved",
                    burn_fast, burn_slow, attainment, slow_total,
                )

    def _alert(
        self, tracer, now, cls, state, burn_fast, burn_slow, attainment, total
    ) -> None:
        if tracer is None or not tracer.enabled:
            return
        tracer.audit(
            now, "slo_alert", component="health",
            cls=cls, state=state,
            burn_fast=round(burn_fast, 3), burn_slow=round(burn_slow, 3),
            attainment=round(attainment, 4), target=DEFAULT_TARGET,
            window_fast=DEFAULT_WINDOWS[0], window_slow=DEFAULT_WINDOWS[1],
            requests=total,
        )
