"""Replica autoscaling: reactive hysteresis and predictive forecasting.

The autoscaler is the capacity actuator of the fleet control plane: it
watches the fleet each control tick and parks replicas the load does
not need (scale-in) or returns parked ones to rotation when pressure
builds (scale-out).  Scale-in is graceful — a victim first *drains* (no
new placements, resident work finishes, its hot session KV is rescued
by the migrator if one is armed) and only then parks.

Two policies share the actuation surface:

* :class:`QueueDepthAutoscaler` — **reactive**: queue-depth and
  KV-pressure watermarks with hysteresis (a signal must persist for
  ``HYSTERESIS_TICKS`` consecutive ticks, so a single bursty tick
  cannot flap capacity).  It only moves after queues have already
  built.
* :class:`PredictiveAutoscaler` — **forecast-driven** (the SLO-aware
  scale-out the PR 3 roadmap opened): estimate the arrival rate in
  tokens/s (EWMA over the routed ledger), divide by the cost-model
  service rate of one replica, and provision for the *forecast*
  utilisation target — capacity moves when the trend says attainment
  will degrade, before the queue exists.  Warm-up latency is exactly
  why acting early matters: a replica unparked reactively arrives one
  warm-up too late for the burst that summoned it.
"""

from __future__ import annotations

import math
from typing import Sequence


# QueueDepthAutoscaler's watermarks.  Queue depths are mean queued
# requests per accepting replica; KV fractions are mean used fractions of
# the replicas' KV pools.  Scale-out triggers when *either* high
# watermark holds, scale-in only when *both* low watermarks hold —
# memory pressure without queueing still needs capacity (long-context
# serving is KV-bound).  A signal must hold for HYSTERESIS_TICKS
# consecutive ticks before capacity moves.
HIGH_QUEUE_DEPTH = 3.0
LOW_QUEUE_DEPTH = 0.5
HIGH_KV_FRACTION = 0.85
LOW_KV_FRACTION = 0.55
HYSTERESIS_TICKS = 2

# PredictiveAutoscaler's targets.  TARGET_UTILIZATION is the forecast
# load factor capacity is provisioned for (replicas needed = forecast
# token rate / replica service rate / target); keeping it below 1 leaves
# queueing headroom, which is what converts "keeping up" into "meeting
# deadlines".  Scale-in becomes eligible when the current fleet's
# forecast utilisation is at most LOW_UTILIZATION, and fires after
# SCALE_IN_TICKS consecutive such ticks (scale-out needs none: acting
# early is the policy's whole point).  EWMA_ALPHA weights the newest
# inter-tick rate observation.
TARGET_UTILIZATION = 0.70
LOW_UTILIZATION = 0.40
EWMA_ALPHA = 0.5
SCALE_IN_TICKS = 3

# Neither policy drains the fleet below this many accepting replicas.
MIN_ONLINE = 1


class QueueDepthAutoscaler:
    """Park/unpark replicas on queue-depth + KV-pressure hysteresis."""

    name = "queue-depth"

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Clear hysteresis state (fresh fleet run)."""
        self._hot_ticks = 0
        self._cold_ticks = 0
        # Pressure signals behind the most recent decision, for the
        # control-plane audit log.
        self.last_signals: dict[str, float] = {}

    def decide(self, replicas: Sequence, now: float) -> list[tuple[str, object]]:
        """One control tick's capacity actions: (``"unpark" | "drain"``,
        replica handle) pairs, at most one action per tick (capacity
        moves one replica at a time, the standard anti-flap rule).

        Warm-up awareness: a replica loading weights (``warming``) is
        capacity already in flight, so while one exists scale-in is
        suppressed and the cold counter resets — otherwise a warm-up
        longer than the control interval would be flap-parked the moment
        it comes online (the cold streak having accumulated the whole
        time it warmed).
        """
        online = [r for r in replicas if r.online]
        accepting = [r for r in online if not r.draining]
        warming = any(r.warming for r in replicas)
        if not accepting:  # everything draining/parked: force capacity back
            target = self._unpark_target(replicas)
            return [("unpark", target)] if target is not None else []

        queued = sum(len(r.queued_requests()) for r in online)
        depth = queued / len(accepting)
        kv = sum(r.kv_used_fraction() for r in accepting) / len(accepting)

        overloaded = depth >= HIGH_QUEUE_DEPTH or kv >= HIGH_KV_FRACTION
        underloaded = depth <= LOW_QUEUE_DEPTH and kv <= LOW_KV_FRACTION
        self._hot_ticks = self._hot_ticks + 1 if overloaded else 0
        self._cold_ticks = self._cold_ticks + 1 if underloaded and not warming else 0
        self.last_signals = {
            "depth": round(depth, 4),
            "kv": round(kv, 4),
            "hot_ticks": self._hot_ticks,
            "cold_ticks": self._cold_ticks,
        }

        if self._hot_ticks >= HYSTERESIS_TICKS:
            target = self._unpark_target(replicas)
            if target is not None:
                self._hot_ticks = 0
                return [("unpark", target)]
        elif (
            self._cold_ticks >= HYSTERESIS_TICKS
            and len(accepting) > MIN_ONLINE
        ):
            victim = min(
                accepting,
                key=lambda r: (r.outstanding_tokens(), -r.replica_id),
            )
            self._cold_ticks = 0
            return [("drain", victim)]
        return []

    @staticmethod
    def _unpark_target(replicas: Sequence):
        return unpark_target(replicas)


def unpark_target(replicas: Sequence):
    """Cheapest capacity first: cancel a drain (the replica is still
    warm and running), else wake the lowest-id parked replica.

    Warming replicas are already on their way (double-unparking one
    would double-book capacity) and crashed ones cannot be woken (a
    recovery replaces them on its own schedule) — both are skipped.
    Shared by both autoscaling policies.
    """
    for handle in replicas:
        if handle.online and handle.draining:
            return handle
    for handle in replicas:
        if not handle.online and not handle.warming and not handle.crashed:
            return handle
    return None


class PredictiveAutoscaler:
    """Provision capacity for the forecast arrival rate, not the queue.

    Each tick the scaler reads the fleet's cumulative arrived token work
    (input + declared output of every routed request), differentiates it
    into an instantaneous rate, smooths with an EWMA, and converts the
    forecast into a replica count via the cost-model service rate
    (``token_rate``, prefill tokens/s one replica sustains — see
    :func:`repro.qos.admission.prefill_token_rate`).  Scale-out fires
    the moment the desired count exceeds the accepting count; scale-in
    waits for ``SCALE_IN_TICKS`` of agreement, because parking early is
    cheap to regret but expensive to undo (warm-up).
    """

    name = "predictive"

    def __init__(self, token_rate: float) -> None:
        if token_rate <= 0:
            raise ValueError(f"token_rate must be positive, got {token_rate}")
        self.token_rate = token_rate
        self.reset()

    def reset(self) -> None:
        """Clear the rate estimate (fresh fleet run)."""
        self._last_time: float | None = None
        self._last_tokens = 0
        self._rate_ewma: float | None = None
        self._low_ticks = 0
        # Forecast signals behind the most recent decision, for the
        # control-plane audit log.
        self.last_signals: dict[str, float] = {}

    @staticmethod
    def _arrived_tokens(replicas: Sequence) -> int:
        """Cumulative token work routed fleet-wide (the arrival signal):
        the handles' O(1) ``routed_tokens`` counters, which stay stable
        across crashes, where the routed *list* shrinks."""
        return sum(handle.routed_tokens for handle in replicas)

    def decide(self, replicas: Sequence, now: float) -> list[tuple[str, object]]:
        online = [r for r in replicas if r.online]
        accepting = [r for r in online if not r.draining]
        if not accepting:  # everything draining/parked: force capacity back
            target = unpark_target(replicas)
            return [("unpark", target)] if target is not None else []

        tokens = self._arrived_tokens(replicas)
        if self._last_time is None or now <= self._last_time:
            self._last_time = now
            self._last_tokens = tokens
            return []  # first observation: no rate yet
        instantaneous = (tokens - self._last_tokens) / (now - self._last_time)
        self._last_time = now
        self._last_tokens = tokens
        if self._rate_ewma is None:
            self._rate_ewma = instantaneous
        else:
            self._rate_ewma = (
                EWMA_ALPHA * instantaneous + (1.0 - EWMA_ALPHA) * self._rate_ewma
            )

        demand = self._rate_ewma / self.token_rate  # replicas at 100% load
        desired = max(
            MIN_ONLINE, min(len(replicas), math.ceil(demand / TARGET_UTILIZATION))
        )
        # Warming replicas are capacity already in flight: they count
        # toward the provision (no double-unpark) and suppress scale-in
        # (no flap-park the moment they come online).
        warming = sum(1 for r in replicas if r.warming)
        utilization = demand / len(accepting)
        self.last_signals = {
            "rate": round(self._rate_ewma, 2),
            "demand": round(demand, 4),
            "desired": desired,
            "accepting": len(accepting),
            "utilization": round(utilization, 4),
        }
        if desired > len(accepting) + warming:
            self._low_ticks = 0
            target = unpark_target(replicas)
            if target is not None:
                return [("unpark", target)]
            return []
        underloaded = (
            desired < len(accepting)
            and utilization <= LOW_UTILIZATION
            and warming == 0
        )
        self._low_ticks = self._low_ticks + 1 if underloaded else 0
        if (
            self._low_ticks >= SCALE_IN_TICKS
            and len(accepting) > MIN_ONLINE
        ):
            victim = min(
                accepting,
                key=lambda r: (r.outstanding_tokens(), -r.replica_id),
            )
            self._low_ticks = 0
            return [("drain", victim)]
        return []
