"""Request-routing policies for a replica fleet.

A router sees every arriving request at its arrival instant and picks
the replica that serves it.  Routers are the *placement* component of a
:class:`~repro.fleet.control.ClusterPolicy`: on a static fleet they are
the whole policy (requests never move after placement), while the
control-loop actuators — work stealing, autoscaling, KV migration —
correct placement afterwards when armed.  Six policies cover the
design space explored by cluster-serving work:

* **round-robin** — stateless cycling; the baseline every load balancer
  implements first.
* **least-outstanding** — classic least-outstanding-requests balancing
  on live replica state.
* **least-kv** — memory-aware placement: route to the replica whose KV
  pool has the most free token slots (read from each replica's
  ``UnifiedKVPool.free_map()`` or engine pools), breaking ties by
  outstanding requests.  Long-context serving is KV-bound, so free KV is
  a better congestion signal than request counts.
* **length-aware** — shard long-context requests away from
  short-request replicas, the long/short interference split of the
  paper's Figure 11 scenario: one long prefill stalls every short
  request batched behind it, so isolating the populations protects the
  short requests' latency.
* **affinity** — cache-affinity placement for multi-turn sessions: send
  each request to the replica whose prefix-KV cache holds the longest
  matching prefix of its prompt (probed live via
  ``ReplicaHandle.prefix_match_len``), so follow-up turns land where
  their conversation's KV already lives.  Requests with no match
  anywhere (session openers, single-turn traffic) fall back to
  least-kv placement.
* **slo** — deadline-aware placement for QoS serving (``repro.qos``):
  predict each candidate replica's queueing delay from its live token
  backlog (netting out any resident prefix of this request) and the
  deployment's modelled prefill service rate, and place the request on
  the replica leaving it the most slack against its class deadline.

Routers read a :class:`repro.fleet.server.ReplicaHandle`'s probe
surface (``replica_id`` / ``outstanding_requests`` /
``outstanding_tokens`` / ``kv_free`` / ``prefix_match_len``) and nothing
else, so a stub declaring those five is a full replica in unit tests.

All tie-breaks end on the replica id, so every policy is deterministic:
equal-state replicas always resolve to the lowest id.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.types import Request
from repro.workloads.datasets import LONG_INPUT_THRESHOLD

__all__ = [
    "LONG_INPUT_THRESHOLD",
    "ROUTERS",
    "CacheAffinityRouter",
    "LeastKVRouter",
    "LeastOutstandingRouter",
    "LengthAwareRouter",
    "RoundRobinRouter",
    "Router",
    "SLORouter",
    "make_router",
]


# Share of a fleet's replicas that :class:`LengthAwareRouter` keeps for
# long-context requests.
LONG_FRACTION = 0.5


class Router(abc.ABC):
    """Chooses the replica that serves one arriving request."""

    name = "router"

    @abc.abstractmethod
    def route(self, request: Request, replicas: Sequence, now: float):
        """Return the chosen replica handle (never None; fleet size >= 1)."""

    def reset(self) -> None:
        """Clear per-run routing state before a fresh fleet run."""

    def probe_scores(
        self, request: Request, replicas: Sequence, now: float
    ) -> list[dict]:
        """Per-replica probe snapshot justifying a routing choice.

        The control-plane audit log attaches this to each ``route``
        record; subclasses extend the base signals with whatever their
        policy actually ranked on (prefix match length, predicted
        slack).  Only called when a tracer is armed — never on the
        routing hot path itself.
        """
        return [
            {
                "replica": r.replica_id,
                "outstanding": r.outstanding_requests(),
                "kv_free": r.kv_free(),
            }
            for r in replicas
        ]


class RoundRobinRouter(Router):
    """Cycle through replicas in arrival order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        """Restart the cycle (fresh fleet run) so reruns are clean."""
        self._next = 0

    def route(self, request: Request, replicas: Sequence, now: float):
        chosen = replicas[self._next % len(replicas)]
        self._next += 1
        return chosen


class LeastOutstandingRouter(Router):
    """Route to the replica with the fewest unfinished requests."""

    name = "least-outstanding"

    def route(self, request: Request, replicas: Sequence, now: float):
        return min(
            replicas,
            key=lambda r: (r.outstanding_requests(), r.replica_id),
        )


class LeastKVRouter(Router):
    """Route to the replica with the most free KV slots.

    Reads each replica's live pool occupancy; ties (e.g. an idle fleet)
    fall back to outstanding requests, then replica id, so the policy
    stays deterministic.
    """

    name = "least-kv"

    def route(self, request: Request, replicas: Sequence, now: float):
        return min(
            replicas,
            key=lambda r: (-r.kv_free(), r.outstanding_requests(), r.replica_id),
        )


class LengthAwareRouter(Router):
    """Partition the fleet into long-context and short-request pools.

    The first ``round(LONG_FRACTION * N)`` replicas (at least one, and
    at least one fewer than ``N``) serve requests whose input length is
    at least ``long_threshold`` tokens; the remainder serve the short
    population.  Within a pool, placement is least-outstanding-tokens,
    the strongest simple balancer.  With a single replica the split
    degenerates to plain least-work routing.
    """

    name = "length-aware"

    def __init__(self, long_threshold: int = LONG_INPUT_THRESHOLD) -> None:
        self.long_threshold = long_threshold

    def route(self, request: Request, replicas: Sequence, now: float):
        pool = list(replicas)
        if len(pool) > 1:
            boundary = max(1, min(len(pool) - 1, round(len(pool) * LONG_FRACTION)))
            if request.input_len >= self.long_threshold:
                pool = pool[:boundary]
            else:
                pool = pool[boundary:]
        return min(
            pool,
            key=lambda r: (r.outstanding_tokens(), r.replica_id),
        )


class CacheAffinityRouter(Router):
    """Route follow-up turns to the replica holding their KV prefix.

    The router probes every replica's prefix cache for the longest
    resident prefix of the request's prompt and places the request
    there; the memory saved (and prefill skipped) scales with the match
    length, so the longest match wins outright.  With no match anywhere
    — session openers, or plain single-turn traffic — the choice falls
    back to least-kv order (most free slots, then fewest outstanding
    requests, then lowest replica id), which both balances load and
    spreads new sessions across the fleet.
    """

    name = "affinity"

    def route(self, request: Request, replicas: Sequence, now: float):
        return min(
            replicas,
            key=lambda r: (
                -r.prefix_match_len(request),
                -r.kv_free(),
                r.outstanding_requests(),
                r.replica_id,
            ),
        )

    def probe_scores(
        self, request: Request, replicas: Sequence, now: float
    ) -> list[dict]:
        scores = super().probe_scores(request, replicas, now)
        for score, replica in zip(scores, replicas):
            score["match"] = replica.prefix_match_len(request)
        return scores


class SLORouter(Router):
    """Place each request on the replica with the best predicted slack.

    For every candidate replica the router estimates this request's
    time-to-first-token there: the replica's outstanding token backlog
    plus the request's own *uncached* prompt (a resident prefix match is
    work the replica skips), divided by the deployment's prefill service
    rate.  Slack is the request's class deadline minus arrival-to-now
    wait, predicted queueing, and its no-load ideal latency; the maximum
    wins.  Ties fall back to free KV, then outstanding requests, then
    the replica id, so placement stays deterministic.

    Built with an :class:`~repro.metrics.slo.IdealLatencyModel` and a
    token rate (``repro.experiments.systems.make_fleet`` wires both from
    the replicas' cost model); without them the router degrades to the
    pure work-minimising order — the slack *ranking* over replicas is
    unchanged, only the absolute seconds are unavailable.
    """

    name = "slo"

    def __init__(self, ideal=None, token_rate: float | None = None) -> None:
        from repro.metrics.slo import CachedIdealLatency

        self.ideal = ideal
        self.token_rate = token_rate
        self._cached_ideal = (
            CachedIdealLatency(ideal) if ideal is not None else None
        )

    def route(self, request: Request, replicas: Sequence, now: float):
        deadline = self._deadline(request)
        return min(
            replicas,
            key=lambda r: (
                -self._slack(request, r, now, deadline),
                -r.kv_free(),
                r.outstanding_requests(),
                r.replica_id,
            ),
        )

    def probe_scores(
        self, request: Request, replicas: Sequence, now: float
    ) -> list[dict]:
        scores = super().probe_scores(request, replicas, now)
        deadline = self._deadline(request)
        for score, replica in zip(scores, replicas):
            score["slack"] = round(
                self._slack(request, replica, now, deadline), 4
            )
        return scores

    def _slack(
        self, request: Request, replica, now: float, deadline: float
    ) -> float:
        backlog = replica.outstanding_tokens()
        resident = replica.prefix_match_len(request)
        work = backlog + max(0, request.input_len - resident)
        rate = self.token_rate if self.token_rate else 1.0
        return deadline - now - work / rate - self._ideal_latency(request)

    def _deadline(self, request: Request) -> float:
        from repro.metrics.slo import DEFAULT_SLO_SCALE
        from repro.qos.classes import resolve_qos_class

        scale = (
            resolve_qos_class(request.qos).deadline_scale
            if request.qos is not None
            else DEFAULT_SLO_SCALE
        )
        return request.arrival_time + scale * self._ideal_latency(request)

    def _ideal_latency(self, request: Request) -> float:
        if self._cached_ideal is None:
            return 0.0
        return self._cached_ideal(request)


ROUTERS = {
    "round-robin": RoundRobinRouter,
    "least-outstanding": LeastOutstandingRouter,
    "least-kv": LeastKVRouter,
    "length-aware": LengthAwareRouter,
    "affinity": CacheAffinityRouter,
    "slo": SLORouter,
}


def make_router(name: str, **kwargs) -> Router:
    """Build a routing policy by name (see :data:`ROUTERS`)."""
    try:
        factory = ROUTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown router {name!r}; choose from {sorted(ROUTERS)}"
        ) from None
    return factory(**kwargs)
