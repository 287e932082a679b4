"""Elastic fleet control plane: static routing vs. closed-loop actuators.

Two scenarios, both deliberately bursty (elasticity is worthless under
perfectly smooth load):

* **Bursty Mixed** — the long/short interference workload under on/off
  modulated Poisson arrivals.  Route-once placement eats the bursts as
  deep per-replica queues; work stealing drains them sideways, and the
  autoscaler parks capacity between bursts.  Headline: at equal replica
  count the elastic fleet beats the static fleet on mean *and* P99
  per-token latency, while autoscaling cuts replica-seconds paid.
* **Burst-then-lull Sessions** — conversation openers arrive densely,
  then think-time gaps let the autoscaler consolidate the fleet.  A
  parked replica would orphan its sessions' prefix KV; cross-replica
  migration rescues the extents onto survivors, keeping the affinity
  router's token hit rate within a few points of the static fleet.

Run via ``python -m repro.experiments elastic-fleet``.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.endtoend import reference_ideal_model
from repro.experiments.harness import Point, compare, loongserve_fleet, point_count
from repro.sessions import SessionSpec, make_session_trace
from repro.workloads.arrival import BurstyArrivals
from repro.workloads.datasets import MIXED
from repro.workloads.trace_gen import make_trace

# Actuator combinations swept by both scenarios, in presentation order.
ELASTIC_VARIANTS: dict[str, dict] = {
    "static": {},
    "autoscale": {"autoscale": True},
    "steal": {"steal": True},
    "steal+migrate": {"steal": True, "migrate_kv": True},
    "elastic": {"autoscale": True, "steal": True, "migrate_kv": True},
}

MIXED_RATE = 4.0  # mean req/s into the 4-replica fleet (bursts hit 4x)
MIXED_REQUESTS = 80
MIXED_REPLICAS = 4
MIXED_SEED = 17
# Dense openers + long think times: the burst-then-lull session shape.
SESSION_SPEC = SessionSpec(think_time_mean_s=45.0, mean_turns=3.0)
SESSION_RATE = 3.0
SESSION_COUNT = 14
SESSION_REPLICAS = 2
SESSION_SEED = 11

ELASTIC_COLUMNS = (
    "variant", "per_token_ms", "p99_ms", "fin_total", "replica_s", "steals",
    "steal_reprefill", "migrated",
)
# The session scenario's prefix caches add the hit rate.
ELASTIC_SESSION_COLUMNS = ELASTIC_COLUMNS + ("hit_rate",)


def bursty_mixed_sweep(scale: float = 1.0) -> list[Point]:
    """The steal/autoscale scenario (no prefix caches, Mixed lengths).

    Variants touching KV migration degrade to their cache-less subset
    here (migration is a session feature).  A variant whose subset
    another variant already serves is left out: ``steal+migrate`` would
    re-serve the ``steal`` fleet.
    """
    trace = make_trace(
        MIXED, rate=MIXED_RATE,
        num_requests=point_count(MIXED_REQUESTS, scale, 20),
        seed=MIXED_SEED, arrivals=BurstyArrivals(rate=MIXED_RATE),
    )
    cacheless: dict[str, dict] = {}
    for name, actuators in ELASTIC_VARIANTS.items():
        kept = {k: v for k, v in actuators.items() if k != "migrate_kv"}
        if kept not in cacheless.values():
            cacheless[name] = kept
    variants = {
        name: loongserve_fleet(
            replicas=MIXED_REPLICAS, router="round-robin", **actuators
        )
        for name, actuators in cacheless.items()
    }
    return compare(variants, trace, reference_ideal_model())


def session_rebalance_sweep(scale: float = 1.0) -> list[Point]:
    """The KV-migration scenario: affinity routing + burst-then-lull
    sessions, where scale-in must not orphan conversation KV."""
    trace = make_session_trace(
        SESSION_SPEC, rate=SESSION_RATE,
        num_sessions=point_count(SESSION_COUNT, scale, 6), seed=SESSION_SEED,
    )
    variants = {
        name: loongserve_fleet(
            replicas=SESSION_REPLICAS, router="affinity", prefix_cache=True,
            **actuators,
        )
        for name, actuators in ELASTIC_VARIANTS.items()
    }
    return compare(variants, trace, reference_ideal_model())


def elastic_advantage(points: Sequence[Point]) -> dict[str, float]:
    """Static-vs-elastic headline ratios on one scenario's points."""
    by_name = {p.variant: p for p in points}
    static, best = by_name["static"], by_name["elastic"]
    return {
        "per_token_ratio": (
            static.per_token / best.per_token if best.per_token else float("inf")
        ),
        "p99_ratio": (
            static.per_token_p99 / best.per_token_p99
            if best.per_token_p99
            else float("inf")
        ),
        "capacity_ratio": (
            static.replica_seconds / best.replica_seconds
            if best.replica_seconds
            else float("inf")
        ),
    }


def migration_hit_preservation(points: Sequence[Point]) -> dict[str, float]:
    """How much of the static affinity hit rate each rebalanced variant
    keeps (the ``elastic`` variant must stay >= 0.8, the PR gate)."""
    by_name = {p.variant: p for p in points}
    static_hit = by_name["static"].hit_rate
    if static_hit <= 0:
        return {"static_hit_rate": 0.0}
    out = {"static_hit_rate": static_hit}
    for name in ("autoscale", "elastic"):
        out[f"{name}_retention"] = by_name[name].hit_rate / static_hit
    return out
