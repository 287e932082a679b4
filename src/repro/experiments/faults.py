"""Fault tolerance: replica crash, KV loss, failover, recovery.

Two questions, two sweeps:

* **Failover policy** (:func:`failover_sweep`) — a replica serving
  multi-turn sessions crashes mid-run, taking its queued work, running
  batches, and resident prefix KV with it.  How fast does tail latency
  recover?  *Naive* re-dispatch scatters the orphans (and every later
  turn of their sessions) round-robin across the survivors, so each one
  re-prefills its conversation from scratch.  *KV-migration failover*
  routes orphans through the affinity router onto the prefix copies
  earlier steal-coupled and drain-rescue migrations left on the
  survivors, so the crash costs far less recomputation — the post-crash
  P99 per-token latency is the headline.
* **Availability** (:func:`availability_sweep`) — the same fleet under
  stochastic (seeded Poisson) crash schedules of decreasing MTBF:
  availability, goodput, and lost-KV tokens as failures become routine.

Run via ``python -m repro.experiments faults``.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.experiments.endtoend import reference_ideal_model
from repro.experiments.harness import Point, compare, loongserve_fleet, point_count
from repro.fleet.faults import FaultPlan
from repro.sessions import SessionSpec, make_session_trace
from repro.workloads.datasets import LengthSpec

# The failover scenario: *long-context* conversations (the paper's
# regime) on deliberately small replicas, so prefill is the expensive
# phase, resident prefix KV is genuinely valuable, and the crash lands
# while the fleet is loaded.  Short think times keep follow-up turns
# arriving throughout the downtime window.
SESSION_SPEC = SessionSpec(
    mean_turns=4.0,
    first_input=LengthSpec(
        log_mean=math.log(5000.0), log_sigma=0.6, minimum=800, maximum=16_000
    ),
    turn_input=LengthSpec(
        log_mean=math.log(1500.0), log_sigma=0.6, minimum=200, maximum=5000
    ),
    output=LengthSpec(
        log_mean=math.log(150.0), log_sigma=0.6, minimum=8, maximum=500
    ),
    think_time_mean_s=4.0,
    max_context_len=50_000,
)
SESSION_RATE = 3.0
SESSION_COUNT = 24
SESSION_SEED = 11
REPLICAS = 3
NUM_GPUS = 2  # per replica: one TP=2 instance — prefill-bound on purpose
CRASH_TIME = 15.0
DOWNTIME_S = 30.0

# The availability sweep: seeded Poisson crash schedules, tightest MTBF
# last, each crash down for a shorter window than the scripted one.
MTBF_VALUES = (240.0, 120.0, 60.0)
FAULT_SEED = 7
AVAILABILITY_DOWNTIME_S = 15.0

FAULT_COLUMNS = (
    "variant", "per_token_ms", "p99_ms", "post_crash_p99_ms", "fin_total",
    "availability", "lost_kv", "failovers", "failover_reprefill", "hit_rate",
)


def _fleet(router: str = "affinity", **features):
    return loongserve_fleet(
        replicas=REPLICAS, router=router, num_gpus=NUM_GPUS,
        prefix_cache=True, **features,
    )


def _session_trace(scale: float):
    return make_session_trace(
        SESSION_SPEC, rate=SESSION_RATE,
        num_sessions=point_count(SESSION_COUNT, scale, 6), seed=SESSION_SEED,
    )


def failover_sweep(scale: float = 1.0) -> list[Point]:
    """Mid-run crash of replica 0 under each failover policy variant.

    "no-fault" is the ceiling; "naive" models a fleet whose failover
    path is blind re-dispatch (round-robin, no migration); "failover" is
    the full stack: affinity placement + steal-coupled/drain-rescue KV
    migration, which doubles as crash redundancy.

    The post-crash P99 gap between ``naive`` and ``failover`` needs the
    fleet under real pressure; below ``scale`` ~0.7 the survivors have
    slack and the tail flattens (the token/availability ledgers stay
    meaningful at any scale).
    """
    plan = FaultPlan.scripted((CRASH_TIME, 0), downtime_s=DOWNTIME_S)
    variants = {
        "no-fault": _fleet(steal=True, migrate_kv=True),
        "naive": _fleet("round-robin", faults=plan),
        "failover": _fleet(steal=True, migrate_kv=True, faults=plan),
    }
    return compare(
        variants, _session_trace(scale), reference_ideal_model(NUM_GPUS),
        crash_time=CRASH_TIME,
    )


def failover_advantage(points: Sequence[Point]) -> dict[str, float]:
    """Headline ratios: how much better the migration-backed failover
    recovers post-crash tail latency than naive re-dispatch."""
    by_name = {p.variant: p for p in points}
    naive = by_name["naive"]
    failover = by_name["failover"]
    return {
        "post_crash_p99_ratio": (
            naive.post_crash_p99 / failover.post_crash_p99
            if failover.post_crash_p99
            else float("inf")
        ),
        "post_crash_mean_ratio": (
            naive.post_crash_mean / failover.post_crash_mean
            if failover.post_crash_mean
            else float("inf")
        ),
        "per_token_ratio": (
            naive.per_token / failover.per_token
            if failover.per_token
            else float("inf")
        ),
        "failover_availability": failover.availability,
    }


def availability_sweep(scale: float = 1.0) -> list[tuple[float, Point]]:
    """The full failover stack under Poisson crash schedules.

    Returns ``(mtbf, point)`` pairs, tightest MTBF last; the horizon is
    the trace's arrival span, so faults always land on live traffic.
    """
    trace = _session_trace(scale)
    horizon = max(r.arrival_time for r in trace)
    variants = {
        f"mtbf={mtbf:.0f}s": _fleet(
            steal=True, migrate_kv=True,
            faults=FaultPlan.poisson(
                num_replicas=REPLICAS, horizon_s=horizon, mtbf_s=mtbf,
                seed=FAULT_SEED, downtime_s=AVAILABILITY_DOWNTIME_S,
            ),
        )
        for mtbf in MTBF_VALUES
    }
    points = compare(variants, trace, reference_ideal_model(NUM_GPUS))
    return list(zip(MTBF_VALUES, points))
