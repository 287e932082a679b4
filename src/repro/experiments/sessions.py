"""Multi-turn session serving: cache-affinity routing vs. baselines.

A rate sweep over the Sessions conversation workload with N LoongServe
replicas (prefix-KV cache armed) behind each routing policy.  Stateless
policies scatter a conversation's turns across the fleet, so a follow-up
turn usually lands on a replica that never saw the session and
re-prefills the whole context; cache-affinity routing sends each turn to
the replica holding the longest matching prefix, which turns the shared
context into pure prefill savings.  The sweep reports the paper's
normalised-latency metrics plus the cache telemetry that explains the
gap: per-policy prefix hit rate and fleet-wide saved prefill tokens.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.endtoend import reference_ideal_model
from repro.experiments.harness import SystemCurve, loongserve_fleet, point_count, sweep
from repro.sessions import SESSIONS, make_session_trace

SESSION_ROUTERS = ["round-robin", "least-kv", "affinity"]
# Session arrival rates (sessions/s, each session ~`mean_turns` requests);
# chosen so a 4-replica fleet moves from relaxed to clearly contended.
SESSION_RATES = [0.4, 0.8, 1.2]
SESSION_WINDOW_S = 25.0
MIN_SESSIONS = 10
SESSION_REPLICAS = 4
SESSION_SEED = 11
SESSION_COLUMNS = (
    "router", "rate", "per_token_ms", "input_ms", "output_ms", "attain",
    "fin_total", "hit_rate", "saved_tokens",
)


def session_sweep(scale: float = 1.0) -> list[SystemCurve]:
    """Sweep session arrival rate under each router, caches armed."""
    traces = (
        (
            rate,
            make_session_trace(
                SESSIONS,
                rate=rate,
                num_sessions=point_count(
                    rate * SESSION_WINDOW_S, scale, int(MIN_SESSIONS * scale)
                ),
                seed=SESSION_SEED,
            ),
        )
        for rate in SESSION_RATES
    )
    return sweep(
        {
            router: loongserve_fleet(
                replicas=SESSION_REPLICAS, router=router, prefix_cache=True
            )
            for router in SESSION_ROUTERS
        },
        traces,
        reference_ideal_model(),
    )


def affinity_advantage(curves: Sequence[SystemCurve]) -> dict[str, float]:
    """Headline comparison at the highest swept rate.

    Returns round-robin / affinity ratios of mean per-token input
    (prefill) latency and overall per-token latency, plus affinity's
    prefix hit rate — the numbers showing that keeping a conversation on
    the replica holding its KV converts the shared context into saved
    prefill (> 1.0 ratios when affinity wins).
    """
    by_name = {c.name: c for c in curves}
    rr = by_name["round-robin"].points[-1]
    aff = by_name["affinity"].points[-1]
    return {
        "input_token_ratio": (
            rr.input_token / aff.input_token if aff.input_token else float("inf")
        ),
        "per_token_ratio": (
            rr.per_token / aff.per_token if aff.per_token else float("inf")
        ),
        "affinity_hit_rate": aff.hit_rate,
        "round_robin_hit_rate": rr.hit_rate,
        "rate": aff.rate,
    }
