"""Multi-turn session serving: affinity routing vs. stateless policies.

Four LoongServe replicas with armed prefix-KV caches sweep the Sessions
conversation workload under each routing policy.  Anchors: affinity
routing — which pins a conversation's turns to the replica holding its
KV prefix — reports a clearly higher prefix hit rate than round-robin,
and converts it into lower mean normalised prefill (input) latency at
the highest swept rate.
"""

from repro.experiments.harness import rows
from repro.experiments.report import render_points
from repro.experiments.sessions import (
    SESSION_COLUMNS,
    affinity_advantage,
    session_sweep,
)


def test_session_router_sweep(benchmark, bench_scale):
    curves = benchmark.pedantic(
        lambda: session_sweep(scale=bench_scale), rounds=1, iterations=1
    )
    by_name = {c.name: c for c in curves}
    assert set(by_name) == {"round-robin", "least-kv", "affinity"}

    # Every policy must actually serve the workload at every rate.
    for session_curve in curves:
        for point in session_curve.points:
            assert point.finished == point.total

    advantage = affinity_advantage(curves)
    benchmark.extra_info["affinity_input_token_ratio"] = advantage["input_token_ratio"]
    benchmark.extra_info["affinity_hit_rate"] = advantage["affinity_hit_rate"]
    benchmark.extra_info["table"] = render_points(rows(curves), SESSION_COLUMNS)

    # The headline: affinity keeps conversations on their KV and wins.
    assert advantage["affinity_hit_rate"] > advantage["round_robin_hit_rate"]
    assert advantage["input_token_ratio"] > 1.0
