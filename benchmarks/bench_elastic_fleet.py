"""Elastic fleet control plane vs. static routing under bursty load.

Four LoongServe replicas serve an on/off bursty Mixed trace under each
actuator combination.  Anchors: work stealing beats static route-once
placement on both mean and P99 normalised per-token latency at equal
replica count, the full elastic stack also pays for fewer
replica-seconds, and on the burst-then-lull session scenario KV
migration preserves at least 80% of the static affinity router's token
hit rate after the autoscaler consolidates the fleet.
"""

from repro.experiments.elastic_fleet import (
    bursty_mixed_sweep,
    elastic_advantage,
    migration_hit_preservation,
    session_rebalance_sweep,
)


def test_elastic_fleet_beats_static_on_bursty_mixed(benchmark, bench_scale):
    points = benchmark.pedantic(
        lambda: bursty_mixed_sweep(scale=bench_scale), rounds=1, iterations=1
    )
    by_name = {p.variant: p for p in points}
    # steal+migrate would re-serve the steal fleet: no prefix caches here.
    assert set(by_name) == {"static", "autoscale", "steal", "elastic"}

    # Every variant must actually serve the workload.
    for point in points:
        assert point.finished == point.total

    advantage = elastic_advantage(points)
    benchmark.extra_info["per_token_ratio"] = advantage["per_token_ratio"]
    benchmark.extra_info["p99_ratio"] = advantage["p99_ratio"]
    benchmark.extra_info["capacity_ratio"] = advantage["capacity_ratio"]

    # The headline: the closed loop absorbs bursts a static fleet eats.
    assert advantage["per_token_ratio"] > 1.0
    assert advantage["p99_ratio"] > 1.0
    # Autoscaling parks capacity between bursts.
    assert advantage["capacity_ratio"] > 1.0
    # Stealing actually fired (otherwise the ratios are luck).
    assert by_name["elastic"].stolen > 0


def test_kv_migration_preserves_session_hit_rate(benchmark, bench_scale):
    points = benchmark.pedantic(
        lambda: session_rebalance_sweep(scale=max(bench_scale, 0.6)),
        rounds=1, iterations=1,
    )
    preservation = migration_hit_preservation(points)
    benchmark.extra_info.update(preservation)

    assert preservation["static_hit_rate"] > 0.5
    # The PR gate: rebalanced sessions keep >= 80% of their cache hits.
    assert preservation["elastic_retention"] >= 0.8
