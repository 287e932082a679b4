"""Fleet-scale routing-policy comparison on the Mixed workload.

Four LoongServe replicas behind each routing policy sweep the fleet's
rate grid.  Anchor: at the highest swept rate, length-aware routing —
which shards long-context requests away from the short-request replicas
(the Figure 11 interference scenario, applied fleet-wide) — beats
round-robin on mean normalised per-token latency.
"""

from repro.experiments.fleet import length_aware_advantage, router_sweep


def test_fleet_router_sweep(benchmark, bench_scale):
    curves = benchmark.pedantic(
        lambda: router_sweep(scale=bench_scale), rounds=1, iterations=1
    )
    by_name = {c.name: c for c in curves}
    assert set(by_name) == {
        "round-robin", "least-outstanding", "least-kv", "length-aware"
    }

    # Every policy must actually serve the workload at every rate.
    for fleet_curve in curves:
        for point in fleet_curve.points:
            assert point.finished == point.total

    advantage = length_aware_advantage(curves)
    benchmark.extra_info["length_aware_per_token_ratio"] = advantage["per_token_ratio"]
    benchmark.extra_info["length_aware_attainment_delta"] = advantage["attainment_delta"]
    for fleet_curve in curves:
        benchmark.extra_info[f"{fleet_curve.name}_goodput"] = (
            fleet_curve.goodput()
        )

    # The headline: isolating the long population pays off under load.
    assert advantage["per_token_ratio"] > 1.0
