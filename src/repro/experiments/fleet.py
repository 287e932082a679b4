"""Fleet-scale routing-policy comparison.

A rate sweep over the Mixed long/short workload with N identical
replicas behind each routing policy — the fleet analogue of the paper's
Figure 11 interference scenario: round-robin lands long-context
prefills on every replica, stalling the short requests batched behind
them, while length-aware routing confines the long population to a
subset of replicas and protects the short requests' latency.  The
sweep reports the paper's normalised-latency metrics, SLO attainment,
and the per-replica token imbalance that explains the gap.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.endtoend import reference_ideal_model
from repro.experiments.harness import SystemCurve, loongserve_fleet, rate_traces, sweep
from repro.workloads.datasets import MIXED

FLEET_ROUTERS = ["round-robin", "least-outstanding", "least-kv", "length-aware"]
# Per-replica rates around one deployment's Mixed knee (Figure 10 swept
# 0.3-1.2 req/s on 8 GPUs); a 4-replica fleet saturates at ~4x that.
FLEET_RATES = [2.0, 4.0, 6.0]
FLEET_WINDOW_S = 25.0
FLEET_REPLICAS = 4
FLEET_SEED = 17
FLEET_COLUMNS = (
    "router", "rate", "per_token_ms", "input_ms", "output_ms", "attain",
    "fin_total", "imbalance",
)


def router_sweep(scale: float = 1.0) -> list[SystemCurve]:
    """Sweep arrival rate for the LoongServe fleet under each router."""
    return sweep(
        {
            router: loongserve_fleet(replicas=FLEET_REPLICAS, router=router)
            for router in FLEET_ROUTERS
        },
        rate_traces(MIXED, FLEET_RATES, FLEET_WINDOW_S, FLEET_SEED, scale),
        reference_ideal_model(),
    )


def length_aware_advantage(curves: Sequence[SystemCurve]) -> dict[str, float]:
    """Headline comparison at the highest swept rate.

    Returns the round-robin / length-aware ratios of mean per-token
    latency and the attainment delta — the numbers that show sharding
    long-context requests away from short-request replicas paying off
    under pressure (> 1.0 / > 0.0 respectively when length-aware wins).
    """
    by_name = {c.name: c for c in curves}
    rr = by_name["round-robin"].points[-1]
    la = by_name["length-aware"].points[-1]
    return {
        "per_token_ratio": rr.per_token / la.per_token if la.per_token else float("inf"),
        "attainment_delta": la.attainment - rr.attainment,
        "rate": la.rate,
    }
