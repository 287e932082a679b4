"""Figure 13 — the elastic scale-up ablation on ShareGPT.

Paper anchors: with elastic scale-up the P90 goodput is 2.87x higher
than without; at 25 req/s the manager triggers ~7 scale-ups per 10 s.
The qualitative invariant checked here: scale-up events fire under
sustained load, and the ablated system never out-serves the full one.
"""

import numpy as np

from repro.experiments.endtoend import figure13a, figure13b


def test_figure13a_ablation(benchmark, bench_scale):
    curves = benchmark.pedantic(
        lambda: figure13a(scale=bench_scale), rounds=1, iterations=1
    )
    by_name = {c.name: c for c in curves}
    full = by_name["loongserve"]
    ablated = by_name["loongserve-no-scaleup"]
    benchmark.extra_info["goodput_with_scaleup"] = full.goodput()
    benchmark.extra_info["goodput_without_scaleup"] = ablated.goodput()
    benchmark.extra_info["paper_anchor"] = "2.87x goodput with scale-up"

    assert full.goodput() >= ablated.goodput()
    # The full system records scale-up activity at high rates...
    assert sum(p.scale_ups for p in full.points) > 0
    # ...the ablation records none, ever.
    assert sum(p.scale_ups for p in ablated.points) == 0
    # Latency at the top swept rate is no worse with scale-up enabled.
    assert full.points[-1].per_token <= ablated.points[-1].per_token * 1.05


def test_figure13b_frequency(benchmark):
    bins = benchmark.pedantic(
        lambda: figure13b(duration_s=60.0, rate=40.0), rounds=1, iterations=1
    )
    active = [b for b in bins if b > 0]
    benchmark.extra_info["scale_ups_per_10s_mean"] = (
        round(float(np.mean(active)), 2) if active else 0.0
    )
    benchmark.extra_info["paper_anchor_per_10s"] = 7.12
    assert sum(bins) > 0, "sustained ShareGPT load must trigger scale-ups"
