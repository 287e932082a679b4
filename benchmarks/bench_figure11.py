"""Figure 11 — multi-node (16 GPU) performance on the Mixed workload.

Paper anchors: LoongServe scales across two nodes (ESP degree 8) and
improves total throughput up to 1.86x vs per-node vLLM and 3.37x vs
per-node LightLLM-SplitFuse, with lower output latency at every rate.
"""

from repro.experiments.endtoend import figure11


def test_figure11_regenerates(benchmark, bench_scale):
    curves = benchmark.pedantic(
        lambda: figure11(scale=bench_scale), rounds=1, iterations=1
    )
    by_name = {c.name: c for c in curves}
    loong = by_name["loongserve"]
    benchmark.extra_info["loongserve_goodput"] = loong.goodput()
    benchmark.extra_info["vllm_goodput"] = by_name["vllm"].goodput()
    benchmark.extra_info["splitfuse_goodput"] = by_name["splitfuse"].goodput()

    assert loong.goodput() >= by_name["vllm"].goodput()
    assert loong.goodput() >= by_name["splitfuse"].goodput()
    # Per-token latency at the top rate: LoongServe leads.
    final = {name: c.points[-1].per_token for name, c in by_name.items()}
    assert final["loongserve"] <= final["vllm"] * 1.05
    assert final["loongserve"] <= final["splitfuse"] * 1.05
