"""Figure 10 — end-to-end latency vs. rate, four datasets x five systems.

Paper anchors (§7.2): LoongServe improves throughput up to 3.85x vs
chunked prefill, 5.81x vs prefill-decode disaggregation, 4.64x vs vLLM;
its output latency stays low because decoding is isolated from prefill.

Each dataset gets its own benchmark so the suite reports per-dataset
regeneration times; assertions check the orderings the paper reports.
"""

import pytest

from repro.experiments.endtoend import FIGURE10_RATES, figure10


def _curves_by_name(curves):
    return {c.name: c for c in curves}


@pytest.mark.parametrize("dataset", ["sharegpt", "leval", "lveval", "mixed"])
def test_figure10_dataset(benchmark, bench_scale, dataset):
    result = benchmark.pedantic(
        lambda: figure10(datasets=[dataset], scale=bench_scale),
        rounds=1,
        iterations=1,
    )
    curves = _curves_by_name(result[dataset])
    loong = curves["loongserve"]
    benchmark.extra_info["rates"] = FIGURE10_RATES[dataset]
    benchmark.extra_info["loongserve_goodput"] = loong.goodput()
    for name, curve in curves.items():
        benchmark.extra_info[f"{name}_final_per_token"] = round(
            curve.points[-1].per_token, 4
        )

    # LoongServe never loses the rate sweep on aggregate per-token latency.
    top_rate_points = {name: c.points[-1] for name, c in curves.items()}
    loong_final = top_rate_points["loongserve"].per_token
    for name, point in top_rate_points.items():
        if name == "loongserve":
            continue
        assert loong_final <= point.per_token * 1.10, (
            f"{name} beat LoongServe at the top rate on {dataset}"
        )
    # Goodput: LoongServe >= every baseline on every dataset.
    for name, curve in curves.items():
        assert loong.goodput() >= curve.goodput(), name
