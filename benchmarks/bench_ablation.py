"""Ablations of this reproduction's own design choices.

Not paper figures — these quantify decisions the paper makes implicitly:
planning on the fitted Eq. 7 model vs. a ground-truth oracle, the
end-to-end value of multi-master decoding, and the proactive scale-down
headroom setting.
"""

from repro.experiments.ablation import (
    multi_master_ablation,
    planning_model_ablation,
    scale_down_headroom_ablation,
)


def test_ablation_planning_model(benchmark):
    """Fitted-model planning should be near the unrealisable oracle."""
    points = benchmark.pedantic(planning_model_ablation, rounds=1, iterations=1)
    fitted, oracle = points
    benchmark.extra_info["fitted_per_token"] = round(fitted.per_token, 5)
    benchmark.extra_info["oracle_per_token"] = round(oracle.per_token, 5)
    assert fitted.finished == oracle.finished
    # Planning on the fitted model costs little vs. perfect information.
    assert fitted.per_token <= oracle.per_token * 1.5


def test_ablation_multi_master(benchmark):
    """Multi-master decoding must pay off end to end under load."""
    points = benchmark.pedantic(multi_master_ablation, rounds=1, iterations=1)
    on, off = points
    benchmark.extra_info["per_token_on"] = round(on.per_token, 5)
    benchmark.extra_info["per_token_off"] = round(off.per_token, 5)
    assert on.finished == off.finished
    assert on.output_token <= off.output_token * 1.05


def test_ablation_scale_down_headroom(benchmark):
    """Too little headroom causes churn; the default sits in the basin."""
    points = benchmark.pedantic(
        scale_down_headroom_ablation, rounds=1, iterations=1
    )
    by_headroom = {p.variant: p for p in points}
    for variant, point in by_headroom.items():
        benchmark.extra_info[f"{variant} per_token"] = round(point.per_token, 5)
        benchmark.extra_info[f"{variant} scale_ups"] = point.scale_ups
    default = by_headroom["headroom=32 iterations"]
    tiny = by_headroom["headroom=4 iterations"]
    # The default must not lose to the starved setting.
    assert default.per_token <= tiny.per_token * 1.10
