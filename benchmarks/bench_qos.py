"""QoS serving: multi-tenant SLO protection at equal capacity.

An overloaded 3-replica fleet serves three SLO tiers (interactive
sessions, standard singles, batch long-context).  Anchors: the full QoS
stack (deadline-feasibility admission + earliest-slack dispatch with
batch-tier preemption + slack-predicting ``slo`` placement) lifts
interactive-tier attainment well above the FCFS baseline without
costing total goodput, and the closed-loop (arrival-feedback) session
driver sustains the interactive tier end-to-end.

The attainment gap needs genuine overload, so the sweep pins its scale
to 1.0 regardless of --quick (the closed-loop coda scales down).
"""

from repro.experiments.qos import (
    closed_loop_attainment,
    qos_advantage,
    qos_sweep,
)


def test_qos_protects_interactive_tier_under_overload(benchmark, bench_scale):
    points = benchmark.pedantic(
        lambda: qos_sweep(scale=1.0), rounds=1, iterations=1
    )
    by_name = {p.variant: p for p in points}
    assert set(by_name) == {"fcfs", "priority", "qos"}

    advantage = qos_advantage(points)
    benchmark.extra_info.update(advantage)

    # The headline: the full stack materially lifts the tight-deadline
    # tier at equal capacity (experiment tuned to ~1.36x; asserted with
    # margin), without giving total goodput back.
    assert advantage["interactive_attainment_ratio"] >= 1.25
    assert advantage["goodput_ratio"] >= 0.95
    # The loose-deadline tier funds the protection but keeps its own
    # (100x) contract.
    assert advantage["batch_qos"] >= 0.9
    # Scheduling-only ablation already helps; the full stack never does
    # worse than it on the protected tier.
    assert (
        by_name["qos"].class_attainment("interactive")
        >= by_name["priority"].class_attainment("interactive") - 1e-9
    )


def test_closed_loop_sessions_meet_interactive_slo(benchmark, bench_scale):
    closed = benchmark.pedantic(
        lambda: closed_loop_attainment(scale=min(bench_scale, 0.5)),
        rounds=1, iterations=1,
    )
    benchmark.extra_info.update(closed)
    # Arrival feedback self-throttles: with the full stack the
    # interactive tier holds its 10x deadline almost everywhere.
    assert closed["submitted"] > 0
    assert closed["attainment"] >= 0.9
