"""Disaggregated prefill/decode pools vs. equal-hardware monolithic.

Four replicas serve the same bursty trace twice: once monolithic (every
replica interleaves prefill and decode) and once split into prefill and
decode pools with priced KV handoffs.  Anchors: on the chat-heavy Mixed
scenario and on the Sessions scenario the disaggregated fleet attains
at least as many phase-SLO (TTFT + TPOT) requests as the monolithic one
over the identical offered trace, every request rides exactly one
prefill->decode handoff, and the fleet report carries the tiered-KV
accounting the disagg side runs with.
"""

from repro.experiments.disagg import (
    disagg_advantage,
    disagg_mixed_sweep,
    disagg_session_sweep,
)


def test_disagg_goodput_on_bursty_chat_mixed(benchmark, bench_scale):
    points = benchmark.pedantic(
        lambda: disagg_mixed_sweep(scale=bench_scale), rounds=1, iterations=1
    )
    mono, disagg = points
    assert mono.variant == "monolithic"
    assert disagg.variant.startswith("disagg")

    # Both fleets serve the full trace (nothing lost to the handoff path).
    assert mono.total == disagg.total
    advantage = disagg_advantage(points)
    benchmark.extra_info["mono_attained"] = mono.phase_attained
    benchmark.extra_info["disagg_attained"] = disagg.phase_attained
    benchmark.extra_info["goodput_ratio"] = advantage["goodput_ratio"]
    benchmark.extra_info["tpot_p90_ratio"] = advantage["tpot_p90_ratio"]
    benchmark.extra_info["handoffs"] = disagg.handoffs
    benchmark.extra_info["tier_offloaded"] = disagg.tier_offloaded

    # The PR gate: equal hardware, identical trace, at least equal
    # phase-SLO goodput (attained requests over the same offered window).
    assert disagg.phase_attained >= mono.phase_attained
    # Decode isolation is the mechanism: TPOT tail no worse than mono's
    # (5% slack: at tiny trace sizes the P90s tie within a fraction of a
    # millisecond).
    assert disagg.tpot_p90 <= mono.tpot_p90 * 1.05
    # Every request crossed the fabric exactly once.
    assert disagg.handoffs == disagg.total
    assert disagg.handoff_tokens > 0
    assert mono.handoffs == 0


def test_disagg_holds_goodput_on_sessions(benchmark, bench_scale):
    points = benchmark.pedantic(
        lambda: disagg_session_sweep(scale=bench_scale), rounds=1, iterations=1
    )
    mono, disagg = points
    assert mono.total == disagg.total
    benchmark.extra_info["mono_attained"] = mono.phase_attained
    benchmark.extra_info["disagg_attained"] = disagg.phase_attained
    benchmark.extra_info["handoffs"] = disagg.handoffs

    # Against the strongest monolithic baseline (affinity routing), the
    # split fleet holds phase-SLO goodput on the identical trace.
    assert disagg.phase_attained >= mono.phase_attained
    assert disagg.handoffs == disagg.total
