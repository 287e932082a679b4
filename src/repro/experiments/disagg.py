"""Disaggregated prefill/decode fleet vs. equal-hardware monolithic.

The comparison the dispatcher exists for: the same replica count serving
the same trace, once as a monolithic fleet (every replica interleaves
prefill and decode) and once split into prefill and decode pools
(``repro.fleet.disagg``).  Disaggregation pays a priced KV handoff per
request but isolates decode from prompt bursts — on chat-dominant
traffic with a long-prompt tail, a monolithic replica's multi-thousand
token prefill stalls every co-resident decode iteration, while the
disaggregated decode pool never sees a prompt.

Goodput follows the DistServe-style phase SLOs rather than one
end-to-end deadline: a request counts when its TTFT (arrival to first
token) and its TPOT (mean inter-token time over the decode) both meet
absolute chat targets (``repro.experiments.harness.TTFT_SLO_S`` and
``TPOT_SLO_S``).  This is the metric under which phase
interference is visible at all — end-to-end latency averages the stall
into the decode tail.

Because both fleets serve the *identical* finite trace, the offered
window is the same on both sides and the gateable comparison is the
count of SLO-attained requests; phase goodput (attained per makespan
second) is reported alongside but its denominator carries a few
milliseconds of final-handoff tail noise at small trace sizes.

Two scenarios, both bursty:

* **Chat-heavy Mixed** — ShareGPT-dominant traffic with an L-Eval
  long-prompt tail (7:1), on/off burst arrivals.  The long prompts are
  the interference source; the chat decodes are the victims.
* **Sessions** — multi-turn conversations with think-time gaps
  (``repro.sessions``), where the decode pool's prefix caches also keep
  conversation KV warm across turns.

Run via ``python -m repro.experiments disagg``.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.endtoend import reference_ideal_model
from repro.experiments.harness import Point, compare, loongserve_fleet, point_count
from repro.sessions import SessionSpec, make_session_trace
from repro.workloads.arrival import BurstyArrivals
from repro.workloads.datasets import LEVAL, SHAREGPT, MixedDistribution
from repro.workloads.trace_gen import make_trace

# ShareGPT-dominant Mixed with a capped L-Eval long-prompt tail: enough
# long prefills to stall monolithic decodes, few enough that a small
# prefill pool absorbs them.
CHAT_MIXED = MixedDistribution(
    name="Mixed-chat",
    components=(SHAREGPT,) * 7 + (LEVAL,),
    max_input_len=32_768,
)
MIXED_RATE = 12.0
MIXED_REQUESTS = 240
MIXED_PREFILL = 2
MIXED_SEED = 17

SESSION_SPEC = SessionSpec(think_time_mean_s=45.0, mean_turns=3.0)
SESSION_RATE = 3.0
SESSION_COUNT = 14
SESSION_PREFILL = 1
SESSION_SEED = 11

REPLICAS = 4
DISAGG_COLUMNS = (
    "variant", "phase_attained", "phase_goodput", "ttft_p90", "tpot_p90",
    "handoffs", "handoff_tokens", "tier_offloaded", "tier_swapped_in",
)


def _layouts(mono_router: str, prefill: int) -> dict:
    """The monolithic fleet and the disaggregated one (its first
    ``prefill`` replicas dedicated to prompts, with tiered KV offload
    so the run also exercises host/SSD demotion), both with prefix
    caches."""
    return {
        "monolithic": loongserve_fleet(
            replicas=REPLICAS, router=mono_router, prefix_cache=True
        ),
        f"disagg {prefill}p+{REPLICAS - prefill}d": loongserve_fleet(
            replicas=REPLICAS, router="round-robin", prefix_cache=True,
            disagg=prefill, kv_tiers="lru",
        ),
    }


def disagg_mixed_sweep(scale: float = 1.0) -> list[Point]:
    """Monolithic vs. disaggregated on bursty chat-heavy Mixed."""
    trace = make_trace(
        CHAT_MIXED, rate=MIXED_RATE,
        num_requests=point_count(MIXED_REQUESTS, scale, 30),
        seed=MIXED_SEED, arrivals=BurstyArrivals(rate=MIXED_RATE),
    )
    return compare(
        _layouts("round-robin", MIXED_PREFILL), trace, reference_ideal_model()
    )


def disagg_session_sweep(scale: float = 1.0) -> list[Point]:
    """Monolithic (affinity-routed) vs. disaggregated on sessions."""
    trace = make_session_trace(
        SESSION_SPEC, rate=SESSION_RATE,
        num_sessions=point_count(SESSION_COUNT, scale, 6), seed=SESSION_SEED,
    )
    return compare(
        _layouts("affinity", SESSION_PREFILL), trace, reference_ideal_model()
    )


def disagg_advantage(points: Sequence[Point]) -> dict[str, float]:
    """Headline ratios of one scenario's (monolithic, disagg) pair."""
    mono, disagg = points[0], points[-1]
    return {
        "attained_delta": float(disagg.phase_attained - mono.phase_attained),
        "goodput_ratio": (
            disagg.phase_goodput / mono.phase_goodput
            if mono.phase_goodput
            else float("inf")
        ),
        "tpot_p90_ratio": (
            mono.tpot_p90 / disagg.tpot_p90 if disagg.tpot_p90 else float("inf")
        ),
    }
