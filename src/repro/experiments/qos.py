"""QoS under overload: protecting interactive traffic at equal capacity.

The scenario the subsystem exists for: a fleet sized below the offered
load serves three tenant tiers at once — interactive multi-turn
sessions (tight 10x deadline), standard single-turn API calls, and
batch long-context jobs (loose 100x deadline, preemptible).  An
FCFS/no-QoS fleet spreads the misses uniformly: long batch prefills
queue ahead of chat turns and everybody's attainment sinks together.
The QoS stack — deadline-feasibility admission, earliest-slack-first
dispatch with batch-tier preemption, and slack-predicting ``slo``
placement — concentrates the inevitable misses on the traffic that
bought loose deadlines.

Three variants at *equal capacity* (same replicas, same trace):

* ``fcfs`` — least-kv placement, no QoS anywhere (the baseline).
* ``priority`` — deadline-aware scheduling only (no admission, default
  placement): the ordering/preemption ablation.
* ``qos`` — the full stack: admission + preemption + ``slo`` routing.

Headline (asserted by ``benchmarks/bench_qos.py``): interactive-tier
attainment at least ~1.3x the FCFS baseline with total goodput no
worse.  A closed-loop coda re-runs the session tier with arrival
feedback (``repro.sessions.ClosedLoopDriver``) — the realistic
interactive driver — to show the stack end-to-end off the open-loop
grid.  Run via ``python -m repro.experiments qos``.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.experiments.endtoend import reference_ideal_model
from repro.experiments.harness import Point, compare, loongserve_fleet, point_count
from repro.experiments.systems import make_fleet
from repro.metrics.qos import per_class_report
from repro.sessions import (
    ClosedLoopDriver,
    SessionSpec,
    make_session_trace,
    plan_sessions,
    tag_session_plans,
)
from repro.workloads.datasets import MIXED, LengthSpec
from repro.workloads.trace_gen import make_trace

# Interactive tier: chatty multi-turn sessions with short think times,
# so turns keep arriving while the fleet is saturated.
QOS_SESSION_SPEC = SessionSpec(
    mean_turns=4.0,
    first_input=LengthSpec(
        log_mean=math.log(600.0), log_sigma=0.7, minimum=32, maximum=4000
    ),
    turn_input=LengthSpec(
        log_mean=math.log(200.0), log_sigma=0.6, minimum=16, maximum=1500
    ),
    output=LengthSpec(
        log_mean=math.log(180.0), log_sigma=0.7, minimum=8, maximum=800
    ),
    think_time_mean_s=5.0,
    max_context_len=24_000,
)

# Standard/batch tiers: the paper's Mixed long/short population, long
# inputs capped so they fit the deliberately small replicas.
SINGLES_MIX = {"standard": 0.55, "batch": 0.45}
MAX_SINGLE_INPUT = 30_000

REPLICAS = 3
NUM_GPUS = 4  # per replica: two TP=2 instances — small on purpose
SESSION_RATE = 3.0  # sessions/s
SINGLES_RATE = 16.0  # requests/s
SESSION_COUNT = 30
SINGLES_COUNT = 100
QOS_SEED = 13

QOS_VARIANTS: dict[str, dict] = {
    "fcfs": {"router": "least-kv"},
    "priority": {"router": "least-kv", "qos": True},
    "qos": {"router": "slo", "qos": True, "admission": True},
}
QOS_COLUMNS = (
    "variant", "interactive", "standard", "batch", "class_goodput",
    "per_token_ms", "fin_total",
)


def make_qos_trace(scale: float = 1.0):
    """The overloaded three-tier trace: sessions (interactive) merged
    with Mixed singles (standard/batch), sorted by arrival."""
    sessions = make_session_trace(
        QOS_SESSION_SPEC,
        rate=SESSION_RATE,
        num_sessions=point_count(SESSION_COUNT, scale, 6),
        seed=QOS_SEED,
        qos_mix={"interactive": 1.0},
    )
    singles = make_trace(
        MIXED,
        rate=SINGLES_RATE,
        num_requests=point_count(SINGLES_COUNT, scale, 20),
        seed=QOS_SEED + 1,
        max_input_len=MAX_SINGLE_INPUT,
        qos_mix=SINGLES_MIX,
    )
    trace = sessions + singles
    trace.sort(key=lambda r: (r.arrival_time, r.request_id))
    return trace


def qos_sweep(scale: float = 1.0) -> list[Point]:
    """Serve the shared overloaded trace under each variant."""
    variants = {
        name: loongserve_fleet(
            replicas=REPLICAS, num_gpus=NUM_GPUS, prefix_cache=True, **features
        )
        for name, features in QOS_VARIANTS.items()
    }
    return compare(
        variants,
        make_qos_trace(scale),
        reference_ideal_model(num_gpus=NUM_GPUS),
    )


def qos_advantage(points: Sequence[Point]) -> dict[str, float]:
    """Headline ratios: full QoS stack vs. the FCFS baseline."""
    by_name = {p.variant: p for p in points}
    fcfs = by_name["fcfs"]
    qos = by_name["qos"]
    base_attainment = fcfs.class_attainment("interactive")
    return {
        "interactive_attainment_ratio": (
            qos.class_attainment("interactive") / base_attainment
            if base_attainment
            else float("inf")
        ),
        "interactive_fcfs": base_attainment,
        "interactive_qos": qos.class_attainment("interactive"),
        "goodput_ratio": (
            qos.class_goodput / fcfs.class_goodput
            if fcfs.class_goodput
            else float("inf")
        ),
        "batch_qos": qos.class_attainment("batch"),
    }


def closed_loop_attainment(scale: float = 1.0) -> dict[str, float]:
    """Interactive sessions under arrival feedback, full QoS stack.

    Closed-loop arrivals are the realistic interactive driver: the next
    turn cannot arrive before the previous one finishes, so overload
    self-throttles instead of stacking turns.  Returns the tier's
    attainment plus the realised request count (a run outcome here).
    """
    plans = tag_session_plans(
        plan_sessions(
            QOS_SESSION_SPEC,
            rate=SESSION_RATE,
            num_sessions=point_count(SESSION_COUNT, scale, 6),
            seed=QOS_SEED,
        ),
        {"interactive": 1.0},
        seed=QOS_SEED,
    )
    fleet = make_fleet(
        "loongserve", replicas=REPLICAS, num_gpus=NUM_GPUS,
        prefix_cache=True, router="slo", qos=True, admission=True,
    )
    result = fleet.run_driven(ClosedLoopDriver(plans))
    ideal = reference_ideal_model(num_gpus=NUM_GPUS)
    outcomes = per_class_report(result, ideal)
    interactive = outcomes.get("interactive")
    return {
        "attainment": interactive.attainment if interactive else 0.0,
        "submitted": float(interactive.submitted if interactive else 0),
        "finished": float(len(result.finished_requests)),
    }
