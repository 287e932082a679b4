"""The paper's §7 method, written once: serve, measure, sweep.

Every serving experiment runs the same loop: draw a trace for each
point of a grid, serve it on every variant (a system, a router, or an
actuator set), and score each run.  :func:`measure` scores one run into
a flat :class:`Point` holding every metric any table or advantage
formula reads; :func:`sweep` runs the loop and returns one
:class:`SystemCurve` per variant; :func:`compare` is the one-trace case.
A figure module declares only its constants, its trace, its column list
(``repro.experiments.report.COLUMNS``) and its advantage formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.experiments.systems import make_fleet
from repro.fleet.server import FleetResult
from repro.metrics.fleet import ElasticStats, fleet_load_report
from repro.metrics.latency import summarize_latency
from repro.metrics.qos import ClassOutcome, per_class_report
from repro.metrics.slo import (
    IdealLatencyModel,
    goodput_is_censored,
    max_rate_under_slo,
    slo_report,
)
from repro.types import Request, ServeResult
from repro.workloads.trace_gen import clone_requests, make_trace

# Absolute phase SLOs (chat service targets, DistServe-style): first
# token within 400 ms of arrival, then a steady 40 ms per output token.
TTFT_SLO_S = 0.4
TPOT_SLO_S = 0.040

# Requests every rate point draws at least (before scaling).
MIN_REQUESTS = 40

# A variant: builds a fresh system or fleet for one trace.
Build = Callable[[list[Request]], object]


@dataclass(frozen=True)
class Point:
    """One variant served on one trace.

    Latencies are the §7.1 normalised ones, in seconds per token.
    ``total`` counts every submitted request, aborted ones included, so
    ``finished == total`` means the run lost nothing.  ``rate`` is the
    sweep's grid value (0 for a one-trace comparison).
    """

    variant: str
    rate: float
    per_token: float
    per_token_p99: float
    input_token: float
    output_token: float
    attainment: float  # of the 25x end-to-end SLO
    finished: int
    total: int
    aborted: int
    scale_ups: int
    makespan: float
    # DistServe-style phase SLOs: requests meeting both, and P90s.
    phase_attained: int
    phase_goodput: float  # phase-SLO-attained requests per second
    ttft_p90: float
    tpot_p90: float
    # Prefix cache and KV tiers.
    hit_rate: float
    saved_tokens: int
    tier_offloaded: int
    tier_swapped_in: int
    # Fleet placement and control.
    token_imbalance: float
    replica_seconds: float
    stolen: int
    reprefill_tokens: int
    migrated_tokens: int
    handoffs: int
    handoff_tokens: int
    # Faults.
    availability: float
    crashes: int
    lost_kv_tokens: int
    failovers: int
    failover_reprefill_tokens: int
    post_crash_p99: float
    post_crash_mean: float
    # Per-QoS-class scorecard.
    outcomes: dict[str, ClassOutcome]

    def class_attainment(self, qos_class: str) -> float:
        outcome = self.outcomes.get(qos_class)
        return outcome.attainment if outcome is not None else 0.0

    @property
    def class_goodput(self) -> float:
        """Attained tokens/s summed over every QoS class."""
        return sum(
            o.goodput_tokens_per_s(self.makespan) for o in self.outcomes.values()
        )


@dataclass
class SystemCurve:
    """One variant's points across a sweep's grid."""

    name: str
    points: list[Point] = field(default_factory=list)

    def goodput(self, target: float = 0.90) -> float:
        return max_rate_under_slo(
            [p.rate for p in self.points],
            [p.attainment for p in self.points],
            target=target,
        )

    def censored(self, target: float = 0.90) -> bool:
        """True when :meth:`goodput` is only a lower bound: the sweep's
        top rate still meets ``target``."""
        return goodput_is_censored(
            [p.rate for p in self.points],
            [p.attainment for p in self.points],
            target=target,
        )


def phase_slo_attainment(result: ServeResult) -> tuple[int, float, float]:
    """(requests meeting both phase SLOs, TTFT P90, TPOT P90).

    TTFT is arrival to end of prefill (the first output token); TPOT is
    the mean inter-token gap over the remaining decode.  Unfinished and
    aborted requests attain nothing.  The P90s are nearest-rank.
    """
    attained = 0
    ttfts: list[float] = []
    tpots: list[float] = []
    for request in result.requests:
        if request.finish_time is None or request.prefill_end is None:
            continue
        ttft = request.prefill_end - request.arrival_time
        steps = max(1, request.output_len - 1)
        tpot = (request.finish_time - request.prefill_end) / steps
        ttfts.append(ttft)
        tpots.append(tpot)
        if ttft <= TTFT_SLO_S and tpot <= TPOT_SLO_S:
            attained += 1

    def p90(values: list[float]) -> float:
        if not values:
            return 0.0
        return sorted(values)[min(len(values) - 1, int(0.9 * len(values)))]

    return attained, p90(ttfts), p90(tpots)


def measure(
    result: ServeResult,
    ideal: IdealLatencyModel,
    variant: str,
    rate: float = 0.0,
    crash_time: float = 0.0,
) -> Point:
    """Score one run against ``ideal``'s deadlines.

    ``crash_time`` splits off the post-crash latencies: requests
    arriving at or after it (every request by default).
    """
    latency = summarize_latency(result)
    phase_attained, ttft_p90, tpot_p90 = phase_slo_attainment(result)
    per_replica, elastic = [result], None
    if isinstance(result, FleetResult):
        per_replica, elastic = result.per_replica, result.elastic
    load = fleet_load_report(per_replica)
    # A run without a control plane recorded nothing: all zeros.
    elastic = elastic or ElasticStats()
    cache = result.cache_stats or {}
    hits = cache.get("hit_tokens", 0)
    looked_up = hits + cache.get("miss_tokens", 0)
    makespan = result.makespan
    post_crash = [
        r.normalized_latency
        for r in result.finished_requests
        if r.arrival_time >= crash_time
    ]
    return Point(
        variant=variant,
        rate=rate,
        per_token=latency.per_token,
        per_token_p99=latency.per_token_p99,
        input_token=latency.input_token,
        output_token=latency.output_token,
        attainment=slo_report(result, ideal).attainment,
        finished=latency.finished,
        total=latency.total,
        aborted=len(result.aborted),
        scale_ups=sum(1 for e in result.scaling_events if e.kind == "scale_up"),
        makespan=makespan,
        phase_attained=phase_attained,
        phase_goodput=phase_attained / makespan if makespan else 0.0,
        ttft_p90=ttft_p90,
        tpot_p90=tpot_p90,
        hit_rate=hits / looked_up if looked_up else 0.0,
        saved_tokens=load.saved_prefill_tokens,
        tier_offloaded=int(cache.get("tier_offloaded_tokens", 0)),
        tier_swapped_in=int(cache.get("tier_swapped_in_tokens", 0)),
        token_imbalance=load.token_imbalance,
        replica_seconds=(
            elastic.replica_seconds(makespan)
            if elastic.capacity_timeline
            else len(per_replica) * makespan
        ),
        stolen=elastic.stolen_requests,
        reprefill_tokens=elastic.steal_reprefill_tokens,
        migrated_tokens=elastic.migrated_kv_tokens,
        handoffs=elastic.disagg_handoffs,
        handoff_tokens=elastic.disagg_handoff_tokens,
        availability=elastic.availability(makespan),
        crashes=elastic.crashes,
        lost_kv_tokens=elastic.lost_kv_tokens,
        failovers=elastic.failovers,
        failover_reprefill_tokens=elastic.failover_reprefill_tokens,
        post_crash_p99=float(np.percentile(post_crash, 99)) if post_crash else 0.0,
        post_crash_mean=float(np.mean(post_crash)) if post_crash else 0.0,
        outcomes=per_class_report(result, ideal),
    )


def point_count(nominal: float, scale: float, floor: int = 1) -> int:
    """Requests (or sessions) one sweep point draws: ``nominal`` scaled,
    never below ``floor`` and never below one, since an empty trace
    measures nothing."""
    return max(1, floor, int(nominal * scale))


def rate_traces(
    dataset, rates: Sequence[float], window_s: float, seed: int, scale: float
) -> Iterable[tuple[float, list[Request]]]:
    """A Poisson trace per rate, covering ``window_s`` seconds of
    arrivals but at least :data:`MIN_REQUESTS` requests (both scaled)."""
    for rate in rates:
        count = point_count(rate * window_s, scale, int(MIN_REQUESTS * scale))
        yield rate, make_trace(dataset, rate=rate, num_requests=count, seed=seed)


def sweep(
    variants: Mapping[str, Build],
    traces: Iterable[tuple[float, list[Request]]],
    ideal: IdealLatencyModel,
    crash_time: float = 0.0,
) -> list[SystemCurve]:
    """Serve every variant on each ``(rate, trace)`` and measure it.

    Each run builds its variant afresh from the trace and replays its
    own clone of it, so no run sees another's state.
    """
    curves = [SystemCurve(name) for name in variants]
    for rate, trace in traces:
        for curve, build in zip(curves, variants.values()):
            result = build(trace).run(clone_requests(trace))
            curve.points.append(measure(result, ideal, curve.name, rate, crash_time))
    return curves


def compare(
    variants: Mapping[str, Build],
    trace: list[Request],
    ideal: IdealLatencyModel,
    crash_time: float = 0.0,
) -> list[Point]:
    """Serve every variant on one trace: one point each, in order."""
    curves = sweep(variants, [(0.0, trace)], ideal, crash_time)
    return [curve.points[0] for curve in curves]


def loongserve_fleet(**options) -> Build:
    """A variant: a LoongServe fleet made with ``options`` for each trace."""
    return lambda trace: make_fleet("loongserve", requests=trace, **options)


def rows(curves: Sequence[SystemCurve]) -> list[Point]:
    """A sweep's points curve by curve: its table's row order."""
    return [point for curve in curves for point in curve.points]
