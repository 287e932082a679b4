"""SLO attainment and goodput (§7.1, §7.4).

The paper sets the latency SLO to 25x the inference latency — i.e. each
request's deadline scales with its own no-load latency.  The ideal
latency is computed from the cost model: prefill at the best available
DoP plus one decode step per output token at the launch-time strategy.
P90 goodput (Figures 12/13a) is the highest request rate at which at
least 90% of requests meet their SLO.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.costmodel.latency import RooflineCostModel
from repro.types import Request, ServeResult

DEFAULT_SLO_SCALE = 25.0
# Attainment a sweep's rate must reach to count toward P90 goodput.
GOODPUT_TARGET = 0.90


@dataclass(frozen=True)
class IdealLatencyModel:
    """No-load latency of a request on an otherwise empty cluster."""

    cost_model: RooflineCostModel
    tensor_parallel: int
    max_instances: int

    def ideal_latency(self, request: Request) -> float:
        instances = list(range(self.max_instances))
        prefill = self.cost_model.prefill_time(
            [request.input_len], instances, self.tensor_parallel
        )
        decode_steps = max(0, request.output_len - 1)
        decode = 0.0
        if decode_steps:
            per_step = self.cost_model.decode_time(
                [request.input_len + request.output_len // 2],
                instances[:1],
                self.tensor_parallel,
            )
            decode = decode_steps * per_step
        return prefill + decode

    def deadline(self, request: Request, scale: float = DEFAULT_SLO_SCALE) -> float:
        return scale * self.ideal_latency(request)


class CachedIdealLatency:
    """Memoised ``IdealLatencyModel.ideal_latency`` by request shape.

    Deadline scheduling, admission, and SLO routing all reprice the
    same (input_len, output_len) shapes constantly; one shared wrapper
    keeps the cost-model calls amortised (used by
    ``repro.qos.QoSPolicy`` and ``repro.fleet.router.SLORouter``).
    """

    def __init__(self, ideal: IdealLatencyModel) -> None:
        self.ideal = ideal
        self._cache: dict[tuple[int, int], float] = {}

    def __call__(self, request: Request) -> float:
        key = (request.input_len, request.output_len)
        cached = self._cache.get(key)
        if cached is None:
            cached = self.ideal.ideal_latency(request)
            self._cache[key] = cached
        return cached


@dataclass(frozen=True)
class SLOReport:
    """Attainment outcome of one run."""

    attained: int
    finished: int
    total: int

    @property
    def attainment(self) -> float:
        """Fraction of all submitted requests that met their deadline.

        Aborted/unfinished requests count as missed — a system that
        cannot serve a request certainly misses its SLO.
        """
        return self.attained / self.total if self.total else 0.0


def slo_report(result: ServeResult, ideal: IdealLatencyModel) -> SLOReport:
    """Attainment of the paper's SLO (``DEFAULT_SLO_SCALE`` x ideal)."""
    finished = result.finished_requests
    attained = 0
    for request in finished:
        if request.end_to_end_latency <= ideal.deadline(request):
            attained += 1
    total = len(result.requests) + len(result.aborted)
    return SLOReport(attained=attained, finished=len(finished), total=total)


def max_rate_under_slo(
    rates: Sequence[float], attainments: Sequence[float]
) -> float:
    """P90 goodput: the highest rate at which attainment >= GOODPUT_TARGET.

    Sweeps quantize the true knee to the swept grid, so the crossing is
    linearly interpolated between the last passing rate and the first
    failing rate above it, recovering the sub-grid goodput the sweep
    actually measured.

    Returns 0.0 when no swept rate meets the target (including the
    empty sweep).  When the top swept rate still meets it, that rate is
    returned, and it is only a lower bound (:func:`goodput_is_censored`).
    """
    if len(rates) != len(attainments):
        raise ValueError("rates and attainments must align")
    points = sorted(zip(rates, attainments))
    passing = [r for r, a in points if a >= GOODPUT_TARGET]
    if not passing:
        return 0.0
    best = max(passing)
    best_attainment = max(a for r, a in points if r == best)
    above = [(r, a) for r, a in points if r > best]
    if not above:
        return best  # the sweep never failed past the knee
    fail_rate, fail_attainment = above[0]
    drop = best_attainment - fail_attainment
    if drop <= 0:
        return best  # degenerate (flat or re-rising) — do not extrapolate
    fraction = (best_attainment - GOODPUT_TARGET) / drop
    return best + fraction * (fail_rate - best)


def goodput_is_censored(
    rates: Sequence[float], attainments: Sequence[float]
) -> bool:
    """True when the sweep's top rate still meets :data:`GOODPUT_TARGET`.

    The sweep then never failed past the knee, so
    :func:`max_rate_under_slo` returns the top rate: a lower bound on
    the goodput, not a measurement of it.
    """
    if len(rates) != len(attainments):
        raise ValueError("rates and attainments must align")
    if not rates:
        return False
    top = max(rates)
    return max(a for r, a in zip(rates, attainments) if r == top) >= GOODPUT_TARGET
