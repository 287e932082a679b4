"""Aggregate run statistics: throughput and scaling-event histograms."""

from __future__ import annotations

import math
from typing import Sequence

from repro.types import ScalingEvent, ServeResult


def throughput_tokens_per_s(result: ServeResult) -> float:
    """Total tokens (input + output) served per second of makespan."""
    if result.makespan <= 0:
        return 0.0
    tokens = sum(
        r.input_len + r.generated for r in result.requests if r.finished
    )
    return tokens / result.makespan


def scale_event_histogram(
    events: Sequence[ScalingEvent],
    kind: str,
    bin_seconds: float = 10.0,
    until: float | None = None,
) -> list[int]:
    """Events per time bin — the Figure 13b frequency plot."""
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    selected = [e for e in events if e.kind == kind]
    if not selected and until is None:
        return []
    horizon = until if until is not None else max(e.time for e in selected)
    num_bins = max(1, math.ceil(horizon / bin_seconds))
    bins = [0] * num_bins
    for event in selected:
        index = min(int(event.time // bin_seconds), num_bins - 1)
        bins[index] += 1
    return bins
