"""Normalised latency metrics (§7.1 "Metrics").

* normalised per-token latency — mean of end-to-end latency / sequence
  length,
* normalised input latency — mean of prefill-phase time / input length,
* normalised output latency — mean of decode-phase time / output length.

These are the three columns of Figures 10 and 11.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.types import ServeResult


@dataclass(frozen=True)
class LatencySummary:
    """Mean and tail statistics of the three normalised latencies."""

    per_token: float
    input_token: float
    output_token: float
    finished: int
    total: int
    # Deep-tail percentile the elastic-fleet experiments compare on —
    # burst absorption shows up in the worst requests, not the mean.
    per_token_p99: float = float("inf")


def summarize_latency(result: ServeResult) -> LatencySummary:
    """Aggregate a run's finished requests into the paper's metrics."""
    finished = result.finished_requests
    if not finished:
        return LatencySummary(
            per_token=float("inf"),
            input_token=float("inf"),
            output_token=float("inf"),
            finished=0,
            total=len(result.requests),
        )
    per_token = [r.normalized_latency for r in finished]
    input_token = [r.normalized_input_latency for r in finished]
    output_token = [
        r.normalized_output_latency for r in finished if r.output_len > 1
    ]
    return LatencySummary(
        per_token=float(np.mean(per_token)),
        input_token=float(np.mean(input_token)),
        output_token=float(np.mean(output_token)) if output_token else 0.0,
        finished=len(finished),
        total=len(result.requests),
        per_token_p99=float(np.percentile(per_token, 99)),
    )
