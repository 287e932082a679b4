"""Instance-occupancy timelines rendered as text.

``occupancy_timeline`` turns a run's iteration rows (kept when the
run asked for them, :func:`repro.serving.keep_iteration_rows`) into a
per-DoP Gantt strip — the visual counterpart of Figure 6's request
lifecycle: you can see prefills grab wide groups, shrink to narrow
decode groups, and decode batches widen again on scale-up.

Legend: ``P`` = prefill iteration running, ``d`` = decode iteration,
``.`` = idle.  One row per concurrency slot, one column per time bucket;
a column shows as many ``P``/``d`` marks as instances were busy in that
bucket (weighted by each iteration's DoP).
"""

from __future__ import annotations

from repro.types import BatchStats, Phase, ServeResult


def _bucket_loads(
    stats: list[BatchStats], horizon: float, columns: int
) -> tuple[list[float], list[float]]:
    """Average instances busy per bucket, split by phase."""
    width = horizon / columns
    prefill = [0.0] * columns
    decode = [0.0] * columns
    for stat in stats:
        start = stat.start_time
        end = stat.start_time + stat.duration
        first = min(columns - 1, int(start / width))
        last = min(columns - 1, int(end / width)) if end > start else first
        for column in range(first, last + 1):
            lo = max(start, column * width)
            hi = min(end, (column + 1) * width)
            overlap = max(0.0, hi - lo) / width
            if stat.phase == Phase.PREFILL:
                prefill[column] += stat.dop * overlap
            else:
                decode[column] += stat.dop * overlap
    return prefill, decode


def occupancy_timeline(
    result: ServeResult,
    num_instances: int,
    columns: int = 72,
) -> str:
    """Render the run as a stacked text Gantt (one row per instance slot)."""
    stats = result.iterations.rows
    if not stats:
        return "(no iterations recorded)"
    horizon = result.makespan or max(s.start_time + s.duration for s in stats)
    if horizon <= 0:
        return "(empty timeline)"
    prefill, decode = _bucket_loads(stats, horizon, columns)

    rows = []
    for level in range(num_instances, 0, -1):
        cells = []
        for column in range(columns):
            p, d = prefill[column], decode[column]
            if p >= level - 0.5:
                cells.append("P")
            elif p + d >= level - 0.5:
                cells.append("d")
            else:
                cells.append(".")
        rows.append(f"inst {level:>2d} |" + "".join(cells) + "|")
    axis = f"        0s{' ' * (columns - 12)}{horizon:7.1f}s"
    legend = "        P = prefill   d = decode   . = idle"
    return "\n".join(rows + [axis, legend])


def utilization_summary(result: ServeResult, num_instances: int) -> dict[str, float]:
    """Fraction of instance-time spent in each phase over the makespan."""
    horizon = result.makespan
    if horizon <= 0:
        return {"prefill": 0.0, "decode": 0.0, "idle": 1.0}
    total = horizon * num_instances
    stats = result.iterations.rows
    prefill_time = sum(s.duration * s.dop for s in stats if s.phase == Phase.PREFILL)
    decode_time = sum(s.duration * s.dop for s in stats if s.phase == Phase.DECODE)
    prefill_frac = min(1.0, prefill_time / total)
    decode_frac = min(1.0 - prefill_frac, decode_time / total)
    return {
        "prefill": prefill_frac,
        "decode": decode_frac,
        "idle": max(0.0, 1.0 - prefill_frac - decode_frac),
    }
