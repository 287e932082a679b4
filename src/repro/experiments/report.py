"""Plain-text rendering of experiment results.

The reproduction has no plotting dependency; every figure is rendered as
an aligned text table whose rows/series match the paper's plot, plus the
paper-reported anchor values for easy side-by-side reading.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.experiments.endtoend import GoodputRatio
from repro.experiments.harness import Point, SystemCurve
from repro.experiments.microbench import (
    Figure2Row,
    Figure3Row,
    Figure14aRow,
    Figure14bRow,
    Figure15Point,
)


def table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Align columns; headers underlined.

    The one shared row formatter: every experiment table (cost-model
    figures, serving sweeps, QoS per-class breakdowns) renders through
    here instead of hand-aligning f-strings.
    """
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*row) for row in rows)
    return "\n".join(lines)


def render_figure2(rows: list[Figure2Row]) -> str:
    body = []
    for row in rows:
        times = row.times
        tps = sorted(times)
        body.append(
            [
                row.phase,
                str(row.batch_size),
                str(row.length),
                *(f"{times[tp] * 1000:.2f}" for tp in tps),
                f"{row.speedup_at_max_tp:.2f}x",
            ]
        )
    tps = sorted(rows[0].times)
    return table(
        ["phase", "BS", "len", *(f"TP={tp} (ms)" for tp in tps), "speedup 2->8"],
        body,
    )


def render_figure3(rows: list[Figure3Row]) -> str:
    labels = list(rows[0].times)
    body = [
        [
            row.phase,
            str(row.batch_size),
            str(row.length),
            *(f"{row.times[label]:.4f}" for label in labels),
            row.best,
        ]
        for row in rows
    ]
    return table(["phase", "BS", "len", *(f"{l} (s)" for l in labels), "best"], body)


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f}"


# Every serving-table column, by name: (header, cell of one point).
COLUMNS: dict[str, tuple[str, Callable[[Point], str]]] = {
    # The variant's name, under what its sweep compares.
    "system": ("system", lambda p: p.variant),
    "router": ("router", lambda p: p.variant),
    "variant": ("variant", lambda p: p.variant),
    # Figures 10-13: rate and the §7.1 latencies in seconds per token.
    "rate_req_s": ("rate(req/s)", lambda p: f"{p.rate:.2f}"),
    "per_token_s": ("tok(s/t)", lambda p: f"{p.per_token:.4f}"),
    "input_s": ("in(s/t)", lambda p: f"{p.input_token:.4f}"),
    "output_s": ("out(s/t)", lambda p: f"{p.output_token:.4f}"),
    "slo": ("SLO", lambda p: f"{p.attainment * 100:.0f}%"),
    "finished": ("finished", lambda p: f"{p.finished}/{p.total}"),
    "aborted": ("aborted", lambda p: str(p.aborted)),
    # Fleet sweeps: the same latencies in milliseconds per token.
    "rate": ("rate", lambda p: f"{p.rate:.1f}"),
    "per_token_ms": ("per-tok ms", lambda p: _ms(p.per_token)),
    "input_ms": ("input ms", lambda p: _ms(p.input_token)),
    "output_ms": ("output ms", lambda p: _ms(p.output_token)),
    "p99_ms": ("p99 ms", lambda p: _ms(p.per_token_p99)),
    "attain": ("attain", lambda p: f"{p.attainment:.1%}"),
    "fin_total": ("fin/total", lambda p: f"{p.finished}/{p.total}"),
    "imbalance": ("imb", lambda p: f"{p.token_imbalance:.2f}"),
    "hit_rate": ("hit-rate", lambda p: f"{p.hit_rate:.1%}"),
    "saved_tokens": ("saved-tok", lambda p: f"{p.saved_tokens:,}"),
    # Elastic control.
    "replica_s": ("repl-s", lambda p: f"{p.replica_seconds:.0f}"),
    "steals": ("steals", lambda p: str(p.stolen)),
    "steal_reprefill": ("re-prefill", lambda p: f"{p.reprefill_tokens:,}"),
    "migrated": ("migrated", lambda p: f"{p.migrated_tokens:,}"),
    # Faults.
    "post_crash_p99_ms": ("post-crash p99 ms", lambda p: _ms(p.post_crash_p99)),
    "availability": ("avail", lambda p: f"{p.availability:.1%}"),
    "lost_kv": ("lost-kv", lambda p: f"{p.lost_kv_tokens:,}"),
    "failovers": ("failovers", lambda p: str(p.failovers)),
    "failover_reprefill": (
        "re-prefill", lambda p: f"{p.failover_reprefill_tokens:,}"
    ),
    # Disaggregation: phase SLOs, handoffs and KV tiers.
    "phase_attained": ("attained", lambda p: f"{p.phase_attained}/{p.total}"),
    "phase_goodput": ("goodput req/s", lambda p: f"{p.phase_goodput:.2f}"),
    "ttft_p90": ("ttft p90 s", lambda p: f"{p.ttft_p90:.3f}"),
    "tpot_p90": ("tpot p90 ms", lambda p: f"{p.tpot_p90 * 1000:.1f}"),
    "handoffs": ("handoffs", lambda p: str(p.handoffs)),
    "handoff_tokens": ("handoff tokens", lambda p: f"{p.handoff_tokens:,}"),
    "tier_offloaded": ("tier offl", lambda p: f"{p.tier_offloaded:,}"),
    "tier_swapped_in": ("tier swap-in", lambda p: f"{p.tier_swapped_in:,}"),
    # QoS: per-class attainment and goodput over every class.
    "interactive": ("interactive", lambda p: f"{p.class_attainment('interactive'):.1%}"),
    "standard": ("standard", lambda p: f"{p.class_attainment('standard'):.1%}"),
    "batch": ("batch", lambda p: f"{p.class_attainment('batch'):.1%}"),
    "class_goodput": ("goodput tok/s", lambda p: f"{p.class_goodput:,.0f}"),
}


def render_points(points: Sequence[Point], columns: Sequence[str]) -> str:
    """One row per point, with the named :data:`COLUMNS`."""
    specs = [COLUMNS[name] for name in columns]
    return table(
        [header for header, _ in specs],
        [[cell(point) for _, cell in specs] for point in points],
    )


def render_goodput(curves: list[SystemCurve]) -> str:
    """Each curve's goodput; ``≥`` marks a censored one, whose sweep
    still met the target at its top rate."""
    body = [
        [
            curve.name,
            f"{'≥' if curve.censored() else ''}{curve.goodput():.2f}",
        ]
        for curve in curves
    ]
    return table(["system", "P90 goodput (req/s)"], body)


def render_ratio(ratio: GoodputRatio) -> str:
    """A goodput ratio with the bound its censored sides make it."""
    text = f"{ratio.value:.2f}x"
    if ratio.numerator_censored and ratio.denominator_censored:
        return f"{text} (both goodputs censored: no bound)"
    if ratio.numerator_censored:
        return f"≥{text}"
    if ratio.denominator_censored:
        return f"≤{text}"
    return text


def render_figure14a(rows: list[Figure14aRow]) -> str:
    body = [
        [
            str(row.batch_size),
            str(row.length),
            f"{row.plain_prefill:.3f}",
            f"{row.proactive_overhead * 100:.2f}%",
            f"{row.reactive_overhead * 100:.2f}%",
        ]
        for row in rows
    ]
    return table(
        ["BS", "len", "prefill (s)", "proactive ovh", "reactive ovh"], body
    )


def render_figure14b(rows: list[Figure14bRow]) -> str:
    body = [
        [
            str(row.batch_size),
            str(row.length),
            *(f"{row.times[m] * 1000:.2f}" for m in (1, 2, 4)),
            f"{row.speedup_4_masters:.2f}x",
        ]
        for row in rows
    ]
    return table(
        ["BS", "len", "1 master (ms)", "2 masters (ms)", "4 masters (ms)", "speedup"],
        body,
    )


def render_class_table(outcomes, makespan: float) -> str:
    """Per-QoS-class breakdown (``repro.metrics.qos.ClassOutcome``).

    Rows render in tier order — tightest deadline scale first — not
    alphabetically.
    """
    rows = []
    for name in sorted(
        outcomes, key=lambda n: (outcomes[n].deadline_scale, n)
    ):
        o = outcomes[name]
        rows.append(
            [
                o.qos_class,
                f"{o.deadline_scale:.0f}x",
                str(o.submitted),
                str(o.finished),
                f"{o.attainment:.1%}",
                f"{o.goodput_tokens_per_s(makespan):,.0f}",
                str(o.rejected),
                str(o.downgraded),
                str(o.preempted),
            ]
        )
    return table(
        ["class", "slo", "submitted", "finished", "attain", "goodput tok/s",
         "rejected", "downgraded", "preempted"],
        rows,
    )


def render_figure15(points: list[Figure15Point], limit: int = 30) -> str:
    body = [
        [
            p.strategy,
            str(p.batch_size),
            str(p.length),
            f"{p.predicted:.3f}",
            f"{p.measured:.3f}",
            f"{p.deviation * 100:.2f}%",
        ]
        for p in points[:limit]
    ]
    return table(["strategy", "BS", "len", "pred (s)", "real (s)", "dev"], body)
