"""Plain-text rendering of experiment results.

The reproduction has no plotting dependency; every figure is rendered as
an aligned text table whose rows/series match the paper's plot, plus the
paper-reported anchor values for easy side-by-side reading.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.endtoend import GoodputRatio, SystemCurve
from repro.experiments.microbench import (
    Figure2Row,
    Figure3Row,
    Figure14aRow,
    Figure14bRow,
    Figure15Point,
)


def table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Align columns; headers underlined.

    The one shared row formatter: every experiment table (figures,
    fleet/sessions/elastic/fault sweeps, QoS per-class breakdowns)
    renders through here instead of hand-aligning f-strings.
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


def render_curves(curves: list[SystemCurve]) -> str:
    body = []
    for curve in curves:
        for point in curve.points:
            body.append(
                [
                    curve.system,
                    f"{point.rate:.2f}",
                    f"{point.per_token:.4f}",
                    f"{point.input_token:.4f}",
                    f"{point.output_token:.4f}",
                    f"{point.attainment * 100:.0f}%",
                    f"{point.finished}/{point.total}",
                    str(point.aborted),
                ]
            )
    return table(
        [
            "system",
            "rate(req/s)",
            "tok(s/t)",
            "in(s/t)",
            "out(s/t)",
            "SLO",
            "finished",
            "aborted",
        ],
        body,
    )


def render_goodput(curves: list[SystemCurve], target: float = 0.90) -> str:
    """Each curve's goodput; ``≥`` marks a censored one, whose sweep
    still met the target at its top rate."""
    body = [
        [
            curve.system,
            f"{'≥' if curve.censored(target) else ''}{curve.goodput(target):.2f}",
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
