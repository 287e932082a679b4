"""Replaying a run: blame attribution, request stories, telemetry diffs.

*Where did each request's time go?*  End-to-end latency percentiles
say a run got slower; they never say *why*.  This module decomposes
every finished request's end-to-end time into an **exact partition** of
blame categories — the segments sum to the measured latency, so no
millisecond is double-counted or silently dropped:

``queue_wait``
    Admission/scheduling wait (``queued`` spans, including limbo holds
    while nothing in the fleet can place the request).
``prefill_compute``
    Prefill execution, net of swap-in debt.
``tier_swap_in``
    Cold-tier KV swap-in latency priced into the prefill launch (the
    ``swap_s`` span attribute from the tiered prefix store).
``decode_ideal`` / ``decode_stretch``
    Decode time split against the cost model's contention-free recipe
    (the ``ideal_decode_s`` attribute stamped at finish): the ideal
    share is what an unloaded replica would have spent, the stretch is
    batching/interference/queueing inside decode.
``preempted``
    Preemption-by-recomputation waits.
``migration``
    Priced cross-replica KV handoffs (elastic steals with
    ``--migrate-kv``).
``disagg_prefill`` / ``disagg_transfer``
    The disaggregated two-stage pipeline: shadow prefill on the prefill
    pool, then the priced fabric handoff to the decode pool.
``failover``
    Crash-to-redispatch gaps (includes the re-prefill wait the orphan
    inherits).
``unattributed``
    Any residue the spans do not cover.  A correctly instrumented run
    attributes zero here; the category existing at all is what makes
    the partition *exact* rather than best-effort.

The decomposition consumes the span timeline (:class:`Tracer` spans are
contiguous by construction: each transition closes the previous span at
the instant it opens the next) and feeds three consumers: per-QoS blame
tables, ASCII per-request blame timelines, and run-to-run regression
diffs.  :func:`request_story` narrates one request's lifecycle (spans
interleaved with every control-plane decision that touched it) and
:func:`diff_telemetry` compares two runs' sampled series.

:func:`attribute`, :func:`request_ids`, :func:`request_story` and
:func:`diff_telemetry` read an :class:`~repro.obs.observe.Observability`,
live or read back from its export by :func:`~repro.obs.export.load_export`;
``python -m repro.experiments forensics`` drives them on export files.
"""

from __future__ import annotations

import math

from repro.obs.tracer import SHADOW_REQUEST_OFFSET

#: Blame categories in presentation order (chronological-ish).
CATEGORIES = (
    "queue_wait",
    "prefill_compute",
    "tier_swap_in",
    "decode_ideal",
    "decode_stretch",
    "preempted",
    "migration",
    "disagg_prefill",
    "disagg_transfer",
    "failover",
    "unattributed",
)

#: One-character glyph per category for ASCII blame timelines.
GLYPHS = {
    "queue_wait": "q",
    "prefill_compute": "P",
    "tier_swap_in": "s",
    "decode_ideal": "D",
    "decode_stretch": "~",
    "preempted": "p",
    "migration": "m",
    "disagg_prefill": "f",
    "disagg_transfer": "t",
    "failover": "x",
    "unattributed": "?",
}

#: Span phase -> blame category for the phases that map one-to-one.
_PHASE_CATEGORY = {
    "queued": "queue_wait",
    "preempted": "preempted",
    "migrating": "migration",
    "failover": "failover",
}

#: Max |sum(blame) - e2e| before :func:`verify_partition` flags a request.
PARTITION_TOLERANCE = 1e-9


class RequestBlame:
    """One request's exact latency partition.

    ``pieces`` is the chronological ``(category, seconds)`` sequence the
    timeline renders; ``segments`` is the per-category roll-up.  Both
    sum (via :func:`math.fsum`) to ``e2e = finish - start``.
    """

    __slots__ = (
        "request_id", "qos", "session", "replica",
        "start", "finish", "pieces", "segments",
    )

    def __init__(self, request_id, qos, session, replica, start, finish, pieces):
        self.request_id = request_id
        self.qos = qos
        self.session = session
        self.replica = replica
        self.start = start
        self.finish = finish
        self.pieces = pieces
        segments = {}
        for category in CATEGORIES:
            values = [sec for cat, sec in pieces if cat == category]
            if values:
                segments[category] = math.fsum(values)
        self.segments = segments

    @property
    def e2e(self) -> float:
        return self.finish - self.start

    @property
    def blame_total(self) -> float:
        return math.fsum(sec for _, sec in self.pieces)

    def dominant(self) -> str:
        """The category carrying the most blame (ties: category order)."""
        if not self.segments:
            return "unattributed"
        return max(
            self.segments,
            key=lambda c: (self.segments[c], -CATEGORIES.index(c)),
        )

    def timeline(self, width: int = 60) -> str:
        """Largest-remainder ASCII bar: one glyph column per time share."""
        total = self.e2e
        if total <= 0.0 or width <= 0 or not self.pieces:
            return ""
        quotas = [(sec / total) * width for _, sec in self.pieces]
        chars = [int(q) for q in quotas]
        short = width - sum(chars)
        order = sorted(
            range(len(quotas)), key=lambda i: (chars[i] - quotas[i], i)
        )
        for i in order[:short]:
            chars[i] += 1
        return "".join(
            GLYPHS.get(cat, "?") * n
            for (cat, _), n in zip(self.pieces, chars)
            if n
        )


class BlameReport:
    """The per-request partitions for one run, plus aggregation."""

    def __init__(self, requests: dict[int, RequestBlame]) -> None:
        self.requests = requests

    def __len__(self) -> int:
        return len(self.requests)

    def totals(self) -> dict[str, float]:
        """Fleet-wide seconds per category."""
        out: dict[str, float] = {}
        for category in CATEGORIES:
            values = [
                b.segments[category]
                for b in self.requests.values()
                if category in b.segments
            ]
            if values:
                out[category] = math.fsum(values)
        return out

    def by_qos(self) -> dict:
        """Blame totals grouped by effective (post-downgrade) QoS class.

        Returns ``{cls: {"count": n, "e2e": total_s, "segments":
        {category: total_s}}}``; untagged requests group as
        ``"default"``.
        """
        groups: dict = {}
        for blame in self.requests.values():
            bucket = groups.setdefault(
                "default" if blame.qos is None else blame.qos,
                {"count": 0, "e2e": 0.0, "segments": {}},
            )
            bucket["count"] += 1
            bucket["e2e"] += blame.e2e
            for category, seconds in blame.segments.items():
                bucket["segments"][category] = (
                    bucket["segments"].get(category, 0.0) + seconds
                )
        return groups

    def slowest(self, top: int = 5) -> list[RequestBlame]:
        return sorted(
            self.requests.values(), key=lambda b: (-b.e2e, b.request_id)
        )[:top]


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------


def attribute(obs) -> BlameReport:
    """Build the exact blame partition for every finished request.

    ``obs`` is a live :class:`~repro.obs.observe.Observability` or one
    :func:`~repro.obs.export.load_export` read back; a live tracer is
    finalized first so straggler spans carry their ``open`` tag.  Blame
    is defined over completed lifecycles: shadow prefill clones
    (disaggregated pipeline) and requests whose last span is tagged
    ``aborted`` or ``open`` (still in flight at shutdown) are skipped.
    A request's window runs from its first span's start to its last
    span's end.
    """
    obs.tracer.finalize()
    by_request: dict[int, list] = {}
    for span in obs.tracer.spans:
        if span.request_id < SHADOW_REQUEST_OFFSET:
            by_request.setdefault(span.request_id, []).append(span)

    blames: dict[int, RequestBlame] = {}
    for request_id, spans in by_request.items():
        spans.sort(key=lambda s: (s.start, s.end))
        last = spans[-1]
        if last.attrs.get("aborted") or last.attrs.get("open"):
            continue
        qos = session = None
        raw: list[tuple[str, float]] = []
        ideal_attr = 0.0
        cursor = start = spans[0].start
        for span in spans:
            attrs = span.attrs
            if span.start > cursor:
                raw.append(("unattributed", span.start - cursor))
                cursor = span.start
            seg = span.end - cursor
            if seg <= 0.0:
                continue
            cursor = span.end
            phase = span.phase
            if phase == "prefill":
                swap = min(max(attrs.get("swap_s", 0.0), 0.0), seg)
                if swap > 0.0:
                    raw.append(("tier_swap_in", swap))
                raw.append(("prefill_compute", seg - swap))
            elif phase == "decode":
                raw.append(("_decode", seg))
                ideal_attr = max(ideal_attr, attrs.get("ideal_decode_s", 0.0))
            elif phase == "disagg_handoff":
                stage = attrs.get("stage", "prefill")
                raw.append(
                    (
                        "disagg_transfer"
                        if stage == "transfer"
                        else "disagg_prefill",
                        seg,
                    )
                )
            else:
                raw.append((_PHASE_CATEGORY.get(phase, "unattributed"), seg))
            if qos is None:
                qos = attrs.get("qos")
            if session is None:
                session = attrs.get("session")

        # Split decode against the ideal recipe: the ideal budget is
        # consumed front-to-back, the excess is contention stretch.
        decode_total = math.fsum(sec for cat, sec in raw if cat == "_decode")
        remaining_ideal = min(ideal_attr, decode_total)
        pieces: list[tuple[str, float]] = []
        for category, seconds in raw:
            if category != "_decode":
                pieces.append((category, seconds))
                continue
            take = min(seconds, remaining_ideal)
            remaining_ideal -= take
            if take > 0.0:
                pieces.append(("decode_ideal", take))
            if seconds - take > 0.0:
                pieces.append(("decode_stretch", seconds - take))

        blames[request_id] = RequestBlame(
            request_id, qos, session, last.replica, start, last.end, pieces
        )
    return BlameReport(blames)


def verify_partition(report: BlameReport) -> list[tuple[int, float]]:
    """Requests whose blame does **not** sum to their e2e latency (within
    ``PARTITION_TOLERANCE``).

    Returns ``(request_id, error)`` pairs; an empty list is the exact-
    partition invariant holding for the whole run.
    """
    bad = []
    for request_id in sorted(report.requests):
        blame = report.requests[request_id]
        error = abs(blame.blame_total - blame.e2e)
        if error > PARTITION_TOLERANCE:
            bad.append((request_id, error))
    return bad


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _format_table(rows, headers) -> list[str]:
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()
    ]
    for row in rows:
        lines.append(
            "  ".join(
                cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            ).rstrip()
        )
    return lines


def render_report(
    report: BlameReport, top: int = 5, width: int = 60
) -> str:
    """The full forensics report: totals, per-QoS blame, slow-request
    timelines with a glyph legend."""
    if not report.requests:
        return "no finished requests to attribute"
    count = len(report.requests)
    total_e2e = math.fsum(b.e2e for b in report.requests.values())
    lines = [
        f"latency forensics: {count} requests, "
        f"{total_e2e:.4f}s end-to-end "
        f"(mean {total_e2e / count:.4f}s)",
        "",
        "blame by category",
    ]
    totals = report.totals()
    rows = [
        (
            category,
            f"{totals[category]:.4f}",
            f"{totals[category] / total_e2e * 100:5.1f}%",
            f"{totals[category] / count:.4f}",
        )
        for category in CATEGORIES
        if category in totals
    ]
    lines.extend(
        "  " + line
        for line in _format_table(
            rows, ("category", "total s", "share", "s/req")
        )
    )

    by_qos = report.by_qos()
    if len(by_qos) > 1 or "default" not in by_qos:
        lines.extend(["", "blame by QoS class"])
        rows = []
        for cls in sorted(by_qos):
            bucket = by_qos[cls]
            dominant = max(
                bucket["segments"],
                key=lambda c: (bucket["segments"][c], -CATEGORIES.index(c)),
            )
            rows.append(
                (
                    str(cls),
                    str(bucket["count"]),
                    f"{bucket['e2e'] / bucket['count']:.4f}",
                    f"{dominant} "
                    f"({bucket['segments'][dominant] / bucket['e2e'] * 100:.0f}%)",
                )
            )
        lines.extend(
            "  " + line
            for line in _format_table(
                rows, ("class", "reqs", "mean e2e", "dominant blame")
            )
        )

    lines.extend(["", f"slowest {min(top, count)} requests"])
    for blame in report.slowest(top):
        tags = []
        if blame.qos is not None:
            tags.append(f"qos={blame.qos}")
        if blame.session is not None:
            tags.append(f"session={blame.session}")
        tags.append(f"replica={blame.replica}")
        lines.append(
            f"  #{blame.request_id}  e2e={blame.e2e:.4f}s  "
            f"dominant={blame.dominant()}  " + " ".join(tags)
        )
        lines.append(f"    |{blame.timeline(width)}|")
    legend = "  ".join(
        f"{GLYPHS[c]}={c}" for c in CATEGORIES
    )
    lines.extend(["", f"legend: {legend}"])
    return "\n".join(lines)


def diff_blame(
    base: BlameReport,
    new: BlameReport,
    label_a: str = "A",
    label_b: str = "B",
    top: int = 5,
) -> str:
    """Attribute a run-to-run latency delta to blame categories.

    Compares mean per-request seconds per category between two runs,
    then lists the top-K most-regressed individual requests (matched by
    request id) with the category that moved most for each.
    """
    if not base.requests or not new.requests:
        return "blame diff needs finished requests in both runs"
    n_a, n_b = len(base.requests), len(new.requests)
    mean_a = math.fsum(b.e2e for b in base.requests.values()) / n_a
    mean_b = math.fsum(b.e2e for b in new.requests.values()) / n_b
    lines = [
        f"blame diff: {label_a} ({n_a} reqs, mean e2e {mean_a:.4f}s) -> "
        f"{label_b} ({n_b} reqs, mean e2e {mean_b:.4f}s, "
        f"{mean_b - mean_a:+.4f}s)",
        "",
        "mean seconds per request by category",
    ]
    totals_a, totals_b = base.totals(), new.totals()
    rows = []
    for category in CATEGORIES:
        a = totals_a.get(category, 0.0) / n_a
        b = totals_b.get(category, 0.0) / n_b
        if a == 0.0 and b == 0.0:
            continue
        rows.append(
            (category, f"{a:.4f}", f"{b:.4f}", f"{b - a:+.4f}")
        )
    lines.extend(
        "  " + line
        for line in _format_table(
            rows, ("category", label_a, label_b, "delta")
        )
    )

    common = sorted(set(base.requests) & set(new.requests))
    regressed = sorted(
        (
            (
                new.requests[rid].e2e - base.requests[rid].e2e,
                rid,
            )
            for rid in common
        ),
        key=lambda t: (-t[0], t[1]),
    )
    regressed = [(delta, rid) for delta, rid in regressed if delta > 0.0][:top]
    if regressed:
        lines.extend(["", f"top {len(regressed)} regressed requests"])
        for delta, rid in regressed:
            seg_a = base.requests[rid].segments
            seg_b = new.requests[rid].segments
            moved = max(
                CATEGORIES,
                key=lambda c: abs(seg_b.get(c, 0.0) - seg_a.get(c, 0.0)),
            )
            lines.append(
                f"  #{rid}  e2e {base.requests[rid].e2e:.4f}s -> "
                f"{new.requests[rid].e2e:.4f}s ({delta:+.4f}s)  "
                f"biggest mover: {moved} "
                f"({seg_b.get(moved, 0.0) - seg_a.get(moved, 0.0):+.4f}s)"
            )
    elif common:
        lines.extend(["", "no regressed requests among matched ids"])
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Request stories and telemetry diffs
# ----------------------------------------------------------------------

#: Audit payload keys that name a request — used to pull the decisions
#: that touched a given request into its story.
_REQUEST_KEYS = ("request", "victim", "beneficiary")


def request_ids(obs) -> list[int]:
    """Every *served* request id with at least one span.

    Shadow prefill clones are internal machinery, not arrivals, so they
    are filtered here; :func:`request_story` still narrates one if its
    offset id is asked for explicitly.
    """
    return sorted(
        {
            span.request_id
            for span in obs.tracer.spans
            if span.request_id < SHADOW_REQUEST_OFFSET
        }
    )


def request_story(obs, request_id: int) -> str:
    """One request's lifecycle as a chronological timeline.

    Its spans and the audit records that mention it are merged into one
    time-ordered narrative.
    """
    spans = obs.tracer.spans_for(request_id)
    audits = [
        record
        for record in obs.tracer.records
        if any(record.payload.get(key) == request_id for key in _REQUEST_KEYS)
    ]
    if not spans and not audits:
        known = request_ids(obs)
        hint = (
            f" (trace has requests {known[0]}..{known[-1]})" if known else ""
        )
        return f"request {request_id}: not found in trace{hint}"

    events: list[tuple[float, int, str]] = []
    for span in spans:
        extra = (
            "  " + " ".join(f"{k}={v}" for k, v in span.attrs.items())
            if span.attrs
            else ""
        )
        where = (
            f"replica-{span.replica}" if span.replica >= 0 else "control-plane"
        )
        events.append(
            (
                span.start,
                1,
                f"[{span.start:10.4f} → {span.end:10.4f}] "
                f"{span.phase:<10} @{where}"
                f"  ({span.duration:.4f}s){extra}",
            )
        )
    for audit in audits:
        payload = " ".join(f"{k}={v}" for k, v in audit.payload.items())
        where = f"replica-{audit.replica}" if audit.replica >= 0 else "fleet"
        events.append(
            (
                audit.time,
                0,
                f"[{audit.time:10.4f}]              • "
                f"{audit.kind:<16} {audit.component}@{where}  {payload}",
            )
        )
    events.sort(key=lambda e: (e[0], e[1]))

    total = sum(span.duration for span in spans)
    phases: dict[str, float] = {}
    for span in spans:
        phases[span.phase] = phases.get(span.phase, 0.0) + span.duration
    breakdown = "  ".join(f"{k}={v:.4f}s" for k, v in sorted(phases.items()))
    header = (
        f"request {request_id}: {len(spans)} spans over {total:.4f}s, "
        f"{len(audits)} control-plane decisions\n  {breakdown}"
    )
    return header + "\n" + "\n".join(f"  {line}" for _, _, line in events)


def _series_stats(points: list) -> tuple[float, float]:
    values = [v for _, v in points]
    if not values:
        return 0.0, 0.0
    return sum(values) / len(values), max(values)


def diff_telemetry(a, b, label_a: str = "A", label_b: str = "B") -> str:
    """Side-by-side comparison of two runs' telemetry.

    Histogram-typed metrics (``server.ttft``, ``server.per_token_latency``,
    …) are compared from their histograms — count, true mean, and tail
    quantiles — instead of the sampled series, whose points are
    *running means*: averaging those again produced a misleading
    mean-of-means that over-weighted the early, emptier samples.
    """
    hist_a, hist_b = a.metrics.histograms(), b.metrics.histograms()
    hist_names = sorted(set(hist_a) & set(hist_b))
    series_a, series_b = a.metrics.series, b.metrics.series
    metrics = sorted((set(series_a) | set(series_b)) - set(hist_names))
    if not metrics and not hist_names:
        return "no telemetry series in either run"
    lines = []
    if metrics:
        width = max(len(m) for m in metrics)
        lines.append(
            f"{'metric':<{width}}  {label_a + ' mean':>12} {label_b + ' mean':>12} "
            f"{'Δ mean':>9}  {label_a + ' max':>12} {label_b + ' max':>12}"
        )
        for metric in metrics:
            mean_a, max_a = _series_stats(series_a.get(metric, []))
            mean_b, max_b = _series_stats(series_b.get(metric, []))
            if mean_a:
                delta = f"{(mean_b - mean_a) / abs(mean_a) * 100:+8.1f}%"
            else:
                delta = "     n/a"
            lines.append(
                f"{metric:<{width}}  {mean_a:>12.4g} {mean_b:>12.4g} {delta:>9}  "
                f"{max_a:>12.4g} {max_b:>12.4g}"
            )
    if hist_names:
        if metrics:
            lines.append("")
        width = max(len(m) for m in hist_names)
        lines.append(
            f"{'distribution':<{width}}  {'stat':<5} "
            f"{label_a:>12} {label_b:>12} {'Δ':>9}"
        )
        for metric in hist_names:
            ha, hb = hist_a[metric], hist_b[metric]
            stats = [
                ("count", float(ha.count), float(hb.count)),
                ("mean", ha.value, hb.value),
                ("p50", ha.quantile(0.5), hb.quantile(0.5)),
                ("p90", ha.quantile(0.9), hb.quantile(0.9)),
                ("p99", ha.quantile(0.99), hb.quantile(0.99)),
            ]
            for i, (stat, va, vb) in enumerate(stats):
                name = metric if i == 0 else ""
                if va and va == vb:
                    delta = "        ="
                elif va:
                    delta = f"{(vb - va) / abs(va) * 100:+8.1f}%"
                else:
                    delta = "     n/a"
                lines.append(
                    f"{name:<{width}}  {stat:<5} {va:>12.4g} {vb:>12.4g} {delta:>9}"
                )
    return "\n".join(lines)
