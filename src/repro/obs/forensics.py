"""Critical-path blame attribution: *where did each request's time go?*

End-to-end latency percentiles say a run got slower; they never say
*why*.  This module decomposes every finished request's end-to-end time
into an **exact partition** of blame categories — the segments sum to
the measured latency, so no millisecond is double-counted or silently
dropped:

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
the instant it opens the next), works on a live
:class:`~repro.obs.observe.Observability`, a bare tracer, or a loaded
export, and feeds three consumers: aggregate blame tables (per QoS
class / replica / session), ASCII per-request blame timelines, and
run-to-run regression diffs (``explain --diff`` and ``python -m
repro.experiments forensics``).
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

    def aggregate(self, key: str = "qos") -> dict:
        """Blame totals grouped by ``qos``, ``replica``, or ``session``.

        Returns ``{group: {"count": n, "e2e": total_s, "segments":
        {category: total_s}}}``.  QoS groups use the effective (post-
        downgrade) class; requests without the key fall into a default
        bucket (``"default"`` / ``-1`` / ``None`` respectively).
        """
        if key not in ("qos", "replica", "session"):
            raise ValueError(f"unknown aggregation key {key!r}")
        default = {"qos": "default", "replica": -1, "session": None}[key]
        groups: dict = {}
        for blame in self.requests.values():
            group = getattr(blame, key)
            if group is None:
                group = default
            bucket = groups.setdefault(
                group, {"count": 0, "e2e": 0.0, "segments": {}}
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


def _normalize_spans(source) -> list[tuple]:
    """Coerce any span source into (request, phase, start, end, replica,
    attrs) tuples.

    Accepts an :class:`~repro.obs.observe.Observability`, a
    :class:`~repro.obs.tracer.Tracer`, a :func:`~repro.obs.export.load_export`
    dict, or a plain iterable of spans (objects or JSONL dicts).  Live
    tracers are finalized first so straggler spans carry their
    ``open`` tag instead of silently vanishing.
    """
    tracer = getattr(source, "tracer", None)
    if tracer is not None:
        source = tracer
    if hasattr(source, "finalize"):
        source.finalize()
    spans = getattr(source, "spans", None)
    if spans is None and isinstance(source, dict):
        spans = source.get("spans", [])
    if spans is None:
        spans = source
    out = []
    for span in spans:
        if isinstance(span, dict):
            out.append(
                (
                    span["request"], span["phase"],
                    span["start"], span["end"],
                    span.get("replica", 0), span.get("attrs") or {},
                )
            )
        else:
            out.append(
                (
                    span.request_id, span.phase,
                    span.start, span.end, span.replica, span.attrs,
                )
            )
    return out


def attribute(source, requests=None) -> BlameReport:
    """Build the exact blame partition for every finished request.

    ``source`` is any span source :func:`_normalize_spans` accepts.
    ``requests`` optionally supplies the served
    :class:`~repro.core.request.Request` objects: their
    ``arrival_time``/``finish_time`` become the authoritative
    end-to-end window (any lead/tail the spans miss lands in
    ``unattributed``) and their QoS/session fields backfill exports
    that predate the span attributes.

    Shadow prefill clones (disaggregated pipeline) and requests with
    synthesised span ends (``open=True`` — still in flight at shutdown)
    are excluded: blame is defined over completed lifecycles.
    """
    by_request: dict[int, list[tuple]] = {}
    skip: set[int] = set()
    for span in _normalize_spans(source):
        request_id = span[0]
        if request_id >= SHADOW_REQUEST_OFFSET:
            continue
        if span[5].get("open"):
            skip.add(request_id)
        by_request.setdefault(request_id, []).append(span)

    windows: dict[int, tuple] = {}
    if requests is not None:
        for request in requests:
            windows[request.request_id] = (
                request.arrival_time,
                request.finish_time,
                getattr(request, "effective_qos", None),
                getattr(request, "session_id", None),
            )

    blames: dict[int, RequestBlame] = {}
    for request_id, spans in by_request.items():
        if request_id in skip:
            continue
        spans.sort(key=lambda s: (s[2], s[3]))
        arrival, finish, qos, session = windows.get(
            request_id, (None, None, None, None)
        )
        if windows and request_id not in windows:
            continue  # spans for a request the caller says wasn't served
        if finish is None and windows:
            continue  # aborted: no end-to-end latency to partition
        start = spans[0][2] if arrival is None else min(arrival, spans[0][2])
        end = spans[-1][3] if finish is None else finish

        raw: list[tuple[str, float]] = []
        ideal_attr = 0.0
        cursor = start
        for _, phase, s_start, s_end, _, attrs in spans:
            if s_start > cursor:
                raw.append(("unattributed", s_start - cursor))
                cursor = s_start
            seg = s_end - cursor
            if seg <= 0.0:
                continue
            cursor = s_end
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
        if end > cursor:
            raw.append(("unattributed", end - cursor))

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
            request_id, qos, session, spans[-1][4], start, end, pieces
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

    by_qos = report.aggregate("qos")
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
