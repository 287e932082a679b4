"""Request-lifecycle spans and the control-plane audit log.

The :class:`Tracer` is the single sink every component writes into:

* **Spans** — each request's life is a sequence of non-overlapping,
  typed phase spans (``queued`` → ``prefill`` → ``decode`` →
  ``preempted``/``migrating``/``failover`` → end).  Components call
  :meth:`Tracer.transition` at each lifecycle edge; the tracer closes
  the previous span and opens the next, so span context survives
  steals, migrations, and failovers across replicas.
* **Audit records** — structured control-plane decisions (router
  choices with per-replica scores, autoscaler verdicts with the
  pressure signals behind them, admission rejections, preemption
  victims, fault injections) via :meth:`Tracer.audit`.

Everything is gated on ``enabled``: call sites guard with
``if tracer.enabled:`` *before* building payload kwargs, so the
disabled tracer costs one attribute load per site and the default
off-path reproduces prior builds bit for bit.

This module is dependency-light on purpose (stdlib only): the server
and baseline layers import it, so it must not pull them in.
"""

from __future__ import annotations

from typing import Iterator

#: The span taxonomy.  ``queued`` covers arrival → prefill launch (and
#: re-queueing after a steal); ``preempted`` covers
#: preemption-by-recomputation waits; ``migrating`` covers in-flight
#: cross-replica KV handoffs (stolen requests with a priced delay);
#: ``failover`` covers the gap between a replica crash and the orphan's
#: re-dispatch landing somewhere new; ``disagg_handoff`` covers the
#: disaggregated two-stage pipeline on the *original* request — shadow
#: prefill on the prefill pool (``stage="prefill"``) and the priced
#: fabric transfer (``stage="transfer"``) — up to the decode-side
#: submission.
SPAN_PHASES = (
    "queued",
    "prefill",
    "decode",
    "preempted",
    "migrating",
    "failover",
    "disagg_handoff",
)

#: Request ids at or above this offset belong to internal *shadow*
#: requests (the disaggregated dispatcher's prefill clones), not to
#: arrivals.  Request-facing views — latency histograms, blame
#: attribution, forensics request listings — filter them out.
SHADOW_REQUEST_OFFSET = 1 << 40


class AuditRecord:
    """One structured control-plane decision.

    ``time``/``kind``/``payload`` say what happened; ``component`` and
    ``replica`` say where.  A plain ``__slots__`` class rather than a dataclass: tracing-on runs mint
    one of these per control decision, and the slotted five-store
    ``__init__`` is a measurable cut over the generated dataclass one.
    """

    __slots__ = ("time", "kind", "payload", "component", "replica")

    def __init__(
        self,
        time: float,
        kind: str,
        payload: dict,
        component: str = "legacy",
        replica: int = -1,
    ) -> None:
        self.time = time
        self.kind = kind
        self.payload = payload
        self.component = component
        self.replica = replica

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AuditRecord(time={self.time!r}, kind={self.kind!r}, "
            f"payload={self.payload!r}, component={self.component!r}, "
            f"replica={self.replica})"
        )

    def __str__(self) -> str:
        args = " ".join(f"{k}={v}" for k, v in self.payload.items())
        return f"[{self.time:10.4f}] {self.kind:<18} {args}"


class Span:
    """One closed phase span of one request's lifecycle.

    Slotted like :class:`AuditRecord` and for the same reason: every
    lifecycle edge of every request closes one of these.
    """

    __slots__ = ("request_id", "phase", "start", "end", "replica", "attrs")

    def __init__(
        self,
        request_id: int,
        phase: str,
        start: float,
        end: float,
        replica: int = 0,
        attrs: dict | None = None,
    ) -> None:
        self.request_id = request_id
        self.phase = phase
        self.start = start
        self.end = end
        self.replica = replica
        self.attrs = {} if attrs is None else attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(request_id={self.request_id}, phase={self.phase!r}, "
            f"start={self.start!r}, end={self.end!r}, "
            f"replica={self.replica}, attrs={self.attrs!r})"
        )

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    """Mutable scratch for a span that has started but not ended."""

    __slots__ = ("phase", "start", "replica", "attrs")

    def __init__(self, phase: str, start: float, replica: int, attrs: dict) -> None:
        self.phase = phase
        self.start = start
        self.replica = replica
        self.attrs = attrs


class Tracer:
    """Unified span + audit sink with a cheap ``enabled`` fast-path.

    All mutating methods are no-ops when ``enabled`` is False, but hot
    call sites must still guard *before* constructing payload kwargs —
    the guard is what keeps the off-path free.
    """

    __slots__ = ("enabled", "records", "spans", "_open")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: list[AuditRecord] = []
        self.spans: list[Span] = []
        self._open: dict[int, _OpenSpan] = {}

    # ------------------------------------------------------------------
    # Audit log
    # ------------------------------------------------------------------

    def audit(
        self,
        time: float,
        kind: str,
        *,
        component: str = "server",
        replica: int = -1,
        **payload,
    ) -> None:
        """Append one structured control-plane decision."""
        if not self.enabled:
            return
        self.records.append(AuditRecord(time, kind, payload, component, replica))

    def record(self, time: float, kind: str, **payload) -> None:
        """Append an unstructured record (component ``"legacy"``).

        Nothing in the simulator calls it; ``perfbench/layers.py``
        still wraps it by name.
        """
        if not self.enabled:
            return
        self.records.append(AuditRecord(time, kind, payload))

    # ------------------------------------------------------------------
    # Request-lifecycle spans
    # ------------------------------------------------------------------

    def transition(
        self,
        request_id: int,
        phase: str,
        now: float,
        replica: int = 0,
        **attrs,
    ) -> None:
        """Close ``request_id``'s open span and start a ``phase`` one.

        A transition into the *same* phase on the *same* replica merges
        into the open span (its attrs are updated in place) rather than
        fragmenting the timeline; moving replicas always splits, so a
        stolen request's ``queued`` time is attributed to each host
        separately.
        """
        if not self.enabled:
            return
        open_span = self._open.get(request_id)
        if open_span is not None:
            if open_span.phase == phase and open_span.replica == replica:
                if attrs:
                    open_span.attrs.update(attrs)
                return
            self._close(request_id, open_span, now)
        self._open[request_id] = _OpenSpan(phase, now, replica, attrs)

    def end_span(self, request_id: int, now: float, **attrs) -> None:
        """Close the request's open span (request finished/aborted)."""
        if not self.enabled:
            return
        open_span = self._open.pop(request_id, None)
        if open_span is not None:
            if attrs:
                open_span.attrs.update(attrs)
            self._close(request_id, open_span, now)

    def _close(self, request_id: int, open_span: _OpenSpan, now: float) -> None:
        self.spans.append(
            Span(
                request_id,
                open_span.phase,
                open_span.start,
                now,
                open_span.replica,
                open_span.attrs,
            )
        )

    def finalize(self, now: float | None = None) -> None:
        """Close any still-open spans (e.g. requests alive at shutdown).

        Synthesised ends are tagged ``open=True`` so exports and
        invariant checks can tell them apart from real completions.
        """
        if not self._open:
            return
        if now is None:
            horizon = max(
                [s.start for s in self._open.values()]
                + [s.end for s in self.spans]
                + [r.time for r in self.records]
                or [0.0]
            )
        else:
            horizon = now
        for request_id, open_span in sorted(self._open.items()):
            open_span.attrs["open"] = True
            self._close(request_id, open_span, max(horizon, open_span.start))
        self._open.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def of_kind(self, kind: str) -> list[AuditRecord]:
        return [r for r in self.records if r.kind == kind]

    def kinds(self) -> set[str]:
        return {r.kind for r in self.records}

    def between(self, start: float, end: float) -> list[AuditRecord]:
        """Records with ``start <= time < end``."""
        return [r for r in self.records if start <= r.time < end]

    def spans_for(self, request_id: int) -> list[Span]:
        """The request's closed spans, in timeline order."""
        spans = [s for s in self.spans if s.request_id == request_id]
        spans.sort(key=lambda s: (s.start, s.end))
        return spans

    def __iter__(self) -> Iterator[AuditRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def render(self, limit: int = 50) -> str:
        """Human-readable audit tail (legacy format, kept stable)."""
        lines = []
        for rec in self.records[-limit:]:
            args = " ".join(f"{k}={v}" for k, v in rec.payload.items())
            lines.append(f"[{rec.time:10.4f}] {rec.kind:<18} {args}")
        return "\n".join(lines)
