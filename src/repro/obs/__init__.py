"""Unified observability: spans, audit log, telemetry, the trace file.

See :mod:`repro.obs.tracer` for the span/audit model,
:mod:`repro.obs.telemetry` for the metrics registry,
:mod:`repro.obs.observe` for the run-level bundle and samplers,
:mod:`repro.obs.export` for the Perfetto trace file and reading it back
into an :class:`Observability`, :mod:`repro.obs.forensics` for replay
(critical-path blame attribution, request stories, telemetry diffs),
and :mod:`repro.obs.health` for the SLO burn-rate monitor.
"""

from repro.obs.forensics import (
    BlameReport,
    RequestBlame,
    attribute,
    diff_blame,
    diff_telemetry,
    render_report,
    request_ids,
    request_story,
    verify_partition,
)
from repro.obs.health import SLOHealthMonitor
from repro.obs.export import (
    export_perfetto,
    load_export,
    perfetto_trace,
    validate_perfetto,
)
from repro.obs.observe import DEFAULT_TELEMETRY_INTERVAL, Observability
from repro.obs.telemetry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import SPAN_PHASES, AuditRecord, Span, Tracer

__all__ = [
    "AuditRecord",
    "BlameReport",
    "Counter",
    "DEFAULT_TELEMETRY_INTERVAL",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "RequestBlame",
    "SLOHealthMonitor",
    "SPAN_PHASES",
    "Span",
    "Tracer",
    "attribute",
    "diff_blame",
    "diff_telemetry",
    "export_perfetto",
    "load_export",
    "perfetto_trace",
    "render_report",
    "request_ids",
    "request_story",
    "validate_perfetto",
    "verify_partition",
]
