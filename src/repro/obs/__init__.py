"""Unified observability: spans, audit log, telemetry, exporters.

See :mod:`repro.obs.tracer` for the span/audit model,
:mod:`repro.obs.telemetry` for the metrics registry,
:mod:`repro.obs.observe` for the run-level bundle and samplers,
:mod:`repro.obs.export`/:mod:`repro.obs.explain` for the Perfetto/JSONL
exporters and the post-hoc ``explain`` narration,
:mod:`repro.obs.forensics` for critical-path blame attribution, and
:mod:`repro.obs.health` for the SLO burn-rate monitor.
"""

from repro.obs.explain import diff_telemetry, request_ids, request_story
from repro.obs.forensics import (
    BlameReport,
    RequestBlame,
    attribute,
    diff_blame,
    render_report,
    verify_partition,
)
from repro.obs.health import SLOHealthMonitor
from repro.obs.export import (
    export_jsonl,
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
    "export_jsonl",
    "export_perfetto",
    "load_export",
    "perfetto_trace",
    "render_report",
    "request_ids",
    "request_story",
    "validate_perfetto",
    "verify_partition",
]
