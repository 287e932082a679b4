"""The trace file: Chrome/Perfetto ``trace.json``, written and read back.

The export follows the Chrome Trace Event JSON format (the
``traceEvents`` array form), which both ``chrome://tracing`` and
https://ui.perfetto.dev open directly:

* one *process* (``pid``) per replica (plus a synthetic control-plane
  process for fleet-level records), named via ``"M"`` metadata events;
* request-lifecycle spans as ``"X"`` complete events — ``tid`` is the
  request id, so each request renders as its own track nested under its
  replica, phases laid end to end;
* audit records as ``"i"`` instant events;
* telemetry series as ``"C"`` counter events;
* final histogram snapshots (bounds + bucket counts) as ``"M"``
  metadata events, so distribution-typed metrics (``server.ttft``,
  ``server.per_token_latency``) survive the round trip with their
  shape — the sampled series only carries their running mean.

Timestamps are microseconds (the format's unit); simulation seconds are
scaled by 1e6 and rounded to the nanosecond.  ``load_export`` reads the
file back into an :class:`~repro.obs.observe.Observability`, so
:mod:`repro.obs.forensics` replays a run from the file alone exactly as
it reads a live one.
"""

from __future__ import annotations

import json

from repro.obs.observe import Observability
from repro.obs.tracer import AuditRecord, Span

#: pid used for control-plane records not tied to one replica.
CONTROL_PLANE_PID = 999

_US = 1_000_000  # seconds -> microseconds


def _histogram_snapshots(obs: Observability) -> list[dict]:
    """Final state of every histogram-typed metric, export-ready."""
    return [
        {
            "metric": name,
            "bounds": list(histogram.bounds),
            "counts": list(histogram.counts),
            "total": histogram.total,
        }
        for name, histogram in obs.metrics.histograms().items()
    ]


def _span_event(span) -> dict:
    pid = span.replica if span.replica >= 0 else CONTROL_PLANE_PID
    args = {"request": span.request_id}
    args.update(span.attrs)
    return {
        "name": span.phase,
        "cat": "request",
        "ph": "X",
        "ts": round(span.start * _US, 3),
        "dur": round(max(span.end - span.start, 0.0) * _US, 3),
        "pid": pid,
        "tid": span.request_id,
        "args": args,
    }


def _audit_event(record) -> dict:
    pid = record.replica if record.replica >= 0 else CONTROL_PLANE_PID
    args = {"component": record.component}
    args.update(record.payload)
    return {
        "name": record.kind,
        "cat": "audit",
        "ph": "i",
        "ts": round(record.time * _US, 3),
        "pid": pid,
        "tid": 0,
        "s": "p",
        "args": args,
    }


def perfetto_trace(obs: Observability) -> dict:
    """Build the Chrome/Perfetto trace document for one run."""
    obs.tracer.finalize()
    events: list[dict] = []
    pids = {
        s.replica if s.replica >= 0 else CONTROL_PLANE_PID
        for s in obs.tracer.spans
    }
    pids |= {
        r.replica if r.replica >= 0 else CONTROL_PLANE_PID
        for r in obs.tracer.records
    }
    for pid in sorted(pids):
        name = "control-plane" if pid == CONTROL_PLANE_PID else f"replica-{pid}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
    events.extend(_span_event(s) for s in obs.tracer.spans)
    events.extend(_audit_event(r) for r in obs.tracer.records)
    for metric, points in obs.metrics.series.items():
        for t, v in points:
            events.append(
                {
                    "name": metric,
                    "cat": "telemetry",
                    "ph": "C",
                    "ts": round(t * _US, 3),
                    "pid": CONTROL_PLANE_PID,
                    "args": {metric: v},
                }
            )
    for snapshot in _histogram_snapshots(obs):
        events.append(
            {
                "name": "histogram",
                "ph": "M",
                "pid": CONTROL_PLANE_PID,
                "tid": 0,
                "args": snapshot,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_perfetto(doc: dict) -> list[str]:
    """Schema-check a trace document; returns a list of problems.

    An empty list means the document is a well-formed Chrome Trace Event
    JSON object (the shape both tracing UIs accept).
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in {"M", "X", "i", "C", "B", "E"}:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: name must be a string")
        if not isinstance(event.get("pid"), int):
            errors.append(f"{where}: pid must be an int")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: dur must be a non-negative number")
        if ph == "C" and not isinstance(event.get("args"), dict):
            errors.append(f"{where}: counter event needs args")
    return errors


def export_perfetto(obs: Observability, path: str) -> dict:
    """Write the Perfetto trace JSON; returns the document."""
    doc = perfetto_trace(obs)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc


def _replica(pid: int) -> int:
    return -1 if pid == CONTROL_PLANE_PID else pid


def load_export(path: str) -> Observability:
    """Read a Perfetto export back into an :class:`Observability`.

    Spans come back as :class:`Span` and audits as :class:`AuditRecord`,
    in the order the run closed and logged them; each telemetry series
    and histogram snapshot is restored into the registry, the series'
    other metrics as gauges holding their last sampled value.  Times
    carry the export's 1 ns rounding; a span's end is its rounded start
    plus its rounded duration.
    """
    with open(path) as fh:
        events = json.load(fh)["traceEvents"]
    obs = Observability()
    tracer, metrics = obs.tracer, obs.metrics
    series: dict[str, list[tuple[float, float]]] = {}
    for event in events:
        ph, name = event["ph"], event["name"]
        args = dict(event["args"])
        if ph == "X":
            ts = event["ts"]
            tracer.spans.append(
                Span(
                    args.pop("request"), name, ts / _US,
                    (ts + event["dur"]) / _US, _replica(event["pid"]), args,
                )
            )
        elif ph == "i":
            component = args.pop("component")
            tracer.records.append(
                AuditRecord(
                    event["ts"] / _US, name, args, component,
                    _replica(event["pid"]),
                )
            )
        elif ph == "C":
            series.setdefault(name, []).append((event["ts"] / _US, args[name]))
        elif name == "histogram":
            histogram = metrics.histogram(args["metric"])
            histogram.bounds = tuple(args["bounds"])
            histogram.counts = args["counts"]
            histogram.total = args["total"]
    for name, points in series.items():
        if metrics.get(name) is None:
            metrics.gauge(name).set(points[-1][1])
        metrics.series[name] = points
    metrics.sample_times = sorted(
        {t for points in series.values() for t, _ in points}
    )
    return obs
