"""Observability layer: tracer, telemetry, exporters, explain, golden gate.

Four contracts pinned here:

* **Tracer semantics** — span merge/split rules, finalize, and the
  audit log.
* **Telemetry** — registry typing, sampling, histogram merge
  associativity (hypothesis), quantiles.
* **Exporters** — Perfetto trace.json schema validity and the
  JSONL/Perfetto round trip through :func:`repro.obs.load_export`,
  feeding the ``explain`` narration.
* **Golden gate** — running with the full observability stack armed
  changes *nothing* about the serving outcome (identical per-request
  finish times), and fleet telemetry samples ride the control ticks
  one-for-one.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.core.server import LoongServeServer
from repro.experiments.systems import make_fleet
from repro.obs import (
    DEFAULT_TELEMETRY_INTERVAL,
    Histogram,
    MetricsRegistry,
    Observability,
    SPAN_PHASES,
    Tracer,
    diff_telemetry,
    export_jsonl,
    export_perfetto,
    load_export,
    perfetto_trace,
    request_ids,
    request_story,
    validate_perfetto,
)
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace

TRACE = make_trace(SHAREGPT, rate=12.0, num_requests=20, seed=11)


class TestTracer:
    def test_audit_captures_structure(self):
        tracer = Tracer()
        tracer.audit(1.5, "route", component="router", replica=2, request=7)
        (rec,) = tracer.records
        assert (rec.time, rec.kind, rec.component, rec.replica) == (
            1.5, "route", "router", 2,
        )
        assert rec.payload == {"request": 7}

    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(enabled=False)
        tracer.audit(0.0, "route", request=1)
        tracer.record(0.0, "legacy")
        tracer.transition(1, "queued", 0.0)
        tracer.end_span(1, 1.0)
        tracer.finalize(2.0)
        assert len(tracer.records) == 0 and len(tracer.spans) == 0

    def test_same_phase_same_replica_merges(self):
        tracer = Tracer()
        tracer.transition(1, "decode", 0.0, replica=0, batch=2)
        tracer.transition(1, "decode", 1.0, replica=0, batch=5)
        tracer.end_span(1, 2.0)
        (span,) = tracer.spans
        assert (span.start, span.end) == (0.0, 2.0)
        assert span.attrs["batch"] == 5  # attrs updated in place

    def test_replica_change_splits_even_same_phase(self):
        tracer = Tracer()
        tracer.transition(1, "queued", 0.0, replica=0)
        tracer.transition(1, "queued", 1.0, replica=2)  # stolen
        tracer.end_span(1, 3.0)
        spans = tracer.spans_for(1)
        assert [(s.phase, s.replica) for s in spans] == [
            ("queued", 0), ("queued", 2),
        ]
        assert [(s.start, s.end) for s in spans] == [(0.0, 1.0), (1.0, 3.0)]

    def test_phase_change_closes_previous(self):
        tracer = Tracer()
        tracer.transition(9, "queued", 0.0)
        tracer.transition(9, "prefill", 0.5)
        tracer.transition(9, "decode", 0.8)
        tracer.end_span(9, 2.0)
        assert [s.phase for s in tracer.spans_for(9)] == [
            "queued", "prefill", "decode",
        ]
        # Contiguous: each span starts where the previous ended.
        spans = tracer.spans_for(9)
        for prev, nxt in zip(spans, spans[1:]):
            assert prev.end == nxt.start

    def test_finalize_tags_open_spans(self):
        tracer = Tracer()
        tracer.transition(1, "decode", 1.0)
        tracer.transition(2, "queued", 5.0)
        tracer.finalize(3.0)  # horizon before request 2's start
        by_id = {s.request_id: s for s in tracer.spans}
        assert by_id[1].attrs["open"] and by_id[1].end == 3.0
        assert by_id[2].end == 5.0  # never ends before it starts
        assert not tracer._open
        tracer.finalize(10.0)  # idempotent
        assert len(tracer.spans) == 2

    def test_finalize_without_horizon_uses_latest_time(self):
        tracer = Tracer()
        tracer.transition(1, "decode", 1.0)
        tracer.audit(7.5, "finish")
        tracer.finalize()
        assert tracer.spans[0].end == 7.5

    def test_query_api(self):
        tracer = Tracer()
        tracer.audit(0.0, "a")
        tracer.audit(1.0, "b")
        tracer.audit(2.0, "a")
        assert len(tracer.of_kind("a")) == 2
        assert tracer.kinds() == {"a", "b"}
        assert [r.time for r in tracer.between(0.5, 2.0)] == [1.0]
        assert len(tracer) == 3 and len(list(tracer)) == 3
        assert "a" in tracer.render()


class TestMetricsRegistry:
    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_sample_appends_every_series(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        g = reg.gauge("g")
        c.inc(2)
        g.set(5.0)
        reg.sample(1.0)
        c.inc()
        reg.sample(2.0)
        assert reg.series["c"] == [(1.0, 2.0), (2.0, 3.0)]
        assert reg.series["g"] == [(1.0, 5.0), (2.0, 5.0)]
        assert reg.sample_times == [1.0, 2.0]

    def test_late_registration_has_short_series(self):
        reg = MetricsRegistry()
        reg.gauge("early").set(1.0)
        reg.sample(0.0)
        reg.gauge("late").set(2.0)
        reg.sample(1.0)
        assert len(reg.series["early"]) == 2
        assert reg.series["late"] == [(1.0, 2.0)]

    def test_render_timeline_mentions_every_metric(self):
        reg = MetricsRegistry()
        reg.gauge("queue").set(3.0)
        reg.sample(0.5)
        out = reg.render_timeline()
        assert "queue" in out and "1 samples" in out

    def test_histogram_observe_and_quantile(self):
        h = Histogram("lat", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0, 10.0):
            h.observe(v)
        assert h.count == 5
        assert h.counts == [1, 2, 1, 1]
        assert h.value == pytest.approx(sum((0.5, 1.5, 1.6, 3.0, 10.0)) / 5)
        assert h.quantile(0.0) == 1.0  # first non-empty bucket's bound
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == math.inf
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_histogram_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError):
            Histogram("a", bounds=(1.0,)).merge(Histogram("b", bounds=(2.0,)))

    def test_histogram_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            Histogram("a", bounds=(1.0, 2.0), counts=[0, 0])

    @given(
        samples=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False),
                max_size=20,
            ),
            min_size=3, max_size=3,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_is_associative_and_commutative(self, samples):
        """(a+b)+c == a+(b+c) and a+b == b+a — per-replica histograms
        roll up into fleet totals in any order."""
        bounds = (0.5, 5.0, 50.0)
        hists = []
        for i, values in enumerate(samples):
            h = Histogram(f"h{i}", bounds=bounds)
            for v in values:
                h.observe(v)
            hists.append(h)
        a, b, c = hists
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        swapped = b.merge(a).merge(c)
        assert left.counts == right.counts == swapped.counts
        assert left.total == pytest.approx(right.total)
        assert left.count == a.count + b.count + c.count


class TestObservabilityGolden:
    """Obs on vs off: identical serving outcome, nonzero trace."""

    def _signature(self, result):
        return sorted(
            (r.request_id, round(r.finish_time, 12), r.generated)
            for r in result.finished_requests
        )

    def test_server_run_unchanged_with_obs_armed(self):
        baseline = LoongServeServer(default_config()).run(clone_requests(TRACE))
        server = LoongServeServer(default_config())
        obs = Observability()
        server.observe(obs)
        observed = server.run(clone_requests(TRACE))
        assert self._signature(observed) == self._signature(baseline)
        assert observed.makespan == baseline.makespan
        assert len(obs.tracer.spans) > 0
        assert len(obs.tracer.records) > 0
        assert len(obs.metrics.sample_times) > 0
        assert observed.obs is obs and baseline.obs is None

    def test_fleet_run_unchanged_with_obs_armed(self):
        def run(obs):
            fleet = make_fleet(
                "loongserve", replicas=2, router="least-kv",
                requests=TRACE, num_gpus=4, steal=True,
            )
            if obs is not None:
                fleet.observe(obs)
            return fleet.run(clone_requests(TRACE))

        baseline = run(None)
        obs = Observability()
        observed = run(obs)
        assert self._signature(observed) == self._signature(baseline)
        assert {s.replica for s in obs.tracer.spans if s.phase == "prefill"} \
            == {0, 1}
        assert "route" in obs.tracer.kinds()

    def test_fleet_samples_ride_control_ticks(self):
        fleet = make_fleet(
            "loongserve", replicas=2, router="round-robin",
            requests=TRACE, num_gpus=4, autoscale=True,
        )
        obs = Observability()
        fleet.observe(obs)
        result = fleet.run(clone_requests(TRACE))
        assert result.elastic is not None
        assert len(obs.metrics.sample_times) == result.elastic.control_ticks

    def test_standalone_sampler_interval(self):
        server = LoongServeServer(default_config())
        obs = Observability(telemetry_interval=0.25)
        server.observe(obs)
        server.run(clone_requests(TRACE))
        times = obs.metrics.sample_times
        assert times, "standalone sampler never fired"
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(d == pytest.approx(0.25) for d in deltas)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            Observability(telemetry_interval=0.0)
        assert DEFAULT_TELEMETRY_INTERVAL > 0


def _observed_server_run():
    server = LoongServeServer(default_config())
    obs = Observability()
    server.observe(obs)
    server.run(clone_requests(TRACE))
    return obs


class TestExporters:
    def test_perfetto_doc_is_schema_valid(self):
        obs = _observed_server_run()
        doc = perfetto_trace(obs)
        assert validate_perfetto(doc) == []
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "C"} <= phases
        json.dumps(doc)  # fully serialisable

    def test_validate_flags_malformed_docs(self):
        assert validate_perfetto({"traceEvents": "nope"})
        assert validate_perfetto(
            {"traceEvents": [{"ph": "Z", "name": "x", "pid": 0, "ts": 0}]}
        )
        assert validate_perfetto(
            {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "ts": -5.0}]}
        )

    def test_round_trip_both_formats(self, tmp_path):
        obs = _observed_server_run()
        p_json = tmp_path / "trace.json"
        p_jsonl = tmp_path / "trace.jsonl"
        export_perfetto(obs, p_json)
        lines = export_jsonl(obs, p_jsonl)
        histograms = [
            name for name in obs.metrics.names()
            if isinstance(obs.metrics.get(name), Histogram)
        ]
        assert lines == (
            len(obs.tracer.spans) + len(obs.tracer.records)
            + sum(len(s) for s in obs.metrics.series.values())
            + len(histograms)
        )
        a = load_export(p_json)
        b = load_export(p_jsonl)

        def key(s):
            return (s["request"], s["start"], s["end"], s["phase"])

        spans_a = sorted(a["spans"], key=key)
        spans_b = sorted(b["spans"], key=key)
        assert len(spans_a) == len(spans_b) == len(obs.tracer.spans)
        for sa, sb in zip(spans_a, spans_b):
            assert (sa["request"], sa["phase"], sa["replica"]) == (
                sb["request"], sb["phase"], sb["replica"],
            )
            # Perfetto timestamps are quantised to nanoseconds on export.
            assert sa["start"] == pytest.approx(sb["start"], abs=1e-9)
            assert sa["end"] == pytest.approx(sb["end"], abs=1e-8)
        assert len(a["audits"]) == len(b["audits"]) == len(obs.tracer.records)
        assert set(a["samples"]) == set(b["samples"]) == set(obs.metrics.series)
        assert set(a["histograms"]) == set(b["histograms"]) == set(histograms)
        for name in histograms:
            assert a["histograms"][name] == b["histograms"][name]

    def test_exported_phases_stay_in_taxonomy(self, tmp_path):
        obs = _observed_server_run()
        path = tmp_path / "t.jsonl"
        export_jsonl(obs, path)
        data = load_export(path)
        assert {s["phase"] for s in data["spans"]} <= set(SPAN_PHASES)


class TestExplain:
    def test_story_narrates_one_request(self, tmp_path):
        obs = _observed_server_run()
        path = tmp_path / "t.json"
        export_perfetto(obs, path)
        data = load_export(path)
        ids = request_ids(data)
        assert ids == sorted(r.request_id for r in TRACE)
        story = request_story(data, ids[0])
        assert f"request {ids[0]}:" in story
        assert "queued" in story and "decode" in story
        assert "arrival" in story and "finish" in story

    def test_story_handles_unknown_request(self, tmp_path):
        obs = _observed_server_run()
        path = tmp_path / "t.jsonl"
        export_jsonl(obs, path)
        story = request_story(load_export(path), 10_000_000)
        lo = min(r.request_id for r in TRACE)
        hi = max(r.request_id for r in TRACE)
        assert "not found" in story and f"{lo}..{hi}" in story

    def test_diff_telemetry_reports_deltas(self):
        a = {"samples": {"m": [(0.0, 1.0), (1.0, 3.0)]}}
        b = {"samples": {"m": [(0.0, 2.0), (1.0, 6.0)]}}
        out = diff_telemetry(a, b, label_a="left", label_b="right")
        assert "m" in out and "+100.0%" in out
        assert "no telemetry" in diff_telemetry(
            {"samples": {}}, {"samples": {}}
        )
