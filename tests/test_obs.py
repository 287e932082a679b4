"""Observability layer: tracer, telemetry, the trace file, stories, golden gate.

Four contracts pinned here:

* **Tracer semantics** — span merge/split rules, finalize, and the
  audit log.
* **Telemetry** — registry typing, sampling, histogram merge
  associativity (hypothesis), quantiles.
* **The trace file** — Perfetto trace.json schema validity, and the
  round trip through :func:`repro.obs.load_export` back into an
  :class:`~repro.obs.Observability` that request stories read.
* **Golden gate** — running with the full observability stack armed
  changes *nothing* about the serving outcome (identical per-request
  finish times), and fleet telemetry samples ride the control ticks
  one-for-one.
"""

import json
import math

import pytest

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

    def test_histogram_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            Histogram("a", bounds=(1.0, 2.0), counts=[0, 0])


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

    @pytest.mark.parametrize("fleet", [False, True])
    def test_every_finish_enters_the_latency_histograms(self, fleet):
        """The sampler's ticks are weak events, so a run can end with
        finishes after its last sample; the serving loop feeds them into
        the latency histograms when the run ends, adding no sample."""
        if fleet:
            system = make_fleet(
                "loongserve", replicas=2, router="round-robin",
                requests=TRACE, num_gpus=4,
            )
        else:
            system = LoongServeServer(default_config())
        obs = Observability()
        system.observe(obs)
        result = system.run(clone_requests(TRACE))
        finished = result.finished_requests
        assert max(r.finish_time for r in finished) > obs.metrics.sample_times[-1]
        prefix = "fleet" if fleet else "server"
        assert obs.metrics.get(f"{prefix}.ttft").count == len(finished)
        assert obs.metrics.get(f"{prefix}.per_token_latency").count == sum(
            r.generated > 1 for r in finished
        )

    def test_bad_interval_rejected(self):
        for interval in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                Observability(telemetry_interval=interval)
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

    def test_round_trip_restores_the_observability(self, tmp_path):
        """The export reads back as the live run's spans, audits, series
        and histograms, up to the export's 1 ns time rounding (a span's
        end is two rounded stamps, its start plus its duration)."""
        fleet = make_fleet(
            "loongserve", replicas=2, router="least-kv",
            requests=TRACE, num_gpus=4, steal=True, autoscale=True,
        )
        obs = Observability()
        fleet.observe(obs)
        fleet.run(clone_requests(TRACE))
        path = tmp_path / "trace.json"
        export_perfetto(obs, path)
        loaded = load_export(path)

        def as_json(value):
            return json.loads(json.dumps(value))

        live_spans, spans = obs.tracer.spans, loaded.tracer.spans
        assert len(spans) == len(live_spans)
        for live, span in zip(live_spans, spans):
            assert (span.request_id, span.phase, span.replica) == (
                live.request_id, live.phase, live.replica,
            )
            assert span.attrs == as_json(live.attrs)
            assert span.start == pytest.approx(live.start, abs=1e-9)
            assert span.end == pytest.approx(live.end, abs=2e-9)
        live_records, records = obs.tracer.records, loaded.tracer.records
        assert len(records) == len(live_records)
        assert {r.component for r in records} >= {"router", "control"}
        for live, record in zip(live_records, records):
            assert (record.kind, record.component, record.replica) == (
                live.kind, live.component, live.replica,
            )
            assert record.payload == as_json(live.payload)
            assert record.time == pytest.approx(live.time, abs=1e-9)
        live_series = {k: v for k, v in obs.metrics.series.items() if v}
        assert loaded.metrics.series.keys() == live_series.keys()
        for name, points in live_series.items():
            restored = loaded.metrics.series[name]
            assert [v for _, v in restored] == [v for _, v in points]
            assert [t for t, _ in restored] == pytest.approx(
                [t for t, _ in points], abs=1e-9
            )
        assert loaded.metrics.sample_times == pytest.approx(
            obs.metrics.sample_times, abs=1e-9
        )
        histograms = loaded.metrics.histograms()
        assert histograms.keys() == obs.metrics.histograms().keys()
        assert histograms, "the run recorded no latency histogram"
        for name, live in obs.metrics.histograms().items():
            restored = histograms[name]
            assert (restored.bounds, restored.counts, restored.total) == (
                live.bounds, live.counts, live.total,
            )

    def test_exported_phases_stay_in_taxonomy(self, tmp_path):
        obs = _observed_server_run()
        path = tmp_path / "t.json"
        export_perfetto(obs, path)
        loaded = load_export(path)
        assert {s.phase for s in loaded.tracer.spans} <= set(SPAN_PHASES)


class TestExplain:
    def test_story_narrates_one_request(self, tmp_path):
        obs = _observed_server_run()
        path = tmp_path / "t.json"
        export_perfetto(obs, path)
        loaded = load_export(path)
        ids = request_ids(loaded)
        assert ids == sorted(r.request_id for r in TRACE)
        story = request_story(loaded, ids[0])
        assert f"request {ids[0]}:" in story
        assert "queued" in story and "decode" in story
        assert "arrival" in story and "finish" in story

    def test_story_handles_unknown_request(self):
        story = request_story(_observed_server_run(), 10_000_000)
        lo = min(r.request_id for r in TRACE)
        hi = max(r.request_id for r in TRACE)
        assert "not found" in story and f"{lo}..{hi}" in story

    def test_diff_telemetry_reports_deltas(self):
        runs = []
        for values in ((1.0, 3.0), (2.0, 6.0)):
            obs = Observability()
            for t, value in enumerate(values):
                obs.metrics.gauge("m").set(value)
                obs.metrics.sample(float(t))
            runs.append(obs)
        out = diff_telemetry(*runs, label_a="left", label_b="right")
        assert "m" in out and "+100.0%" in out
        assert "no telemetry" in diff_telemetry(Observability(), Observability())
