"""Latency forensics: exact blame partitions and SLO burn-rate alerts.

The tentpole invariant under test: for every finished request,
:func:`repro.obs.forensics.attribute` produces blame segments that sum
to the measured end-to-end latency *exactly* (within 1e-9) — under any
composition of steal + KV migration + crashes + disaggregation + QoS +
tiered KV, driven here both by hand-built span timelines (unit tests)
and by hypothesis-generated chaos schedules against real fleet runs.

The SLO burn-rate monitor is tested as a pure observer: its multi-window
state machine on synthetic ledgers, and golden-signature inertness on a
real run (arming it changes no finish time).

``REPRO_FORENSICS_REQUESTS`` scales the deterministic acceptance run
(default keeps CI fast; set it to 10000 to reproduce the full
acceptance-scale Mixed fleet run out-of-band).

The ``CI=1`` profile (tests/conftest.py) derandomizes hypothesis.
"""

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.systems import make_fleet
from repro.fleet import FaultPlan, ReplicaFault
from repro.obs import (
    Observability,
    SLOHealthMonitor,
    attribute,
    diff_blame,
    diff_telemetry,
    export_perfetto,
    load_export,
    render_report,
    verify_partition,
)
from repro.obs.forensics import CATEGORIES, GLYPHS
from repro.obs.tracer import SHADOW_REQUEST_OFFSET, Tracer
from repro.workloads.datasets import MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace

QOS_MIX = {"interactive": 0.3, "standard": 0.5, "batch": 0.2}

REPLICAS = 3
CHAOS_TRACE = make_trace(
    SHAREGPT, rate=8.0, num_requests=14, seed=33, qos_mix=QOS_MIX
)

fault_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=8.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=REPLICAS - 1),
        st.floats(min_value=0.5, max_value=5.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=0,
    max_size=4,
)


def signature(result):
    return sorted(
        (r.request_id, round(r.finish_time, 12), r.generated)
        for r in result.finished_requests
    )


def assert_exact_partition(obs, result):
    """Every finished request is blamed, and nothing else, and its
    segments partition e2e = finish - arrival."""
    report = attribute(obs)
    finished = {
        r.request_id
        for r in result.finished_requests
        if r.request_id < SHADOW_REQUEST_OFFSET
    }
    assert set(report.requests) == finished
    assert verify_partition(report) == []
    by_id = {r.request_id: r for r in result.finished_requests}
    for blame in report.requests.values():
        request = by_id[blame.request_id]
        assert abs(
            blame.e2e - (request.finish_time - request.arrival_time)
        ) <= 1e-9
        assert abs(blame.blame_total - blame.e2e) <= 1e-9
        # The roll-up agrees with the chronological pieces.
        assert abs(
            math.fsum(blame.segments.values()) - blame.e2e
        ) <= 1e-9
        assert all(cat in CATEGORIES for cat in blame.segments)
    return report


class TestBlamePartitionChaos:
    @given(specs=fault_specs)
    @settings(max_examples=8, deadline=None)
    def test_partition_exact_under_steal_migrate_crash_disagg(self, specs):
        """The ISSUE acceptance property: random crash schedules against
        the full composed stack (disagg + steal + migrate-kv + QoS +
        tiered KV) never break the exact-partition invariant."""
        plan = FaultPlan(
            [ReplicaFault(time=t, replica_id=r, downtime_s=d)
             for t, r, d in specs]
        )
        fleet = make_fleet(
            "loongserve", replicas=REPLICAS, router="round-robin",
            requests=CHAOS_TRACE, num_gpus=4, prefix_cache=True,
            disagg=1, steal=True, migrate_kv=True, qos=True,
            kv_tiers="lru", faults=plan if plan else None,
        )
        obs = Observability()
        fleet.observe(obs)
        result = fleet.run(clone_requests(CHAOS_TRACE))
        assert result.finished_requests, "chaos run served nothing"
        assert_exact_partition(obs, result)

    def test_acceptance_scale_mixed_fleet(self):
        """Deterministic Mixed-workload acceptance run: congested fleet
        with every subsystem armed, zero partition violations.

        Defaults to a CI-sized request count; set
        ``REPRO_FORENSICS_REQUESTS=10000`` to reproduce the full
        acceptance criterion (same config, ~minutes of wall time).
        """
        n = int(os.environ.get("REPRO_FORENSICS_REQUESTS", "150"))
        trace = make_trace(
            MIXED, rate=40.0, num_requests=n, seed=5, qos_mix=QOS_MIX
        )
        plan = FaultPlan([
            ReplicaFault(time=2.0, replica_id=2, downtime_s=2.0),
            ReplicaFault(time=5.0, replica_id=4, downtime_s=2.0),
        ])
        fleet = make_fleet(
            "loongserve", replicas=5, router="round-robin",
            requests=trace, num_gpus=4, prefix_cache=True,
            disagg=1, steal=True, migrate_kv=True, qos=True,
            kv_tiers="lru", faults=plan,
        )
        obs = Observability()
        fleet.observe(obs)
        result = fleet.run(clone_requests(trace))
        assert len(result.finished_requests) >= n * 0.9
        report = assert_exact_partition(obs, result)
        # The composed run exercises the disagg pipeline and decode
        # split — the categories exist in the fleet-wide totals.
        totals = report.totals()
        assert "disagg_prefill" in totals
        assert "decode_ideal" in totals

    def test_admission_rejections_are_not_blamed(self, tmp_path):
        """Admission rejects a fifth of an overloaded interactive-heavy
        Mixed trace.  A rejected arrival's last span ends in an abort,
        so blame covers exactly the finished requests, on the live
        run and on its export read back alike."""
        trace = make_trace(
            MIXED, rate=40.0, num_requests=120, seed=5,
            qos_mix={"interactive": 0.8, "standard": 0.1, "batch": 0.1},
        )
        fleet = make_fleet(
            "loongserve", replicas=2, router="least-kv", requests=trace,
            num_gpus=4, qos=True, admission=True,
        )
        obs = Observability()
        fleet.observe(obs)
        result = fleet.run(clone_requests(trace))
        assert result.aborted, "admission rejected nothing"
        live = assert_exact_partition(obs, result)
        path = tmp_path / "run.json"
        export_perfetto(obs, path)
        loaded = attribute(load_export(path))
        assert set(loaded.requests) == set(live.requests)
        assert verify_partition(loaded) == []


class TestBlameAttributionUnits:
    def test_basic_lifecycle_split(self):
        obs = Observability()
        tracer = obs.tracer
        tracer.transition(1, "queued", 0.0, replica=0)
        tracer.transition(1, "prefill", 1.0, replica=0)
        tracer.transition(1, "decode", 3.0, replica=0)
        tracer.end_span(1, 7.0, ideal_decode_s=2.5)
        report = attribute(obs)
        blame = report.requests[1]
        assert blame.segments == pytest.approx({
            "queue_wait": 1.0,
            "prefill_compute": 2.0,
            "decode_ideal": 2.5,
            "decode_stretch": 1.5,
        })
        assert blame.e2e == pytest.approx(7.0)
        assert verify_partition(report) == []
        assert blame.dominant() == "decode_ideal"

    def test_swap_debt_splits_out_of_prefill(self):
        obs = Observability()
        tracer = obs.tracer
        tracer.transition(2, "queued", 0.0, replica=1)
        tracer.transition(2, "prefill", 1.0, replica=1, swap_s=0.5)
        tracer.transition(2, "decode", 3.0, replica=1)
        tracer.end_span(2, 4.0, ideal_decode_s=1.0)
        blame = attribute(obs).requests[2]
        assert blame.segments["tier_swap_in"] == pytest.approx(0.5)
        assert blame.segments["prefill_compute"] == pytest.approx(1.5)

    def test_gaps_land_in_unattributed(self):
        obs = Observability()
        tracer = obs.tracer
        tracer.transition(3, "queued", 0.0, replica=0)
        tracer.end_span(3, 1.0)
        tracer.transition(3, "decode", 2.0, replica=0)
        tracer.end_span(3, 3.0)
        blame = attribute(obs).requests[3]
        assert blame.segments["unattributed"] == pytest.approx(1.0)
        assert verify_partition(attribute(obs)) == []

    def test_aborted_lifecycle_excluded(self):
        """A request whose last span ends in an abort has no end-to-end
        latency to partition, however long it queued."""
        obs = Observability()
        tracer = obs.tracer
        tracer.transition(4, "queued", 0.0, replica=0, qos="interactive")
        tracer.end_span(4, 2.0, aborted=True)
        tracer.transition(7, "queued", 0.0, replica=0, qos="interactive")
        tracer.end_span(7, 3.0)
        assert set(attribute(obs).requests) == {7}
        assert attribute(obs).requests[7].qos == "interactive"

    def test_disagg_stages_and_clone_filtering(self):
        obs = Observability()
        tracer = obs.tracer
        tracer.transition(5, "disagg_handoff", 0.0, replica=0, stage="prefill")
        tracer.transition(5, "disagg_handoff", 1.0, replica=2, stage="transfer")
        tracer.transition(5, "decode", 1.5, replica=2)
        tracer.end_span(5, 2.5)
        tracer.transition(5 + SHADOW_REQUEST_OFFSET, "queued", 0.0, replica=0)
        tracer.end_span(5 + SHADOW_REQUEST_OFFSET, 1.0)
        report = attribute(obs)
        assert set(report.requests) == {5}
        blame = report.requests[5]
        assert blame.segments["disagg_prefill"] == pytest.approx(1.0)
        assert blame.segments["disagg_transfer"] == pytest.approx(0.5)

    def test_open_spans_excluded(self):
        obs = Observability()
        obs.tracer.transition(6, "queued", 0.0, replica=0)
        obs.tracer.finalize(9.0)
        assert 6 not in attribute(obs).requests


class TestForensicsRendering:
    def _report(self):
        obs = Observability()
        tracer = obs.tracer
        for rid, stretch in ((1, 1.0), (2, 4.0)):
            tracer.transition(rid, "queued", 0.0, replica=0, qos="standard")
            tracer.transition(rid, "prefill", 1.0, replica=0)
            tracer.transition(rid, "decode", 2.0, replica=0)
            tracer.end_span(rid, 2.0 + 1.0 + stretch, ideal_decode_s=1.0)
        return attribute(obs)

    def test_render_report_sections(self):
        text = render_report(self._report(), top=2)
        assert "blame by category" in text
        assert "slowest 2 requests" in text
        assert "legend:" in text
        for category in ("queue_wait", "decode_stretch"):
            assert category in text

    def test_timeline_width_and_glyphs(self):
        blame = self._report().requests[2]
        bar = blame.timeline(width=40)
        assert len(bar) == 40
        assert set(bar) <= set(GLYPHS.values())
        # decode stretch dominates request 2's bar.
        assert bar.count(GLYPHS["decode_stretch"]) > bar.count(GLYPHS["queue_wait"])

    def test_diff_blame_attributes_regression(self):
        base, new = self._report(), self._report()
        # Regress request 1 in the new run by stretching decode.
        obs = Observability()
        tracer = obs.tracer
        tracer.transition(1, "queued", 0.0, replica=0)
        tracer.transition(1, "prefill", 1.0, replica=0)
        tracer.transition(1, "decode", 2.0, replica=0)
        tracer.end_span(1, 9.0, ideal_decode_s=1.0)
        new.requests[1] = attribute(obs).requests[1]
        text = diff_blame(base, new, "A", "B", top=3)
        assert "blame diff" in text
        assert "#1" in text
        assert "biggest mover: decode_stretch" in text

    def test_diff_telemetry_histogram_section(self):
        """Histogram-typed metrics diff from the histograms (count/mean/
        tails), not from re-averaged running-mean series points."""
        runs = []
        for ttft, g in (((0.5, 1.9), 3.0), ((1.5, 2.0, 4.0, 4.5), 4.0)):
            obs = Observability()
            histogram = obs.metrics.histogram("fleet.ttft")
            for value in ttft:
                histogram.observe(value)
            obs.metrics.gauge("g").set(g)
            obs.metrics.sample(1.0)
            runs.append(obs)
        text = diff_telemetry(*runs)
        assert "distribution" in text
        assert "p99" in text
        scalar_section = text.split("distribution")[0]
        assert "fleet.ttft" not in scalar_section  # no double-reporting
        assert "g" in scalar_section


class _FakeRequest:
    def __init__(self, finish_time, deadline, qos="default"):
        self.finish_time = finish_time
        self.deadline = deadline
        self.effective_qos = qos


class _FakeServer:
    def __init__(self):
        self.finished = []
        self.aborted = []


class TestSLOHealthMonitor:
    def test_alert_fires_after_hysteresis_and_resolves(self):
        # 5 s / 30 s windows, 0.9 target, burn threshold 2, and two
        # breaching ticks to fire, three clear ones to resolve.
        monitor = SLOHealthMonitor()
        tracer = Tracer(enabled=True)
        server = _FakeServer()
        # Five hard deadline misses land in both windows.
        server.finished = [_FakeRequest(1.0, 0.5) for _ in range(5)]
        monitor.observe([server], 1.0, tracer=tracer)
        assert monitor.state("default") == "ok"  # one breaching tick
        monitor.observe([server], 2.0, tracer=tracer)
        assert monitor.state("default") == "firing"
        alerts = tracer.of_kind("slo_alert")
        assert len(alerts) == 1
        assert alerts[0].payload["state"] == "firing"
        assert alerts[0].payload["cls"] == "default"
        assert alerts[0].payload["burn_fast"] >= 2.0
        assert alerts[0].component == "health"
        # The fast window empties once time moves past it; three clear
        # ticks resolve the alert.
        for tick in (10.0, 11.0):
            monitor.observe([server], tick, tracer=tracer)
            assert monitor.state("default") == "firing"
        monitor.observe([server], 12.0, tracer=tracer)
        assert monitor.state("default") == "ok"
        alerts = tracer.of_kind("slo_alert")
        assert [a.payload["state"] for a in alerts] == ["firing", "resolved"]

    def test_single_noisy_tick_never_flaps(self):
        monitor = SLOHealthMonitor()
        tracer = Tracer(enabled=True)
        server = _FakeServer()
        server.finished = [_FakeRequest(1.0, 0.5) for _ in range(5)]
        monitor.observe([server], 1.0, tracer=tracer)
        # The breach clears before the second tick: no alert ever fires.
        server.finished = server.finished + [
            _FakeRequest(1.5, 9.0) for _ in range(50)
        ]
        monitor.observe([server], 2.0, tracer=tracer)
        monitor.observe([server], 3.0, tracer=tracer)
        assert monitor.state("default") == "ok"
        assert tracer.of_kind("slo_alert") == []

    def test_aborts_count_as_misses_and_no_deadline_ignored(self):
        monitor = SLOHealthMonitor()
        tracer = Tracer(enabled=True)
        server = _FakeServer()
        server.aborted = [_FakeRequest(None, 1.0, qos="batch") for _ in range(4)]
        server.finished = [_FakeRequest(1.0, None) for _ in range(10)]
        # Two breaching ticks fire the alert.
        monitor.observe([server], 2.0, tracer=tracer)
        monitor.observe([server], 3.0, tracer=tracer)
        assert monitor.state("batch") == "firing"
        # Deadline-less finishes contributed no class at all.
        assert monitor.state("default") == "ok"
        assert monitor._events.keys() == {"batch"}

    def test_per_class_isolation(self):
        monitor = SLOHealthMonitor()
        server = _FakeServer()
        server.finished = (
            [_FakeRequest(1.0, 0.5, qos="batch") for _ in range(5)]
            + [_FakeRequest(1.0, 2.0, qos="interactive") for _ in range(5)]
        )
        tracer = Tracer(enabled=True)
        monitor.observe([server], 1.5, tracer=tracer)
        monitor.observe([server], 2.5, tracer=tracer)
        assert monitor.state("batch") == "firing"
        assert monitor.state("interactive") == "ok"

    def test_gauges_published(self):
        from repro.obs.telemetry import MetricsRegistry

        monitor = SLOHealthMonitor()
        metrics = MetricsRegistry()
        server = _FakeServer()
        server.finished = [
            _FakeRequest(1.0, 2.0), _FakeRequest(1.2, 0.5),
        ]
        monitor.observe([server], 1.5, metrics=metrics)
        assert metrics.gauge("slo.attainment.default").value == pytest.approx(0.5)
        assert metrics.gauge("slo.burn_fast.default").value == pytest.approx(5.0)


class TestHealthInertness:
    def test_monitor_changes_no_finish_time(self):
        """Golden-signature guarantee: the armed burn-rate monitor is a
        pure observer — same seeds, identical outcomes."""
        trace = make_trace(
            SHAREGPT, rate=12.0, num_requests=24, seed=7, qos_mix=QOS_MIX
        )
        signatures = []
        for with_health in (False, True):
            fleet = make_fleet(
                "loongserve", replicas=2, router="round-robin",
                requests=trace, num_gpus=4, qos=True, steal=True,
            )
            obs = Observability()
            if with_health:
                obs.enable_health()
            fleet.observe(obs)
            result = fleet.run(clone_requests(trace))
            signatures.append(signature(result))
            if with_health:
                # The monitor actually saw deadline outcomes.
                assert any(
                    name.startswith("slo.") for name in obs.metrics.names()
                )
        assert signatures[0] == signatures[1]
