"""Tests for the experiment harness: every figure runs and reproduces the
paper's qualitative claims at reduced scale."""

import math

import pytest

from repro.experiments import endtoend, microbench, report
from repro.experiments.systems import make_system
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace_gen import make_trace


class TestMicrobenchFigures:
    def test_figure2_prefill_scales_decode_does_not(self):
        rows = microbench.figure2()
        long_prefill = next(
            r for r in rows if r.phase == "prefill" and r.length == 100_000
        )
        assert long_prefill.speedup_at_max_tp > 2.5
        short_decode = next(
            r for r in rows if r.phase == "decode" and r.length == 100
        )
        assert short_decode.speedup_at_max_tp < 1.3

    def test_figure2_normalization(self):
        rows = microbench.figure2()
        for row in rows:
            assert min(row.normalized.values()) <= 1.0

    def test_figure3_sp_wins_or_ties(self):
        """Paper: SPxTP matches or beats pure TP on the whole grid."""
        rows = microbench.figure3()
        for row in rows:
            if row.phase == "prefill":
                assert row.times["SP4TP2"] <= row.times["SP1TP8"] * 1.05

    def test_figure14a_proactive_free_reactive_costly(self):
        rows = microbench.figure14a()
        for row in rows:
            assert row.proactive_overhead == pytest.approx(0.0)
        long_rows = [r for r in rows if r.batch_size * r.length >= 200_000]
        assert long_rows
        assert all(r.reactive_overhead > 0.005 for r in long_rows)

    def test_figure14b_masters_speedup_shape(self):
        """Large batches gain ~2x from 4 masters; small batches don't pay
        more than ~10% (paper's Figure 14b)."""
        rows = microbench.figure14b()
        big = next(r for r in rows if r.batch_size == 1024)
        assert big.speedup_4_masters > 1.5
        small = next(r for r in rows if r.batch_size == 1)
        assert 0.90 < small.speedup_4_masters < 1.10

    def test_figure15_under_ten_percent(self):
        points = microbench.figure15()
        assert microbench.figure15_max_deviation(points) < 0.10
        assert microbench.figure15_mean_deviation(points) < 0.02

    def test_figure15_covers_strategies(self):
        points = microbench.figure15()
        assert {p.strategy for p in points} == {"SP2TP4", "SP4TP2", "SP8TP1"}


class TestEndToEndHarness:
    def test_sweep_structure(self):
        curves = endtoend.sweep(
            ["loongserve", "vllm"], SHAREGPT, rates=[5.0],
            requests_per_rate_second=4.0, min_requests=10,
        )
        assert {c.system for c in curves} == {"loongserve", "vllm"}
        for curve in curves:
            assert len(curve.points) == 1
            point = curve.points[0]
            assert point.finished > 0
            assert math.isfinite(point.per_token)

    def test_goodput_from_curve(self):
        curve = endtoend.SystemCurve(system="x")
        for rate, attainment in [(1.0, 1.0), (2.0, 0.5)]:
            curve.points.append(
                endtoend.RatePoint(
                    rate=rate, per_token=0.1, input_token=0.1, output_token=0.1,
                    attainment=attainment, finished=1, total=1, aborted=0,
                )
            )
        # Attainment crosses the 0.9 target between the swept rates; the
        # default interpolation recovers the sub-grid crossing.
        assert curve.goodput() == pytest.approx(1.2)
        assert curve.goodput(target=0.95) == pytest.approx(1.1)

    def test_figure13b_histogram_nonempty(self):
        bins = endtoend.figure13b(duration_s=15.0, rate=30.0)
        assert isinstance(bins, list)
        assert sum(bins) >= 0

    def test_headline_ratios_computed(self):
        results = {
            "mixed": [
                self._curve("loongserve", [(1.0, 1.0), (2.0, 0.95)]),
                self._curve("vllm", [(1.0, 1.0), (2.0, 0.5)]),
            ]
        }
        ratios = endtoend.headline_ratios(results)
        # LoongServe passes the whole sweep (goodput 2.0); vLLM's knee
        # interpolates to 1.2, so the headline ratio is 2.0 / 1.2.
        assert ratios["vllm"].value == pytest.approx(2.0 / 1.2)

    def test_censored_goodput_is_printed_as_a_bound(self):
        """A sweep whose top rate still meets the target only bounds the
        goodput from below; tables and ratios say so, and print the same
        numbers."""
        passes = self._curve("loongserve", [(1.0, 1.0), (2.0, 0.95)])
        knee = self._curve("vllm", [(1.0, 1.0), (2.0, 0.5)])
        also_passes = self._curve("static-sp", [(1.0, 1.0), (2.0, 0.9)])
        assert passes.censored() and also_passes.censored()
        assert not knee.censored()
        assert not passes.censored(target=0.97)
        goodputs = report.render_goodput([passes, knee])
        assert "≥2.00" in goodputs and "≥1.20" not in goodputs and "1.20" in goodputs

        headline = endtoend.headline_ratios({"mixed": [passes, knee, also_passes]})
        assert report.render_ratio(headline["vllm"]) == "≥1.67x"
        assert report.render_ratio(headline["static-sp"]) == (
            "1.00x (both goodputs censored: no bound)"
        )
        # Figure 12's denominator is the best static goodput, a lower
        # bound as soon as any static curve is censored.
        loong_knee = self._curve("loongserve", [(1.0, 1.0), (2.0, 0.5)])
        zipf = endtoend.figure12_goodput_ratios({
            1.0: [loong_knee, knee, also_passes],
            1.2: [passes, knee],
            1.4: [loong_knee, knee],
        })
        assert report.render_ratio(zipf[1.0]) == "≤0.60x"
        assert report.render_ratio(zipf[1.2]) == "≥1.67x"
        assert report.render_ratio(zipf[1.4]) == "1.00x"

    @staticmethod
    def _curve(name, points):
        curve = endtoend.SystemCurve(system=name)
        for rate, attainment in points:
            curve.points.append(
                endtoend.RatePoint(
                    rate=rate, per_token=0.1, input_token=0.1, output_token=0.1,
                    attainment=attainment, finished=1, total=1, aborted=0,
                )
            )
        return curve

    def test_make_system_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_system("gpt-in-a-box")

    def test_make_system_builds_all(self):
        trace = make_trace(SHAREGPT, rate=1.0, num_requests=3, seed=1)
        for name in [
            "loongserve", "loongserve-no-scaleup", "vllm", "splitfuse",
            "deepspeed-mii", "distserve", "static-sp", "replicated-tp2",
        ]:
            system = make_system(name, requests=trace)
            assert hasattr(system, "run")


class TestReportRendering:
    def test_figure2_table_renders(self):
        text = report.render_figure2(microbench.figure2())
        assert "TP=8" in text and "prefill" in text

    def test_figure3_table_renders(self):
        text = report.render_figure3(microbench.figure3())
        assert "SP4TP2" in text

    def test_figure14_tables_render(self):
        assert "proactive" in report.render_figure14a(microbench.figure14a())
        assert "masters" in report.render_figure14b(microbench.figure14b())

    def test_figure15_table_renders(self):
        text = report.render_figure15(microbench.figure15(), limit=5)
        assert "dev" in text

    def test_curves_table_renders(self):
        curve = endtoend.SystemCurve(system="demo")
        curve.points.append(
            endtoend.RatePoint(
                rate=1.0, per_token=0.1, input_token=0.2, output_token=0.3,
                attainment=0.99, finished=9, total=10, aborted=1,
            )
        )
        text = report.render_curves([curve])
        assert "demo" in text and "99%" in text
        assert "P90" in report.render_goodput([curve])
