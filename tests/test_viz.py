"""Tests for the text-mode timeline visualisation."""

import pytest

from repro.types import BatchStats, IterationLedger, Phase, ServeResult
from repro.viz.timeline import occupancy_timeline, utilization_summary


def make_result(stats: list[BatchStats], makespan: float) -> ServeResult:
    return ServeResult(
        system="x", iterations=IterationLedger(rows=stats), makespan=makespan
    )


def stat(phase: Phase, start: float, duration: float, dop: int) -> BatchStats:
    return BatchStats(
        iteration=0, phase=phase, batch_size=1, total_tokens=10,
        dop=dop, duration=duration, start_time=start,
    )


class TestOccupancyTimeline:
    def test_empty_run(self):
        assert "no iterations" in occupancy_timeline(make_result([], 0.0), 4)

    def test_prefill_marks_rendered(self):
        result = make_result([stat(Phase.PREFILL, 0.0, 10.0, 4)], makespan=10.0)
        text = occupancy_timeline(result, num_instances=4, columns=10)
        assert "P" in text
        assert text.count("\n") >= 4  # 4 instance rows + axis + legend

    def test_decode_marks_rendered(self):
        result = make_result([stat(Phase.DECODE, 0.0, 10.0, 2)], makespan=10.0)
        text = occupancy_timeline(result, num_instances=4, columns=10)
        assert "d" in text
        top_row = text.splitlines()[0]
        assert "d" not in top_row  # only 2 of 4 slots busy

    def test_idle_periods_dotted(self):
        result = make_result([stat(Phase.PREFILL, 0.0, 1.0, 1)], makespan=10.0)
        text = occupancy_timeline(result, num_instances=2, columns=10)
        assert "." in text

    def test_axis_shows_makespan(self):
        result = make_result([stat(Phase.PREFILL, 0.0, 5.0, 1)], makespan=5.0)
        assert "5.0s" in occupancy_timeline(result, 2, columns=20)


class TestUtilizationSummary:
    def test_fractions_sum_to_one(self):
        result = make_result(
            [stat(Phase.PREFILL, 0.0, 5.0, 2), stat(Phase.DECODE, 5.0, 5.0, 1)],
            makespan=10.0,
        )
        util = utilization_summary(result, num_instances=2)
        assert util["prefill"] + util["decode"] + util["idle"] == pytest.approx(1.0)
        assert util["prefill"] == pytest.approx(0.5)
        assert util["decode"] == pytest.approx(0.25)

    def test_zero_makespan_is_idle(self):
        util = utilization_summary(make_result([], 0.0), 2)
        assert util["idle"] == 1.0
