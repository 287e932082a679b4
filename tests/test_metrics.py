"""Tests for metrics: normalised latencies, SLO attainment, histograms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.costmodel.latency import RooflineCostModel
from repro.metrics.latency import summarize_latency
from repro.metrics.slo import IdealLatencyModel, max_rate_under_slo, slo_report
from repro.metrics.summary import scale_event_histogram, throughput_tokens_per_s
from repro.model.spec import LWM_7B_1M
from repro.types import RequestState, ScalingEvent, ServeResult
from tests.conftest import make_request


def finished_request(input_len=100, output_len=10, arrival=0.0, finish=5.0):
    request = make_request(input_len=input_len, output_len=output_len, arrival=arrival)
    request.prefill_start = arrival + 0.5
    request.prefill_end = arrival + 1.0
    request.finish_time = finish
    request.generated = output_len
    request.state = RequestState.FINISHED
    return request


@pytest.fixture(scope="module")
def ideal() -> IdealLatencyModel:
    cost = RooflineCostModel(cluster=Cluster.homogeneous(8), model=LWM_7B_1M)
    return IdealLatencyModel(cost_model=cost, tensor_parallel=2, max_instances=4)


class TestLatencySummary:
    def test_summary_values(self):
        result = ServeResult(system="x", requests=[finished_request()])
        summary = summarize_latency(result)
        assert summary.per_token == pytest.approx(5.0 / 110)
        assert summary.input_token == pytest.approx(1.0 / 100)
        assert summary.output_token == pytest.approx(4.0 / 10)
        assert summary.finished == 1

    def test_empty_result_infinite(self):
        summary = summarize_latency(ServeResult(system="x", requests=[]))
        assert summary.per_token == float("inf")

    def test_unfinished_excluded(self):
        result = ServeResult(
            system="x", requests=[finished_request(), make_request()]
        )
        summary = summarize_latency(result)
        assert summary.finished == 1
        assert summary.total == 2


class TestSLO:
    def test_ideal_latency_scales_with_length(self, ideal):
        short = make_request(input_len=1_000, output_len=10)
        long = make_request(input_len=100_000, output_len=10)
        assert ideal.ideal_latency(long) > ideal.ideal_latency(short)

    def test_deadline_is_scaled(self, ideal):
        request = make_request(input_len=1_000, output_len=10)
        assert ideal.deadline(request, scale=25.0) == pytest.approx(
            25.0 * ideal.ideal_latency(request)
        )

    def test_attainment_counts_misses(self, ideal):
        fast = finished_request(input_len=1_000, output_len=50, finish=2.0)
        slow = finished_request(input_len=1_000, output_len=50, finish=50_000.0)
        report = slo_report(ServeResult(system="x", requests=[fast, slow]), ideal)
        assert report.attained == 1
        assert report.attainment == pytest.approx(0.5)

    def test_aborted_count_as_missed(self, ideal):
        fast = finished_request(input_len=1_000, output_len=50, finish=2.0)
        aborted = make_request()
        result = ServeResult(system="x", requests=[fast], aborted=[aborted])
        report = slo_report(result, ideal)
        assert report.total == 2
        assert report.attainment == pytest.approx(0.5)

    def test_aborted_only_run_attains_nothing(self, ideal):
        result = ServeResult(system="x", requests=[], aborted=[make_request()])
        report = slo_report(result, ideal)
        assert report.total == 1
        assert report.attained == 0
        assert report.attainment == 0.0

    def test_empty_run_attainment_zero(self, ideal):
        report = slo_report(ServeResult(system="x", requests=[]), ideal)
        assert report.total == 0
        assert report.attainment == 0.0

    def test_single_token_output_has_no_decode_component(self, ideal):
        # output_len=1 means zero decode steps: the ideal latency is
        # pure prefill and stays finite/positive.
        one = make_request(input_len=1_000, output_len=1)
        two = make_request(input_len=1_000, output_len=2)
        assert 0.0 < ideal.ideal_latency(one) < ideal.ideal_latency(two)

    @given(
        shorter=st.integers(min_value=1, max_value=50_000),
        delta=st.integers(min_value=1, max_value=50_000),
        output_len=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=30, deadline=None)
    def test_deadline_monotone_in_input_len(
        self, ideal, shorter, delta, output_len
    ):
        # A longer prompt can never buy a *tighter* deadline: the 25x
        # no-load SLO shape must be monotone in input length.
        a = make_request(input_len=shorter, output_len=output_len)
        b = make_request(input_len=shorter + delta, output_len=output_len)
        assert ideal.deadline(b) >= ideal.deadline(a)

    def test_max_rate_interpolates_the_crossing(self):
        rates = [1.0, 2.0, 3.0, 4.0]
        attainments = [1.0, 0.95, 0.80, 0.40]
        # 0.95 -> 0.80 crosses 0.90 a third of the way from 2.0 to 3.0.
        expected = 2.0 + (0.95 - 0.90) / (0.95 - 0.80) * 1.0
        assert max_rate_under_slo(rates, attainments) == pytest.approx(
            expected
        )

    def test_max_rate_interpolation_between_grid_neighbours(self):
        value = max_rate_under_slo([1.0, 2.0], [1.0, 0.5])
        assert 1.0 < value < 2.0
        assert value == pytest.approx(1.2)

    def test_max_rate_unsorted_sweep_is_order_independent(self):
        rates = [3.0, 1.0, 4.0, 2.0]
        attainments = [0.80, 1.0, 0.40, 0.95]
        assert max_rate_under_slo(rates, attainments) == pytest.approx(
            max_rate_under_slo(sorted(rates), [1.0, 0.95, 0.80, 0.40])
        )

    def test_max_rate_all_passing_has_nothing_to_interpolate(self):
        assert max_rate_under_slo([1.0, 2.0], [1.0, 0.95]) == 2.0

    def test_max_rate_flat_attainment_does_not_extrapolate(self):
        # Attainment equal on both sides of the knee: no meaningful
        # crossing, keep the grid answer.
        assert max_rate_under_slo([1.0, 2.0], [0.9, 0.9]) == 2.0

    def test_max_rate_none_qualify(self):
        assert max_rate_under_slo([1.0], [0.5]) == 0.0

    def test_max_rate_empty_sweep(self):
        assert max_rate_under_slo([], []) == 0.0

    def test_max_rate_misaligned_raises(self):
        with pytest.raises(ValueError):
            max_rate_under_slo([1.0, 2.0], [1.0])


class TestSummaries:
    def test_throughput_tokens(self):
        result = ServeResult(
            system="x", requests=[finished_request(input_len=90, output_len=10)],
            makespan=10.0,
        )
        assert throughput_tokens_per_s(result) == pytest.approx(10.0)

    def test_zero_makespan(self):
        assert throughput_tokens_per_s(ServeResult(system="x")) == 0.0

    def test_scale_event_histogram_bins(self):
        events = [
            ScalingEvent(time=t, kind="scale_up", group_before=(0,), group_after=(0, 1))
            for t in (1.0, 5.0, 12.0, 25.0)
        ]
        bins = scale_event_histogram(events, "scale_up", bin_seconds=10.0)
        assert bins == [2, 1, 1]

    def test_histogram_respects_until(self):
        events = [
            ScalingEvent(time=1.0, kind="scale_up", group_before=(0,), group_after=(0, 1))
        ]
        bins = scale_event_histogram(events, "scale_up", bin_seconds=10.0, until=45.0)
        assert bins == [1, 0, 0, 0, 0]

    def test_histogram_filters_kind(self):
        events = [
            ScalingEvent(time=1.0, kind="scale_down", group_before=(0, 1), group_after=(0,))
        ]
        assert scale_event_histogram(events, "scale_up", until=10.0) == [0]

    def test_histogram_rejects_bad_bin(self):
        with pytest.raises(ValueError):
            scale_event_histogram([], "scale_up", bin_seconds=0.0)

    def test_histogram_empty_without_until_is_empty(self):
        assert scale_event_histogram([], "scale_up") == []

    def test_histogram_clamps_event_at_horizon(self):
        # An event exactly on the horizon lands in the last bin instead
        # of indexing one past it.
        events = [
            ScalingEvent(time=20.0, kind="scale_up",
                         group_before=(0,), group_after=(0, 1))
        ]
        assert scale_event_histogram(events, "scale_up", bin_seconds=10.0) == [0, 1]
        assert scale_event_histogram(
            events, "scale_up", bin_seconds=10.0, until=15.0
        ) == [0, 1]

    def test_throughput_counts_only_finished(self):
        unfinished = make_request(input_len=50, output_len=10)
        result = ServeResult(
            system="x",
            requests=[finished_request(input_len=90, output_len=10), unfinished],
            makespan=10.0,
        )
        assert throughput_tokens_per_s(result) == pytest.approx(10.0)
