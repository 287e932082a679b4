"""Unit tests for the shared request/result types."""

import pytest

from repro.types import Phase, Request, RequestState, ScalingEvent, ServeResult
from tests.conftest import make_request


class TestRequestValidation:
    def test_rejects_zero_input(self):
        with pytest.raises(ValueError):
            Request(request_id=0, input_len=0, output_len=5)

    def test_rejects_negative_output(self):
        with pytest.raises(ValueError):
            Request(request_id=0, input_len=5, output_len=-1)

    def test_max_tokens_defaults_to_output_len(self):
        request = make_request(input_len=10, output_len=7)
        assert request.max_tokens == 7

    def test_explicit_max_tokens_preserved(self):
        request = make_request(input_len=10, output_len=7, max_tokens=99)
        assert request.max_tokens == 99


class TestRequestDerivedProperties:
    def test_current_len_counts_generated(self):
        request = make_request(input_len=100, output_len=10)
        assert request.current_len == 100
        request.generated = 4
        assert request.current_len == 104

    def test_max_total_len(self):
        request = make_request(input_len=100, output_len=10)
        assert request.max_total_len == 110

    def test_phase_transitions_on_first_token(self):
        request = make_request()
        assert request.phase == Phase.PREFILL
        request.generated = 1
        assert request.phase == Phase.DECODE

    def test_finished_flag(self):
        request = make_request()
        assert not request.finished
        request.state = RequestState.FINISHED
        assert request.finished


class TestRequestLatencies:
    def _finished_request(self) -> Request:
        request = make_request(input_len=100, output_len=10, arrival=1.0)
        request.prefill_start = 2.0
        request.prefill_end = 3.0
        request.finish_time = 5.0
        request.state = RequestState.FINISHED
        return request

    def test_end_to_end_latency(self):
        assert self._finished_request().end_to_end_latency == pytest.approx(4.0)

    def test_prefill_latency_from_arrival(self):
        assert self._finished_request().prefill_latency == pytest.approx(2.0)

    def test_decode_latency(self):
        assert self._finished_request().decode_latency == pytest.approx(2.0)

    def test_normalized_latency(self):
        request = self._finished_request()
        assert request.normalized_latency == pytest.approx(4.0 / 110)

    def test_normalized_input_latency(self):
        assert self._finished_request().normalized_input_latency == pytest.approx(2.0 / 100)

    def test_normalized_output_latency(self):
        assert self._finished_request().normalized_output_latency == pytest.approx(2.0 / 10)

    def test_unfinished_request_raises(self):
        request = make_request()
        with pytest.raises(ValueError):
            _ = request.end_to_end_latency

    def test_record_first_token_only_once(self):
        request = make_request()
        request.record_first_token(1.0)
        request.record_first_token(9.0)
        assert request.first_token_time == 1.0


class TestScalingEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ScalingEvent(time=0.0, kind="sideways", group_before=(0,), group_after=(0, 1))

    def test_accepts_scale_up(self):
        event = ScalingEvent(time=1.0, kind="scale_up", group_before=(0,), group_after=(0, 1))
        assert event.kind == "scale_up"


class TestServeResult:
    def test_empty_result(self):
        result = ServeResult(system="x")
        assert result.finished_requests == []
