"""Tests for the benchmark's own machinery (not for the simulator)."""

from __future__ import annotations

import pytest

from perfbench import layers
from perfbench.layers import LayerProfiler, Target
from perfbench.outcomes import (
    AccountingError,
    episode_outcome,
    ideal_model,
    outcome_digest,
    percentile,
    request_ledger,
    serving_metrics,
    tail_percentile,
)
from repro.types import Request, RequestState, ServeResult


def _request(rid: int, arrival: float = 0.0, **served) -> Request:
    request = Request(request_id=rid, input_len=100, output_len=4, arrival_time=arrival)
    for key, value in served.items():
        setattr(request, key, value)
    return request


def _finished(rid: int, arrival: float, ttft: float, e2e: float) -> Request:
    return _request(
        rid, arrival, state=RequestState.FINISHED, generated=4,
        prefill_start=arrival, prefill_end=arrival + ttft,
        first_token_time=arrival + ttft, finish_time=arrival + e2e,
    )


# -- tail percentile -----------------------------------------------------------


def test_tail_is_p99_from_1000_requests_and_p90_below():
    assert tail_percentile(999) == 90
    assert tail_percentile(1000) == 99
    assert tail_percentile(150) == 90


@pytest.mark.parametrize("submitted", [100, 999, 1000, 2500])
def test_tail_keeps_ten_samples_beyond_it(submitted):
    values = list(range(submitted))
    cut = percentile(values, tail_percentile(submitted))
    assert sum(v > cut for v in values) >= 10


def test_serving_metrics_pick_the_tail_by_submitted_count():
    rows = [[float(i), 0.01, 0.001, True] for i in range(1, 101)]
    episode = {"ledger": {"submitted": 100, "finished": 100, "aborted": 0,
                          "rejected": 0, "stranded": 0},
               "makespan": 50.0, "rows": rows}
    metrics = serving_metrics([episode])
    assert metrics["tail_percentile"] == 90
    assert metrics["ttft_tail_s"] == 90.0
    assert metrics["ttft_p50_s"] == 50.0
    assert metrics["goodput_rps"] == 2.0
    ten = [dict(episode, rows=[list(r) for r in rows]) for _ in range(10)]
    assert serving_metrics(ten)["tail_percentile"] == 99


# -- self-time arithmetic ------------------------------------------------------


def test_self_time_of_nested_wrapped_calls(monkeypatch):
    # The profiler's origin, then the start/stop reads of three calls.
    clock = iter([0.0, 0.0, 1.0, 3.0, 4.0, 4.5, 7.0])
    monkeypatch.setattr(layers, "perf_counter", lambda: next(clock))
    profiler = LayerProfiler(layers={})
    profiler.self_s.update(outer=0.0, inner=0.0)
    profiler.calls.update(outer=0, inner=0)
    inner = profiler.wrap("inner", "inner", lambda: None, span=True)

    def body():
        inner()  # 1.0 -> 3.0
        inner()  # 4.0 -> 4.5
        return "done"

    outer = profiler.wrap("outer", "outer", body, span=True)
    assert outer() == "done"  # 0.0 -> 7.0
    assert profiler.calls == {"outer": 1, "inner": 2}
    assert profiler.self_s["inner"] == pytest.approx(2.5)
    assert profiler.self_s["outer"] == pytest.approx(7.0 - 2.5)
    assert sum(profiler.self_s.values()) == pytest.approx(7.0)
    assert [s[1] for s in profiler.spans] == ["inner", "inner", "outer"]


def test_wrapper_propagates_exceptions_and_unwinds_the_stack():
    profiler = LayerProfiler(layers={})
    profiler.self_s["boom"] = 0.0
    profiler.calls["boom"] = 0

    def fail():
        raise KeyError("x")

    with pytest.raises(KeyError):
        profiler.wrap("boom", "fail", fail)()
    assert profiler.calls["boom"] == 1 and profiler._stack == []


# -- request accounting --------------------------------------------------------


def test_stranded_request_is_caught():
    done = _finished(1, 0.0, 0.5, 2.0)
    stuck = _request(2, 1.0, state=RequestState.PREEMPTED, preemptions=1)
    result = ServeResult(system="t", requests=[done, stuck], makespan=2.0)
    ledger = request_ledger([done, stuck], result)
    assert ledger == {"finished": 1, "aborted": 0, "rejected": 0,
                      "stranded": 1, "submitted": 2}


def test_silently_dropped_request_fails_accounting():
    done = _finished(1, 0.0, 0.5, 2.0)
    dropped = _finished(2, 1.0, 0.5, 2.0)  # finished, but in no result list
    result = ServeResult(system="t", requests=[done], makespan=3.0)
    with pytest.raises(AccountingError):
        request_ledger([done, dropped], result)


def test_double_counted_and_unknown_requests_fail_accounting():
    done = _finished(1, 0.0, 0.5, 2.0)
    twice = ServeResult(system="t", requests=[done], aborted=[done], makespan=2.0)
    with pytest.raises(AccountingError):
        request_ledger([done], twice)
    stranger = ServeResult(system="t", requests=[done, _finished(9, 0.0, 0.1, 1.0)])
    with pytest.raises(AccountingError):
        request_ledger([done], stranger)


def test_rejected_and_aborted_are_told_apart():
    rejected = _request(1, state=RequestState.FINISHED, deadline=5.0)
    aborted = _request(2, state=RequestState.FINISHED)
    result = ServeResult(system="t", aborted=[rejected, aborted])
    ledger = request_ledger([rejected, aborted], result)
    assert (ledger["rejected"], ledger["aborted"], ledger["finished"]) == (1, 1, 0)


# -- wrappers are inert --------------------------------------------------------


def _small_fleet_run(profiler: LayerProfiler | None):
    from repro.experiments.systems import make_fleet
    from repro.obs import Observability
    from repro.sessions import make_session_trace

    trace = make_session_trace(rate=2.0, num_sessions=6, seed=3)
    fleet = make_fleet("loongserve", replicas=3, disagg=1, prefix_cache=True,
                       router="least-kv", qos=True, kv_tiers="lru")
    fleet.observe(Observability())
    if profiler is not None:
        with profiler:
            result = fleet.run(trace)
    else:
        result = fleet.run(trace)
    return trace, fleet, result


def test_wrappers_leave_the_outcome_digest_unchanged():
    from repro.core import global_manager
    from repro.sim.events import EventQueue

    originals = (EventQueue.push, global_manager.select_prefill_requests)
    trace, fleet, plain = _small_fleet_run(None)
    profiler = LayerProfiler()
    profiler.count_boundaries()
    traced_trace, _, traced = _small_fleet_run(profiler)
    assert outcome_digest(traced_trace) == outcome_digest(trace)
    assert traced.makespan == plain.makespan
    assert episode_outcome(traced_trace, traced, ideal_model(fleet)) == (
        episode_outcome(trace, plain, ideal_model(fleet))
    )
    assert (EventQueue.push, global_manager.select_prefill_requests) == originals
    assert not profiler.missing
    for layer in ("sim.queue", "core.server", "core.global_manager",
                  "prefix_cache", "fleet.disagg", "qos", "obs"):
        assert profiler.calls[layer] > 0, layer


def test_perfetto_export_validates():
    from repro.obs.export import validate_perfetto

    profiler = LayerProfiler(layers={"work": (Target("repro.types:Request", ()),)})
    profiler.wrap("work", "step", lambda: None, span=True)()
    doc = profiler.perfetto("unit")
    assert validate_perfetto(doc) == []
    assert sum(e["ph"] == "X" for e in doc["traceEvents"]) == 1
