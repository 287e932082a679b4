"""Tests for the discrete-event simulation core."""

import math

import pytest

from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from repro.obs import Tracer


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        while queue:
            queue.pop().action()
        assert order == ["a", "b"]

    def test_ties_resolved_by_priority_then_seq(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append("late"), priority=5)
        queue.push(1.0, lambda: order.append("early"), priority=0)
        queue.push(1.0, lambda: order.append("early2"), priority=0)
        while queue:
            queue.pop().action()
        assert order == ["early", "early2", "late"]

    def test_rejects_negative_time(self):
        for time in (-1.0, math.nan):
            with pytest.raises(ValueError):
                EventQueue().push(time, lambda: None)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()


class TestSimulator:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.call_at(5.0, lambda: seen.append(sim.now))
        sim.call_at(3.0, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [3.0, 5.0]
        assert sim.now == 5.0

    def test_call_after_relative(self):
        sim = Simulator()
        seen = []
        sim.call_at(2.0, lambda: sim.call_after(1.5, lambda: seen.append(sim.now)))
        sim.run_until_idle()
        assert seen == [3.5]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(ValueError):
            sim.call_at(1.0, lambda: None)

    def test_run_until_bound(self):
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.call_at(t, lambda t=t: seen.append(t))
        sim.run(until=2.5)
        assert seen == [1.0, 2.0]
        assert sim.now == 2.5

    def test_clock_advances_to_until_when_idle(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_skips_cancelled_head(self):
        # Regression: a lazily-cancelled timer at the head of the queue
        # used to make ``run(until=...)`` break on its (dead) timestamp,
        # leaving the clock short and phantom work in the queue.
        sim = Simulator()
        timer = sim.call_at(7.0, lambda: pytest.fail("cancelled timer ran"))
        timer.cancel()
        sim.run(until=6.0)
        assert sim.now == 6.0
        assert sim.next_event_time() is None

    def test_run_until_cancelled_head_before_live_event(self):
        sim = Simulator()
        seen = []
        timer = sim.call_at(1.0, lambda: seen.append("dead"))
        sim.call_at(2.0, lambda: seen.append("live"))
        timer.cancel()
        sim.run(until=5.0)
        assert seen == ["live"]
        assert sim.now == 5.0

    def test_next_event_time(self):
        sim = Simulator()
        assert sim.next_event_time() is None
        timer = sim.call_at(4.0, lambda: None)
        sim.call_at(9.0, lambda: None)
        assert sim.next_event_time() == 4.0
        timer.cancel()
        assert sim.next_event_time() == 9.0

    def test_a_drawn_seq_posts_in_the_order_of_its_draw(self):
        """An event posted later under an earlier-drawn seq sorts as if it
        had been pushed at the draw: before same-time events pushed since."""
        sim = Simulator()
        log = []
        seq = sim.next_seq()
        sim.call_at(1.0, lambda: log.append("pushed"))
        assert sim.horizon_key() == (1.0, 0, seq + 1)
        sim.call_at(1.0, lambda: log.append("drawn first"), seq=seq)
        assert sim.horizon_key() == (1.0, 0, seq)
        sim.run_until_idle()
        assert log == ["drawn first", "pushed"]

    def test_the_running_event_sees_the_run_bound(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: seen.append(sim.until))
        sim.run(until=5.0)
        assert seen == [5.0]
        sim.run_until_idle()
        assert sim.until is None

    def test_advance_to_moves_forward_only(self):
        sim = Simulator()
        sim.advance_to(2.0)
        assert sim.now == 2.0
        with pytest.raises(ValueError):
            sim.advance_to(1.0)

    def test_deterministic_replay(self):
        def run_once() -> list[float]:
            sim = Simulator()
            seen: list[float] = []
            for t in (3.0, 1.0, 1.0, 2.0):
                sim.call_at(t, lambda t=t: seen.append(t))
            sim.run_until_idle()
            return seen

        assert run_once() == run_once()

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0):
            sim.call_at(t, lambda: None)
        sim.run_until_idle()
        assert sim.events_processed == 2

    def test_max_events_guard(self):
        sim = Simulator()

        def reschedule():
            sim.call_after(1.0, reschedule)

        sim.call_at(0.0, reschedule)
        sim.run(max_events=100)
        assert sim.events_processed == 100

    def test_cancelled_timer_neither_runs_nor_counts(self):
        sim = Simulator()
        fired = []
        timer = sim.call_at(1.0, lambda: fired.append("cancelled"))
        sim.call_at(2.0, lambda: fired.append("live"))
        timer.cancel()
        sim.run_until_idle()
        assert fired == ["live"]
        assert sim.events_processed == 1

    def test_cancelled_timers_do_not_consume_event_budget(self):
        """Regression: a timer-heavy trace whose timers were cancelled
        must not exhaust ``run``'s ``max_events`` budget on no-ops."""
        sim = Simulator()
        fired = []
        timers = [
            sim.call_at(1.0, lambda i=i: fired.append(i)) for i in range(50)
        ]
        for timer in timers:
            timer.cancel()
        sim.call_at(2.0, lambda: fired.append("live"))
        sim.run(max_events=1)
        assert fired == ["live"]
        assert sim.now == 2.0
        assert sim.events_processed == 1

    def test_cancelled_timers_are_compacted_out_of_the_heap(self):
        """Regression: long fleet runs cancel many timers; once cancelled
        entries outnumber live ones the heap must shrink (keeping pop
        cost O(log live)) instead of accumulating dead weight."""
        sim = Simulator()
        fired = []
        timers = [
            sim.call_at(float(i + 1), lambda i=i: fired.append(i))
            for i in range(1000)
        ]
        for timer in timers[100:]:
            timer.cancel()
        queue = sim._queue
        assert len(queue) < 1000  # compaction fired mid-cancellation
        assert queue._cancelled <= len(queue) // 2 + 1
        sim.run_until_idle()
        assert fired == list(range(100))  # order survives the rebuild
        assert sim.events_processed == 100

    def test_compaction_skipped_for_small_heaps(self):
        """Tiny heaps are cheap to pop through; no rebuild below the
        threshold, and lazy discarding still works."""
        sim = Simulator()
        fired = []
        timers = [sim.call_at(1.0, lambda i=i: fired.append(i)) for i in range(10)]
        for timer in timers:
            timer.cancel()
        assert len(sim._queue) == 10  # nothing compacted
        sim.run_until_idle()
        assert fired == []
        assert sim.events_processed == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        timer = sim.call_at(1.0, lambda: None)
        timer.cancel()
        timer.cancel()
        assert sim._queue._cancelled == 1
        sim.run_until_idle()
        assert sim._queue._cancelled == 0

    def test_cancel_after_fire_does_not_drift_counter(self):
        """Regression: cancelling timers whose events already ran (the
        usual cancel-a-timeout-after-completion pattern) must not count
        as heap dead weight nor trigger spurious compactions."""
        sim = Simulator()
        timers = [sim.call_at(1.0, lambda: None) for _ in range(100)]
        sim.run_until_idle()
        for timer in timers:
            timer.cancel()
        assert sim._queue._cancelled == 0
        # A queue polluted this way must still behave for live events.
        fired = []
        sim.call_at(2.0, lambda: fired.append("live"))
        sim.run_until_idle()
        assert fired == ["live"]


class TestTraceRecorder:
    """The tracer's audit log, as the simulator's servers write it."""

    def test_records_and_filters(self):
        trace = Tracer()
        trace.audit(1.0, "arrival", request=1)
        trace.audit(2.0, "finish", request=1)
        assert len(trace) == 2
        assert trace.of_kind("arrival")[0].payload["request"] == 1
        assert trace.kinds() == {"arrival", "finish"}

    def test_disabled_recorder_is_noop(self):
        trace = Tracer(enabled=False)
        trace.audit(1.0, "arrival")
        assert len(trace) == 0

    def test_between_window(self):
        trace = Tracer()
        for t in (1.0, 2.0, 3.0):
            trace.audit(t, "tick")
        assert len(trace.between(1.5, 3.0)) == 1

    def test_render_contains_kind(self):
        trace = Tracer()
        trace.audit(1.0, "scale_up", batch=3)
        assert "scale_up" in trace.render()


class TestWeakEvents:
    """Weak events: pure observers that never stretch the clock."""

    def test_trailing_weak_event_is_discarded(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: fired.append("real"))
        sim.call_at(2.0, lambda: fired.append("weak"), weak=True)
        end = sim.run_until_idle()
        assert fired == ["real"]
        assert end == 1.0  # the weak tail never advanced the clock
        assert sim.events_processed == 1

    def test_weak_event_runs_when_work_remains(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: fired.append("weak"), weak=True)
        sim.call_at(2.0, lambda: fired.append("real"))
        sim.run_until_idle()
        assert fired == ["weak", "real"]
        assert sim.now == 2.0

    def test_weak_chain_stops_at_last_real_event(self):
        """A self-re-arming weak timer (the telemetry sampler pattern)
        samples through the run but leaves the final clock untouched."""
        sim = Simulator()
        samples = []

        def tick():
            samples.append(sim.now)
            if sim.next_event_time() is not None:
                sim.call_after(1.0, tick, weak=True)

        sim.call_after(1.0, tick, weak=True)
        sim.call_at(3.5, lambda: None)
        end = sim.run_until_idle()
        assert samples == [1.0, 2.0, 3.0]
        assert end == 3.5
