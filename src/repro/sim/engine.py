"""The simulation run loop.

Two layouts share one clock discipline:

* **Single calendar** (default): one :class:`~repro.sim.events.EventQueue`
  holds every event — the layout every single-server run uses, kept as
  the fast path with zero new work on its hot loop.
* **Sharded calendars** (:meth:`Simulator.create_shard`): each shard —
  one per fleet replica, with the simulator's own queue as shard 0 for
  the control plane — owns its events, and the run loop coordinates
  through a small top-level heap of per-shard head keys.  Pop cost
  drops from O(log total-events) to O(log own-shard events) +
  O(log shards), and each replica's calendar stays cache-local.

Sharding is **bit-identical** to the single calendar: every shard queue
draws seq numbers from one shared counter, so the global
``(time, priority, seq)`` order — and therefore the pop order, the
tie-breaks, and every downstream outcome — is exactly the single-heap
order (golden-gated in ``tests/test_sim_sharded.py``).
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.sim.events import EventQueue, Timer


class Simulator:
    """A virtual clock plus one or more event calendars.

    Serving systems schedule callbacks with :meth:`call_at` /
    :meth:`call_after`; :meth:`run` drains the calendars in timestamp
    order.  The clock never goes backwards; scheduling in the past
    raises.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._stopped = False
        self._until: float | None = None
        self._events_processed = 0
        # Sharded layout (armed lazily by create_shard): _shards[0] is
        # the simulator's own queue; _top is a heap of posted per-shard
        # head entries and _posted[s] is the entry this loop believes is
        # shard s's minimum.  Entries are the shard heaps' own
        # (time, priority, seq, event) tuples, shared by identity — the
        # top heap allocates nothing per event, and staleness checks are
        # single pointer compares.  Invariant: whenever shard s is
        # non-empty, _posted[s] is set and sorts <= its live head — so
        # the smallest posted entry that still *is* its shard's live
        # head is the global minimum.
        self._shards: list[EventQueue] = [self._queue]
        self._multi = False
        self._top: list[tuple] = []
        self._posted: list[tuple | None] = [None]

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def until(self) -> float | None:
        """The ``until`` bound of the run in progress (None: unbounded).

        A server that runs work of its own inside an event (a decode
        window) must not run past it: the loop would have stopped there.
        """
        return self._until

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` asked the run in progress to exit."""
        return self._stopped

    def next_event_time(self) -> float | None:
        """Timestamp of the next live scheduled event (None when idle).

        The fluid stepper bounds its closed-form stretches with this:
        every transient it must not skip over — an arrival, a control
        tick, a fault, another batch's completion — is an already-queued
        event, so stopping at the horizon is conservative.  In sharded
        mode this is the minimum over every shard.
        """
        if not self._multi:
            return self._queue.peek_time()
        head = self._top_head()
        return None if head is None else head[0]

    # The simulator's horizon is already global; :class:`ShardClock`
    # answers the same question for a replica on a shard, so callers
    # that must see every calendar never probe which clock they hold.
    next_global_event_time = next_event_time

    def next_global_event_key(self) -> tuple | None:
        """Full ``(time, priority, seq)`` key of the next live event on
        any calendar — the one the run loop pops next (None when idle).

        An event kept off the calendar under key ``k`` would run next
        exactly when ``k`` sorts below this.
        """
        if not self._multi:
            return self._queue.peek_key()
        head = self._top_head()
        return None if head is None else head[:3]

    def next_seq(self) -> int:
        """Draw a tie-break number from the shared counter (see
        :meth:`EventQueue.next_seq`); post it later with ``seq=``."""
        return self._queue.next_seq()

    def advance_to(self, time: float) -> None:
        """Move the clock forward inside the running event.

        For a caller that runs, inside one event, work it has proved is
        due before every other event (and within :attr:`until`).
        """
        if time < self._now:
            raise ValueError(f"cannot rewind the clock from {self._now:.6f} to {time:.6f}")
        self._now = time

    # ------------------------------------------------------------------
    # Sharded calendars
    # ------------------------------------------------------------------

    def create_shard(self) -> "ShardClock":
        """Open a new event calendar and return its clock facade.

        Fleet runs give each replica a shard so its events sift in a
        heap of its own; the simulator's original queue becomes shard 0
        and keeps the control plane (arrivals, control ticks, faults,
        steal deliveries).  Call before scheduling replica work.
        """
        if not self._multi:
            self._multi = True
            self._top = []
            self._posted = [None]
            self._repost(0)
        queue = EventQueue(counter=self._queue._counter)
        self._shards.append(queue)
        self._posted.append(None)
        shard_id = len(self._shards) - 1
        self._repost(shard_id)
        return ShardClock(self, shard_id, queue)

    def _repost(self, shard_id: int) -> None:
        """Post shard's live head entry to the top heap if not covered."""
        queue = self._shards[shard_id]
        queue.peek_time()  # clear lazily-cancelled heads first
        heap = queue._heap
        if heap:
            entry = heap[0]
            posted = self._posted[shard_id]
            if posted is None or entry < posted:
                self._posted[shard_id] = entry
                heapq.heappush(self._top, entry)

    def _notify(self, shard_id: int, entry: tuple) -> None:
        """A push landed on ``shard_id``; ``entry`` is its heap tuple."""
        posted = self._posted[shard_id]
        if posted is None or entry < posted:
            self._posted[shard_id] = entry
            heapq.heappush(self._top, entry)

    def _top_head(self) -> tuple | None:
        """The globally next live entry across shards (None when all
        are drained), dropping stale top-heap entries on the way.

        The top heap holds *candidate* minima.  An entry counts only
        when it (a) still matches ``_posted`` for its shard — a smaller
        key posted later supersedes it — and (b) still is the shard's
        live head — a cancelled head leaves a stale posted key, which is
        replaced by re-posting the live head.  Every non-empty shard
        always has a posted entry at or below its live head, so the
        first entry passing both checks is the global minimum under the
        exact single-heap (time, priority, seq) order.
        """
        top = self._top
        posted = self._posted
        heappop, heappush = heapq.heappop, heapq.heappush
        while top:
            entry = top[0]
            sid = entry[3].shard
            if posted[sid] is not entry:
                heappop(top)  # superseded by a smaller post
                continue
            # Validate against the shard's live head: clear lazily-
            # cancelled heads, then one identity compare (the top heap
            # shares the shard heaps' tuples) decides staleness.
            queue = self._shards[sid]
            sheap = queue._heap
            while sheap and sheap[0][3].cancelled:
                heappop(sheap)[3].popped = True
                queue._cancelled -= 1
            if sheap and sheap[0] is entry:
                return entry
            # Head was cancelled; drop the stale entry and re-post the
            # live head so the shard stays covered.
            heappop(top)
            posted[sid] = None
            if sheap:
                live = sheap[0]
                posted[sid] = live
                heappush(top, live)
        return None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def call_at(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        label: str = "",
        weak: bool = False,
        seq: int | None = None,
    ) -> Timer:
        """Schedule ``action`` at absolute virtual time ``time``.

        ``weak`` events are pure observers: one popped with no other
        live event remaining is discarded instead of run, so it neither
        advances the clock nor keeps the run alive.  ``seq`` posts the
        event under a number drawn earlier with :meth:`next_seq`; each
        drawn number may be posted at most once.
        """
        if time < self._now:
            raise ValueError(f"cannot schedule at {time:.6f}, clock is at {self._now:.6f}")
        if self._multi:
            entry = self._queue.push_entry(
                time, action, priority=priority, label=label, weak=weak, seq=seq
            )
            self._notify(0, entry)
            return Timer(event=entry[3], queue=self._queue)
        event = self._queue.push(
            time, action, priority=priority, label=label, weak=weak, seq=seq
        )
        return Timer(event=event, queue=self._queue)

    def call_after(
        self,
        delay: float,
        action: Callable[[], None],
        priority: int = 0,
        label: str = "",
        weak: bool = False,
    ) -> Timer:
        """Schedule ``action`` after a relative delay."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.call_at(
            self._now + delay, action, priority=priority, label=label, weak=weak
        )

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Run loops
    # ------------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events until the queues drain, ``until`` passes, or
        ``max_events`` fire.  Returns the final clock value.

        ``peek_time`` skips lazily-cancelled heads, so the ``until``
        comparison only ever sees live events: a dead timer beyond the
        bound can neither leave phantom work in the queue nor make the
        loop break on a timestamp that will never fire.  ``until`` also
        bounds work an event runs past its own timestamp (a server's
        decode window reads it as :attr:`until`); ``max_events`` counts
        events, and one event may carry many decode iterations.
        """
        self._until = until
        if self._multi:
            return self._run_sharded(until, max_events)
        self._stopped = False
        processed = 0
        queue = self._queue
        while not self._stopped:
            next_time = queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self._now = until
                break
            event = queue.pop()
            if event.cancelled:
                # Cancelled timers are lazily discarded: they neither run
                # nor consume the caller's event budget, so a timer-heavy
                # trace cannot exhaust ``run_until_idle`` on no-ops.
                continue
            if event.weak and queue.peek_time() is None:
                # A trailing weak event (pure observer with nothing left
                # to observe) is discarded like a cancelled one: the
                # clock stays at the last real event.
                continue
            self._now = event.time
            event.action()
            self._events_processed += 1
            processed += 1
            if max_events is not None and processed >= max_events:
                break
        if until is not None and self._now < until and queue.peek_time() is None:
            self._now = until
        return self._now

    def _run_sharded(self, until: float | None, max_events: int | None) -> float:
        """Sharded run loop: pop the globally-minimal head across shards
        (:meth:`_top_head`)."""
        self._stopped = False
        processed = 0
        top = self._top
        posted = self._posted
        shards = self._shards
        heappop, heappush = heapq.heappop, heapq.heappush
        while not self._stopped:
            entry = self._top_head()
            if entry is None:
                break  # every shard drained
            if until is not None and entry[0] > until:
                self._now = until
                break
            event = entry[3]
            shard_id = event.shard
            queue = shards[shard_id]
            heappop(top)
            posted[shard_id] = None
            queue.pop()  # pops this same entry; marks the event popped
            # Cover the shard's next head before running the event: an
            # action that schedules nothing here must not strand it.
            sheap = queue._heap
            while sheap and sheap[0][3].cancelled:
                heappop(sheap)[3].popped = True
                queue._cancelled -= 1
            if sheap:
                live = sheap[0]
                posted[shard_id] = live
                heappush(top, live)
            if event.weak and self._top_head() is None:
                continue
            self._now = event.time
            event.action()
            self._events_processed += 1
            processed += 1
            if max_events is not None and processed >= max_events:
                break
        if until is not None and self._now < until and self._top_head() is None:
            self._now = until
        return self._now

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Drain every event; guard against runaway loops."""
        return self.run(max_events=max_events)


class ShardClock:
    """One shard's view of a sharded :class:`Simulator`.

    Quacks like the simulator for the APIs a replica server uses
    (``now`` / ``call_at`` / ``call_after`` / ``stop`` / ``stopped`` /
    ``until`` / ``advance_to`` / ``next_seq`` / ``events_processed`` /
    ``next_event_time`` / ``next_global_event_time`` /
    ``next_global_event_key``), but schedules onto its own calendar.
    :meth:`next_event_time` is the replica-local horizon: the minimum of
    this shard's head and shard 0's, so it bounds fluid windows by the
    next control tick.  It does not see other replicas' events, and not
    everything another replica does reaches this one through a
    control-plane (shard 0) event: ``DisaggDispatcher._handoff`` imports
    a prefix into a decode replica's cache from inside the prefill
    replica's clone-finish hook, an event on the prefill replica's
    shard, so a hybrid decode replica's fluid window can run past the
    import.  :meth:`next_global_event_time` is the whole simulator's
    horizon, for decisions that must match the unsharded layout event
    for event — among them whether a replica
    may run its next decode iteration inside the current event, which
    reads :meth:`next_global_event_key`, :attr:`until` and
    :attr:`stopped` exactly as on the simulator, so both layouts open
    the same decode windows.
    """

    __slots__ = ("_sim", "shard_id", "_queue")

    def __init__(self, sim: Simulator, shard_id: int, queue: EventQueue) -> None:
        self._sim = sim
        self.shard_id = shard_id
        self._queue = queue

    @property
    def now(self) -> float:
        return self._sim._now

    @property
    def events_processed(self) -> int:
        return self._sim._events_processed

    @property
    def until(self) -> float | None:
        return self._sim._until

    @property
    def stopped(self) -> bool:
        return self._sim._stopped

    def next_event_time(self) -> float | None:
        """Replica-local horizon: own head vs the control plane's."""
        own = self._queue.peek_time()
        control = self._sim._shards[0].peek_time()
        if own is None:
            return control
        if control is None or own <= control:
            return own
        return control

    def next_global_event_time(self) -> float | None:
        """The next live event on any shard (:meth:`Simulator.next_event_time`)."""
        return self._sim.next_event_time()

    def next_global_event_key(self) -> tuple | None:
        """:meth:`Simulator.next_global_event_key`: every shard counts."""
        return self._sim.next_global_event_key()

    def next_seq(self) -> int:
        return self._queue.next_seq()

    def advance_to(self, time: float) -> None:
        self._sim.advance_to(time)

    def call_at(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        label: str = "",
        weak: bool = False,
        seq: int | None = None,
    ) -> Timer:
        sim = self._sim
        if time < sim._now:
            raise ValueError(f"cannot schedule at {time:.6f}, clock is at {sim._now:.6f}")
        entry = self._queue.push_entry(
            time, action, priority=priority, label=label, weak=weak, seq=seq
        )
        event = entry[3]
        event.shard = self.shard_id
        sim._notify(self.shard_id, entry)
        return Timer(event=event, queue=self._queue)

    def call_after(
        self,
        delay: float,
        action: Callable[[], None],
        priority: int = 0,
        label: str = "",
        weak: bool = False,
    ) -> Timer:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.call_at(
            self._sim._now + delay, action, priority=priority, label=label, weak=weak
        )

    def stop(self) -> None:
        self._sim.stop()
