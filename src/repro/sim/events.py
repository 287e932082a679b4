"""Event primitives for the discrete-event simulator.

Hot-path layout: the heap stores plain ``(time, priority, seq, event)``
tuples so every sift comparison runs in C on builtins instead of calling
a dataclass ``__lt__``, and :class:`Event` / :class:`Timer` carry
``__slots__`` — at millions of events per run, the per-event dict was a
measurable share of both wall time and peak RSS.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

# Heap entry: (time, priority, seq, event).  The first three fields are
# the deterministic total order; the event rides along as payload.
_HeapEntry = tuple


class Event:
    """A scheduled callback.

    Ordering is (time, priority, seq): ties at the same timestamp resolve
    by explicit priority, then insertion order — deterministic replay is a
    hard requirement for reproducible experiments.
    """

    __slots__ = (
        "time", "priority", "seq", "action", "cancelled", "popped", "weak",
        "shard",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        action: Callable[[], None],
        weak: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.cancelled = False
        self.popped = False
        # A weak event runs only if another live event remains queued:
        # popped last, it is discarded without advancing the clock, so
        # pure observers (telemetry samplers) never stretch a run's
        # makespan past its final real event.
        self.weak = weak
        # Which of the simulator's calendars holds this event (0 = the
        # simulator's own queue).  The run loop shares the heap-entry
        # tuples between the shard heaps and its top-level heap —
        # allocation-free coordination — and reads the owning shard
        # back off the event.
        self.shard = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("popped" if self.popped else "live")
        return f"Event(time={self.time!r}, priority={self.priority}, seq={self.seq}, {state})"


class EventQueue:
    """A monotonic min-heap of events.

    Cancelled events are flagged in place (heap removal is O(n)) and
    lazily discarded on pop or at the :meth:`head`; once they outnumber the live events
    the heap is compacted in one O(n) rebuild, so long timer-heavy runs
    keep their pop cost at O(log live) instead of O(log total-ever-
    cancelled).
    """

    # Compaction only kicks in past this heap size: tiny heaps are cheap
    # to pop through regardless, and the threshold keeps rebuild cost
    # amortised O(1) per cancellation.
    _COMPACT_MIN = 64

    def __init__(self, counter: "itertools.count | None" = None) -> None:
        self._heap: list[_HeapEntry] = []
        # A simulator passes one shared counter to every shard's queue:
        # seq numbers are then allocated in global program order, so the
        # (time, priority, seq) total order — and therefore the pop
        # order — is one across shards, whichever shard holds an event.
        self._counter = counter if counter is not None else itertools.count()
        self._cancelled = 0

    def push(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        weak: bool = False,
        seq: int | None = None,
    ) -> Event:
        """Schedule ``action`` and return its event (see :meth:`push_entry`)."""
        return self.push_entry(time, action, priority, weak, seq)[3]

    def push_entry(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        weak: bool = False,
        seq: int | None = None,
    ) -> _HeapEntry:
        """Schedule ``action`` and return its heap entry tuple; ``seq``
        reuses a number drawn earlier with :meth:`next_seq` instead of
        drawing a fresh one.

        The run loop posts this exact tuple into its top-level heap of
        shard heads, so coordinating the calendars allocates nothing
        beyond the push itself.
        """
        if not time >= 0:  # NaN fails this too
            raise ValueError(f"event time must be non-negative, got {time}")
        if seq is None:
            seq = next(self._counter)
        event = Event(time, priority, seq, action, weak)
        entry = (time, priority, seq, event)
        heapq.heappush(self._heap, entry)
        return entry

    def next_seq(self) -> int:
        """Draw the next tie-break number from this queue's counter.

        A caller that keeps events of its own off the calendar (a
        server's decode calendar) draws their numbers here, at the
        moment it would have pushed them, and later posts one with
        ``seq=``: it then orders exactly as an event pushed at the
        draw would have.
        """
        return next(self._counter)

    def discard(self, event: Event) -> None:
        """Cancel a scheduled event; it will never run nor count.

        The heap entry stays until popped or compacted away.  Discarding
        an event that already left the heap (it ran, or was lazily
        dropped) is a no-op — the dead-weight counter only tracks
        cancelled events still occupying heap slots.
        """
        if event.cancelled or event.popped:
            return
        event.cancelled = True
        self._cancelled += 1
        if self._cancelled > len(self._heap) // 2 and len(self._heap) >= self._COMPACT_MIN:
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify the survivors."""
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from empty event queue")
        event = heapq.heappop(self._heap)[3]
        event.popped = True
        if event.cancelled:
            self._cancelled -= 1
        return event

    def head(self) -> _HeapEntry | None:
        """The next *live* event's heap entry, ``(time, priority, seq,
        event)`` (None when none remain).

        Lazily-cancelled heads are dropped on the way: a dead timer must
        never leak into the run loop's ``until`` comparison or any
        horizon decision, so the head this reports is always a live
        event.  Entries compare by key alone (seq numbers are unique),
        so a replica's horizon takes the minimum of several calendars'
        heads without building a key for each.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)[3].popped = True
            self._cancelled -= 1
        return heap[0] if heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class Timer:
    """Cancellable handle returned by :meth:`Simulator.call_at`.

    Cancellation always routes through the owning queue —
    :meth:`EventQueue.discard` is the single mechanism, so every
    cancelled event participates in the dead-weight accounting and
    compaction.
    """

    __slots__ = ("event", "queue", "cancelled")

    def __init__(self, event: Event, queue: EventQueue) -> None:
        self.event = event
        self.queue = queue
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        self.queue.discard(self.event)

    @property
    def active(self) -> bool:
        """Still scheduled: neither cancelled nor already fired.

        The fleet controller uses this to drop spent lifecycle timers
        from its ledger instead of cancelling events that already ran.
        """
        return not self.cancelled and not self.event.popped
