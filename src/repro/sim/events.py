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
        "time", "priority", "seq", "action", "label", "cancelled", "popped",
        "weak", "shard",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        action: Callable[[], None],
        label: str = "",
        weak: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False
        self.popped = False
        # A weak event runs only if another live event remains queued:
        # popped last, it is discarded without advancing the clock, so
        # pure observers (telemetry samplers) never stretch a run's
        # makespan past its final real event.
        self.weak = weak
        # Which calendar holds this event in a sharded simulator (0 =
        # the simulator's own queue).  The sharded run loop shares the
        # heap-entry tuples between the shard heaps and its top-level
        # heap — allocation-free coordination — and reads the owning
        # shard back off the event.
        self.shard = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("popped" if self.popped else "live")
        return f"Event(time={self.time!r}, priority={self.priority}, seq={self.seq}, {state})"


class EventQueue:
    """A monotonic min-heap of events.

    Cancelled events are flagged in place (heap removal is O(n)) and
    lazily discarded on pop or peek; once they outnumber the live events
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
        # Sharded simulators pass one shared counter to every shard's
        # queue: seq numbers are then allocated in global program order,
        # so the (time, priority, seq) total order — and therefore the
        # pop order — is identical to a single queue holding all events.
        self._counter = counter if counter is not None else itertools.count()
        self._cancelled = 0

    def push(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        label: str = "",
        weak: bool = False,
        seq: int | None = None,
    ) -> Event:
        """Schedule ``action``; ``seq`` reuses a number drawn earlier
        with :meth:`next_seq` instead of drawing a fresh one."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        if seq is None:
            seq = next(self._counter)
        event = Event(time, priority, seq, action, label, weak)
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def push_entry(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        label: str = "",
        weak: bool = False,
        seq: int | None = None,
    ) -> _HeapEntry:
        """:meth:`push`, but returns the heap entry tuple itself.

        The sharded run loop re-posts this exact tuple into its
        top-level heap, so cross-calendar coordination allocates nothing
        beyond what a single-heap push already would — per-event
        allocation parity keeps GC pressure (a measurable fleet-scale
        cost) identical to the unsharded engine.
        """
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        if seq is None:
            seq = next(self._counter)
        event = Event(time, priority, seq, action, label, weak)
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

    def peek_time(self) -> float | None:
        """Timestamp of the next *live* event (None when none remain).

        Lazily-cancelled heads are dropped on the way: a dead timer's
        timestamp must never leak into ``Simulator.run``'s ``until``
        comparison (or any other consumer's horizon decision), so the
        head this reports is always a live event.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)[3].popped = True
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def peek_key(self) -> tuple | None:
        """Full ``(time, priority, seq)`` key of the next live event.

        Same lazy-cancelled-head cleanup as :meth:`peek_time`; the
        sharded run loop needs the whole key so per-shard heads compare
        under the exact single-heap tie-break order.
        """
        head = self.head()
        return None if head is None else head[:3]

    def head(self) -> _HeapEntry | None:
        """The next live event's heap entry, ``(time, priority, seq,
        event)`` (None when none remain), after the same cleanup.

        Entries compare by key alone (seq numbers are unique), so a
        replica's horizon takes the minimum of several calendars' heads
        without building a key for each.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)[3].popped = True
            self._cancelled -= 1
        return heap[0] if heap else None

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots."""
        return self._cancelled

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
