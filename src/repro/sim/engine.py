"""The simulation run loop.

Every event sits on one of the simulator's calendars (*shards*), each
an :class:`~repro.sim.events.EventQueue`.  Shard 0 is the simulator's
own queue: a standalone server, the fleet control plane (arrivals,
control ticks, faults, steal deliveries, telemetry) and every replica
of an unsharded fleet post there.  A sharded fleet opens one more shard
per replica (:meth:`Simulator.create_shard`), so each replica's events
sift in a heap of their own: a pop costs O(log own-shard events) +
O(log shards), and each replica's calendar stays cache-local.  One run
loop pops the smallest live head across the shards through a small
top-level heap of posted shard heads.

Every shard queue draws seq numbers from one shared counter, so the
loop pops in one ``(time, priority, seq)`` order whatever the layout.
What a sharded fleet keeps is every **outcome**, not every event: a
replica's server may run work of its own ahead of other replicas'
events, up to its horizon (:meth:`ShardClock.horizon_key`), the
earliest event that can touch it.  Work that cannot be touched runs in
the order it would have run, so per-request records, iteration stats,
scaling events and makespan are those of the unsharded fleet, and only
the number of events falls (golden-gated in
``tests/test_sim_sharded.py`` and ``tests/test_perfbench_goldens.py``).
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.sim.events import EventQueue, Timer


class Simulator:
    """A virtual clock plus its event calendars.

    Serving systems schedule callbacks with :meth:`call_at` /
    :meth:`call_after`; :meth:`run` drains the calendars in
    ``(time, priority, seq)`` order.  Scheduling in the past raises.
    With shard 0 alone the clock never goes backwards; with replica
    shards it can step back between replicas that run ahead of each
    other (see :class:`ShardClock`).
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._until: float | None = None
        self._events_processed = 0
        # _shards[0] is the simulator's own queue; _top is a heap of
        # posted per-shard head entries and _posted[s] is the entry this
        # loop believes is shard s's minimum.  Entries are the shard
        # heaps' own (time, priority, seq, event) tuples, shared by
        # identity — the top heap allocates nothing per event, and
        # staleness checks are single pointer compares.  Invariant:
        # whenever shard s is non-empty, _posted[s] is set and sorts <=
        # its live head — so the smallest posted entry that still *is*
        # its shard's live head is the global minimum.
        self._shards: list[EventQueue] = [self._queue]
        self._top: list[tuple] = []
        self._posted: list[tuple | None] = [None]
        # Which shards' events may write to other replicas: shard 0
        # always, and a replica's once it holds a request with a
        # completion hook (ShardClock.mark_reaching).  _reach_queues
        # lists their calendars, which bound every other replica's
        # horizon; _running is the shard whose event runs now.
        self._reaches: list[bool] = [True]
        self._reach_queues: list[EventQueue] = [self._queue]
        self._running = 0
        # The latest time any event reached with advance_to: a replica
        # running ahead of its peers' events leaves the clock behind it
        # when the loop pops their earlier events, and a run ends here.
        self._high = 0.0

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

    def next_event_time(self) -> float | None:
        """Timestamp of the next live scheduled event on any shard (None
        when idle).

        The idle test: the serving loop reads a run that ends with
        nothing queued as one that ran out of work, not out of its event
        budget, and the telemetry sampler stops re-arming once nothing
        else is queued.
        """
        head = self._top_head()
        return None if head is None else head[0]

    def horizon_key(self) -> tuple | None:
        """Full ``(time, priority, seq)`` key of the next live event on
        any calendar — the one the run loop pops next (None when idle).

        A server on this clock (a standalone server, or every replica
        of an unsharded fleet) may run work it keeps off the calendar
        under key ``k`` inside the running event exactly when ``k``
        sorts below this: it is then what the loop would run next.
        :meth:`ShardClock.horizon_key` answers for a replica on a shard.
        """
        head = self._top_head()
        return None if head is None else head[:3]

    def mark_reaching(self) -> None:
        """Nothing to mark: a server on the simulator itself (standalone,
        or a replica of an unsharded fleet) already reads the global key,
        and shard 0 bounds every replica's horizon."""

    def next_seq(self) -> int:
        """Draw a tie-break number from the shared counter (see
        :meth:`EventQueue.next_seq`); post it later with ``seq=``."""
        return self._queue.next_seq()

    def advance_to(self, time: float) -> None:
        """Move the clock forward inside the running event.

        For a caller that runs, inside one event, work it has proved is
        due before every event that can touch it (and within
        :attr:`until`): its clock's :meth:`horizon_key`.
        """
        if time < self._now:
            raise ValueError(f"cannot rewind the clock from {self._now:.6f} to {time:.6f}")
        self._now = time
        if time > self._high:
            self._high = time

    # ------------------------------------------------------------------
    # Shards
    # ------------------------------------------------------------------

    def create_shard(self) -> "ShardClock":
        """Open a new, empty event calendar and return its clock facade.

        A sharded fleet gives each replica one, so its events sift in a
        heap of their own; shard 0 keeps the control plane.
        """
        queue = EventQueue(counter=self._queue._counter)
        self._shards.append(queue)
        self._posted.append(None)
        self._reaches.append(False)
        return ShardClock(self, len(self._shards) - 1, queue)

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
        replaced by posting the live head.  Every non-empty shard
        always has a posted entry at or below its live head, so the
        first entry passing both checks is the global minimum under the
        (time, priority, seq) order.
        """
        top = self._top
        posted = self._posted
        while top:
            entry = top[0]
            sid = entry[3].shard
            if posted[sid] is not entry:
                heapq.heappop(top)  # superseded by a smaller post
                continue
            # One identity compare (the top heap shares the shard heaps'
            # tuples) against the live head decides staleness.
            live = self._shards[sid].head()
            if live is entry:
                return entry
            # The head was cancelled: post the live one in its place so
            # the shard stays covered.
            posted[sid] = live
            if live is None:
                heapq.heappop(top)
            else:
                heapq.heapreplace(top, live)
        return None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def call_at(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        weak: bool = False,
        seq: int | None = None,
    ) -> Timer:
        """Schedule ``action`` on shard 0 at absolute virtual time ``time``.

        ``weak`` events are pure observers: one popped with no other
        live event remaining is discarded instead of run, so it neither
        advances the clock nor keeps the run alive.  ``seq`` posts the
        event under a number drawn earlier with :meth:`next_seq`; each
        drawn number may be posted at most once.
        """
        if time < self._now:
            raise ValueError(f"cannot schedule at {time:.6f}, clock is at {self._now:.6f}")
        if not self._reaches[self._running]:
            _unreachable_post(self._running, 0)
        entry = self._queue.push_entry(time, action, priority, weak, seq)
        self._notify(0, entry)
        return Timer(event=entry[3], queue=self._queue)

    def call_after(
        self,
        delay: float,
        action: Callable[[], None],
        priority: int = 0,
        weak: bool = False,
    ) -> Timer:
        """Schedule ``action`` after a relative delay."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.call_at(self._now + delay, action, priority=priority, weak=weak)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events until the calendars drain, ``until`` passes,
        or ``max_events`` fire.  Returns the final clock value.

        Each step pops the globally minimal live head (:meth:`_top_head`)
        and notes whose event runs.  Cancelled timers are skipped lazily
        and never count, so a dead timer beyond the bound can neither
        leave phantom work queued nor make the loop break on a timestamp
        that will never fire.  ``until`` also bounds work an event runs
        past its own timestamp (a server's decode window reads it as
        :attr:`until`); ``max_events`` counts events, and one event may
        carry many decode iterations.

        Popped times never fall, but the clock can step back: an event
        whose replica ran ahead (:meth:`advance_to`) leaves it past the
        head the loop pops next.  The run ends at the latest time any
        event reached, so a ``max_events`` cut leaves the replicas that
        ran ahead where they are.
        """
        self._until = until
        processed = 0
        top = self._top
        posted = self._posted
        shards = self._shards
        while True:
            entry = self._top_head()
            if entry is None:
                break  # every shard drained
            if until is not None and entry[0] > until:
                self._now = until
                break
            event = entry[3]
            shard_id = event.shard
            queue = shards[shard_id]
            queue.pop()  # pops this same entry; marks the event popped
            # Cover the shard's next head before running the event: an
            # action that schedules nothing here must not strand it.
            live = queue.head()
            posted[shard_id] = live
            if live is None:
                heapq.heappop(top)
            else:
                heapq.heapreplace(top, live)
            if event.weak and self._top_head() is None:
                # A trailing weak event (pure observer with nothing left
                # to observe) is discarded: the clock stays at the last
                # real event.
                continue
            self._now = event.time
            self._running = shard_id
            event.action()
            self._events_processed += 1
            processed += 1
            if max_events is not None and processed >= max_events:
                break
        self._running = 0
        if self._high > self._now:
            self._now = self._high
        if until is not None and self._now < until and self._top_head() is None:
            self._now = until
        return self._now

    def run_until_idle(self) -> float:
        """Drain every event; stop a runaway loop at ten million events."""
        return self.run(max_events=10_000_000)


class ShardClock:
    """One shard's view of a sharded :class:`Simulator`.

    Quacks like the simulator for the APIs a replica server uses
    (``now`` / ``call_at`` / ``call_after`` / ``until`` /
    ``advance_to`` / ``next_seq`` / ``events_processed`` /
    ``horizon_key``), but schedules onto its own calendar.

    :meth:`horizon_key` is the replica's horizon: the earliest event
    that can touch it, which bounds the work its server runs ahead
    inside one event (decode windows, inline ticks).
    Other replicas reach a replica through two channels only:

    * shard 0, the control plane: arrivals, control ticks, faults,
      steal and handoff deliveries, telemetry;
    * the completion hooks of requests it serves (``on_finish``): a
      disagg prefill clone's ``DisaggDispatcher._handoff`` imports into
      a decode replica from inside the prefill replica's event, and a
      closed-loop session's hook posts its next turn on shard 0.

    A replica handed a hooked request is *reaching* for the rest of the
    run (:meth:`mark_reaching`, called by ``ReplicaHandle.submit``).
    Every other replica's horizon is the minimum of its own head, shard
    0's and every reaching shard's; a reaching replica's is the global
    key, since its hooks write to replicas that must not have run past
    them.  While a non-reaching replica's event runs, a post to any
    other calendar raises instead of silently serving a different
    answer.

    Because a replica runs ahead of its peers' events, the clock can
    step back between shards: the loop pops a peer's earlier event
    after a replica advanced past it.  Each replica's own clock never
    does, and a run ends at the latest time reached; a ``max_events``
    cut leaves the replicas that ran ahead where they are.
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

    def horizon_key(self) -> tuple | None:
        """The ``(time, priority, seq)`` key of the earliest live event
        that can touch this replica (None when there is none).

        Work kept off the calendar under key ``k`` may run inside the
        running event exactly when ``k`` sorts below this.
        """
        sim = self._sim
        if sim._reaches[self.shard_id]:
            return sim.horizon_key()
        head = self._queue.head()
        for queue in sim._reach_queues:
            other = queue.head()
            if other is not None and (head is None or other < head):
                head = other
        return None if head is None else head[:3]

    def mark_reaching(self) -> None:
        """This replica holds a request with a completion hook, whose
        event may write to other replicas: from now on its horizon is
        the global key, and its head bounds every other replica's."""
        sim = self._sim
        if not sim._reaches[self.shard_id]:
            sim._reaches[self.shard_id] = True
            sim._reach_queues.append(self._queue)

    def next_seq(self) -> int:
        return self._queue.next_seq()

    def advance_to(self, time: float) -> None:
        self._sim.advance_to(time)

    def call_at(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
        weak: bool = False,
        seq: int | None = None,
    ) -> Timer:
        sim = self._sim
        if time < sim._now:
            raise ValueError(f"cannot schedule at {time:.6f}, clock is at {sim._now:.6f}")
        running = sim._running
        if running != self.shard_id and not sim._reaches[running]:
            _unreachable_post(running, self.shard_id)
        entry = self._queue.push_entry(time, action, priority, weak, seq)
        event = entry[3]
        event.shard = self.shard_id
        sim._notify(self.shard_id, entry)
        return Timer(event=event, queue=self._queue)

    def call_after(
        self,
        delay: float,
        action: Callable[[], None],
        priority: int = 0,
        weak: bool = False,
    ) -> Timer:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.call_at(self._sim._now + delay, action, priority=priority, weak=weak)


def _unreachable_post(running: int, target: int) -> None:
    """A replica that holds no hooked request wrote to another calendar:
    its peers' horizons do not cover it, so the run would go wrong
    silently."""
    raise RuntimeError(
        f"an event of shard {running}, which holds no request with a "
        f"completion hook, posted to shard {target}: a replica reaches "
        "another only through shard 0 or a completion hook "
        "(ShardClock.mark_reaching)"
    )
