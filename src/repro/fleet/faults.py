"""Replica failure injection and KV-loss failover.

The control plane so far treats replicas as reliable: the autoscaler
parks them *gracefully* (drain first, rescue hot KV, then go offline).
A production fleet does not get that courtesy — a replica dies with its
queued requests, its running batches, and every resident prefix-KV
extent.  This module injects exactly that event onto the shared
simulation clock and defines the failover contract the
:class:`~repro.fleet.control.FleetController` enacts:

* **Crash** — at a scripted (or stochastically drawn) instant the
  replica's server is killed atomically: queues and decode batches are
  wiped, the KV pool is lost, and every callback the dead server had
  scheduled is invalidated (``LoongServeServer.crash`` bumps an epoch
  the event guards check).
* **Failover** — orphaned requests (queued *and* in-flight) are reset
  for a full re-prefill (:func:`reset_for_failover` — the lost KV must
  be recomputed, and the charge is recorded) and re-dispatched through
  the policy's placement router over the surviving replicas.  Requests
  whose migrated KV was still in flight toward the dead replica are
  rescued the same way.  With no survivor accepting work, requests wait
  in the controller's limbo queue until a recovery lands.
* **Recovery** — after ``downtime_s`` (detection + replacement) the
  replica begins warming up (weight loading priced by
  :class:`~repro.costmodel.latency.ReplicaLifecycleModel`) and only then
  rejoins the placement pool, empty-handed: its cache hits must be
  re-earned, which is what the failover experiments measure.

Schedules are deterministic by construction: scripted plans replay
bit-identically, and :meth:`FaultPlan.poisson` draws from a seeded RNG
so chaos tests shrink and replay.  An **empty plan is the off switch**
— ``make_fleet`` maps it to "no injector", keeping fault-free fleets
bit-identical to the pre-fault control plane.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.types import Request, RequestState

# Detection + replacement delay before a crashed replica begins warming
# up.  Tens of seconds is the realistic order (health-check timeout plus
# pod reschedule), which on the simulated traces spans several bursts.
DEFAULT_DOWNTIME_S = 10.0


@dataclass(frozen=True)
class ReplicaFault:
    """One scheduled replica crash.

    ``time`` is the absolute simulation instant the replica dies;
    ``downtime_s`` the delay until its replacement begins warming up.
    A fault targeting a replica that is already offline (parked,
    warming, or previously crashed) is absorbed — there is nothing left
    to kill — and logged as ``crash-skipped``.
    """

    time: float
    replica_id: int
    downtime_s: float = DEFAULT_DOWNTIME_S

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise ValueError(
                f"fault time must be finite and non-negative, got {self.time}"
            )
        if self.replica_id < 0:
            raise ValueError(f"replica_id must be non-negative, got {self.replica_id}")
        if not math.isfinite(self.downtime_s) or self.downtime_s <= 0:
            raise ValueError(
                f"downtime_s must be finite and positive (a dead replica must "
                f"eventually be replaced), got {self.downtime_s}"
            )


class FaultPlan:
    """An immutable, time-ordered crash schedule.

    Construct from explicit :class:`ReplicaFault` entries for scripted
    scenarios, or draw a stochastic schedule with :meth:`poisson`.  The
    plan is just data — the controller schedules one simulator event per
    entry, so identical plans replay identically.
    """

    def __init__(self, faults: Sequence[ReplicaFault] = ()) -> None:
        self.faults: tuple[ReplicaFault, ...] = tuple(
            sorted(faults, key=lambda f: (f.time, f.replica_id))
        )

    @classmethod
    def scripted(
        cls, *crashes: tuple[float, int], downtime_s: float = DEFAULT_DOWNTIME_S
    ) -> "FaultPlan":
        """Build a plan from ``(time, replica_id)`` pairs."""
        return cls(
            [ReplicaFault(time=t, replica_id=r, downtime_s=downtime_s)
             for t, r in crashes]
        )

    @classmethod
    def poisson(
        cls,
        num_replicas: int,
        horizon_s: float,
        mtbf_s: float,
        seed: int = 0,
        downtime_s: float = DEFAULT_DOWNTIME_S,
    ) -> "FaultPlan":
        """Draw each replica's crashes as a Poisson process.

        ``mtbf_s`` is the per-replica mean time between failures; crash
        instants past ``horizon_s`` are dropped.  Deterministic in
        ``seed`` (the chaos harness replays shrunk schedules exactly).
        Crashes drawn while the replica would still be down are kept —
        injection skips them at fire time, modelling failures that hit
        already-dead hardware.
        """
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if not math.isfinite(horizon_s) or horizon_s < 0:
            raise ValueError("horizon_s must be finite and non-negative")
        if not math.isfinite(mtbf_s) or mtbf_s <= 0:
            raise ValueError("mtbf_s must be finite and positive")
        if not math.isfinite(downtime_s) or downtime_s <= 0:
            raise ValueError("downtime_s must be finite and positive")
        rng = random.Random(seed)
        faults: list[ReplicaFault] = []
        for replica_id in range(num_replicas):
            t = rng.expovariate(1.0 / mtbf_s)
            while t < horizon_s:
                faults.append(
                    ReplicaFault(time=t, replica_id=replica_id, downtime_s=downtime_s)
                )
                t += rng.expovariate(1.0 / mtbf_s)
        return cls(faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __iter__(self) -> Iterator[ReplicaFault]:
        return iter(self.faults)

    @property
    def max_replica_id(self) -> int:
        return max((f.replica_id for f in self.faults), default=-1)


@dataclass
class FaultInjector:
    """The failure actuator of a :class:`ClusterPolicy`.

    Holds the immutable :class:`FaultPlan` plus the per-run injection
    ledger (which faults actually fired vs. hit an already-dead
    replica).  The ledger is the only mutable state and :meth:`reset`
    clears it, so repeated ``run()``\\ s of one fleet are independent —
    the same contract the routers and autoscaler honour.
    """

    plan: FaultPlan
    injected: list[ReplicaFault] = field(default_factory=list)
    skipped: list[ReplicaFault] = field(default_factory=list)

    name = "fault-injector"

    def reset(self) -> None:
        """Clear the per-run injection ledger (fresh fleet run)."""
        self.injected = []
        self.skipped = []

    def note_injected(self, fault: ReplicaFault) -> None:
        self.injected.append(fault)

    def note_skipped(self, fault: ReplicaFault) -> None:
        self.skipped.append(fault)


def reset_for_failover(request: Request) -> int:
    """Reset a crashed replica's request for re-dispatch elsewhere.

    The dead replica took the request's KV with it, so everything it had
    computed — the prefilled prompt and any generated tokens — must be
    recomputed from scratch on the new home (a matched prefix there may
    still shortcut the prefill; that is the failover experiments' whole
    point).  Returns the recomputed-token charge: 0 for a still-queued
    request, ``input_len + generated`` once the prefill had started.

    Timestamps follow preemption semantics: ``arrival_time`` and
    ``first_token_time`` are preserved (the user has been waiting since
    arrival; streamed tokens were delivered), ``prefill_end`` is
    overwritten when the retry completes.
    """
    started = (
        request.state not in (RequestState.PENDING, RequestState.PREEMPTED)
        or request.generated > 0
    )
    lost = request.input_len + request.generated if started else 0
    request.state = RequestState.PENDING
    request.generated = 0
    request.cached_prefix_len = 0
    if started:
        request.preemptions += 1
    return lost
