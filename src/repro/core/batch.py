"""Batch abstractions the global manager schedules.

``PrefillTask`` — one prefill iteration: a set of requests executed on a
parallel group.

``DecodeBatch`` — a long-lived decoding batch bound to a parallel group;
it runs one iteration per output token and is the unit of elastic
scale-up (§4.2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.parallel.groups import ParallelGroup
from repro.types import Request

_batch_ids = itertools.count()


def next_batch_id() -> int:
    """A process-wide unique batch id.  Only identity matters: the ids
    label obs audits, and on a sharded fleet the draws of replicas that
    run ahead of each other interleave in no fixed order."""
    return next(_batch_ids)


@dataclass(slots=True)
class PrefillTask:
    """One scheduled prefill iteration."""

    batch_id: int
    requests: list[Request]
    group: ParallelGroup

    @property
    def total_tokens(self) -> int:
        return sum(r.input_len for r in self.requests)

    @property
    def dop(self) -> int:
        return self.group.dop


@dataclass(slots=True)
class DecodeBatch:
    """A decoding batch bound to an ESP parallel group."""

    batch_id: int
    requests: list[Request] = field(default_factory=list)
    group: ParallelGroup | None = None
    running: bool = False

    @property
    def batch_size(self) -> int:
        return len(self.requests)

    @property
    def context_lens(self) -> list[int]:
        return [r.current_len for r in self.requests]

    @property
    def total_context(self) -> int:
        return sum(r.current_len for r in self.requests)

    @property
    def instance_ids(self) -> tuple[int, ...]:
        return self.group.instance_ids if self.group is not None else ()

    def min_exec_time(self, now: float) -> float:
        """Shortest elapsed decode time among member requests.

        ``min(B.exec_time)`` in the dispatch gain estimate (Eq. 2): how
        long the youngest request has been decoding.
        """
        times = [now - r.prefill_end for r in self.requests if r.prefill_end is not None]
        return min(times, default=0.0)

    def tokens_per_iteration(self) -> int:
        """New KV slots consumed by one decode iteration."""
        return self.batch_size

    def admit(self, requests: list[Request]) -> None:
        existing = {r.request_id for r in self.requests}
        for request in requests:
            if request.request_id in existing:
                raise ValueError(f"request {request.request_id} already in batch")
            self.requests.append(request)

    def remove_finished(self) -> list[Request]:
        """Drop finished requests; return them."""
        done: list[Request] = []
        kept: list[Request] = []
        for request in self.requests:
            (done if request.finished else kept).append(request)
        self.requests = kept
        return done

    def remove(self, request: Request) -> None:
        self.requests = [r for r in self.requests if r.request_id != request.request_id]
