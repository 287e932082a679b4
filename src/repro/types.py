"""Shared value types used across the LoongServe reproduction.

The vocabulary here follows the paper: a *request* flows through a *prefill*
phase (all input tokens processed in one iteration) and then a *decoding*
phase (one output token per iteration).  Requests are grouped into *batches*,
each batch is executed by a *parallel group* of elastic instances with some
*degree of parallelism* (DoP).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple


class Phase(enum.Enum):
    """Execution phase of a request."""

    PREFILL = "prefill"
    DECODE = "decode"


class RequestState(enum.Enum):
    """Lifecycle state of a request inside a serving system.

    ``PENDING``    — arrived, waiting in the global queue.
    ``PREFILLING`` — selected for the current prefill iteration.
    ``DECODING``   — producing output tokens, one per iteration.
    ``PREEMPTED``  — evicted from GPU memory; must re-run prefill.
    ``FINISHED``   — all output tokens produced.
    """

    PENDING = "pending"
    PREFILLING = "prefilling"
    DECODING = "decoding"
    PREEMPTED = "preempted"
    FINISHED = "finished"


_request_ids = itertools.count()


def next_request_id() -> int:
    """Return a process-unique monotonically increasing request id."""
    return next(_request_ids)


@dataclass(slots=True)
class Request:
    """A single inference request.

    ``input_len`` and ``output_len`` are token counts.  ``max_tokens`` is the
    user-declared output cap used by the scheduler's eviction-avoidance
    estimate (§5.1); it defaults to the true output length, which models a
    well-behaved client.

    Multi-turn sessions (``repro.sessions``): ``session_id``/``turn`` tag a
    request as turn ``turn`` of one conversation, ``token_ids`` carries its
    full prompt so a prefix-KV cache can match it against resident
    conversation state, and ``output_token_ids`` the (pre-sampled) answer
    the next turn's prompt embeds.  ``cached_prefix_len`` is runtime state
    set by the scheduler: how many leading prompt tokens were found
    resident, so the prefill processes (and allocates) only the uncached
    suffix.

    QoS (``repro.qos``): ``qos`` is the workload-assigned SLO class name
    (``interactive``/``standard``/``batch``; ``None`` = untagged, served
    with default semantics).  ``deadline``/``downgraded_to`` are runtime
    state written by a QoS-armed scheduler: the absolute completion
    deadline set at admission, and the class the admission controller
    renegotiated the request down to (the workload tag is never
    overwritten, so per-class reporting stays anchored to what the
    client asked for).  ``on_finish`` is an optional completion hook
    (called with the finish time) used by closed-loop workload drivers
    to schedule a session's next turn.
    """

    request_id: int
    input_len: int
    output_len: int
    arrival_time: float = 0.0
    max_tokens: int | None = None
    session_id: int | None = None
    turn: int = 0
    token_ids: tuple[int, ...] | None = None
    output_token_ids: tuple[int, ...] | None = None
    qos: str | None = None

    state: RequestState = RequestState.PENDING
    generated: int = 0
    cached_prefix_len: int = 0
    deadline: float | None = None
    downgraded_to: str | None = None
    on_finish: object | None = field(default=None, repr=False, compare=False)

    prefill_start: float | None = None
    prefill_end: float | None = None
    finish_time: float | None = None
    first_token_time: float | None = None
    preemptions: int = 0

    def __post_init__(self) -> None:
        if self.input_len <= 0:
            raise ValueError(f"input_len must be positive, got {self.input_len}")
        if self.output_len <= 0:
            raise ValueError(f"output_len must be positive, got {self.output_len}")
        if not 0 <= self.arrival_time < math.inf:
            raise ValueError(
                f"arrival_time must be finite and non-negative, got {self.arrival_time}"
            )
        if self.token_ids is not None and len(self.token_ids) != self.input_len:
            raise ValueError(
                f"token_ids carries {len(self.token_ids)} tokens but "
                f"input_len is {self.input_len}"
            )
        if (
            self.output_token_ids is not None
            and len(self.output_token_ids) != self.output_len
        ):
            raise ValueError(
                f"output_token_ids carries {len(self.output_token_ids)} tokens "
                f"but output_len is {self.output_len}"
            )
        if self.max_tokens is None:
            self.max_tokens = self.output_len

    @property
    def current_len(self) -> int:
        """Tokens currently resident in the KV cache for this request."""
        return self.input_len + self.generated

    @property
    def max_total_len(self) -> int:
        """Worst-case total sequence length (input + declared output cap)."""
        return self.input_len + (self.max_tokens or self.output_len)

    @property
    def prefill_tokens(self) -> int:
        """Tokens the next prefill iteration must actually process.

        A matched prefix (``cached_prefix_len``) is already resident in
        the KV pool, so only the uncached suffix is computed.  Equals
        ``current_len`` whenever no prefix cache is in play.
        """
        return self.current_len - self.cached_prefix_len

    @property
    def kv_demand(self) -> int:
        """New KV slots a prefill allocates: the uncached suffix plus the
        first generated token (the cached prefix keeps its own slots)."""
        return self.prefill_tokens + 1

    @property
    def future_kv_demand(self) -> int:
        """Worst-case *new* slots this request will ever hold (the §5.1
        eviction-avoidance reserve, net of the cached prefix)."""
        return self.max_total_len + 1 - self.cached_prefix_len

    @property
    def effective_qos(self) -> str | None:
        """The class the request is currently served under (a downgrade
        renegotiates service, the workload tag in ``qos`` stays)."""
        return self.downgraded_to or self.qos

    @property
    def finished(self) -> bool:
        return self.state == RequestState.FINISHED

    @property
    def phase(self) -> Phase:
        return Phase.PREFILL if self.generated == 0 else Phase.DECODE

    def record_first_token(self, now: float) -> None:
        if self.first_token_time is None:
            self.first_token_time = now

    # -- derived latency metrics -------------------------------------------

    @property
    def end_to_end_latency(self) -> float:
        """Arrival to completion, in seconds.  Requires ``finished``."""
        if self.finish_time is None:
            raise ValueError(f"request {self.request_id} not finished")
        return self.finish_time - self.arrival_time

    @property
    def prefill_latency(self) -> float:
        """Arrival to the end of the (last) prefill iteration."""
        if self.prefill_end is None:
            raise ValueError(f"request {self.request_id} never prefilled")
        return self.prefill_end - self.arrival_time

    @property
    def decode_latency(self) -> float:
        """Time spent between prefill completion and final token."""
        if self.finish_time is None or self.prefill_end is None:
            raise ValueError(f"request {self.request_id} not finished")
        return self.finish_time - self.prefill_end

    @property
    def normalized_latency(self) -> float:
        """End-to-end latency divided by total sequence length (s/token)."""
        return self.end_to_end_latency / (self.input_len + self.output_len)

    @property
    def normalized_input_latency(self) -> float:
        """Prefill latency divided by input length (s/token)."""
        return self.prefill_latency / self.input_len

    @property
    def normalized_output_latency(self) -> float:
        """Decode latency divided by output length (s/token)."""
        return self.decode_latency / self.output_len


class BatchStats(NamedTuple):
    """Summary of one executed iteration, used for accounting and traces.

    A named tuple: immutable, and cheap to build positionally, which a
    decode window does once per iteration when its server keeps rows
    (:class:`IterationLedger`).
    """

    iteration: int
    phase: Phase
    batch_size: int
    total_tokens: int
    dop: int
    duration: float
    start_time: float


class IterationLedger:
    """A server's executed iterations, folded as they run.

    ``count`` iterations ran, keeping the server busy for
    ``busy_seconds``, summed in execution order.  ``rows`` holds one
    :class:`BatchStats` per iteration, in start order, only on a server
    asked to keep them (:func:`repro.serving.keep_iteration_rows`); it
    is None otherwise, so memory stays flat however long a run grows.
    """

    __slots__ = ("count", "busy_seconds", "rows")

    def __init__(self, rows: list[BatchStats] | None = None) -> None:
        self.count = 0
        self.busy_seconds = 0.0
        self.rows = rows

    def add(
        self, phase: Phase, batch_size: int, total_tokens: int, dop: int,
        duration: float, start_time: float,
    ) -> None:
        """Fold in one iteration; its row is built only when rows are kept."""
        rows = self.rows
        if rows is not None:
            rows.append(BatchStats(
                self.count, phase, batch_size, total_tokens, dop, duration, start_time
            ))
        self.count += 1
        self.busy_seconds += duration

    @classmethod
    def total(cls, ledgers: list[IterationLedger]) -> IterationLedger:
        """``ledgers`` added together, in order.  Rows are kept when every
        ledger kept them, merged into one stable start-time order."""
        total = cls()
        for ledger in ledgers:
            total.count += ledger.count
            total.busy_seconds += ledger.busy_seconds
        if all(ledger.rows is not None for ledger in ledgers):
            rows = [row for ledger in ledgers for row in ledger.rows]
            if len(ledgers) > 1:
                rows.sort(key=lambda row: row.start_time)
            total.rows = rows
        return total


@dataclass(slots=True)
class ScalingEvent:
    """A recorded elastic scaling action (for the Figure 13 frequency plot)."""

    time: float
    kind: str  # "scale_up" | "scale_down"
    group_before: tuple[int, ...]
    group_after: tuple[int, ...]
    batch_size: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("scale_up", "scale_down"):
            raise ValueError(f"unknown scaling kind {self.kind!r}")


@dataclass
class ServeResult:
    """Output of one serving-system run over a workload trace.

    ``cache_stats`` is populated (as a plain counter dict) by servers
    running with a prefix-KV cache; ``None`` otherwise.  ``qos_stats``
    is the per-class admission/preemption ledger (class name -> counter
    dict) written by QoS-armed servers; ``None`` otherwise.  ``obs``
    carries the run's :class:`repro.obs.observe.Observability` bundle
    (spans, audit log, telemetry) when one was attached; ``None`` keeps
    observability-off runs byte-identical to prior builds.
    ``iterations`` is the run's :class:`IterationLedger`, the server's
    ledgers added together.  ``stranded`` lists the submitted requests
    still unfinished (and not aborted) when the simulator went idle:
    work that could never finish.
    Every run of :func:`repro.serving.serve` fills it, on any server
    shape or fleet; a run cut at an event budget leaves it empty.
    """

    system: str
    requests: list[Request] = field(default_factory=list)
    scaling_events: list[ScalingEvent] = field(default_factory=list)
    iterations: IterationLedger = field(default_factory=IterationLedger)
    makespan: float = 0.0
    aborted: list[Request] = field(default_factory=list)
    stranded: list[Request] = field(default_factory=list)
    cache_stats: dict[str, float] | None = None
    qos_stats: dict[str, dict[str, float]] | None = None
    obs: object | None = None

    @property
    def finished_requests(self) -> list[Request]:
        return [r for r in self.requests if r.finished]
