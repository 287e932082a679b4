"""Per-class QoS metrics: admission ledgers, attainment, goodput.

Two layers, mirroring the cache-stats pattern:

* :class:`QoSLedger` is the mutable flight recorder a QoS-armed server
  writes during a run (admissions, rejections, downgrades, deadline
  preemptions, per class).  It serialises to the plain nested-dict
  ``ServeResult.qos_stats`` so fleet merging stays a counter sum.
* :func:`per_class_report` is the post-hoc evaluation: group a run's
  requests by their *workload* class tag and score each class against
  its own deadline scale (class scale x the request's no-load ideal
  latency).  Evaluation is always model-based — it never reads the
  runtime ``deadline`` field — so QoS-armed and baseline runs of the
  same trace are scored identically and the comparison is fair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.metrics.slo import IdealLatencyModel
from repro.qos.classes import resolve_qos_class
from repro.types import Request, ServeResult

__all__ = [
    "ClassOutcome",
    "QoSLedger",
    "merge_qos_stats",
    "per_class_report",
]

LEDGER_EVENTS = ("submitted", "admitted", "rejected", "downgraded", "preempted")


@dataclass
class QoSLedger:
    """Mutable per-class event counters a QoS-armed server writes.

    Keyed by the request's *workload* class name (downgrades are charged
    to the class the client asked for).  Untagged requests are recorded
    under ``"untagged"`` so the ledger always reconciles with the trace.
    """

    counters: dict[str, dict[str, int]] = field(default_factory=dict)

    UNTAGGED = "untagged"

    def note(self, qos_name: str | None, event: str) -> None:
        if event not in LEDGER_EVENTS:
            raise ValueError(f"unknown ledger event {event!r}")
        name = qos_name if qos_name is not None else self.UNTAGGED
        per_class = self.counters.setdefault(name, {})
        per_class[event] = per_class.get(event, 0) + 1

    def as_dict(self) -> dict[str, dict[str, float]]:
        """Plain nested counters for ``ServeResult.qos_stats``."""
        return {
            name: {event: float(n) for event, n in per_class.items()}
            for name, per_class in self.counters.items()
        }


def merge_qos_stats(
    per_replica: Sequence[ServeResult],
) -> dict[str, dict[str, float]] | None:
    """Sum per-replica QoS ledgers (None when no replica kept one)."""
    with_stats = [r.qos_stats for r in per_replica if r.qos_stats is not None]
    if not with_stats:
        return None
    merged: dict[str, dict[str, float]] = {}
    for stats in with_stats:
        for name, counters in stats.items():
            into = merged.setdefault(name, {})
            for event, value in counters.items():
                into[event] = into.get(event, 0.0) + value
    return merged


@dataclass(frozen=True)
class ClassOutcome:
    """One class's scorecard over a run."""

    qos_class: str
    deadline_scale: float
    submitted: int
    finished: int
    attained: int
    attained_tokens: int
    rejected: int = 0
    downgraded: int = 0
    preempted: int = 0

    @property
    def attainment(self) -> float:
        """Fraction of the class's submitted requests that met its
        deadline (aborted/rejected/unfinished count as missed)."""
        return self.attained / self.submitted if self.submitted else 0.0

    def goodput_tokens_per_s(self, makespan: float) -> float:
        """Tokens of SLO-attaining requests per second of run."""
        return self.attained_tokens / makespan if makespan > 0 else 0.0


def per_class_report(
    result: ServeResult, ideal: IdealLatencyModel
) -> dict[str, ClassOutcome]:
    """Score each class of a run against its own deadline scale.

    Requests group by their workload tag (``Request.qos``; ``None``
    groups as the standard-semantics ``untagged`` class).  The ledger
    counters come from ``result.qos_stats`` when the run kept one.
    """
    groups: dict[str, list[Request]] = {}
    for request in list(result.requests) + list(result.aborted):
        name = request.qos if request.qos is not None else QoSLedger.UNTAGGED
        groups.setdefault(name, []).append(request)
    stats = result.qos_stats or {}
    outcomes: dict[str, ClassOutcome] = {}
    for name, requests in sorted(groups.items()):
        qos_class = resolve_qos_class(
            None if name == QoSLedger.UNTAGGED else name
        )
        attained = 0
        attained_tokens = 0
        finished = 0
        for request in requests:
            if not request.finished or request.finish_time is None:
                continue
            finished += 1
            deadline = ideal.deadline(request, scale=qos_class.deadline_scale)
            if request.end_to_end_latency <= deadline:
                attained += 1
                attained_tokens += request.input_len + request.output_len
        ledger = stats.get(name, {})
        outcomes[name] = ClassOutcome(
            qos_class=name,
            deadline_scale=qos_class.deadline_scale,
            submitted=len(requests),
            finished=finished,
            attained=attained,
            attained_tokens=attained_tokens,
            rejected=int(ledger.get("rejected", 0)),
            downgraded=int(ledger.get("downgraded", 0)),
            preempted=int(ledger.get("preempted", 0)),
        )
    return outcomes
