"""Deadline-feasibility admission control.

An overloaded serving system that admits everything misses SLOs
uniformly; admission control converts hopeless latency into an explicit
up-front rejection (or a renegotiated lower tier), so the capacity those
requests would have burned protects the traffic that can still meet its
deadline.

The controller is deliberately *predictive, not reactive*: it prices an
arrival with the same analytical machinery the scheduler plans with —
the request's no-load ideal latency (cost model) plus a queueing-delay
estimate from the live backlog and the deployment's prefill service
rate — and compares the predicted completion against the tier's
deadline.  Three outcomes per the tier's contract
(:class:`~repro.qos.classes.QoSClass.admission`):

* feasible -> **admit** at the requested tier;
* infeasible, tier downgrades -> retry the test at the downgrade target
  (looser deadline, lower priority) — the chain terminates because
  downgrades must strictly lower the tier;
* infeasible, tier rejects -> **reject** (the request aborts; a miss
  either way, but the fleet keeps the capacity).

**Prefix-aware bias**: under contention (non-zero predicted wait) a
request whose prompt is largely resident in the prefix-KV cache gets a
slack credit proportional to the cached fraction — it is cheaper to
serve than its length suggests, so ties break toward hot-prefix work
(the prefix-aware admission the PR 2 roadmap opened).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.qos.classes import QoSClass, resolve_qos_class
from repro.types import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (policy imports us)
    from repro.qos.policy import QoSPolicy

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "prefill_token_rate",
]


# The representative prompt length the service rate is probed at.
PROBE_TOKENS = 8192


def prefill_token_rate(
    cost_model, instance_ids: Sequence[int], tensor_parallel: int
) -> float:
    """Sustained prefill throughput (tokens/s) of one deployment.

    Probed from the cost model at a representative batch size; used to
    convert token backlogs into queueing-delay estimates by admission
    control, SLO routing, and predictive autoscaling.
    """
    duration = cost_model.prefill_time(
        [PROBE_TOKENS], list(instance_ids), tensor_parallel
    )
    if duration <= 0:
        return float("inf")
    return PROBE_TOKENS / duration


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one arrival's admission test.

    ``action`` is ``"admit"`` or ``"reject"``; ``qos_class`` the tier the
    request was finally evaluated at (differs from the request's own tag
    when the chain downgraded); ``deadline`` the absolute completion
    deadline at that tier; ``predicted_completion`` what the model
    expected, for tracing.
    """

    action: str
    qos_class: QoSClass
    deadline: float
    predicted_completion: float

    @property
    def admitted(self) -> bool:
        return self.action == "admit"


class AdmissionController:
    """Predict each arrival's completion; admit, downgrade, or reject.

    Under contention a prompt's cached fraction earns slack credit of
    that fraction of its ideal latency.
    """

    def decide(
        self,
        request: Request,
        now: float,
        wait_s: float,
        policy: "QoSPolicy",
    ) -> AdmissionDecision:
        """Run the downgrade chain for one arrival.

        ``wait_s`` is the caller's live queueing-delay estimate (work
        ahead of this request divided by the deployment's service rate).
        """
        ideal_s = policy.ideal_latency(request)
        predicted = now + (wait_s + ideal_s)
        bias = 0.0
        if wait_s > 0 and request.input_len > 0:
            cached_fraction = min(
                1.0, request.cached_prefix_len / request.input_len
            )
            bias = ideal_s * cached_fraction
        current = resolve_qos_class(request.qos)
        while True:
            deadline = request.arrival_time + current.deadline_scale * ideal_s
            if predicted <= deadline + bias or current.admission == "always":
                return AdmissionDecision(
                    action="admit",
                    qos_class=current,
                    deadline=deadline,
                    predicted_completion=predicted,
                )
            if current.admission == "downgrade":
                current = resolve_qos_class(current.downgrade_to)
                continue
            return AdmissionDecision(
                action="reject",
                qos_class=current,
                deadline=deadline,
                predicted_completion=predicted,
            )
