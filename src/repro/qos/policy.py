"""The QoS policy bundle a server schedules under.

:class:`QoSPolicy` packages everything the core scheduler needs to
thread the :data:`~repro.qos.classes.QOS_CLASSES` tiers end-to-end: the
no-load ideal latency model the deadlines derive from (with a memoised
cache — the same (input, output) shape prices identically every time),
the deployment's prefill service rate for queueing-delay estimates, and
the optional admission controller.  Deadline preemption is always
armed.

One policy instance is immutable state shared across a server's runs;
all mutable accounting lives in the server's per-run
:class:`~repro.metrics.qos.QoSLedger`.
"""

from __future__ import annotations

from repro.metrics.slo import CachedIdealLatency, IdealLatencyModel
from repro.qos.admission import AdmissionController, prefill_token_rate
from repro.qos.classes import QoSClass, resolve_qos_class
from repro.types import Request

__all__ = ["QoSPolicy"]


class QoSPolicy:
    """Deadline model + admission over the :data:`QOS_CLASSES` tiers."""

    # Deadline preemptions one scheduler tick may enact.
    max_preemptions_per_tick = 8
    # A memory-blocked top-tier prefill triggers deadline preemption only
    # once its remaining slack drops below this fraction of its whole
    # deadline budget; above it, waiting for decodes to drain naturally
    # is still safe.
    preempt_slack_fraction = 0.5

    def __init__(
        self,
        ideal: IdealLatencyModel,
        admission: AdmissionController | None = None,
    ) -> None:
        self.ideal = ideal
        self.admission = admission
        # Prefill tokens/s of the deployment the policy schedules for,
        # derived from the ideal model's cost model.
        self.token_rate = prefill_token_rate(
            ideal.cost_model, list(range(ideal.max_instances)), ideal.tensor_parallel
        )
        self._cached_ideal = CachedIdealLatency(ideal)

    @classmethod
    def for_config(
        cls,
        config,
        cost_model,
        admission: bool = False,
    ) -> "QoSPolicy":
        """Build the policy for one deployment's launch configuration."""
        ideal = IdealLatencyModel(
            cost_model=cost_model,
            tensor_parallel=config.tensor_parallel,
            max_instances=config.num_instances,
        )
        return cls(
            ideal=ideal,
            admission=AdmissionController() if admission else None,
        )

    # -- deadline model --------------------------------------------------------

    def qos_class(self, request: Request) -> QoSClass:
        """The tier the request is *currently served* under (downgrades
        renegotiate service; the workload tag stays for reporting)."""
        return resolve_qos_class(request.effective_qos)

    def ideal_latency(self, request: Request) -> float:
        """Memoised no-load latency — deadlines, slack, and admission all
        reprice the same shapes constantly."""
        return self._cached_ideal(request)

    def deadline_for(self, request: Request) -> float:
        """Absolute completion deadline at the request's current tier."""
        return (
            request.arrival_time
            + self.qos_class(request).deadline_scale * self.ideal_latency(request)
        )

    def slack(self, request: Request, now: float) -> float:
        """Seconds to spare if the request started executing right now.

        Uses the runtime deadline when admission stamped one (the
        renegotiated contract), else the tier-model deadline.
        """
        deadline = (
            request.deadline
            if request.deadline is not None
            else self.deadline_for(request)
        )
        return deadline - now - self.ideal_latency(request)

    def dispatch_key(self, request: Request, now: float):
        """Earliest-slack-first within descending tier priority.

        The trailing (arrival, id) terms keep the order total and
        deterministic for equal-slack requests.
        """
        return (
            self.qos_class(request).priority,
            self.slack(request, now),
            request.arrival_time,
            request.request_id,
        )
