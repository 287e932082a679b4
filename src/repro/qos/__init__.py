"""Multi-tenant QoS: SLO classes, admission control, deadline scheduling.

The paper's evaluation scores every request against one 25x no-load
latency SLO (§7.1); this package makes SLOs *heterogeneous and
enforced*.  Workloads tag requests with an SLO class
(``interactive``/``standard``/``batch`` — :mod:`repro.qos.classes`), an
admission controller prices each arrival with the analytical cost model
and rejects or downgrades the ones whose deadline is already infeasible
(:mod:`repro.qos.admission`), and a :class:`QoSPolicy` hands the core
scheduler deadline-aware dispatch ordering plus batch-tier decode
preemption (:mod:`repro.qos.policy`; enacted in
:mod:`repro.core.server`).

Fleet-level counterparts live where the fleet machinery lives: the
``slo`` placement router in :mod:`repro.fleet.router`, the predictive
autoscaler in :mod:`repro.fleet.autoscaler`, and the per-class ledgers
in :mod:`repro.metrics.qos`.  Everything is off by default; with no
policy armed behaviour is bit-identical to the pre-QoS build.
"""

from repro.qos.admission import (
    AdmissionController,
    AdmissionDecision,
    prefill_token_rate,
)
from repro.qos.classes import (
    BATCH,
    DEFAULT_QOS_MIX,
    INTERACTIVE,
    QOS_CLASSES,
    STANDARD,
    QoSClass,
    assign_qos,
    parse_qos_mix,
    resolve_qos_class,
)
from repro.qos.policy import QoSPolicy

__all__ = [
    "BATCH",
    "DEFAULT_QOS_MIX",
    "INTERACTIVE",
    "QOS_CLASSES",
    "STANDARD",
    "AdmissionController",
    "AdmissionDecision",
    "QoSClass",
    "QoSPolicy",
    "assign_qos",
    "parse_qos_mix",
    "prefill_token_rate",
    "resolve_qos_class",
]
