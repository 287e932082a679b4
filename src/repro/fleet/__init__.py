"""Fleet-scale serving: many replicas behind a closed-loop control plane.

The single-deployment systems under ``repro.baselines`` / ``repro.core``
serve one cluster; a production fleet runs N of them behind a front-end.
``FleetServer`` hosts any mix of replica systems on one shared virtual
clock.  Placement per arriving request is one of the ``Router``
policies; a :class:`ClusterPolicy` optionally adds the control-loop
actuators — replica autoscaling (:class:`QueueDepthAutoscaler`), work
stealing (:class:`WorkStealer`), and cross-replica session-KV migration
(:class:`KVMigrator`) — which the :class:`FleetController` evaluates on
periodic control ticks.  :class:`FaultInjector` adds failure injection:
scripted or stochastic replica crashes with KV loss, failover through
the placement router, and warm-up-priced recovery.
"""

from repro.fleet.autoscaler import (
    PredictiveAutoscaler,
    QueueDepthAutoscaler,
    unpark_target,
)
from repro.fleet.control import (
    DEFAULT_CONTROL_INTERVAL,
    ClusterPolicy,
    FleetController,
)
from repro.fleet.disagg import DisaggDispatcher
from repro.fleet.faults import (
    DEFAULT_DOWNTIME_S,
    FaultInjector,
    FaultPlan,
    ReplicaFault,
    reset_for_failover,
)
from repro.fleet.migration import KVMigrator
from repro.fleet.router import (
    LONG_INPUT_THRESHOLD,
    ROUTERS,
    CacheAffinityRouter,
    LeastKVRouter,
    LeastOutstandingRouter,
    LengthAwareRouter,
    RoundRobinRouter,
    Router,
    SLORouter,
    make_router,
)
from repro.fleet.server import FleetResult, FleetServer, ReplicaHandle
from repro.fleet.stealing import StealMove, WorkStealer

__all__ = [
    "DEFAULT_CONTROL_INTERVAL",
    "DEFAULT_DOWNTIME_S",
    "LONG_INPUT_THRESHOLD",
    "ROUTERS",
    "CacheAffinityRouter",
    "ClusterPolicy",
    "DisaggDispatcher",
    "FaultInjector",
    "FaultPlan",
    "FleetController",
    "FleetResult",
    "FleetServer",
    "KVMigrator",
    "ReplicaFault",
    "LeastKVRouter",
    "LeastOutstandingRouter",
    "LengthAwareRouter",
    "PredictiveAutoscaler",
    "QueueDepthAutoscaler",
    "ReplicaHandle",
    "RoundRobinRouter",
    "Router",
    "SLORouter",
    "StealMove",
    "WorkStealer",
    "make_router",
    "reset_for_failover",
    "unpark_target",
]
