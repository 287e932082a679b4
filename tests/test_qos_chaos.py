"""Chaos invariants with QoS and failure injection armed *together*.

The PR 4 chaos harness proves exactly-once and token conservation under
random crash schedules; QoS adds two new ways to lose or double-count a
request — admission rejection (a deliberate terminal abort) and
deadline preemption (eviction + recomputation).  These properties pin
the combined behaviour:

* every trace request ends on exactly one replica's ledger, either
  finished (with its full declared output) or rejected-by-admission;
* fleet-summed QoS ledgers reconcile: submitted = admitted + rejected,
  with each request counted exactly once across crashes and failovers
  (a dead replica's ledger survives — that work happened);
* pool occupancy stays consistent (resident slots == prefix-cache
  tokens) after crashes, preemptions, and rejections;
* runs replay deterministically.

``CI=1`` (tests/conftest.py) derandomizes the schedules.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.systems import make_fleet
from repro.fleet import FaultPlan, ReplicaFault
from repro.sessions import make_session_trace
from repro.workloads.trace_gen import clone_requests
from tests.conftest import assert_fleet_invariants

REPLICAS = 3
QOS_MIX = {"interactive": 0.4, "standard": 0.4, "batch": 0.2}
TRACE = make_session_trace(rate=4.0, num_sessions=6, seed=31, qos_mix=QOS_MIX)

fault_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=REPLICAS - 1),
        st.floats(min_value=0.5, max_value=6.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=5,
)


def qos_fleet(plan: FaultPlan | None):
    return make_fleet(
        "loongserve", replicas=REPLICAS, requests=TRACE, num_gpus=2,
        prefix_cache=True, router="slo", qos=True, admission=True,
        steal=True, migrate_kv=True, faults=plan,
    )


def signature(result):
    return sorted(
        (r.request_id, round(r.finish_time, 9) if r.finish_time else None,
         r.generated, r.preemptions)
        for r in result.requests
    )


def assert_qos_fault_invariants(trace, fleet, result) -> None:
    """The shared fleet invariants (a rejection is a terminal abort, not
    a disappearance), plus the fleet-summed QoS ledgers reconciling
    crash-proof: submitted = admitted + rejected, each request counted
    once, and every abort a rejection."""
    assert_fleet_invariants(trace, fleet, result)
    stats = result.qos_stats
    assert stats is not None
    submitted = sum(int(c.get("submitted", 0)) for c in stats.values())
    admitted = sum(int(c.get("admitted", 0)) for c in stats.values())
    ledger_rejected = sum(int(c.get("rejected", 0)) for c in stats.values())
    assert submitted == len(trace)
    assert submitted == admitted + ledger_rejected
    assert ledger_rejected == len(result.aborted)


@given(specs=fault_specs)
@settings(max_examples=8, deadline=None)
def test_invariants_hold_under_random_crashes_with_qos(specs):
    plan = FaultPlan(
        [ReplicaFault(time=t, replica_id=r, downtime_s=d) for t, r, d in specs]
    )
    fleet = qos_fleet(plan)
    result = fleet.run(clone_requests(TRACE))
    assert_qos_fault_invariants(TRACE, fleet, result)


@given(specs=fault_specs)
@settings(max_examples=4, deadline=None)
def test_qos_faulted_runs_replay_deterministically(specs):
    plan = FaultPlan(
        [ReplicaFault(time=t, replica_id=r, downtime_s=d) for t, r, d in specs]
    )
    first = qos_fleet(plan).run(clone_requests(TRACE))
    second = qos_fleet(plan).run(clone_requests(TRACE))
    assert signature(first) == signature(second)
    assert first.qos_stats == second.qos_stats


def test_fault_free_qos_run_has_full_ledger():
    fleet = qos_fleet(None)
    result = fleet.run(clone_requests(TRACE))
    assert_qos_fault_invariants(TRACE, fleet, result)
