"""Deterministic chaos harness: property tests over random crash plans.

Hypothesis drives the crash schedules — scripted lists of
(time, replica, downtime) triples and seeded Poisson draws — against
small but fully real fleet runs, asserting the failover invariants that
must hold under *any* schedule:

* **Exactly-once**: every request of the trace appears on exactly one
  replica's ledger, finished — crashes neither lose nor duplicate work.
* **Token conservation**: every finished request generated exactly its
  declared output; recomputed prefills never leak partial generations.
* **Pool-occupancy consistency**: after the run every replica's KV pool
  holds exactly its prefix cache's resident tokens (zero without a
  cache) — KV loss and failover leak no slots.
* **Ledger coherence**: the flight recorder's crash count matches the
  injector's, and the capacity timeline never leaves [0, fleet size].
* **Prefill roles are tracked**: between any two events, no instance
  holds the PREFILL role while its server has no request prefilling —
  the decode loop skips the co-opted-instance scan on that basis.

The ``CI=1`` profile (tests/conftest.py) derandomizes all of this for
bit-reproducible CI runs.
"""

from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.elastic_instance import InstanceRole
from repro.experiments.systems import make_fleet
from repro.fleet import FaultPlan, ReplicaFault
from repro.sessions import make_session_trace
from repro.sim.events import EventQueue
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace
from tests.conftest import assert_fleet_invariants

# Small-but-real workloads, generated once: every example clones them.
MIXED_FLEET_REPLICAS = 3
MIXED_TRACE = make_trace(SHAREGPT, rate=8.0, num_requests=14, seed=21)
SESSION_FLEET_REPLICAS = 2
SESSION_TRACE = make_session_trace(rate=4.0, num_sessions=5, seed=22)

fault_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=MIXED_FLEET_REPLICAS - 1),
        st.floats(min_value=0.5, max_value=6.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=6,
)


def scripted_plan(specs) -> FaultPlan:
    return FaultPlan(
        [ReplicaFault(time=t, replica_id=r, downtime_s=d) for t, r, d in specs]
    )


def assert_fault_invariants(trace, fleet, result) -> None:
    """The shared fleet invariants, with nothing aborted: a crash never
    turns work away."""
    assert_fleet_invariants(trace, fleet, result)
    assert not result.aborted


def assert_prefill_roles_tracked(fleet) -> None:
    """No instance holds the PREFILL role unless a prefill is running."""
    for handle in fleet.replicas:
        server = handle.server
        if not server._prefilling:
            assert all(
                instance.role is not InstanceRole.PREFILL
                for instance in server.instances.values()
            ), f"replica {handle.replica_id}: PREFILL role with nothing prefilling"


@contextmanager
def checked_between_events(check):
    """Run ``check()`` before every event pop (so after every event) and
    once more when the run ends."""
    pop = EventQueue.pop

    def checked_pop(queue):
        check()
        return pop(queue)

    EventQueue.pop = checked_pop
    try:
        yield
    finally:
        EventQueue.pop = pop
    check()


class TestChaosInvariants:
    @given(specs=fault_specs)
    @settings(max_examples=12, deadline=None)
    def test_fleet_survives_any_scripted_crash_schedule(self, specs):
        """Work stealing + failover under arbitrary crash schedules,
        including overlapping crashes and whole-fleet outages."""
        plan = scripted_plan(specs)
        fleet = make_fleet(
            "loongserve", replicas=MIXED_FLEET_REPLICAS, router="round-robin",
            requests=MIXED_TRACE, num_gpus=4, steal=True, faults=plan,
        )
        with checked_between_events(lambda: assert_prefill_roles_tracked(fleet)):
            result = fleet.run(clone_requests(MIXED_TRACE))
        assert_fault_invariants(MIXED_TRACE, fleet, result)

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=8, deadline=None)
    def test_session_fleet_with_poisson_faults(self, seed):
        """The full stack — affinity routing, prefix caches, stealing,
        KV migration, autoscaling — under seeded stochastic crashes."""
        horizon = max(r.arrival_time for r in SESSION_TRACE)
        plan = FaultPlan.poisson(
            num_replicas=SESSION_FLEET_REPLICAS, horizon_s=horizon,
            mtbf_s=horizon / 1.5, seed=seed, downtime_s=3.0,
        )
        fleet = make_fleet(
            "loongserve", replicas=SESSION_FLEET_REPLICAS, router="affinity",
            requests=SESSION_TRACE, num_gpus=4, prefix_cache=True,
            autoscale=True, steal=True, migrate_kv=True,
            faults=plan if plan else None,
        )
        with checked_between_events(lambda: assert_prefill_roles_tracked(fleet)):
            result = fleet.run(clone_requests(SESSION_TRACE))
        if plan:
            assert_fault_invariants(SESSION_TRACE, fleet, result)
        else:
            assert len(result.finished_requests) == len(SESSION_TRACE)

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=6, deadline=None)
    def test_crash_schedules_replay_deterministically(self, seed):
        """One seed, two runs, identical outcomes — the chaos harness
        itself must be deterministic or its counterexamples are noise."""
        plan = FaultPlan.poisson(
            num_replicas=MIXED_FLEET_REPLICAS, horizon_s=5.0, mtbf_s=4.0,
            seed=seed, downtime_s=2.0,
        )
        if not plan:
            return
        outcomes = []
        for _ in range(2):
            fleet = make_fleet(
                "loongserve", replicas=MIXED_FLEET_REPLICAS,
                router="round-robin", requests=MIXED_TRACE, num_gpus=4,
                steal=True, faults=plan,
            )
            result = fleet.run(clone_requests(MIXED_TRACE))
            outcomes.append(
                sorted(
                    (r.request_id, round(r.finish_time, 12))
                    for r in result.finished_requests
                )
            )
        assert outcomes[0] == outcomes[1]
