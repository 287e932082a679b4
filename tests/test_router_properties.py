"""Property tests: router tie-breaking must be deterministic.

Every routing policy resolves ties down to the replica id, so a router
presented with equal-state replicas (equal free KV, equal outstanding
work, equal prefix match) must always pick the lowest id — and, more
generally, the choice must be a pure function of replica state, not of
replica order or router history.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.router import (
    LONG_FRACTION,
    CacheAffinityRouter,
    LeastKVRouter,
    LeastOutstandingRouter,
    LengthAwareRouter,
)
from tests.conftest import StubReplica, make_request

# Policies that consider the whole fleet for every request; the
# length-aware router partitions replicas into pools first, so its
# tie-break property is stated per pool (see the dedicated test).
WHOLE_FLEET_ROUTERS = [
    LeastOutstandingRouter,
    LeastKVRouter,
    CacheAffinityRouter,
]


replica_states = st.tuples(
    st.integers(min_value=0, max_value=5),      # outstanding requests
    st.integers(min_value=0, max_value=10_000), # outstanding tokens
    st.integers(min_value=0, max_value=10_000), # free KV slots
    st.integers(min_value=0, max_value=2_000),  # prefix match length
)


def build_fleet(states):
    return [
        StubReplica(i, outstanding=o, tokens=t, free=f, match=m)
        for i, (o, t, f, m) in enumerate(states)
    ]


@settings(max_examples=200, deadline=None)
@given(
    states=st.lists(replica_states, min_size=1, max_size=8),
    input_len=st.integers(min_value=1, max_value=20_000),
)
def test_equal_state_ties_break_to_lowest_id(states, input_len):
    """Duplicate every replica state: among exact duplicates, the lower
    replica id must win for every policy."""
    fleet = build_fleet(states + states)  # ids 0..n-1 duplicate n..2n-1
    request = make_request(input_len=input_len)
    for router_cls in WHOLE_FLEET_ROUTERS:
        chosen = router_cls().route(request, fleet, now=0.0)
        duplicate_ids = [
            r.replica_id for r in fleet if r.state() == chosen.state()
        ]
        assert chosen.replica_id == min(duplicate_ids), router_cls.name


@settings(max_examples=200, deadline=None)
@given(
    states=st.lists(replica_states, min_size=2, max_size=8),
    long=st.booleans(),
)
def test_length_aware_ties_break_to_lowest_id_within_pool(states, long):
    """The length-aware router partitions the fleet; within the pool that
    serves the request, equal outstanding-token replicas resolve to the
    lowest id."""
    router = LengthAwareRouter()
    fleet = build_fleet(states)
    boundary = max(1, min(len(fleet) - 1, round(len(fleet) * LONG_FRACTION)))
    pool = fleet[:boundary] if long else fleet[boundary:]
    input_len = router.long_threshold + 1 if long else 1
    chosen = router.route(make_request(input_len=input_len), fleet, now=0.0)
    assert chosen in pool
    ties = [
        r.replica_id for r in pool
        if r.outstanding_tokens() == chosen.outstanding_tokens()
    ]
    assert chosen.replica_id == min(ties)


@settings(max_examples=200, deadline=None)
@given(
    states=st.lists(replica_states, min_size=2, max_size=8),
    input_len=st.integers(min_value=1, max_value=20_000),
)
def test_choice_is_reproducible_and_history_free(states, input_len):
    """Same state, same request => same replica, on every call, for a
    fresh or reused (stateless) router instance."""
    fleet = build_fleet(states)
    request = make_request(input_len=input_len)
    for router_cls in [*WHOLE_FLEET_ROUTERS, LengthAwareRouter]:
        router = router_cls()
        first = router.route(request, fleet, now=0.0)
        again = router.route(request, fleet, now=0.0)
        fresh = router_cls().route(request, fleet, now=0.0)
        assert first.replica_id == again.replica_id == fresh.replica_id


@settings(max_examples=100, deadline=None)
@given(states=st.lists(replica_states, min_size=1, max_size=8))
def test_all_idle_fleet_routes_to_replica_zero(states):
    """An idle uniform fleet (all probes zero) must resolve to id 0 for
    every whole-fleet policy, and to its pool's first replica for the
    length-aware partitioner."""
    idle = [(0, 0, 0, 0)] * len(states)
    fleet = build_fleet(idle)
    request = make_request(input_len=100)
    for router_cls in WHOLE_FLEET_ROUTERS:
        assert router_cls().route(request, fleet, now=0.0).replica_id == 0
    router = LengthAwareRouter()
    chosen = router.route(request, fleet, now=0.0)
    if len(fleet) == 1:
        assert chosen.replica_id == 0
    else:
        boundary = max(1, min(len(fleet) - 1, round(len(fleet) * LONG_FRACTION)))
        assert chosen.replica_id == boundary  # first replica of the short pool
