"""Run-end liveness: requests a run leaves unfinished are reported.

When the simulator goes idle with a submitted request neither finished
nor aborted, that request can never finish.  The result lists it in
``stranded`` (and, when tracing, the audit log records one ``stranded``
entry per request) instead of returning a silently shorter ledger.
Scheduler stubs that never dispatch a request strand it on purpose; on
every shape, random traces with near-capacity prompts added strand
nothing, served open-loop or by closed-loop clients.
"""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import EnginePolicy, IterationPlan
from repro.config import default_config
from repro.core import global_manager
from repro.core.server import LoongServeServer
from repro.experiments.systems import CRASHABLE_SYSTEMS, make_fleet, make_system
from repro.obs import Observability
from repro.obs.tracer import SHADOW_REQUEST_OFFSET
from repro.serving import serve
from repro.types import Request, next_request_id
from repro.workloads.datasets import LEVAL, LVEVAL, MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace
from tests.conftest import make_request
from tests.test_replica_contract import SYSTEMS

TRACE = make_trace(SHAREGPT, rate=10.0, num_requests=12, seed=21)


@pytest.fixture
def never_dispatch(monkeypatch):
    """Arm a dispatcher that skips the request with the given id."""

    def arm(request_id):
        real = global_manager.select_prefill_requests

        def stub(*, pending, **kwargs):
            kept = [r for r in pending if r.request_id != request_id]
            return real(pending=kept, **kwargs)

        monkeypatch.setattr(global_manager, "select_prefill_requests", stub)

    return arm


class TestServerLiveness:
    def test_complete_run_strands_nothing(self):
        result = LoongServeServer(default_config()).run(clone_requests(TRACE))
        assert result.stranded == []
        assert len(result.finished_requests) == len(TRACE)

    def test_undispatched_request_is_stranded(self, never_dispatch):
        trace = clone_requests(TRACE)
        held = trace[3]
        never_dispatch(held.request_id)
        server = LoongServeServer(default_config())
        obs = Observability()
        server.observe(obs)
        result = server.run(trace)
        assert result.stranded == [held]
        assert len(result.finished_requests) == len(trace) - 1
        audits = obs.tracer.of_kind("stranded")
        assert [a.payload["request"] for a in audits] == [held.request_id]
        assert audits[0].payload["state"] == "PENDING"

    def test_preempted_with_nothing_in_flight_is_redispatched(self):
        # Without scale-up, a near-capacity prompt admitted behind L-Eval
        # traffic outgrows its decode instance; the tick that would
        # restart it preempts it instead, with nothing else in flight.
        trace = make_trace(LEVAL, rate=4.0, num_requests=6, seed=0)
        server = make_system("loongserve-no-scaleup", requests=trace)
        capacity = max(pool.capacity for _, pool in server.kv_pools())
        big = make_request(input_len=capacity - 3, output_len=4, arrival=1.0)
        obs = Observability()
        server.observe(obs)
        result = server.run(clone_requests(trace) + [big])
        assert [a.payload["request"] for a in obs.tracer.of_kind("preempt")] == [
            big.request_id
        ]
        assert result.stranded == []
        assert big.finish_time is not None
        assert len(result.finished_requests) == len(trace) + 1

    def test_event_budget_cut_is_not_stranding(self, never_dispatch):
        trace = clone_requests(TRACE)
        never_dispatch(trace[3].request_id)
        result = LoongServeServer(default_config()).run(trace, max_events=20)
        assert len(result.finished_requests) < len(trace) - 1
        assert result.stranded == []


class TestFleetLiveness:
    def fleet(self, **kwargs):
        return make_fleet(
            "loongserve", replicas=2, router="round-robin", requests=TRACE,
            num_gpus=4, **kwargs,
        )

    def test_complete_fleet_run_strands_nothing(self):
        result = self.fleet().run(clone_requests(TRACE))
        assert result.stranded == []

    def test_stranded_requests_merge_across_replicas(self, never_dispatch):
        trace = clone_requests(TRACE)
        held = trace[4]
        never_dispatch(held.request_id)
        fleet = self.fleet()
        obs = Observability()
        fleet.observe(obs)
        result = fleet.run(trace)
        assert result.stranded == [held]
        home = next(
            i for i, replica in enumerate(result.per_replica)
            if held in replica.requests
        )
        audits = obs.tracer.of_kind("stranded")
        assert [(a.payload["request"], a.replica) for a in audits] == [
            (held.request_id, home)
        ]

    @pytest.mark.parametrize("stage", ["decode", "prefill"])
    def test_disagg_strands_originals_never_clones(self, never_dispatch, stage):
        trace = clone_requests(TRACE)
        held = trace[5]
        # A clone held on the prefill pool leaves its original between
        # the pools, in no replica's ledger; it is stranded all the same.
        offset = SHADOW_REQUEST_OFFSET if stage == "prefill" else 0
        never_dispatch(held.request_id + offset)
        fleet = make_fleet(
            "loongserve", replicas=3, router="round-robin", requests=TRACE,
            num_gpus=4, prefix_cache=True, disagg=1,
        )
        result = fleet.run(trace)
        assert result.stranded == [held]
        assert len(result.finished_requests) == len(trace) - 1

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: cached prefixes fill a 2-GPU decode "
        "replica's pool behind a preempted head",
    )
    @pytest.mark.parametrize("steal", [False, True])
    def test_overloaded_disagg_decode_pool_ends_every_request(self, steal):
        # Without steal the run goes idle at t = 53.0 s with 7 of 16
        # requests stranded on decode replica 3, behind preempted request
        # 6 (a 145,625-token prompt), while cached prefixes hold 65,756
        # of the pool's 211,382 slots.  With steal the control loop never
        # lets the run go idle, so nothing is reported stranded.
        fleet = make_fleet(
            "loongserve", replicas=4, disagg=3, num_gpus=2,
            router="round-robin", prefix_cache=True, steal=steal,
        )
        trace = clone_requests(make_trace(MIXED, rate=2.0, num_requests=16, seed=4))
        serve(fleet, trace, max_events=20_000)
        assert all(request.finished for request in trace)
        assert fleet.sim.next_event_time() is None


class NeverPlans(EnginePolicy):
    """A policy stub that never plans an iteration."""

    def next_iteration(self, engine):
        return IterationPlan()


@pytest.mark.parametrize(
    "system", [s for s in SYSTEMS if s not in CRASHABLE_SYSTEMS]
)
def test_engine_lists_exactly_its_stuck_requests(system):
    server = make_system(system)
    for engine in server.ledgers():
        engine.policy = NeverPlans()
    trace = clone_requests(TRACE)
    oversized = make_request(input_len=2_000_000, output_len=2, arrival=0.2)
    obs = Observability()
    server.observe(obs)
    result = server.run(trace + [oversized])
    assert result.aborted == [oversized]
    assert result.stranded == trace
    audits = obs.tracer.of_kind("stranded")
    assert [a.payload["request"] for a in audits] == [r.request_id for r in trace]
    assert {a.payload["state"] for a in audits} == {"PENDING"}


class ChainedClients:
    """Closed-loop clients replaying fixed requests: each client submits
    its next request when the previous one ends, finished or aborted, so
    a completion hook that never fires stalls the rest of its chain."""

    def __init__(self, requests, clients: int = 3) -> None:
        ordered = sorted(requests, key=lambda r: r.arrival_time)
        self.chains = [ordered[i::clients] for i in range(clients)]

    def install(self, sim, submit) -> None:
        for chain in self.chains:
            if chain:
                sim.call_at(
                    chain[0].arrival_time,
                    partial(self._submit, sim, submit, chain, 0),
                )

    def _submit(self, sim, submit, chain, index: int) -> None:
        request = chain[index]
        request.arrival_time = sim.now
        if index + 1 < len(chain):
            request.on_finish = lambda now: sim.call_at(
                now, partial(self._submit, sim, submit, chain, index + 1)
            )
        submit(request)


DATASETS = {"sharegpt": SHAREGPT, "leval": LEVAL, "lveval": LVEVAL, "mixed": MIXED}

near_capacity = st.tuples(
    st.booleans(),  # scale: one pool, or all of them
    st.floats(min_value=0.95, max_value=1.005),  # prompt / scale
    st.integers(min_value=1, max_value=64),  # output tokens
    st.floats(min_value=0.0, max_value=10.0),  # arrival
)


@pytest.mark.parametrize("system", SYSTEMS)
@settings(max_examples=12, deadline=None)
@given(
    dataset=st.sampled_from(sorted(DATASETS)),
    seed=st.integers(min_value=0, max_value=10_000),
    num_requests=st.integers(min_value=1, max_value=12),
    rate=st.sampled_from([0.5, 4.0, 40.0]),
    near=st.lists(near_capacity, max_size=3),
    driven=st.booleans(),
)
def test_every_request_ends_finished_or_aborted(
    system, dataset, seed, num_requests, rate, near, driven
):
    trace = make_trace(
        DATASETS[dataset], rate=rate, num_requests=num_requests, seed=seed
    )
    server = make_system(system, requests=trace)
    pools = [pool.capacity for _, pool in server.kv_pools()]
    requests = clone_requests(trace) + [
        Request(
            request_id=next_request_id(),
            input_len=int((sum(pools) if whole else max(pools)) * fraction),
            output_len=output_len, arrival_time=arrival,
        )
        for whole, fraction, output_len, arrival in near
    ]
    requests.sort(key=lambda r: r.arrival_time)
    if driven:
        result = server.run_driven(ChainedClients(requests))
    else:
        result = server.run(requests)
    assert result.stranded == []
    aborted = {r.request_id for r in result.aborted}
    assert len(aborted) == len(result.aborted)
    assert sorted(r.request_id for r in result.requests) == sorted(
        r.request_id for r in requests if r.request_id not in aborted
    )
    for request in requests:
        assert request.finished
        assert (request.finish_time is None) == (request.request_id in aborted)
