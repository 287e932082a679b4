"""Run-end liveness: requests a run leaves unfinished are reported.

When the simulator goes idle with a submitted request neither finished
nor aborted, that request can never finish.  The result lists it in
``stranded`` (and, when tracing, the audit log records one ``stranded``
entry per request) instead of returning a silently shorter ledger.  A
scheduler stub that never dispatches one request strands it on purpose.
"""

import pytest

from repro.config import default_config
from repro.core import global_manager
from repro.core.server import LoongServeServer
from repro.experiments.systems import make_fleet
from repro.fleet import CLONE_ID_OFFSET
from repro.obs import Observability
from repro.workloads.datasets import SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace

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
        offset = CLONE_ID_OFFSET if stage == "prefill" else 0
        never_dispatch(held.request_id + offset)
        fleet = make_fleet(
            "loongserve", replicas=3, router="round-robin", requests=TRACE,
            num_gpus=4, prefix_cache=True, disagg=1,
        )
        result = fleet.run(trace)
        assert result.stranded == [held]
        assert len(result.finished_requests) == len(trace) - 1
