"""Shared fixtures: a small cluster, cost model, and workload helpers.

Also registers the derandomized hypothesis profile CI runs select via
``CI=1``: a fixed seed and no deadline, so property tests are exactly
reproducible across CI runs (no flaky shrink timeouts, no
run-to-run example drift) while local runs keep exploring fresh
examples.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace

import pytest
from hypothesis import settings

from repro.cluster.cluster import Cluster
from repro.cluster.gpu import A800_80GB, GPUSpec
from repro.config import KV_MEMORY_FRACTION, SystemConfig, default_config
from repro.costmodel.latency import RooflineCostModel
from repro.model.spec import LWM_7B_1M
from repro.serving import keep_iteration_rows
from repro.types import Request, next_request_id

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def cluster8() -> Cluster:
    return Cluster.homogeneous(num_gpus=8)


@pytest.fixture(scope="session")
def cost_model(cluster8: Cluster) -> RooflineCostModel:
    return RooflineCostModel(cluster=cluster8, model=LWM_7B_1M)


@pytest.fixture(scope="session")
def config8() -> SystemConfig:
    return default_config(num_gpus=8, tensor_parallel=2)


def gpu_with_kv_slots(slots: int, tensor_parallel: int = 2) -> GPUSpec:
    """An A800 with just enough memory that one TP-way LWM-7B instance
    holds ``slots`` KV slots.

    ``SystemConfig.kv_slots_per_instance`` is the only reader of
    ``memory_bytes``, so every price stays the A800's and only the KV
    pool shrinks.
    """
    model = LWM_7B_1M
    kv_bytes = (slots + 0.5) * model.kv_bytes_per_token / KV_MEMORY_FRACTION
    memory = math.ceil((model.weight_bytes + kv_bytes) / tensor_parallel)
    return replace(A800_80GB, memory_bytes=memory)


def with_rows(server):
    """``server`` (a system or a fleet), keeping a ``BatchStats`` row per
    iteration (:func:`repro.serving.keep_iteration_rows`)."""
    keep_iteration_rows(server)
    return server


def make_request(
    input_len: int = 100,
    output_len: int = 10,
    arrival: float = 0.0,
    max_tokens: int | None = None,
) -> Request:
    return Request(
        request_id=next_request_id(),
        input_len=input_len,
        output_len=output_len,
        arrival_time=arrival,
        max_tokens=max_tokens,
    )


def assert_fleet_invariants(trace, fleet, result) -> None:
    """The invariants every fleet run keeps, whatever crashed or was
    rejected.

    * Exactly-once: every trace request ends on exactly one replica's
      ledger, finished or aborted; nothing is lost or duplicated.
    * Token conservation: each finished request generated exactly its
      declared output, and no request both finished and aborted.
    * Pool occupancy: every replica's KV pool holds exactly its prefix
      cache's resident tokens (zero without a cache), so crashes,
      failovers, preemptions, rejections and migrations leak no slot.
    * Ledger coherence: the capacity timeline stays within the fleet,
      and with faults armed the flight recorder's crash count matches
      the injector's.
    """
    served = [
        r.request_id
        for replica in result.per_replica
        for r in replica.requests + replica.aborted
    ]
    assert sorted(served) == sorted(r.request_id for r in trace)
    assert len(set(served)) == len(served)
    aborted = {r.request_id for r in result.aborted}
    for request in result.finished_requests:
        assert request.generated == request.output_len
        assert request.request_id not in aborted
    assert len(result.finished_requests) + len(aborted) == len(trace)
    for handle in fleet.replicas:
        server = handle.server
        cache = server.prefix_cache
        expected = cache.resident_tokens if cache is not None else 0
        assert server.pool.total_used == expected
    elastic = result.elastic
    if elastic is None:
        return
    assert all(
        0 <= online <= len(fleet.replicas)
        for _, online in elastic.capacity_timeline
    )
    injector = fleet.policy.injector
    if injector is not None:
        assert elastic.crashes == len(injector.injected)
        assert elastic.crashes + len(injector.skipped) <= len(injector.plan)
        assert elastic.lost_kv_tokens >= 0
        assert elastic.failovers >= 0


class StubReplica:
    """Minimal replica handle for unit-testing fleet policies.

    Declares what production reads of a ``ReplicaHandle``: the router
    probes with fully controllable state, plus the lifecycle flags and
    counters the control plane reads (healthy and online by default).
    """

    def __init__(self, replica_id, outstanding=0, tokens=0, free=0, match=0):
        self.replica_id = replica_id
        self._outstanding = outstanding
        self._tokens = tokens
        self._free = free
        self._match = match
        self.online = True
        self.draining = False
        self.crashed = False
        self.warming = False
        self.standby = False
        self.routed_tokens = 0

    @property
    def available(self):
        return self.online and not self.draining

    @property
    def placeable(self):
        return not self.crashed and not self.warming

    def outstanding_requests(self):
        return self._outstanding

    def outstanding_tokens(self):
        return self._tokens

    def kv_free(self):
        return self._free

    def prefix_match_len(self, request):
        return self._match

    def state(self):
        return (self._outstanding, self._tokens, self._free, self._match)
