"""The replica contract: every server shape behind one fleet interface.

Pinned here:

* **Shape golden matrix** — all eight ``make_system`` names on a
  3-replica least-kv fleet, route-once and with work stealing, serve
  exactly the runs they served when the fleet still probed each shape
  with ``getattr``/``hasattr``: per-request timelines, per-replica
  aborted ids in order, iteration stats and scaling events.
* **Conformance** — every shape is a :class:`ServingReplica`; a queued
  request withdraws cleanly from any shape and serves elsewhere; shapes
  that cannot fail say so.
* **Telemetry and audits on every shape** — the latency histograms, the
  decode batch gauge, the SLO monitor and the abort audits see engine
  groups (DistServe, replicated engines) as well as LoongServe.
* **No probes** — the fleet and obs layers read the contract directly.
"""

import hashlib
import re
from pathlib import Path

import pytest

import repro
from repro.__main__ import main as repro_main
from repro.experiments.systems import CRASHABLE_SYSTEMS, make_fleet, make_system
from repro.fleet.server import ReplicaHandle, ServingReplica
from repro.obs import Observability, load_export
from repro.sim.engine import Simulator
from repro.workloads.datasets import MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace
from tests.conftest import make_request, with_rows

SYSTEMS = (
    "loongserve", "loongserve-no-scaleup", "vllm", "deepspeed-mii",
    "splitfuse", "distserve", "static-sp", "replicated-tp2",
)
ENGINE_GROUPS = ("distserve", "replicated-tp2")


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# -- shape golden matrix -------------------------------------------------------

MATRIX_TRACE = make_trace(MIXED, rate=12.0, num_requests=60, seed=1)

# (system, steal) -> signature digest, recorded on the probing adapter
# the contract replaced.
GOLDEN = {
    ("loongserve", False): "3786e1a9136d5697",
    ("loongserve", True): "3154e255739e4213",
    ("loongserve-no-scaleup", False): "f55f01b85825eaca",
    ("loongserve-no-scaleup", True): "2340b9c34a64dede",
    ("vllm", False): "617e0ede62254afb",
    ("vllm", True): "781432c19a788c89",
    ("deepspeed-mii", False): "274c742457a0eac2",
    ("deepspeed-mii", True): "79127797f3db2f11",
    ("splitfuse", False): "1a05b850bc7704d1",
    ("splitfuse", True): "a7e235c87971d198",
    ("distserve", False): "bc00b11fb39573a9",
    ("distserve", True): "a963423a6f76dc7d",
    ("static-sp", False): "b0a1d30f81aaf04a",
    ("static-sp", True): "70b299028e143c21",
    ("replicated-tp2", False): "9c536327f95a5240",
    ("replicated-tp2", True): "30d3fa60ba3532da",
}


def _signature(result, trace) -> str:
    """Digest of a fleet run, with requests named by trace position
    (request ids come from a process-wide counter)."""
    index = {r.request_id: i for i, r in enumerate(trace)}
    per = []
    for pr in result.per_replica:
        per.append((
            pr.system,
            [(index[r.request_id], r.prefill_start, r.first_token_time,
              r.finish_time, r.generated, r.preemptions) for r in pr.requests],
            [index[r.request_id] for r in pr.aborted],
            [(s.iteration, s.phase.name, s.batch_size, s.total_tokens, s.dop,
              s.duration, s.start_time) for s in pr.iterations.rows],
            [(e.time, e.kind, e.group_before, e.group_after, e.batch_size)
             for e in pr.scaling_events],
        ))
    steals = result.elastic.stolen_requests if result.elastic else None
    return _digest((per, result.makespan, steals))


@pytest.mark.parametrize(("system", "steal"), list(GOLDEN))
def test_shape_matrix_matches_golden(system, steal):
    fleet = with_rows(make_fleet(
        system, replicas=3, router="least-kv", requests=MATRIX_TRACE,
        steal=steal,
    ))
    result = fleet.run(clone_requests(MATRIX_TRACE))
    if steal:  # queued() and withdraw() ran on this shape
        assert result.elastic.stolen_requests > 0
    assert _signature(result, MATRIX_TRACE) == GOLDEN[system, steal]


# -- conformance ---------------------------------------------------------------


@pytest.mark.parametrize("system", SYSTEMS)
def test_every_shape_is_a_serving_replica(system):
    server = make_system(system)
    assert isinstance(server, ServingReplica)
    if system not in CRASHABLE_SYSTEMS:
        assert server.prefix_cache is None and server.qos_ledger is None
    assert not isinstance(object(), ServingReplica)


@pytest.mark.parametrize("system", SYSTEMS)
def test_queued_withdraw_round_trip(system):
    sim = Simulator()
    src, dst = (ReplicaHandle(i, make_system(system)) for i in range(2))
    src.prepare(sim)
    dst.prepare(sim)
    # More requests than any shape has engines, so some wait.
    requests = [make_request(input_len=2_000, output_len=4) for _ in range(8)]
    for request in requests:
        src.submit(request)
    queued = src.queued_requests()
    assert queued and all(r in list(src.server.queued()) for r in queued)
    victim = queued[-1]
    tokens = src.routed_tokens

    assert src.withdraw(victim)
    assert victim not in src.queued_requests()
    assert victim not in list(src.server.queued())
    assert victim not in src.routed
    assert src.routed_tokens == tokens - victim.input_len - victim.output_len
    assert not src.withdraw(victim)  # already gone
    assert not src.server.withdraw(make_request())  # never submitted

    dst.accept_stolen(victim)
    sim.run_until_idle()
    assert all(r.finished for r in requests)
    assert (src.stolen_out, dst.stolen_in) == (1, 1)
    assert victim not in src.result(sim.now).requests
    assert dst.result(sim.now).requests == [victim]
    for handle in (src, dst):  # the telemetry throughput read
        assert handle.server.generated_tokens() == sum(
            r.generated for r in handle.routed
        )


@pytest.mark.parametrize(
    "system", [s for s in SYSTEMS if s not in CRASHABLE_SYSTEMS]
)
def test_shapes_that_cannot_fail_say_so(system):
    handle = ReplicaHandle(0, make_system(system))
    handle.prepare(Simulator())
    with pytest.raises(TypeError, match="does not support failure injection"):
        handle.crash()
    assert handle.online and not handle.crashed


def test_kv_probes_read_the_pool_a_crash_swapped_in():
    """No cache to invalidate: after a crash rebuilds LoongServe's pool,
    the handle's next probe reads the new one."""
    sim = Simulator()
    handle = ReplicaHandle(0, make_system("loongserve"))
    handle.prepare(sim)
    for request in make_trace(SHAREGPT, rate=50.0, num_requests=8, seed=3):
        handle.submit(request)
    sim.run(until=1.0)
    assert handle.kv_free() < handle.kv_capacity()
    old_pool = handle.server.pool
    handle.crash()
    assert handle.server.pool is not old_pool
    assert handle.kv_free() == handle.kv_capacity() == old_pool.total_capacity


# -- telemetry and audits on every shape ---------------------------------------

TELEMETRY_TRACE = make_trace(SHAREGPT, rate=8.0, num_requests=80, seed=1)


def _observed_run(system, trace, deadline_s=None, health=False, **kwargs):
    fleet = make_fleet(
        system, replicas=2, router="round-robin", requests=trace, **kwargs
    )
    obs = Observability()
    if health:
        obs.enable_health()
    fleet.observe(obs)
    requests = clone_requests(trace)
    if deadline_s is not None:
        for request in requests:
            request.deadline = request.arrival_time + deadline_s
    return fleet, obs, fleet.run(requests)


@pytest.mark.parametrize("system", ["loongserve", "vllm", *ENGINE_GROUPS])
def test_latency_histograms_see_every_shape(system):
    _, obs, _ = _observed_run(system, TELEMETRY_TRACE)
    # 80 requests; the last finishes after the final sample, and the
    # serving loop feeds it in when the run ends.
    assert obs.metrics.get("fleet.ttft").count == 80
    assert obs.metrics.get("fleet.per_token_latency").count > 0


@pytest.mark.parametrize("system", ["vllm", *ENGINE_GROUPS])
def test_batch_gauge_sees_every_shape(system):
    _, obs, _ = _observed_run(system, TELEMETRY_TRACE)
    assert max(v for _, v in obs.metrics.series["fleet.batch_size"]) > 0


# Recorded on the probing adapter: the contract changed no LoongServe
# series and no other shape's throughput series.
UNCHANGED_SERIES = {
    "loongserve": (None, "e140cde74316b96c"),
    "vllm": ("fleet.tokens_per_s", "3467ca34396e194f"),
    "distserve": ("fleet.tokens_per_s", "e67fe761b46fa84a"),
    "replicated-tp2": ("fleet.tokens_per_s", "d18077bccf1d514a"),
}


@pytest.mark.parametrize("system", list(UNCHANGED_SERIES))
def test_series_the_contract_did_not_change(system):
    _, obs, _ = _observed_run(system, TELEMETRY_TRACE)
    name, digest = UNCHANGED_SERIES[system]
    series = obs.metrics.series
    assert _digest(sorted(series.items()) if name is None else series[name]) == digest


def test_slo_monitor_drains_engine_group_ledgers():
    _, obs, result = _observed_run(
        "distserve", TELEMETRY_TRACE, deadline_s=30.0, health=True
    )
    attainment = obs.metrics.series["slo.attainment.default"]
    assert attainment and all(0.0 <= v <= 1.0 for _, v in attainment)
    assert len(result.finished_requests) == 80


ABORT_SETUPS = {  # system -> (requests, req/s, seed): each aborts >= 1
    "replicated-tp2": (40, 2.0, 3),
    "distserve": (60, 8.0, 1),
}


@pytest.mark.parametrize("system", list(ABORT_SETUPS))
def test_abort_audited_once_per_aborted_request(system):
    n, rate, seed = ABORT_SETUPS[system]
    trace = make_trace(MIXED, rate=rate, num_requests=n, seed=seed)
    fleet, obs, result = _observed_run(system, trace)
    assert result.aborted
    where = {
        r.request_id: i
        for i, pr in enumerate(result.per_replica) for r in pr.aborted
    }
    audits = obs.tracer.of_kind("abort")
    assert sorted(a.payload["request"] for a in audits) == sorted(where)
    assert all(a.replica == where[a.payload["request"]] for a in audits)
    for handle in fleet.replicas:  # preempt audits reach the fleet too
        assert all(e.trace is obs.tracer for e in handle.server.engines)


@pytest.mark.parametrize("replicas", [1, 2])
@pytest.mark.parametrize("system", list(ABORT_SETUPS))
def test_serve_cli_audits_every_abort(system, replicas, tmp_path, capsys):
    n, rate, seed = ABORT_SETUPS[system]
    path = tmp_path / "run.json"
    assert repro_main(
        ["serve", "--system", system, "--dataset", "mixed", "--rate", str(rate),
         "-n", str(n), "--seed", str(seed), "--replicas", str(replicas),
         "--router", "round-robin", "--trace-out", str(path)]
    ) == 0
    aborted = int(re.search(r"(\d+) aborted", capsys.readouterr().out).group(1))
    assert aborted >= 1
    assert len(load_export(path).tracer.of_kind("abort")) == aborted


# -- no probes -------------------------------------------------------------------

CONSUMERS = (
    "fleet/server.py", "fleet/router.py", "fleet/autoscaler.py",
    "fleet/control.py", "fleet/disagg.py", "obs/observe.py", "obs/health.py",
    "obs/export.py", "obs/forensics.py",
)
PROBE = re.compile(r"\b(getattr|hasattr)\(")


def test_consumers_read_the_contract_without_probes():
    src = Path(repro.__file__).parent
    for module in CONSUMERS:
        assert not PROBE.findall((src / module).read_text()), module
