"""The benchmark's workloads: each builds a system and open-loop traces.

A workload is a fixed number of episodes.  Episode ``k`` replays a
fixed request dataset — the repo's length distributions sampled with
seed ``k``, like a serving benchmark replaying dataset files — and the
benchmark's ``--seed`` draws its Poisson arrival times.  Each episode
runs on a fresh system; a run pools the requests of all its episodes,
so it rests on enough independent samples for the latency tails to
hold steady from seed to seed.

Systems come from the public factories (``make_system``/``make_fleet``),
requests from ``repro.workloads.make_trace`` and
``repro.sessions.make_session_trace``.  Arrival times are fixed before
serving starts, so load never waits on the system (open loop).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    """A named traffic mix: ``build(seed, episode)`` makes one episode."""

    name: str
    why: str
    episodes: int
    build: Callable[[int, int], tuple[object, list]]  # (seed, episode) -> (system, trace)


def _arrivals(rate: float, count: int, seed: int, episode: int, stream: int = 0):
    """Poisson arrival times for one episode, drawn from the run seed."""
    from repro.workloads import PoissonArrivals

    rng = np.random.default_rng([seed, episode, stream])
    return PoissonArrivals(rate=rate).times(count, rng)


def _retimed(requests: list, times: list[float]) -> list:
    """The dataset requests, in dataset order, due at ``times``."""
    return [replace(r, arrival_time=t) for r, t in zip(requests, times)]


def _mixed_paper(seed: int, episode: int):
    """One 8-GPU LoongServe (§7.1) on the Mixed dataset.

    0.15 req/s sits below the SLO knee (about 0.25 req/s): at the knee,
    latency tails swing by a quarter from one arrival draw to the next,
    too much for a regression bound.
    """
    from repro.experiments.systems import make_system
    from repro.workloads import MIXED, make_trace

    dataset = make_trace(MIXED, rate=1.0, num_requests=250, seed=episode)
    trace = _retimed(dataset, _arrivals(0.15, len(dataset), seed, episode))
    return make_system("loongserve"), trace


def _sessions_fleet(seed: int, episode: int):
    """Five 8-GPU replicas with every fleet feature armed."""
    from repro.experiments.systems import make_fleet
    from repro.fleet.faults import FaultPlan
    from repro.obs import Observability
    from repro.sessions import SessionSpec, make_session_trace
    from repro.workloads import MIXED, make_trace

    # Six turns per conversation on average: two thirds of all requests
    # are follow-up turns, so the median TTFT sits inside the cache-hit
    # mode rather than on the edge between it and the cold prompts.
    sessions = make_session_trace(
        SessionSpec(mean_turns=6.0), rate=1.0, num_sessions=80, seed=episode,
        qos_mix={"interactive": 1.0},
    )
    # Each session keeps its turn spacing; the seed redraws when it starts.
    starts = dict(zip(
        sorted({r.session_id for r in sessions}),
        _arrivals(1.5, 80, seed, episode),
    ))
    first_turn = {r.session_id: r.arrival_time for r in sessions if r.turn == 0}
    sessions = [
        replace(r, arrival_time=starts[r.session_id] + r.arrival_time - first_turn[r.session_id])
        for r in sessions
    ]
    singles = make_trace(
        MIXED, rate=1.0, num_requests=120, seed=episode,
        max_input_len=30_000, qos_mix={"standard": 0.5, "batch": 0.5},
    )
    singles = _retimed(singles, _arrivals(3.0, len(singles), seed, episode, stream=1))
    trace = sorted(sessions + singles, key=lambda r: (r.arrival_time, r.request_id))
    # Replica faults belong to the environment, like the dataset: the
    # same crash schedule in every run of the episode.
    faults = FaultPlan.poisson(5, horizon_s=60.0, mtbf_s=90.0, seed=episode)
    fleet = make_fleet(
        "loongserve", replicas=5, router="affinity", prefix_cache=True,
        autoscale=True, steal=True, migrate_kv=True, qos=True, admission=True,
        kv_tiers="lru", faults=faults,
    )
    fleet.observe(Observability())
    return fleet, trace


def _disagg_overload(seed: int, episode: int):
    """Disaggregated prefill/decode pools under a deep Mixed backlog.

    At 10 req/s the fleet queues seconds of prefill work, yet arrivals
    still interleave with service, so the seed's arrival draw shapes the
    decode batches; at 40 req/s every request is queued before the first
    finishes and the serving order, hence every latency, is the same for
    every seed.
    """
    from repro.experiments.systems import make_fleet
    from repro.workloads import MIXED, make_trace

    dataset = make_trace(MIXED, rate=1.0, num_requests=50, seed=episode)
    trace = _retimed(dataset, _arrivals(10.0, len(dataset), seed, episode))
    fleet = make_fleet(
        "loongserve", replicas=5, disagg=2, prefix_cache=True, router="least-kv"
    )
    return fleet, trace


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mixed_paper",
            "paper system (8-GPU LoongServe) on Mixed at 0.15 req/s, 6x250 "
            "requests, tail p99; bypasses prefix cache, fleet, QoS, tiers, "
            "obs and disagg",
            6, _mixed_paper,
        ),
        Workload(
            "sessions_fleet",
            "5x8-GPU fleet, sessions + Mixed singles, 3x~540 requests, tail "
            "p99: prefix cache, affinity, autoscale, steal, KV migration, "
            "QoS admission, tiers, faults, obs",
            3, _sessions_fleet,
        ),
        Workload(
            "disagg_overload",
            "disagg prefill/decode pools (2+3 replicas), Mixed at 10 req/s, "
            "16x50 requests, tail p90: prefix-cache import/write path under "
            "deep backlog",
            16, _disagg_overload,
        ),
    )
}
