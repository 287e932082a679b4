"""Simulator speed: iterations/sec, steady traces and fleet calendars.

Three measurements, each of complete or fixed-budget runs:

* the optimised simulator (slotted events, incremental server state,
  memoised cost models, the hoisted batching DP, decode windows) runs
  simulated iterations several times faster than the pre-PR baseline at
  identical semantics — counted in iterations (the iteration ledger's
  ``count``), not events, since a decode window runs many iterations in
  one event;
* steady traces (clusters of uniform long-output requests) served to
  completion at 10k and 100k requests: wall time, events, iterations
  and peak RSS, which stays flat as the trace grows, since a default
  run folds its iterations into a ledger and keeps no per-iteration
  rows;
* at fleet scale (16 elastic replicas, bursty Mixed + multi-turn
  sessions), sharded event calendars serve the shared-heap layout's
  exact outcomes in fewer events (each replica runs ahead of the events
  that cannot touch it).

Run as a script to (re)generate ``BENCH_sim_speed.json``::

    PYTHONPATH=src python benchmarks/bench_sim_speed.py [--quick]
    [--steady-scales 10000,100000]

Each scenario runs in a forked child so ``ru_maxrss`` is a true
per-scenario peak.  The pre-PR baseline numbers were measured at the
seed commit (53aa78d) on the same traces with the same event budgets;
the baseline code no longer exists in-tree, so they are recorded below
and rescaled by the calibration microbenchmark when compared on a
different machine.

Under pytest the module doubles as the CI perf gate: anchors assert the
simulator stays ahead of the (calibration-scaled) baseline, that
sharded fleets serve the shared heap's outcomes, and that a complete
run's peak RSS stays flat from 1k to 4k steady requests; if a committed
``BENCH_sim_speed.json`` is present, a >20% wall-time regression of a
complete run against it fails (a quiet-dominated single server, and the
quick fleet scenario).  Every gate times a fixed amount of serving
work, so serving it in fewer, fuller events cannot read as a slowdown.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import pytest

from repro.config import default_config
from repro.core.server import LoongServeServer
from repro.types import Request
from repro.workloads.datasets import MIXED
from repro.workloads.trace_gen import clone_requests, make_trace

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_sim_speed.json"

# Speed of the seed-commit simulator, measured on the machine whose
# calibration score is recorded alongside.  The seed ran one event per
# decode iteration or tick, so events/sec stood for work: 2544.4 events/s
# over a fixed 300k-event prefix of mixed_10k.  A decode window now runs
# many iterations in one event, so work is counted in simulated
# iterations (the iteration ledger's ``count``).  Replaying the seed commit over
# the same prefix counts 140,003 iterations (0.466677 per event), so its
# iterations/sec there are 2544.4 x 0.466677.
BASELINE = {
    "commit": "53aa78d",
    "calibration_score": 22.11,
    "mixed_10k_iterations_per_sec": 1187.4,
}

# Event budgets for the fixed-work events/sec scenarios (matching the
# budgets the baseline numbers above were measured with).
MIXED_BUDGETS = {10_000: 300_000, 100_000: 300_000}
# The discrete-vs-baseline anchor serves this many Mixed requests to
# completion: about as many iterations as the 30k-event prefix it
# replaced (17,363 vs 13,634), bounded by work instead of events.
ANCHOR_TRACE_REQUESTS = 200

# Fleet scenario: elastic replicas (autoscale + steal, least-kv router)
# under bursty Mixed arrivals merged with multi-turn sessions.  The
# arrival rate is calibrated so the fleet keeps up over a burst cycle:
# backlog builds during bursts and drains between them.
FLEET_GPUS_PER_REPLICA = 4
FLEET_RATE = 6.0
FLEET_SESSION_RATE = 0.3
FLEET_SEED = 11
FLEET_FULL = {"replicas": 16, "mixed": 1_000, "sessions": 40}
FLEET_QUICK = {"replicas": 8, "mixed": 300, "sessions": 20}

# Complete-run wall-time gates: calibration-scaled wall time may exceed
# the committed reference by at most this fraction.
WALL_GATE_TOLERANCE = 0.2
# The single-server wall gate serves this many quiet-trace requests.
QUIET_TRACE_REQUESTS = 400
# A wall gate compares the best of its runs (lowest calibration-scaled
# wall time) with the best of the reference runs: on a shared host one
# run, or one calibration, can be off by 20% on its own.
GATE_CHECK_RUNS = 3
GATE_REFERENCE_RUNS = 5
# Calibration readings behind each wall-gate scale (the median is used).
CALIBRATION_READINGS = 7
# Tracing on/off pairs behind the overhead figure (the median is kept).
OBS_OVERHEAD_PAIRS = 5
# Memory gate: complete steady runs at these two sizes, whose peak RSS
# may differ by at most MEMORY_GATE_GROWTH_MB.
MEMORY_GATE_SCALES = (1_000, 4_000)
MEMORY_GATE_GROWTH_MB = 10.0


def calibration_score() -> float:
    """Machine-speed proxy: a fixed pure-Python loop, in M-iterations/s.

    The simulator hot path is pure Python, so scaling recorded
    events/sec by the ratio of calibration scores transfers thresholds
    across machines to first order.
    """
    n = 2_000_000
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i & 7
    dt = time.perf_counter() - t0
    assert acc >= 0
    return round(n / dt / 1e6, 2)


def steady_calibration() -> float:
    """Median of several calibration readings.

    One ~0.1 s reading swings with host noise far more than a
    multi-second run does, so the wall-time gates scale by the median
    of :data:`CALIBRATION_READINGS` readings.
    """
    return statistics.median(
        calibration_score() for _ in range(CALIBRATION_READINGS)
    )


def mixed_trace(num_requests: int) -> list[Request]:
    return make_trace(MIXED, rate=4.0, num_requests=num_requests, seed=7)


def quiet_trace(num_requests: int) -> list[Request]:
    """Mixed at 0.15 req/s, below the SLO knee: ~85% of scheduler ticks
    find an empty queue and no prefill in flight, so the run is mostly
    one decode iteration after another."""
    return make_trace(MIXED, rate=0.15, num_requests=num_requests, seed=7)


def steady_trace(num_requests: int) -> list[Request]:
    """Clusters of 48 uniform requests every 8 s: the system keeps up,
    so decode runs in long steady stretches.  The 1024-token outputs
    keep decode dominant, as in any long-generation steady workload."""
    return [
        Request(
            request_id=i,
            input_len=512,
            output_len=1024,
            arrival_time=(i // 48) * 8.0,
        )
        for i in range(num_requests)
    ]


def fleet_trace(num_mixed: int, num_sessions: int) -> list[Request]:
    """Bursty Mixed arrivals merged with a multi-turn session trace."""
    from repro.sessions.workload import make_session_trace
    from repro.workloads.arrival import BurstyArrivals

    mixed = make_trace(
        MIXED, rate=FLEET_RATE, num_requests=num_mixed, seed=FLEET_SEED,
        arrivals=BurstyArrivals(rate=FLEET_RATE),
    )
    sessions = make_session_trace(
        rate=FLEET_SESSION_RATE, num_sessions=num_sessions, seed=FLEET_SEED
    )
    trace = mixed + sessions
    trace.sort(key=lambda r: (r.arrival_time, r.request_id))
    return trace


def outcome_signature(requests) -> str:
    """Digest of every request's serving outcome, for bit-identity gates.

    Request ids are excluded on purpose: rebuilding a trace draws fresh
    ids from the global counter, but the workload tuple plus the served
    timestamps pin the outcome exactly.
    """
    import hashlib

    rows = sorted(
        (
            r.input_len,
            r.output_len,
            round(r.arrival_time, 9),
            round(r.prefill_end, 9) if r.prefill_end is not None else -1.0,
            round(r.finish_time, 9) if r.finish_time is not None else -1.0,
            r.generated,
            r.preemptions,
        )
        for r in requests
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def run_fleet_once(sharded: bool, scale: dict) -> dict:
    """Serve the fleet scenario once; returns timing plus outcomes.

    ``sharded=False`` is the shared-heap layout (every replica on one
    event heap), kept in-tree as the reference, so it is measured live
    rather than rescaled from a recorded number.
    """
    from repro.experiments.systems import make_fleet

    fleet = make_fleet(
        "loongserve",
        replicas=scale["replicas"],
        router="least-kv",
        num_gpus=FLEET_GPUS_PER_REPLICA,
        autoscale=True,
        steal=True,
        sharded=sharded,
    )
    trace = clone_requests(fleet_trace(scale["mixed"], scale["sessions"]))
    t0 = time.perf_counter()
    result = fleet.run(trace)
    wall = time.perf_counter() - t0
    events = fleet.sim.events_processed
    finished = [r for r in result.requests if r.finished]
    return {
        "sharded": sharded,
        "replicas": scale["replicas"],
        "num_requests": len(trace),
        "events": events,
        "iterations": result.iterations.count,
        "wall_s": round(wall, 3),
        "events_per_sec": round(events / wall, 1),
        "makespan": round(result.makespan, 3),
        "finished": len(finished),
        "generated_tokens": sum(r.generated for r in finished),
        "signature": outcome_signature(result.requests),
    }


def run_once(
    trace: list[Request],
    max_events: int | None = None,
    observe: bool = False,
) -> dict:
    """Serve ``trace`` once on one server; returns timing plus outcomes.

    The trace is cloned first — ``Request`` objects are mutable run
    state, so back-to-back runs need fresh copies.
    ``observe=True`` arms the full observability stack (spans + audit
    log + telemetry), the tracing-on side of the overhead measurement.
    """
    server = LoongServeServer(default_config())
    obs = None
    if observe:
        from repro.obs import Observability

        obs = Observability()
        server.observe(obs)
    trace = clone_requests(trace)
    t0 = time.perf_counter()
    result = server.run(trace, max_events=max_events)
    wall = time.perf_counter() - t0
    finished = [r for r in result.requests if r.finished]
    out = {
        "num_requests": len(trace),
        "events": server.sim.events_processed,
        "iterations": result.iterations.count,
        "wall_s": round(wall, 3),
        "events_per_sec": round(server.sim.events_processed / wall, 1),
        "iterations_per_sec": round(result.iterations.count / wall, 1),
        "makespan": round(result.makespan, 3),
        "finished": len(finished),
        "generated_tokens": sum(r.generated for r in finished),
        "signature": outcome_signature(result.requests),
    }
    if max_events is not None:
        out["event_budget"] = max_events
    if obs is not None:
        out["spans"] = len(obs.tracer.spans)
        out["audit_records"] = len(obs.tracer.records)
        out["telemetry_samples"] = len(obs.metrics.sample_times)
    return out


def run_forked(fn) -> dict:
    """Run ``fn`` in a forked child; adds the child's true peak RSS."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        status = 1
        try:
            out = fn()
            out["peak_rss_mb"] = round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
            )
            os.write(write_fd, json.dumps(out).encode())
            status = 0
        finally:
            os.close(write_fd)
            os._exit(status)
    os.close(write_fd)
    chunks = []
    while True:
        chunk = os.read(read_fd, 1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(read_fd)
    _, exit_status = os.waitpid(pid, 0)
    if exit_status != 0 or not chunks:
        raise RuntimeError(f"benchmark child failed (status {exit_status})")
    return json.loads(b"".join(chunks))


def scaled_baseline(key: str, calibration: float) -> float | None:
    """A recorded baseline number rescaled to this machine's speed."""
    recorded = BASELINE.get(key)
    reference = BASELINE.get("calibration_score")
    if recorded is None or reference is None:
        return None
    return recorded * (calibration / reference)


def fleet_bench(scale: dict) -> dict:
    """The fleet scenario on both calendar layouts: shared heap vs sharded."""
    label = f"{scale['replicas']} replicas, {scale['mixed']}+sessions"
    print(f"[bench] fleet, shared heap ({label}) ...")
    unsharded = run_forked(lambda: run_fleet_once(sharded=False, scale=scale))
    print(f"[bench]   wall {unsharded['wall_s']}s, {unsharded['events']} events")
    print(f"[bench] fleet, sharded calendars ({label}) ...")
    sharded = run_forked(lambda: run_fleet_once(sharded=True, scale=scale))
    identical = (
        sharded["signature"] == unsharded["signature"]
        and sharded["makespan"] == unsharded["makespan"]
    )
    print(f"[bench]   wall {sharded['wall_s']}s, {sharded['events']} events, "
          f"same outcomes={identical}")
    return {
        "scenario": {
            "replicas": scale["replicas"],
            "gpus_per_replica": FLEET_GPUS_PER_REPLICA,
            "mixed_requests": scale["mixed"],
            "sessions": scale["sessions"],
            "rate": FLEET_RATE,
            "elastic": "autoscale + steal, least-kv router",
        },
        "unsharded": unsharded,
        "sharded": sharded,
        "sharded_bit_identical": identical,
        "sharded_wall_ratio": round(
            unsharded["wall_s"] / sharded["wall_s"], 2
        ),
    }


# -- pytest anchors (CI smoke + perf gate) ---------------------------------


def test_bench_discrete_beats_baseline(benchmark, bench_scale):
    """Optimised discrete iterations/sec clears the baseline by a wide margin."""
    trace = mixed_trace(ANCHOR_TRACE_REQUESTS)
    out = benchmark.pedantic(lambda: run_once(trace), rounds=1, iterations=1)
    calibration = calibration_score()
    benchmark.extra_info.update(out, calibration=calibration)
    floor = scaled_baseline("mixed_10k_iterations_per_sec", calibration)
    if floor is not None:
        # The CI anchor asserts 3x on a small complete run to absorb
        # noise and trace-phase differences.
        assert out["iterations_per_sec"] >= 3.0 * floor, (
            f"discrete {out['iterations_per_sec']:.0f} iterations/s under 3x "
            f"the calibration-scaled baseline {floor:.0f} iterations/s"
        )


def test_bench_disabled_tracer_fast_path():
    """A disabled tracer's guarded call site must stay near-free.

    Every hot-path trace call in the simulator is written as
    ``if trace.enabled: trace.audit(...)`` so the payload kwargs are
    never built when tracing is off.  This micro-assert pins that
    contract: the disabled pattern (one attribute check) must be far
    cheaper than the enabled call (kwargs dict + record + append), and
    must record nothing.
    """
    from repro.obs import Tracer

    n = 100_000

    def loop(tracer: Tracer) -> float:
        t0 = time.perf_counter()
        for i in range(n):
            if tracer.enabled:
                tracer.audit(0.0, "probe", component="bench", replica=1,
                             index=i, size=i * 2)
        return time.perf_counter() - t0

    loop(Tracer(enabled=False))  # warm-up
    loop(Tracer(enabled=True))
    disabled = Tracer(enabled=False)
    t_off = min(loop(disabled) for _ in range(3))
    enabled_times = []
    for _ in range(3):
        enabled = Tracer(enabled=True)
        enabled_times.append(loop(enabled))
    t_on = min(enabled_times)
    assert len(disabled.records) == 0 and len(disabled.spans) == 0
    assert len(enabled.records) == n
    # The real gap is ~20-50x; 4x absorbs CI timer noise generously.
    assert t_off <= 0.25 * t_on, (
        f"disabled guarded call site took {t_off:.4f}s vs {t_on:.4f}s "
        f"enabled — the trace.enabled fast path has regressed"
    )


_fleet_quick_cache: dict = {}


def _fleet_quick(sharded: bool) -> dict:
    """Quick-scale fleet run, memoised across the anchor tests."""
    if sharded not in _fleet_quick_cache:
        _fleet_quick_cache[sharded] = run_fleet_once(sharded, scale=FLEET_QUICK)
    return _fleet_quick_cache[sharded]


def test_bench_fleet_sharded_bit_identical():
    """Sharded calendars serve the shared-heap fleet's outcomes bit for
    bit, in fewer events: each replica runs ahead of the others'."""
    unsharded = _fleet_quick(sharded=False)
    sharded = _fleet_quick(sharded=True)
    assert sharded["signature"] == unsharded["signature"]
    assert sharded["makespan"] == unsharded["makespan"]
    assert sharded["events"] < unsharded["events"]


def _committed_section(name: str) -> dict:
    """A section of the committed BENCH_sim_speed.json (skips if absent)."""
    if not RESULT_PATH.exists():
        pytest.skip("no committed BENCH_sim_speed.json to gate against")
    section = json.loads(RESULT_PATH.read_text()).get(name)
    if section is None:
        pytest.skip(f"committed BENCH_sim_speed.json has no {name} section")
    return section


def _assert_wall_within_gate(name: str, what: str) -> None:
    """The gate's complete run serves the reference's work, at most 20%
    slower once both are scaled by their calibrations."""
    gate = _committed_section(name)
    out = best_scaled_run(name, GATE_CHECK_RUNS)
    for key in ("finished", "generated_tokens", "iterations"):
        assert out[key] == gate[key], key
    calibration = out["calibration_score"]
    expected = gate["wall_s"] * (gate["calibration_score"] / calibration)
    assert out["wall_s"] <= (1.0 + WALL_GATE_TOLERANCE) * expected, (
        f"{what} complete run took {out['wall_s']:.2f}s, >20% over the "
        f"committed {gate['wall_s']:.2f}s at calibration "
        f"{gate['calibration_score']} ({expected:.2f}s scaled to {calibration} "
        f"here; best of {GATE_CHECK_RUNS} runs)"
    )


def test_bench_wall_no_regression_vs_committed():
    """Work gate: the complete quiet-trace run may not slow down >20%."""
    _assert_wall_within_gate("wall_gate", "quiet single-server")


def test_bench_fleet_wall_no_regression_vs_committed():
    """Fleet work gate: the complete quick fleet run may not slow down >20%."""
    _assert_wall_within_gate("fleet_wall_gate", "sharded fleet")


def test_bench_memory_stays_flat():
    """Memory gate: four times the trace may not raise a complete run's
    peak RSS by more than 10 MB.  A default run keeps no record per
    iteration, so nothing it holds grows with the iterations run."""
    small, large = (
        run_forked(lambda n=n: run_once(steady_trace(n))) for n in MEMORY_GATE_SCALES
    )
    assert (small["finished"], large["finished"]) == MEMORY_GATE_SCALES
    growth = large["peak_rss_mb"] - small["peak_rss_mb"]
    assert growth <= MEMORY_GATE_GROWTH_MB, (
        f"peak RSS grew {growth:.1f} MB from steady_{MEMORY_GATE_SCALES[0]} "
        f"({small['peak_rss_mb']} MB, {small['iterations']} iterations) to "
        f"steady_{MEMORY_GATE_SCALES[1]} ({large['peak_rss_mb']} MB, "
        f"{large['iterations']} iterations)"
    )


# -- script entry point ----------------------------------------------------


def obs_overhead() -> dict:
    """Tracing-on vs tracing-off wall time on one complete quiet run.

    Both sides serve the whole trace and must serve it identically
    (observability is pure observation), so the wall-time ratio is the
    tracing tax on equal work.  Events/sec would not do: the telemetry
    sampler adds events of its own.  Pairs alternate which side runs
    first; the overhead is the median over pairs.
    """
    print(f"[bench] observability overhead (quiet_{QUIET_TRACE_REQUESTS}, "
          f"complete runs, {OBS_OVERHEAD_PAIRS} pairs) ...")
    trace = quiet_trace(QUIET_TRACE_REQUESTS)
    overheads = []
    for k in range(OBS_OVERHEAD_PAIRS):
        sides = {}
        for observe in ((False, True) if k % 2 == 0 else (True, False)):
            sides[observe] = run_forked(
                lambda observe=observe: run_once(trace, observe=observe)
            )
        off, on = sides[False], sides[True]
        if on["signature"] != off["signature"]:
            raise RuntimeError("tracing changed the served outcome")
        overheads.append(round((on["wall_s"] / off["wall_s"] - 1.0) * 100, 1))
        print(f"[bench]   off {off['wall_s']}s, on {on['wall_s']}s: "
              f"{overheads[-1]:+}%")
    overhead_pct = statistics.median(overheads)
    print(f"[bench]   median {overhead_pct:+}% overhead "
          f"({on['spans']} spans, {on['audit_records']} audits)")
    return {
        "tracing_off": off,
        "tracing_on": on,
        "pair_overheads_pct": overheads,
        "overhead_pct": overhead_pct,
    }


# The complete runs the wall-time gates time, by gate (section) name.
WALL_GATE_RUNS = {
    "wall_gate": lambda: run_once(quiet_trace(QUIET_TRACE_REQUESTS)),
    "fleet_wall_gate": lambda: run_fleet_once(sharded=True, scale=FLEET_QUICK),
}


def best_scaled_run(name: str, repeats: int) -> dict:
    """Best of ``repeats`` forked runs of wall gate ``name``.

    Each run is followed by a :func:`steady_calibration`; the run with
    the lowest wall time x calibration is returned with its calibration,
    so that no single noisy run or reading decides a gate.
    """
    best = None
    for _ in range(repeats):
        out = run_forked(WALL_GATE_RUNS[name])
        out["calibration_score"] = steady_calibration()
        out.pop("signature")
        cost = out["wall_s"] * out["calibration_score"]
        if best is None or cost < best["wall_s"] * best["calibration_score"]:
            best = out
    return best


def wall_gates() -> dict:
    """References for the complete-run wall-time gates."""
    gates = {}
    for name in WALL_GATE_RUNS:
        print(f"[bench] {name} reference (best of {GATE_REFERENCE_RUNS} "
              f"complete runs) ...")
        gates[name] = best_scaled_run(name, GATE_REFERENCE_RUNS)
    return gates


def generate(quick: bool, steady_scales: list[int]) -> dict:
    calibration = calibration_score()
    report: dict = {
        "calibration_score": calibration,
        "baseline": dict(BASELINE),
        "events_per_sec": {},
        "steady": {},
    }

    mixed_scales = [2_000] if quick else [10_000, 100_000]
    for n in mixed_scales:
        name = f"mixed_{n // 1000}k"
        budget = 30_000 if quick else MIXED_BUDGETS[n]
        print(f"[bench] discrete iterations/sec on {name} (budget {budget}) ...")
        out = run_forked(lambda n=n, budget=budget: run_once(
            mixed_trace(n), max_events=budget))
        # Only the 10k prefix has a counted seed iteration rate.
        floor = scaled_baseline(f"{name}_iterations_per_sec", calibration)
        if floor is not None:
            out["baseline_iterations_per_sec_scaled"] = round(floor, 1)
            out["speedup_vs_baseline"] = round(out["iterations_per_sec"] / floor, 2)
        report["events_per_sec"][name] = out
        print(f"[bench]   {out['iterations_per_sec']} iterations/s "
              f"(x{out.get('speedup_vs_baseline', '?')} vs baseline)")

    for n in sorted(steady_scales):
        name = f"steady_{n // 1000}k"
        print(f"[bench] full run on {name} ...")
        out = run_forked(lambda n=n: run_once(steady_trace(n)))
        report["steady"][name] = out
        print(f"[bench]   wall {out['wall_s']}s, {out['events']} events, "
              f"{out['iterations']} iterations, rss {out['peak_rss_mb']} MB")

    report["fleet"] = fleet_bench(FLEET_QUICK if quick else FLEET_FULL)
    report.update(wall_gates())
    report["observability"] = obs_overhead()
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small scales for a fast smoke run")
    parser.add_argument("--out", type=Path, default=RESULT_PATH)
    parser.add_argument(
        "--steady-scales", default=None,
        help="comma-separated steady-trace sizes (default quick: 2000; "
             "full: 10000,100000)",
    )
    parser.add_argument(
        "--obs-only", action="store_true",
        help="re-measure only the observability overhead section and "
             "merge it into the existing --out JSON (the gate and the "
             "other sections are left untouched)",
    )
    args = parser.parse_args(argv)
    if args.obs_only:
        report = (
            json.loads(args.out.read_text()) if args.out.exists() else {}
        )
        report["observability"] = obs_overhead()
    else:
        if args.steady_scales is not None:
            scales = [int(s) for s in args.steady_scales.split(",") if s]
        else:
            scales = [2_000] if args.quick else [10_000, 100_000]
        report = generate(args.quick, scales)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench] wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
