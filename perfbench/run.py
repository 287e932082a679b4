"""Complete-run serving benchmark for the LoongServe reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload mixed_paper --seed 1 --seconds 30 --trace 0

A workload is a set of episodes (``perfbench/workloads.py``); each
episode is one trace served to completion on a fresh system, in a
forked child, so its peak RSS is its own.

``--trace 0`` serves every episode untraced, then re-serves episodes in
turn until ``--seconds`` have passed (one re-run at least), checks each
re-run served bit-identical outcomes, and prints the end-to-end
metrics: simulator wall clock (the sum over episodes of each one's
median), set-up time and peak RSS (medians), and the paper's serving
metrics in simulated time over every request of every episode.

``--trace 1`` serves episode 0 untraced and then with the layer
profiler installed (``perfbench/layers.py``), checks both served
identical outcomes, writes the profiled run's spans as Perfetto JSON
under ``perfbench/out/``, and prints the per-layer metrics.

Every episode reconciles each submitted request as finished, aborted,
QoS-rejected or stranded; a request counted twice, an outcome no
request owns, or a digest that differs between runs exits non-zero
without a result.  Otherwise the last line of standard output is one
JSON object: ``correct``, ``attempted`` (requests submitted),
``failed`` (submitted but not finished) and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# Every child builds its system and trace this many times and serves
# the last build: set-up is timed on each, so a run yields several
# set-up samples, and every child does identical work before serving.
SETUP_REPEATS = 3

# Timings are reported in seconds at this interpreter speed (the
# ``calibration_score`` of ``benchmarks/bench_sim_speed.py``, measured
# just before and after each episode), about that of an idle 2-core
# x86 cloud VM.
REFERENCE_SPEED = 20.0

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ttft_p50_s": "s",
    "ttft_tail_s": "s",
    "tpot_p50_ms": "ms",
    "tpot_tail_ms": "ms",
    "norm_latency_s_per_tok": "s/token",
    "slo_attainment": "ratio",
    "goodput_rps": "1/s",
    "completed_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not measure, or the outputs were wrong."""


def import_simulator() -> None:
    """Put this checkout's ``src`` (and only it) on the import path."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator source under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {src}")


def run_forked(fn) -> dict:
    """Run ``fn`` in a forked child and return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 1
        try:
            os.close(read_fd)
            payload = json.dumps(fn()).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise BenchError(f"benchmark child failed (wait status {status})")
    return json.loads(data)


def serve(
    workload, seed: int, episode: int, profile: bool = False,
    trace_path: Path | None = None,
) -> dict:
    """Serve one episode to completion (in a child): set up, serve, measure."""
    from perfbench.layers import LayerProfiler, layer_metrics
    from perfbench.outcomes import (
        calibration_score, episode_outcome, ideal_model, outcome_digest,
    )

    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous build's garbage is not this one's cost
        start = time.perf_counter()
        system, trace = workload.build(seed, episode)
        setups.append(time.perf_counter() - start)
    gc.collect()
    speeds = [calibration_score()]
    profiler = None
    if profile:
        profiler = LayerProfiler()
        profiler.count_boundaries()
        profiler.install()
    start = time.perf_counter()
    result = system.run(trace)
    wall = time.perf_counter() - start
    if profiler is not None:
        profiler.uninstall()
    speeds.append(calibration_score())
    # A busier or slower host stretches the calibration loop as much as
    # the simulator, so times rescaled to the reference speed stay
    # comparable from run to run.
    scale = statistics.fmean(speeds) / REFERENCE_SPEED
    sim = getattr(system, "last_sim", None) or system.sim
    out = {
        "setup_s": [s * scale for s in setups],
        "wall_s": wall * scale,
        "raw_wall_s": wall,
        "speed": statistics.fmean(speeds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "events": sim.events_processed,
        "digest": outcome_digest(trace),
        "episode": episode_outcome(trace, result, ideal_model(system)),
    }
    if profiler is not None:
        out["layers"] = layer_metrics(profiler, system, result, trace)
        out["missing"] = profiler.missing
        out["spans"] = len(profiler.spans)
        if trace_path is not None:
            from repro.obs.export import validate_perfetto

            doc = profiler.perfetto(trace_path.stem)
            problems = validate_perfetto(doc)
            if problems:
                raise BenchError(f"invalid Perfetto export: {problems[:3]}")
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps(doc))
    return out


def check_same(first: dict, other: dict, what: str) -> None:
    """Simulated outcomes must be bit-identical between two runs."""
    if other["digest"] != first["digest"]:
        raise BenchError(f"outcome digest differs between runs ({what})")
    if other["episode"] != first["episode"] or other["events"] != first["events"]:
        raise BenchError(f"simulated outcomes differ between runs ({what})")


def untraced(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """Serve every episode, then re-serve them in turn until ``seconds``
    pass (one re-run at least), each re-run checked against the first."""
    from perfbench.outcomes import serving_metrics

    began = time.monotonic()
    episodes = range(workload.episodes)
    first = [run_forked(lambda k=k: serve(workload, seed, k)) for k in episodes]
    runs = [[run] for run in first]
    reruns = 0
    while True:
        k = reruns % workload.episodes
        again = run_forked(lambda: serve(workload, seed, k))
        check_same(first[k], again, f"episode {k}, re-run {len(runs[k])}")
        runs[k].append(again)
        reruns += 1
        elapsed = time.monotonic() - began
        if elapsed + elapsed / (workload.episodes + reruns) > seconds:
            break
    every = [run for episode in runs for run in episode]
    metrics = {
        "wall_s": sum(statistics.median(r["wall_s"] for r in ep) for ep in runs),
        "setup_s": statistics.median(s for r in every for s in r["setup_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in every),
    }
    serving = serving_metrics([run["episode"] for run in first])
    metrics.update((name, serving[name]) for name in E2E_UNITS if name in serving)
    info = {"runs": len(every), "first": first, "serving": serving}
    return metrics, info


def traced(workload, seed: int) -> tuple[dict, dict]:
    """Episode 0 served untraced, then again profiled: per-layer metrics."""
    from perfbench.outcomes import serving_metrics

    path = OUT_DIR / f"{workload.name}-seed{seed}.perfetto.json"
    plain = run_forked(lambda: serve(workload, seed, 0))
    profiled = run_forked(lambda: serve(workload, seed, 0, profile=True, trace_path=path))
    check_same(plain, profiled, "untraced vs traced")
    metrics = dict(profiled["layers"])
    metrics["bench.trace_overhead_frac"] = profiled["wall_s"] / plain["wall_s"] - 1.0
    info = {"runs": 2, "first": [plain], "serving": serving_metrics([plain["episode"]]),
            "missing": profiled["missing"], "spans": profiled["spans"],
            "perfetto": str(path.relative_to(ROOT))}
    return metrics, info


def report(workload, seed: int, metrics: dict, units: dict, info: dict) -> dict:
    """Print the human-readable report; returns the result object."""
    serving = info["serving"]
    ledger = {
        kind: sum(run["episode"]["ledger"][kind] for run in info["first"])
        for kind in ("submitted", "finished", "aborted", "rejected", "stranded")
    }
    print(f"workload {workload.name}  seed {seed}  episodes measured "
          f"{len(info['first'])} of {workload.episodes}  complete runs {info['runs']}")
    print(f"  why: {workload.why}")
    print(f"  open loop: {ledger['submitted']} requests; latency counts from each "
          f"request's trace arrival_time (when it was due)")
    print("  generator lateness: 0 s (arrival events fire exactly at their "
          "arrival_time in simulated time)")
    print(f"  tail percentile: p{serving['tail_percentile']}")
    print("  requests: " + ", ".join(f"{k} {v}" for k, v in ledger.items()))
    print(f"  failed_frac {serving['failed_frac']:.6f}  "
          f"events {sum(run['events'] for run in info['first'])}")
    print(f"  outcome digest of every episode matched on each re-run "
          f"(episode 0: {info['first'][0]['digest'][:16]})")
    raw = sum(run["raw_wall_s"] for run in info["first"])
    speed = statistics.fmean(run["speed"] for run in info["first"])
    print(f"  unscaled wall {raw:.3f} s at calibration {speed:.2f} "
          f"(times below are at {REFERENCE_SPEED})")
    if info.get("missing"):
        print(f"  layer entry points not found: {', '.join(info['missing'])}")
    if "perfetto" in info:
        print(f"  layer spans: {info['spans']} -> {info['perfetto']}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6f} {units[name]}")
    return {
        "correct": True,
        "attempted": ledger["submitted"],
        "failed": ledger["submitted"] - ledger["finished"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_simulator()
        from perfbench.layers import PER_LAYER_UNITS
        from perfbench.workloads import WORKLOADS

        workload = WORKLOADS.get(args.workload)
        if workload is None:
            raise BenchError(
                f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
            )
        if args.trace:
            metrics, info = traced(workload, args.seed)
            units = PER_LAYER_UNITS
        else:
            metrics, info = untraced(workload, args.seed, args.seconds)
            units = E2E_UNITS
        result = report(workload, args.seed, metrics, units, info)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
