"""Serve a workload from the command line.

    python -m repro serve --system loongserve --dataset sharegpt \
        --rate 10 --num-requests 200
    python -m repro serve --system vllm --trace my_trace.jsonl --timeline
    python -m repro gen-trace --dataset mixed --rate 0.5 -n 100 -o trace.jsonl

Fleet-scale serving shards the trace across N replicas behind a router
(`round-robin`, `least-outstanding`, `least-kv`, `length-aware`,
`affinity`, or `slo`) and reports fleet-aggregated latency, SLO
attainment, and per-replica load:

    python -m repro serve --system loongserve --replicas 4 \
        --router least-kv --dataset mixed --rate 20 --num-requests 200

The closed-loop control plane adds actuators on top of placement:
`--autoscale` parks/unparks replicas on load hysteresis, `--steal`
rebalances queued requests between replicas, and `--migrate-kv` ships
session prefix KV along with rebalanced work (requires
`--prefix-cache`); `--control-interval` sets the tick period.  With all
three off the fleet behaves exactly like route-once placement:

    python -m repro serve --replicas 4 --router least-kv --dataset mixed \
        --rate 20 -n 200 --autoscale --steal

Multi-turn session serving (`--dataset sessions`; `--rate` then counts
sessions/s and `-n` sessions) pairs with the prefix-KV cache and
cache-affinity routing:

    python -m repro serve --dataset sessions --prefix-cache \
        --replicas 4 --router affinity --rate 1.0 -n 40

Failure injection crashes replicas mid-run (queued and running work
fails over through the router, resident KV is lost, the replica warms
back up after `--fault-downtime`): `--fault-at TIME:REPLICA` scripts
crashes, `--fault-mtbf` draws a seeded stochastic schedule:

    python -m repro serve --replicas 3 --router affinity --prefix-cache \
        --dataset sessions --rate 1.0 -n 30 --migrate-kv --steal \
        --fault-at 20:0 --fault-downtime 15

Disaggregated serving and tiered KV (`repro.fleet.disagg`,
`repro.kvcache.tiers`): `--disagg N` splits the fleet into N prefill
replicas and the rest decode — arrivals prefill on the first pool and
their KV rides the priced fabric to a decode replica (requires
`--prefix-cache`).  `--kv-tiers lru|fifo|lifo` arms host/SSD offload
under each replica's prefix cache, and `--standby N` appends N warm
standby replicas an autoscaler promotes with zero warm-up:

    python -m repro serve --replicas 4 --disagg 1 --prefix-cache \
        --dataset mixed --rate 20 -n 200 --kv-tiers lru

Multi-tenant QoS (`repro.qos`): `--qos-mix` tags the generated trace
with SLO classes (`interactive:0.3,standard:0.5,batch:0.2`), `--qos`
arms deadline-aware dispatch + batch-tier preemption on LoongServe
replicas, `--admission` adds deadline-feasibility admission control,
`--router slo` places on predicted slack, and `--autoscale-predictive`
scales on the forecast arrival rate instead of queue depth:

    python -m repro serve --replicas 3 --dataset mixed --rate 12 -n 150 \
        --qos-mix interactive:0.4,standard:0.4,batch:0.2 \
        --qos --admission --router slo --prefix-cache

(`python -m repro.experiments <figureN>` regenerates paper figures;
`python -m repro.experiments qos` runs the QoS-vs-FCFS comparison.)
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.experiments.systems import make_fleet, make_system
from repro.fleet.router import ROUTERS
from repro.metrics.fleet import fleet_load_report
from repro.metrics.latency import summarize_latency
from repro.metrics.summary import throughput_tokens_per_s
from repro.viz.timeline import occupancy_timeline, utilization_summary
from repro.sessions import make_session_trace
from repro.workloads.datasets import DATASETS
from repro.workloads.serialization import load_trace, save_trace
from repro.workloads.trace_gen import clone_requests, make_trace

SYSTEM_CHOICES = [
    "loongserve", "loongserve-no-scaleup", "vllm", "splitfuse",
    "deepspeed-mii", "distserve", "static-sp", "replicated-tp2",
]


def _qos_mix(args: argparse.Namespace):
    """The parsed ``--qos-mix`` (None without one)."""
    if not args.qos_mix:
        return None
    from repro.qos import parse_qos_mix

    return parse_qos_mix(args.qos_mix)


def _sample_trace(args: argparse.Namespace):
    """Draw a fresh trace from the selected dataset (single source of the
    sessions-vs-length-distribution dispatch, shared by serve/gen-trace)."""
    qos_mix = _qos_mix(args)
    if args.dataset == "sessions":
        # Multi-turn conversations: --rate is sessions/s, -n sessions.
        return make_session_trace(
            rate=args.rate, num_sessions=args.num_requests, seed=args.seed,
            qos_mix=qos_mix,
        )
    return make_trace(
        DATASETS[args.dataset],
        rate=args.rate, num_requests=args.num_requests, seed=args.seed,
        qos_mix=qos_mix,
    )


def _build_trace(args: argparse.Namespace):
    if args.trace:
        if args.qos_mix:
            raise ValueError(
                "--qos-mix tags a generated trace; a --trace file is served "
                "with the QoS tags it was written with"
            )
        return load_trace(args.trace)
    return _sample_trace(args)


def _parse_fault_at(value: str) -> tuple[float, int]:
    """Parse one --fault-at entry: ``TIME:REPLICA`` (e.g. ``12.5:0``)."""
    try:
        time_part, _, replica_part = value.partition(":")
        time, replica = float(time_part), int(replica_part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--fault-at wants TIME:REPLICA (e.g. 12.5:0), got {value!r}"
        ) from None
    if not math.isfinite(time) or time < 0 or replica < 0:
        raise argparse.ArgumentTypeError(
            f"--fault-at TIME and REPLICA must be finite and non-negative, "
            f"got {value!r}"
        )
    return time, replica


def _build_fault_plan(args: argparse.Namespace, trace):
    """Combine scripted --fault-at crashes with a --fault-mtbf Poisson
    schedule drawn over the trace's arrival span."""
    from repro.fleet.faults import FaultPlan, ReplicaFault

    faults = [
        ReplicaFault(time=t, replica_id=r, downtime_s=args.fault_downtime)
        for t, r in (args.fault_at or [])
    ]
    if args.fault_mtbf is not None:
        horizon = max((r.arrival_time for r in trace), default=0.0)
        faults.extend(
            FaultPlan.poisson(
                num_replicas=args.replicas,
                horizon_s=horizon,
                mtbf_s=args.fault_mtbf,
                seed=args.fault_seed,
                downtime_s=args.fault_downtime,
            )
        )
    return FaultPlan(faults)


def _build_system(args: argparse.Namespace, trace, fault_plan):
    """One system, or a fleet of ``--replicas`` (any count but 1, so the
    fleet builder rejects a count below 1)."""
    if args.replicas == 1:
        return make_system(
            args.system, requests=trace, num_gpus=args.num_gpus,
            prefix_cache=args.prefix_cache,
            qos=args.qos, admission=args.admission,
            kv_tiers=args.kv_tiers,
        )
    router_kwargs = {}
    if args.router == "length-aware" and args.long_threshold is not None:
        router_kwargs["long_threshold"] = args.long_threshold
    return make_fleet(
        args.system, replicas=args.replicas, router=args.router,
        requests=trace, num_gpus=args.num_gpus,
        prefix_cache=args.prefix_cache,
        autoscale=args.autoscale, steal=args.steal,
        migrate_kv=args.migrate_kv,
        faults=fault_plan,
        control_interval=args.control_interval,
        qos=args.qos, admission=args.admission,
        autoscale_predictive=args.autoscale_predictive,
        disagg=args.disagg, kv_tiers=args.kv_tiers,
        standby=args.standby,
        **router_kwargs,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a workload; exits 2 on any option the builders reject."""
    fleet_flags = [
        flag
        for flag, value in (
            ("--autoscale", args.autoscale),
            ("--autoscale-predictive", args.autoscale_predictive),
            ("--steal", args.steal),
            ("--migrate-kv", args.migrate_kv),
            ("--disagg", args.disagg),
            ("--standby", args.standby),
            ("--fault-at", args.fault_at),
            ("--fault-mtbf", args.fault_mtbf is not None),
        )
        if value
    ]
    if fleet_flags and args.replicas < 2:
        print(
            f"error: {'/'.join(fleet_flags)}: fleet only (--replicas >= 2)",
            file=sys.stderr,
        )
        return 2
    if args.closed_loop and (args.dataset != "sessions" or args.trace):
        print(
            "error: --closed-loop replays generated sessions with arrival "
            "feedback; it requires --dataset sessions and no --trace",
            file=sys.stderr,
        )
        return 2
    if args.closed_loop and args.fault_mtbf is not None:
        print(
            "error: --fault-mtbf draws crashes over a static trace's arrival "
            "span, which a closed-loop run does not have; script crashes "
            "with --fault-at instead",
            file=sys.stderr,
        )
        return 2
    try:
        driver = None
        if args.closed_loop:
            from dataclasses import replace as _replace

            from repro.sessions import SESSIONS, make_session_workload

            driver = make_session_workload(
                _replace(SESSIONS, closed_loop=True),
                rate=args.rate, num_sessions=args.num_requests, seed=args.seed,
                qos_mix=_qos_mix(args),
            )
            trace = []
        else:
            trace = _build_trace(args)
        fault_plan = None
        if args.fault_at or args.fault_mtbf is not None:
            fault_plan = _build_fault_plan(args, trace)
            if not fault_plan:
                print(
                    "note: fault schedule is empty (no --fault-at entries and "
                    "the drawn Poisson schedule produced no crashes); running "
                    "fault-free"
                )
                fault_plan = None
        system = _build_system(args, trace, fault_plan)
        obs = None
        if (
            args.trace_out
            or args.telemetry_interval is not None
            or args.slo_monitor
        ):
            from repro.obs import DEFAULT_TELEMETRY_INTERVAL, Observability

            obs = Observability(
                telemetry_interval=(
                    args.telemetry_interval
                    if args.telemetry_interval is not None
                    else DEFAULT_TELEMETRY_INTERVAL
                )
            )
            if args.slo_monitor:
                obs.enable_health()
            system.observe(obs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if driver is not None:
        result = system.run_driven(driver)
        trace = driver.requests  # realised arrivals, for reporting below
    else:
        result = system.run(clone_requests(trace))
    summary = summarize_latency(result)

    print(f"system:   {system.name}")
    print(f"requests: {summary.finished}/{summary.total} finished, "
          f"{len(result.aborted)} aborted")
    if result.stranded:
        print(f"stranded: {len(result.stranded)} requests left unfinished "
              f"when the simulator went idle")
    print(f"makespan: {result.makespan:.1f}s simulated")
    print(f"throughput: {throughput_tokens_per_s(result):,.0f} tokens/s")
    print(f"normalized latency  per-token: {summary.per_token * 1000:8.2f} ms")
    print(f"                    input:     {summary.input_token * 1000:8.2f} ms")
    print(f"                    output:    {summary.output_token * 1000:8.2f} ms")
    if result.scaling_events:
        ups = sum(1 for e in result.scaling_events if e.kind == "scale_up")
        downs = len(result.scaling_events) - ups
        print(f"elastic scaling: {ups} scale-ups, {downs} scale-downs")
    if result.cache_stats:
        cache = result.cache_stats
        matched = cache.get("hit_tokens", 0)
        total = matched + cache.get("miss_tokens", 0)
        rate = matched / total if total else 0.0
        print(f"prefix cache: {rate:.1%} token hit rate, "
              f"{int(matched):,} prefill tokens saved, "
              f"{int(cache.get('evicted_tokens', 0)):,} evicted")
        if cache.get("tier_offloaded_tokens"):
            print(f"kv tiers: {int(cache['tier_offloaded_tokens']):,} tokens "
                  f"offloaded, "
                  f"{int(cache.get('tier_swapped_in_tokens', 0)):,} swapped "
                  f"back in "
                  f"({cache.get('tier_swap_in_seconds', 0.0) * 1000:.1f} ms "
                  f"charged)")
    tagged = any(r.qos is not None for r in trace)
    if tagged or result.qos_stats:
        from repro.experiments.endtoend import reference_ideal_model
        from repro.experiments.report import render_class_table
        from repro.metrics.qos import per_class_report

        ideal = reference_ideal_model(num_gpus=args.num_gpus)
        print("\nper-class SLO attainment:")
        print(render_class_table(per_class_report(result, ideal), result.makespan))
    if args.replicas > 1:
        from repro.experiments.endtoend import reference_ideal_model
        from repro.metrics.slo import slo_report

        ideal = reference_ideal_model(num_gpus=args.num_gpus)
        slo = slo_report(result, ideal)
        print(f"SLO attainment: {slo.attainment:.1%} "
              f"({slo.attained}/{slo.total} within deadline)")
        print("\nper-replica load:")
        print(
            fleet_load_report(
                result.per_replica,
                elastic=result.elastic,
                makespan=result.makespan,
            ).render()
        )
    if args.timeline and args.replicas > 1:
        print("\n(--timeline shows one deployment; rerun without --replicas)")
    elif args.timeline:
        config = system.config  # None on replicated engine groups
        num_instances = (
            config.num_instances if config is not None else args.num_gpus // 2
        )
        print("\n" + occupancy_timeline(result, num_instances))
        util = utilization_summary(result, num_instances)
        print(f"\nutilization: prefill {util['prefill']:.0%}, "
              f"decode {util['decode']:.0%}, idle {util['idle']:.0%}")
    if obs is not None:
        if args.trace_out:
            from repro.obs import export_jsonl, export_perfetto

            if args.trace_out.endswith(".jsonl"):
                lines = export_jsonl(obs, args.trace_out)
                print(f"\nwrote {lines} observability records to "
                      f"{args.trace_out} (JSONL)")
            else:
                doc = export_perfetto(obs, args.trace_out)
                print(f"\nwrote {len(doc['traceEvents'])} trace events to "
                      f"{args.trace_out} (Perfetto; open in ui.perfetto.dev "
                      f"or chrome://tracing)")
            print(f"  spans: {len(obs.tracer.spans)}  "
                  f"audit records: {len(obs.tracer.records)}  "
                  f"telemetry samples: {len(obs.metrics.sample_times)}")
        if obs.metrics.sample_times:
            print("\ntelemetry:")
            print(obs.metrics.render_timeline())
        if obs.health is not None:
            alerts = [r for r in obs.tracer.records if r.kind == "slo_alert"]
            fired = sum(1 for r in alerts if r.payload["state"] == "firing")
            print(f"\nSLO burn-rate monitor: {fired} alert(s) fired")
            for record in alerts:
                payload = record.payload
                print(
                    f"  [{record.time:8.2f}s] {payload['cls']}: "
                    f"{payload['state']}  "
                    f"burn {payload['burn_fast']}x fast / "
                    f"{payload['burn_slow']}x slow, "
                    f"attainment {payload['attainment']:.1%}"
                )
    return 0


def cmd_gen_trace(args: argparse.Namespace) -> int:
    trace = _sample_trace(args)
    save_trace(trace, args.output)
    tokens = sum(r.input_len + r.output_len for r in trace)
    print(f"wrote {len(trace)} requests ({tokens:,} tokens) to {args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="replay a workload on a serving system")
    serve.add_argument("--system", choices=SYSTEM_CHOICES, default="loongserve")
    serve.add_argument("--dataset", choices=sorted([*DATASETS, "sessions"]),
                       default="sharegpt")
    serve.add_argument("--rate", type=float, default=10.0)
    serve.add_argument("--num-requests", "-n", type=int, default=100)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--num-gpus", type=int, default=8)
    serve.add_argument("--trace", help="replay a jsonl trace instead of generating")
    serve.add_argument("--timeline", action="store_true",
                       help="render the instance-occupancy Gantt strip")
    serve.add_argument("--replicas", type=int, default=1,
                       help="serve with N independent replicas behind a router")
    serve.add_argument("--router", choices=sorted(ROUTERS), default="round-robin",
                       help="fleet routing policy (with --replicas > 1)")
    serve.add_argument("--prefix-cache", action="store_true",
                       help="keep finished requests' KV in a radix prefix "
                            "cache (LoongServe systems)")
    serve.add_argument("--long-threshold", type=int, default=None,
                       help="input length (tokens) at which the length-aware "
                            "router treats a request as long-context")
    serve.add_argument("--autoscale", action="store_true",
                       help="park/unpark replicas on queue-depth + KV-pressure "
                            "hysteresis (with --replicas > 1)")
    serve.add_argument("--steal", action="store_true",
                       help="rebalance still-queued requests from overloaded "
                            "to idle replicas each control tick")
    serve.add_argument("--migrate-kv", action="store_true",
                       help="ship session prefix KV between replicas when work "
                            "is rebalanced or a replica parks (needs "
                            "--prefix-cache)")
    serve.add_argument("--disagg", type=int, default=0, metavar="N",
                       help="disaggregated serving: the first N replicas "
                            "become a dedicated prefill pool, the rest "
                            "decode; prefilled KV rides the priced fabric "
                            "between them (requires --prefix-cache)")
    serve.add_argument("--kv-tiers", choices=("lru", "fifo", "lifo"),
                       default=None,
                       help="offload evicted prefix-cache extents to "
                            "host/SSD tiers with this victim policy instead "
                            "of dropping them (requires --prefix-cache)")
    serve.add_argument("--standby", type=int, default=0, metavar="N",
                       help="append N warm standby replicas (parked, weights "
                            "resident) that the autoscaler promotes with "
                            "zero warm-up (requires --autoscale or "
                            "--autoscale-predictive)")
    serve.add_argument("--control-interval", type=float, default=None,
                       help="seconds between fleet control ticks "
                            "(default 0.5)")
    serve.add_argument("--fault-at", action="append", type=_parse_fault_at,
                       metavar="TIME:REPLICA",
                       help="crash replica REPLICA at simulated second TIME "
                            "(repeatable; queued/running work fails over, "
                            "resident KV is lost)")
    serve.add_argument("--fault-mtbf", type=float, default=None,
                       help="draw stochastic crashes: per-replica mean time "
                            "between failures in seconds (seeded Poisson "
                            "over the trace's arrival span)")
    serve.add_argument("--fault-downtime", type=float, default=10.0,
                       help="seconds a crashed replica stays down before it "
                            "begins warming back up (default 10)")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the --fault-mtbf crash schedule")
    serve.add_argument("--qos", action="store_true",
                       help="arm SLO-class scheduling on LoongServe replicas: "
                            "deadline-aware dispatch order + batch-tier decode "
                            "preemption (repro.qos)")
    serve.add_argument("--admission", action="store_true",
                       help="reject/downgrade arrivals whose class deadline is "
                            "already infeasible (requires --qos)")
    serve.add_argument("--qos-mix", default=None, metavar="SPEC",
                       help="tag the generated trace with SLO classes, e.g. "
                            "interactive:0.3,standard:0.5,batch:0.2 "
                            "(weights are normalised; sessions tag whole "
                            "conversations)")
    serve.add_argument("--autoscale-predictive", action="store_true",
                       help="scale capacity on the forecast arrival rate "
                            "(EWMA tokens/s vs the cost-model service rate) "
                            "instead of reactive queue depth")
    serve.add_argument("--closed-loop", action="store_true",
                       help="sessions arrival feedback: each turn is "
                            "submitted think-time after the previous turn "
                            "finishes instead of at a pre-generated instant "
                            "(--dataset sessions)")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="export the run's observability trace: "
                            "Chrome/Perfetto trace JSON, or JSONL when PATH "
                            "ends in .jsonl (arms spans + audit log + "
                            "telemetry)")
    serve.add_argument("--telemetry-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="time-series sampling cadence (default 0.5; with "
                            "a fleet control loop, samples ride the control "
                            "ticks instead); arms telemetry even without "
                            "--trace-out")
    serve.add_argument("--slo-monitor", action="store_true",
                       help="arm the SLO burn-rate monitor: rolling per-class "
                            "attainment + multi-window burn-rate gauges and "
                            "hysteresis-gated slo_alert audit records (pure "
                            "observer; requires deadlines, i.e. --qos-mix)")
    serve.set_defaults(func=cmd_serve)

    gen = sub.add_parser("gen-trace", help="generate and save a jsonl trace")
    gen.add_argument("--dataset", choices=sorted([*DATASETS, "sessions"]),
                     default="sharegpt")
    gen.add_argument("--rate", type=float, default=10.0)
    gen.add_argument("--num-requests", "-n", type=int, default=100)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--qos-mix", default=None, metavar="SPEC",
                     help="tag the trace with SLO classes (round-trips "
                          "through the jsonl file)")
    gen.add_argument("--output", "-o", required=True)
    gen.set_defaults(func=cmd_gen_trace)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
