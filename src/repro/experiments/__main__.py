"""CLI: regenerate any paper figure as a text table.

    python -m repro.experiments figure2
    python -m repro.experiments figure10 --scale 0.5 --datasets sharegpt mixed
    python -m repro.experiments all --scale 0.25
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from repro.experiments import endtoend, harness, microbench, report


def _curves(curves) -> None:
    """A rate sweep's table, then its goodputs."""
    print(report.render_points(harness.rows(curves), endtoend.CURVE_COLUMNS))
    print(report.render_goodput(curves))


def _run_figure2(args: argparse.Namespace) -> None:
    rows = microbench.figure2()
    print("Figure 2 — scalability of requests vs. TP degree")
    print(report.render_figure2(rows))
    print("\npaper anchor: prefill 100K is ~106x slower than 1K on 8 GPUs")


def _run_figure3(args: argparse.Namespace) -> None:
    rows = microbench.figure3()
    print("Figure 3 — fixed sequence parallelism vs. tensor parallelism")
    print(report.render_figure3(rows))
    print("\npaper anchor: SPxTP matches or beats pure TP=8 in both phases")


def _run_figure10(args: argparse.Namespace) -> None:
    results = endtoend.figure10(datasets=args.datasets, scale=args.scale)
    for dataset, curves in results.items():
        print(f"\nFigure 10 — {dataset}")
        _curves(curves)
    ratios = endtoend.headline_ratios(results)
    print("\nheadline throughput ratios (LoongServe / baseline, best dataset):")
    for name, ratio in sorted(ratios.items()):
        print(f"  vs {name}: {report.render_ratio(ratio)}")
    print("paper anchors: up to 3.85x vs chunked prefill, 5.81x vs disaggregation,")
    print("               4.64x vs vLLM")


def _run_figure11(args: argparse.Namespace) -> None:
    curves = endtoend.figure11(scale=args.scale)
    print("Figure 11 — multi-node (16 GPUs), Mixed workload")
    _curves(curves)
    print("\npaper anchors: 1.86x total throughput vs vLLM, 3.37x vs SplitFuse")


def _run_figure12(args: argparse.Namespace) -> None:
    results = endtoend.figure12(scale=args.scale)
    for zipf, curves in results.items():
        print(f"\nFigure 12 — Zipf={zipf}")
        _curves(curves)
    ratios = endtoend.figure12_goodput_ratios(results)
    print("\ngoodput improvement over best static parallelism:")
    for zipf, ratio in sorted(ratios.items()):
        print(f"  Zipf={zipf}: {report.render_ratio(ratio)}")
    print("paper anchors: 2.33x / 1.98x / 1.53x at Zipf 1.0 / 1.2 / 1.4")


def _run_figure13(args: argparse.Namespace) -> None:
    curves = endtoend.figure13a(scale=args.scale)
    print("Figure 13a — SLO attainment with/without elastic scale-up (ShareGPT)")
    _curves(curves)
    bins = endtoend.figure13b(duration_s=100.0 * args.scale + 50.0)
    mean_rate = float(np.mean(bins)) if bins else 0.0
    print(f"\nFigure 13b — scale-up ops per 10s bin: {bins}")
    print(f"mean: {mean_rate:.2f} per 10s (paper anchor: 7.12 per 10s; 2.87x goodput)")


def _run_figure14(args: argparse.Namespace) -> None:
    rows_a = microbench.figure14a()
    rows_b = microbench.figure14b()
    print("Figure 14a — scale-down overhead (proactive vs. reactive)")
    print(report.render_figure14a(rows_a))
    print("\nFigure 14b — scale-up: decode with 1/2/4 masters")
    print(report.render_figure14b(rows_b))
    print("\npaper anchors: scale-down <2% overhead; 4 masters ~2x at large BS,")
    print("               <10% overhead at small BS")


def _run_figure15(args: argparse.Namespace) -> None:
    points = microbench.figure15()
    print("Figure 15 — analytical model accuracy")
    print(report.render_figure15(points))
    print(
        f"\nmax deviation:  {microbench.figure15_max_deviation(points) * 100:.2f}% "
        "(paper anchor: <10%)"
    )
    print(f"mean deviation: {microbench.figure15_mean_deviation(points) * 100:.2f}%")


def _run_fleet(args: argparse.Namespace) -> None:
    from repro.experiments import fleet

    curves = fleet.router_sweep(scale=args.scale)
    print("Fleet — 4x LoongServe replicas, Mixed workload, routing policies")
    print(report.render_points(harness.rows(curves), fleet.FLEET_COLUMNS))
    advantage = fleet.length_aware_advantage(curves)
    print(
        f"\nlength-aware vs round-robin at {advantage['rate']:.1f} req/s: "
        f"{advantage['per_token_ratio']:.2f}x lower per-token latency, "
        f"{advantage['attainment_delta']:+.1%} SLO attainment"
    )
    print("(sharding long-context requests away from short-request replicas")
    print(" removes the Figure-11 prefill interference fleet-wide)")


def _run_sessions(args: argparse.Namespace) -> None:
    from repro.experiments import sessions

    curves = sessions.session_sweep(scale=args.scale)
    print("Sessions — 4x LoongServe replicas (prefix-KV cache), multi-turn workload")
    print(report.render_points(harness.rows(curves), sessions.SESSION_COLUMNS))
    advantage = sessions.affinity_advantage(curves)
    print(
        f"\naffinity vs round-robin at {advantage['rate']:.1f} sessions/s: "
        f"{advantage['input_token_ratio']:.2f}x lower per-token prefill latency, "
        f"hit rate {advantage['affinity_hit_rate']:.1%} "
        f"vs {advantage['round_robin_hit_rate']:.1%}"
    )
    print("(routing follow-up turns to the replica holding their conversation's")
    print(" KV prefix turns the shared context into skipped prefill work)")


def _run_elastic_fleet(args: argparse.Namespace) -> None:
    from repro.experiments import elastic_fleet

    mixed = elastic_fleet.bursty_mixed_sweep(scale=args.scale)
    print("Elastic fleet — 4x LoongServe replicas, bursty Mixed workload")
    print(report.render_points(mixed, elastic_fleet.ELASTIC_COLUMNS))
    advantage = elastic_fleet.elastic_advantage(mixed)
    print(
        f"\nelastic vs static at equal replica count: "
        f"{advantage['per_token_ratio']:.2f}x lower mean per-token latency, "
        f"{advantage['p99_ratio']:.2f}x lower P99, "
        f"{advantage['capacity_ratio']:.2f}x fewer replica-seconds paid"
    )
    sessions = elastic_fleet.session_rebalance_sweep(scale=args.scale)
    print("\nElastic fleet — 2x LoongServe replicas (prefix caches), "
          "burst-then-lull Sessions")
    print(report.render_points(sessions, elastic_fleet.ELASTIC_SESSION_COLUMNS))
    preservation = elastic_fleet.migration_hit_preservation(sessions)
    retained = preservation.get("elastic_retention", 0.0)
    dropped = preservation.get("autoscale_retention", 0.0)
    print(
        f"\nKV migration keeps {retained:.1%} of the static affinity hit rate "
        f"after scale-in (vs {dropped:.1%} without migration)"
    )
    print("(parking a replica ships its resident session prefixes to the")
    print(" survivors, so consolidation does not cold-start conversations)")


def _run_disagg(args: argparse.Namespace) -> None:
    from repro.experiments import disagg

    mixed = disagg.disagg_mixed_sweep(scale=args.scale)
    print("Disaggregation — 4 replicas, bursty chat-heavy Mixed, "
          "monolithic vs 2 prefill + 2 decode")
    print(report.render_points(mixed, disagg.DISAGG_COLUMNS))
    advantage = disagg.disagg_advantage(mixed)
    print(
        f"\ndisagg vs monolithic on the identical trace: "
        f"{advantage['attained_delta']:+.0f} SLO-attained requests, "
        f"{advantage['goodput_ratio']:.2f}x goodput, "
        f"{advantage['tpot_p90_ratio']:.2f}x lower TPOT P90"
    )
    print("(the decode pool never sees a prompt, so long prefills stop")
    print(" stalling co-resident decode iterations)")
    sessions = disagg.disagg_session_sweep(scale=args.scale)
    print("\nDisaggregation — 4 replicas, multi-turn sessions, "
          "monolithic (affinity) vs 1 prefill + 3 decode")
    print(report.render_points(sessions, disagg.DISAGG_COLUMNS))
    print("(decode-pool prefix caches keep conversation KV warm across")
    print(" turns; each turn pays one priced prefill->decode handoff)")


def _run_faults(args: argparse.Namespace) -> None:
    from repro.experiments import faults

    # The failover sweep runs at full scale regardless of --scale: the
    # post-crash P99 gap only exists when the survivors are genuinely
    # loaded (see failover_sweep's docstring).
    points = faults.failover_sweep(scale=1.0)
    print("Faults — 3x LoongServe replicas (prefix caches), long-context "
          "sessions, replica 0 crashes mid-run")
    print(report.render_points(points, faults.FAULT_COLUMNS))
    advantage = faults.failover_advantage(points)
    print(
        f"\nKV-migration failover vs naive re-dispatch after the crash: "
        f"{advantage['post_crash_p99_ratio']:.2f}x lower post-crash P99 "
        f"per-token latency, {advantage['post_crash_mean_ratio']:.2f}x lower mean "
        f"(availability {advantage['failover_availability']:.1%})"
    )
    print("(the copies steal-coupled and drain-rescue migration left on the")
    print(" survivors turn affinity failover into warm re-dispatch)")
    sweep = faults.availability_sweep(scale=min(args.scale, 0.5))
    print("\nAvailability under stochastic crashes (seeded Poisson, "
          "full failover stack):")
    for mtbf, point in sweep:
        print(
            f"  MTBF {mtbf:>6.0f}s: availability {point.availability:6.1%}, "
            f"{point.crashes} crashes, {point.lost_kv_tokens:,} KV tokens lost, "
            f"{point.finished}/{point.total} finished"
        )
    print("(every crash re-dispatches its orphans; no request is ever lost)")


def _run_qos(args: argparse.Namespace) -> None:
    from repro.experiments import qos

    # Like the faults sweep, the QoS gap needs genuine overload: below
    # full scale the short trace drains before queues build, so the
    # headline comparison ignores --scale (ledgers stay meaningful).
    points = qos.qos_sweep(scale=1.0)
    print("QoS — 3x LoongServe replicas (prefix caches), overloaded "
          "mixed long/short + sessions, three SLO tiers")
    print(report.render_points(points, qos.QOS_COLUMNS))
    for point in points:
        print(f"\n[{point.variant}]")
        print(report.render_class_table(point.outcomes, point.makespan))
    advantage = qos.qos_advantage(points)
    print(
        f"\nfull QoS stack vs FCFS at equal capacity: interactive attainment "
        f"{advantage['interactive_qos']:.1%} vs {advantage['interactive_fcfs']:.1%} "
        f"({advantage['interactive_attainment_ratio']:.2f}x), total goodput "
        f"{advantage['goodput_ratio']:.2f}x, batch attainment "
        f"{advantage['batch_qos']:.1%}"
    )
    print("(admission sheds infeasible work, earliest-slack dispatch and")
    print(" batch-tier preemption protect tight deadlines, slo routing")
    print(" places each request where its predicted slack is largest)")
    closed = qos.closed_loop_attainment(scale=min(args.scale, 0.5))
    print(
        f"\nclosed-loop sessions (arrival feedback, full stack): "
        f"{closed['attainment']:.1%} interactive attainment over "
        f"{closed['submitted']:.0f} turns"
    )


def _main_forensics(argv: list[str]) -> int:
    """`python -m repro.experiments forensics` — replay an exported trace.

    With no flag, builds the exact critical-path blame partition for
    every finished request in the export and renders the forensics
    report: per-category totals, per-QoS blame, and ASCII blame
    timelines for the slowest requests; exits 1 when a request violates
    the partition.  ``--request ID`` prints one request's story (its
    spans and the audit records that mention it) instead, and ``--diff
    B`` the telemetry diff and the blame diff of the two runs.
    """
    import os

    from repro.obs import (
        attribute,
        diff_blame,
        diff_telemetry,
        load_export,
        render_report,
        request_story,
        verify_partition,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments forensics",
        description="Replay an observability export: where did every "
                    "request's latency go?",
    )
    parser.add_argument("--trace-in", required=True, metavar="PATH",
                        help="Perfetto export written by `python -m repro "
                             "serve --trace-out`")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--request", type=int, default=None, metavar="ID",
                      help="print this request's lifecycle story instead")
    mode.add_argument("--diff", default=None, metavar="PATH",
                      help="second export: print the telemetry diff and the "
                           "blame diff of the two runs instead")
    parser.add_argument("--top", type=int, default=5, metavar="K",
                        help="how many slowest/most-regressed requests to "
                             "detail (default 5)")
    parser.add_argument("--width", type=int, default=60, metavar="COLS",
                        help="blame timeline width in characters (default 60)")
    args = parser.parse_args(argv)

    obs = load_export(args.trace_in)
    if args.request is not None:
        print(request_story(obs, args.request))
        return 0
    report = attribute(obs)
    if args.diff is not None:
        other = load_export(args.diff)
        label_a = os.path.basename(args.trace_in) or args.trace_in
        label_b = os.path.basename(args.diff) or args.diff
        if label_a == label_b:
            label_a, label_b = args.trace_in, args.diff
        print(f"telemetry diff: {args.trace_in} vs {args.diff}")
        print(diff_telemetry(obs, other, label_a=label_a, label_b=label_b))
        print()
        print(
            diff_blame(
                report, attribute(other),
                label_a=label_a, label_b=label_b, top=args.top,
            )
        )
        return 0
    print(render_report(report, top=args.top, width=args.width))
    bad = verify_partition(report)
    if bad:
        worst = max(error for _, error in bad)
        print(
            f"\nWARNING: {len(bad)} request(s) violate the exact-partition "
            f"invariant (max error {worst:.3g}s)"
        )
        return 1
    return 0


FIGURES = {
    "figure2": _run_figure2,
    "figure3": _run_figure3,
    "figure10": _run_figure10,
    "figure11": _run_figure11,
    "figure12": _run_figure12,
    "figure13": _run_figure13,
    "figure14": _run_figure14,
    "figure15": _run_figure15,
    "fleet": _run_fleet,
    "sessions": _run_sessions,
    "elastic-fleet": _run_elastic_fleet,
    "disagg": _run_disagg,
    "faults": _run_faults,
    "qos": _run_qos,
}


def main(argv: list[str] | None = None) -> int:
    raw = sys.argv[1:] if argv is None else argv
    if raw and raw[0] == "forensics":
        return _main_forensics(raw[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate LoongServe paper figures on the simulated "
                    "substrate (or replay an observability export with "
                    "`forensics`).",
    )
    parser.add_argument("figure", choices=[*FIGURES, "all", "forensics"])
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink (<1) or grow (>1) request counts for the serving figures",
    )
    parser.add_argument(
        "--datasets",
        nargs="*",
        default=None,
        help="figure10 only: subset of sharegpt/leval/lveval/mixed",
    )
    args = parser.parse_args(argv)
    if not 0 < args.scale < math.inf:
        print(f"error: --scale must be finite and positive, got {args.scale}",
              file=sys.stderr)
        return 2

    targets = list(FIGURES) if args.figure == "all" else [args.figure]
    for target in targets:
        start = time.time()
        FIGURES[target](args)
        print(f"\n[{target} done in {time.time() - start:.1f}s]\n" + "=" * 72)
    return 0


if __name__ == "__main__":
    sys.exit(main())
