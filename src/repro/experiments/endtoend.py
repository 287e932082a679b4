"""End-to-end serving experiments: Figures 10, 11, 12, 13.

Each figure is a rate sweep: generate a Poisson trace per rate, replay it
on every system, and collect the paper's metrics.  Request counts scale
with the rate so every run covers a comparable arrival window; the
``scale`` knob shrinks runs for quick benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.cluster.cluster import Cluster
from repro.costmodel.latency import RooflineCostModel
from repro.experiments.systems import make_system
from repro.metrics.latency import summarize_latency
from repro.metrics.slo import (
    DEFAULT_SLO_SCALE,
    IdealLatencyModel,
    goodput_is_censored,
    max_rate_under_slo,
    slo_report,
)
from repro.metrics.summary import scale_event_histogram
from repro.model.spec import LWM_7B_1M
from repro.types import Request
from repro.workloads.datasets import DATASETS, MIXED, SHAREGPT, ZipfMixed
from repro.workloads.trace_gen import clone_requests, make_trace


def reference_ideal_model(num_gpus: int = 8) -> IdealLatencyModel:
    """One deadline model shared by every system (fair comparison)."""
    cluster = Cluster.homogeneous(num_gpus=num_gpus)
    cost = RooflineCostModel(cluster=cluster, model=LWM_7B_1M)
    return IdealLatencyModel(
        cost_model=cost, tensor_parallel=2, max_instances=num_gpus // 2
    )


@dataclass
class RatePoint:
    """One (system, rate) measurement."""

    rate: float
    per_token: float
    input_token: float
    output_token: float
    attainment: float
    finished: int
    total: int
    aborted: int
    scale_up_events: int = 0


@dataclass
class SystemCurve:
    system: str
    points: list[RatePoint] = field(default_factory=list)

    def goodput(self, target: float = 0.90) -> float:
        return max_rate_under_slo(
            [p.rate for p in self.points],
            [p.attainment for p in self.points],
            target=target,
        )

    def censored(self, target: float = 0.90) -> bool:
        """True when :meth:`goodput` is only a lower bound: the sweep's
        top rate still meets ``target``."""
        return goodput_is_censored(
            [p.rate for p in self.points],
            [p.attainment for p in self.points],
            target=target,
        )


@dataclass(frozen=True)
class GoodputRatio:
    """A ratio of two P90 goodputs, with which side is censored
    (:meth:`SystemCurve.censored`).  A censored numerator makes the
    ratio a lower bound, a censored denominator an upper bound, and
    both leave it unbounded either way."""

    value: float
    numerator_censored: bool
    denominator_censored: bool


def run_system_at_rate(
    system_name: str,
    trace: Sequence[Request],
    rate: float,
    ideal: IdealLatencyModel,
    num_gpus: int = 8,
    gpus_per_node: int = 8,
    slo_scale: float = DEFAULT_SLO_SCALE,
) -> RatePoint:
    """Replay one trace on one system and summarise it."""
    system = make_system(
        system_name, requests=trace, num_gpus=num_gpus, gpus_per_node=gpus_per_node
    )
    result = system.run(clone_requests(trace))
    latency = summarize_latency(result)
    slo = slo_report(result, ideal, scale=slo_scale)
    scale_ups = sum(1 for e in result.scaling_events if e.kind == "scale_up")
    return RatePoint(
        rate=rate,
        per_token=latency.per_token,
        input_token=latency.input_token,
        output_token=latency.output_token,
        attainment=slo.attainment,
        finished=latency.finished,
        total=slo.total,
        aborted=len(result.aborted),
        scale_up_events=scale_ups,
    )


def sweep(
    system_names: Sequence[str],
    dataset,
    rates: Sequence[float],
    requests_per_rate_second: float,
    seed: int = 7,
    min_requests: int = 40,
    num_gpus: int = 8,
    gpus_per_node: int = 8,
    scale: float = 1.0,
) -> list[SystemCurve]:
    """Rate sweep for several systems over one dataset."""
    ideal = reference_ideal_model(num_gpus=num_gpus)
    curves = {name: SystemCurve(system=name) for name in system_names}
    for rate in rates:
        count = max(int(min_requests * scale), int(rate * requests_per_rate_second * scale))
        trace = make_trace(dataset, rate=rate, num_requests=count, seed=seed)
        for name in system_names:
            point = run_system_at_rate(
                name, trace, rate, ideal, num_gpus=num_gpus, gpus_per_node=gpus_per_node
            )
            curves[name].points.append(point)
    return list(curves.values())


# -- Figure 10: single-node end-to-end comparison -----------------------------------

FIGURE10_SYSTEMS = ["loongserve", "vllm", "splitfuse", "distserve"]
# The simulated substrate is an idealised A800 node, so saturation sits at
# higher absolute rates than the paper's testbed; the grids below bracket
# each system's knee (the paper's ranges were ShareGPT 0-30, L-Eval 0-2.5,
# LV-Eval 0-0.2, Mixed 0-0.6 req/s).
FIGURE10_RATES = {
    "sharegpt": [10.0, 20.0, 40.0, 60.0, 80.0],
    "leval": [0.5, 1.0, 2.0, 3.0, 4.0],
    "lveval": [0.1, 0.2, 0.3, 0.4],
    "mixed": [0.3, 0.6, 0.9, 1.2],
}
FIGURE10_WINDOW_S = 25.0  # arrival window covered per rate point


def figure10(
    datasets: Sequence[str] | None = None,
    scale: float = 1.0,
    seed: int = 7,
) -> dict[str, list[SystemCurve]]:
    """The paper's headline comparison (Figure 10).

    DeepSpeed-MII only joins the ShareGPT row (it crashes past 32K-token
    prompts, §7.1), exactly as in the paper.
    """
    results: dict[str, list[SystemCurve]] = {}
    for dataset_name in datasets or list(FIGURE10_RATES):
        systems = list(FIGURE10_SYSTEMS)
        if dataset_name == "sharegpt":
            systems.insert(2, "deepspeed-mii")
        results[dataset_name] = sweep(
            systems,
            DATASETS[dataset_name],
            FIGURE10_RATES[dataset_name],
            requests_per_rate_second=FIGURE10_WINDOW_S,
            seed=seed,
            scale=scale,
        )
    return results


def headline_ratios(results: dict[str, list[SystemCurve]]) -> dict[str, GoodputRatio]:
    """Throughput-ratio headlines (§7.2): LoongServe vs. each baseline.

    The ratio for a baseline is the best over datasets of
    (LoongServe goodput) / (baseline goodput); infinite ratios (baseline
    never meets the SLO at any swept rate) are reported as the largest
    finite comparison.  The censoring flags are those of the dataset the
    ratio came from.
    """
    ratios: dict[str, GoodputRatio] = {}
    for curves in results.values():
        by_name = {c.system: c for c in curves}
        loong = by_name.get("loongserve")
        if loong is None:
            continue
        loong_goodput = loong.goodput()
        for name, curve in by_name.items():
            if name == "loongserve":
                continue
            baseline_goodput = curve.goodput()
            if baseline_goodput > 0 and loong_goodput > 0:
                ratio = loong_goodput / baseline_goodput
                if name not in ratios or ratio > ratios[name].value:
                    ratios[name] = GoodputRatio(
                        ratio, loong.censored(), curve.censored()
                    )
    return ratios


# -- Figure 11: multi-node -------------------------------------------------------------

FIGURE11_RATES = [0.2, 0.4, 0.6, 0.8]


def figure11(scale: float = 1.0, seed: int = 11) -> list[SystemCurve]:
    """16-GPU Mixed-workload comparison (Figure 11).

    Baselines deploy one replica per server (the paper's setup); the
    replicated builders live in systems.py and are addressed through
    dedicated names here.
    """
    from repro.experiments import systems as sys_mod

    ideal = reference_ideal_model(num_gpus=16)
    builders = {
        "loongserve": lambda trace: sys_mod.build_loongserve(
            num_gpus=16, gpus_per_node=8
        ),
        "vllm": lambda trace: sys_mod.build_vllm_per_node(num_gpus=16, gpus_per_node=8),
        "splitfuse": lambda trace: sys_mod.build_splitfuse_per_node(
            trace, num_gpus=16, gpus_per_node=8
        ),
    }
    curves = {name: SystemCurve(system=name) for name in builders}
    for rate in FIGURE11_RATES:
        count = max(int(40 * scale), int(rate * FIGURE10_WINDOW_S * 2 * scale))
        trace = make_trace(MIXED, rate=rate, num_requests=count, seed=seed)
        for name, builder in builders.items():
            system = builder(trace)
            result = system.run(clone_requests(trace))
            latency = summarize_latency(result)
            slo = slo_report(result, ideal)
            curves[name].points.append(
                RatePoint(
                    rate=rate,
                    per_token=latency.per_token,
                    input_token=latency.input_token,
                    output_token=latency.output_token,
                    attainment=slo.attainment,
                    finished=latency.finished,
                    total=slo.total,
                    aborted=len(result.aborted),
                )
            )
    return list(curves.values())


# -- Figure 12: ESP ablation under Zipf length skew ---------------------------------------

FIGURE12_SYSTEMS = ["loongserve", "vllm", "static-sp", "replicated-tp2"]
# As with Figure 10, the substrate's knees sit above the paper's testbed
# rates (paper: Zipf 1.0 swept to 1.75, 1.2 to 3, 1.4 to 10 req/s).
FIGURE12_RATES = {
    1.0: [1.0, 2.0, 4.0, 6.0, 8.0],
    1.2: [2.0, 5.0, 10.0, 15.0],
    1.4: [5.0, 15.0, 30.0, 45.0],
}


def figure12(
    zipf_params: Sequence[float] = (1.0, 1.2, 1.4),
    scale: float = 1.0,
    seed: int = 12,
) -> dict[float, list[SystemCurve]]:
    """P90 goodput of static parallelisms vs. LoongServe (Figure 12)."""
    results = {}
    for zipf in zipf_params:
        dataset = ZipfMixed(name=f"Zipf-{zipf}", zipf=zipf)
        results[zipf] = sweep(
            FIGURE12_SYSTEMS,
            dataset,
            FIGURE12_RATES[zipf],
            requests_per_rate_second=FIGURE10_WINDOW_S,
            seed=seed,
            scale=scale,
        )
    return results


def figure12_goodput_ratios(
    results: dict[float, list[SystemCurve]],
) -> dict[float, GoodputRatio]:
    """LoongServe's P90 goodput over the best static baseline, per Zipf.

    The best static goodput is a lower bound when any static curve is
    censored: that baseline's true goodput may exceed every other one.
    """
    ratios = {}
    for zipf, curves in results.items():
        by_name = {c.system: c for c in curves}
        loong = by_name["loongserve"]
        statics = [c for name, c in by_name.items() if name != "loongserve"]
        best_static = max((c.goodput() for c in statics), default=0.0)
        ratios[zipf] = GoodputRatio(
            loong.goodput() / best_static if best_static > 0 else float("inf"),
            loong.censored(),
            any(c.censored() for c in statics),
        )
    return ratios


# -- Figure 13: elastic scale-up ablation ------------------------------------------------

FIGURE13_RATES = [10.0, 20.0, 30.0, 45.0, 60.0, 80.0]
FIGURE13_FREQUENCY_RATE = 40.0


def figure13a(scale: float = 1.0, seed: int = 13) -> list[SystemCurve]:
    """SLO attainment with and without elastic scale-up (ShareGPT).

    Uses a longer arrival window than Figure 10: the no-scale-up penalty
    is memory pressure on the batch's original instances, which takes
    sustained load to build up.
    """
    return sweep(
        ["loongserve", "loongserve-no-scaleup"],
        SHAREGPT,
        FIGURE13_RATES,
        requests_per_rate_second=2 * FIGURE10_WINDOW_S,
        seed=seed,
        scale=scale,
    )


def figure13b(
    duration_s: float = 200.0, rate: float = FIGURE13_FREQUENCY_RATE, seed: int = 13
) -> list[int]:
    """Scale-up operations per 10-second bin at ``rate`` req/s, by
    default ``FIGURE13_FREQUENCY_RATE`` (Figure 13b)."""
    count = int(rate * duration_s)
    trace = make_trace(SHAREGPT, rate=rate, num_requests=count, seed=seed)
    system = make_system("loongserve", requests=trace)
    result = system.run(clone_requests(trace))
    return scale_event_histogram(
        result.scaling_events, kind="scale_up", bin_seconds=10.0, until=result.makespan
    )
