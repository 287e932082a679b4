"""Ablations of LoongServe's own design choices.

Beyond the paper's figures, these isolate decisions the paper makes
implicitly:

* ``planning_model_ablation`` — the global manager plans with the
  SIB-*fitted* analytical model (§5.5).  How much scheduling quality does
  the fit lose vs. planning with the roofline ground truth directly?
* ``multi_master_ablation`` — multi-master decoding on/off, end to end
  (the §4.2 design beyond the per-iteration Figure 14b view).
* ``scale_down_headroom_ablation`` — the proactive scale-down keeps
  enough free slots for N future decode iterations; too little headroom
  causes rapid re-scale-ups, too much wastes instances that prefills
  could use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SchedulerConfig, default_config
from repro.core import scaling_plan as scaling_plan_module
from repro.core.global_manager import GlobalManager
from repro.core.server import LoongServeServer
from repro.costmodel.latency import RooflineCostModel
from repro.metrics.latency import summarize_latency
from repro.workloads.datasets import MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace


@dataclass(frozen=True)
class AblationPoint:
    """One variant's end-to-end outcome."""

    variant: str
    per_token: float
    input_token: float
    output_token: float
    finished: int
    scale_ups: int


def _run_server(server: LoongServeServer, trace) -> AblationPoint:
    result = server.run(clone_requests(trace))
    summary = summarize_latency(result)
    return AblationPoint(
        variant=server.name,
        per_token=summary.per_token,
        input_token=summary.input_token,
        output_token=summary.output_token,
        finished=summary.finished,
        scale_ups=sum(1 for e in result.scaling_events if e.kind == "scale_up"),
    )


class _RooflinePlanner(GlobalManager):
    """A global manager that plans with the ground-truth cost model.

    The fitted analytical model is replaced by the roofline itself, which
    is the unrealisable ideal (a real system cannot query its hardware's
    exact future iteration time).  The gap between this and the default
    manager measures what the Eq. 7 fit costs.
    """

    def _bootstrap_predictor(self):
        roofline = self.cost_model

        class _Oracle:
            """Adapter: IterationCostModel + the AnalyticalModel surface
            the batching DP needs (per-strategy predictions from sums)."""

            def prefill_time(self, input_lens, instances, tensor_parallel):
                return roofline.prefill_time(input_lens, instances, tensor_parallel)

            def has_strategy(self, strategy):
                return True

            def predict_sums(self, strategy, total_len, total_len_sq):
                # Reconstruct a representative workload from the sums: the
                # DP only needs consistent relative ordering, and a single
                # equivalent request preserves both Σlen and Σlen².
                if total_len <= 0:
                    return 0.0
                equivalent = max(1, int(total_len_sq / total_len))
                count = max(1, round(total_len / equivalent))
                return roofline.prefill_time(
                    [equivalent] * count,
                    strategy.sequence_parallel,
                    strategy.tensor_parallel,
                )

            def predict(self, strategy, input_lens):
                return roofline.prefill_time(
                    list(input_lens), strategy.sequence_parallel, strategy.tensor_parallel
                )

        return _Oracle()


def planning_model_ablation(
    rate: float = 1.0, num_requests: int = 60, seed: int = 21
) -> list[AblationPoint]:
    """Fitted Eq. 7 planning vs. roofline-oracle planning."""
    trace = make_trace(MIXED, rate=rate, num_requests=num_requests, seed=seed)
    config = default_config()
    cost = RooflineCostModel(cluster=config.cluster, model=config.model)

    fitted = LoongServeServer(config, cost_model=cost)
    fitted.name = "fitted analytical model (paper)"
    oracle_manager = _RooflinePlanner(config, cost)
    oracle = LoongServeServer(config, cost_model=cost, manager=oracle_manager)
    oracle.name = "roofline oracle (ideal)"
    return [_run_server(fitted, trace), _run_server(oracle, trace)]


def multi_master_ablation(
    rate: float = 40.0, num_requests: int = 800, seed: int = 22
) -> list[AblationPoint]:
    """Multi-master decoding on vs. off under ShareGPT load."""
    trace = make_trace(SHAREGPT, rate=rate, num_requests=num_requests, seed=seed)
    points = []
    for enabled in (True, False):
        config = default_config(
            scheduler=SchedulerConfig(enable_multi_master=enabled)
        )
        server = LoongServeServer(config)
        server.name = f"multi-master={'on' if enabled else 'off'}"
        points.append(_run_server(server, trace))
    return points


def scale_down_headroom_ablation(
    headrooms: tuple[int, ...] = (4, 32, 256),
    rate: float = 30.0,
    num_requests: int = 600,
    seed: int = 23,
) -> list[AblationPoint]:
    """Sensitivity to the proactive scale-down's decode headroom."""
    trace = make_trace(SHAREGPT, rate=rate, num_requests=num_requests, seed=seed)
    original = scaling_plan_module.DECODE_HEADROOM_ITERATIONS
    points = []
    try:
        for headroom in headrooms:
            scaling_plan_module.DECODE_HEADROOM_ITERATIONS = headroom
            server = LoongServeServer(default_config())
            server.name = f"headroom={headroom} iterations"
            points.append(_run_server(server, trace))
    finally:
        scaling_plan_module.DECODE_HEADROOM_ITERATIONS = original
    return points
