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

from repro.config import SchedulerConfig, default_config
from repro.core import scaling_plan as scaling_plan_module
from repro.core.global_manager import GlobalManager
from repro.core.server import LoongServeServer
from repro.costmodel.latency import RooflineCostModel
from repro.experiments.endtoend import reference_ideal_model
from repro.experiments.harness import Point, compare
from repro.workloads.datasets import MIXED, SHAREGPT
from repro.workloads.trace_gen import make_trace

# Each ablation's trace: ``make_trace``'s (rate req/s, requests, seed).
PLANNING_TRACE = (1.0, 60, 21)
MULTI_MASTER_TRACE = (40.0, 800, 22)
HEADROOM_TRACE = (30.0, 600, 23)
HEADROOMS = (4, 32, 256)  # decode iterations of scale-down headroom


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


def planning_model_ablation() -> list[Point]:
    """Fitted Eq. 7 planning vs. roofline-oracle planning."""
    config = default_config()
    cost = RooflineCostModel(cluster=config.cluster, model=config.model)
    variants = {
        "fitted analytical model (paper)": lambda trace: LoongServeServer(
            config, cost_model=cost
        ),
        "roofline oracle (ideal)": lambda trace: LoongServeServer(
            config, cost_model=cost, manager=_RooflinePlanner(config, cost)
        ),
    }
    return compare(
        variants, make_trace(MIXED, *PLANNING_TRACE), reference_ideal_model()
    )


def multi_master_ablation() -> list[Point]:
    """Multi-master decoding on vs. off under ShareGPT load."""

    def server(enabled: bool):
        return lambda trace: LoongServeServer(
            default_config(scheduler=SchedulerConfig(enable_multi_master=enabled))
        )

    variants = {
        f"multi-master={'on' if enabled else 'off'}": server(enabled)
        for enabled in (True, False)
    }
    return compare(
        variants, make_trace(SHAREGPT, *MULTI_MASTER_TRACE), reference_ideal_model()
    )


def scale_down_headroom_ablation() -> list[Point]:
    """Sensitivity to the proactive scale-down's decode headroom.

    Each variant sets the module's headroom as it is built, just before
    its run; the original value is restored afterwards.
    """

    def server(headroom: int):
        def build(trace):
            scaling_plan_module.DECODE_HEADROOM_ITERATIONS = headroom
            return LoongServeServer(default_config())

        return build

    original = scaling_plan_module.DECODE_HEADROOM_ITERATIONS
    try:
        return compare(
            {f"headroom={h} iterations": server(h) for h in HEADROOMS},
            make_trace(SHAREGPT, *HEADROOM_TRACE),
            reference_ideal_model(),
        )
    finally:
        scaling_plan_module.DECODE_HEADROOM_ITERATIONS = original
