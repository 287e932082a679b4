"""Cost-model-level experiments: Figures 2, 3, 14, and 15.

These figures characterise iteration-time behaviour rather than
end-to-end serving, so they evaluate the cost models directly — exactly
what the paper's microbenchmarks do to the real kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.sib import ScalingInformationBase
from repro.costmodel.latency import RooflineCostModel
from repro.model.spec import LWM_7B_1M
from repro.parallel.strategy import ParallelismStrategy


def _cost_model() -> RooflineCostModel:
    """The §7.1 testbed: eight GPUs serving LWM-1M-Text."""
    return RooflineCostModel(cluster=Cluster.homogeneous(num_gpus=8), model=LWM_7B_1M)


# -- Figure 2: scalability of requests vs. TP degree --------------------------------

FIGURE2_PREFILL_GRID = [(16, 10), (16, 50), (16, 100), (16, 500)]
FIGURE2_PREFILL_LONG_GRID = [(1, 100), (1, 1_000), (1, 10_000), (1, 100_000)]
FIGURE2_TP_DEGREES = [2, 4, 8]


@dataclass
class Figure2Row:
    batch_size: int
    length: int
    phase: str
    times: dict[int, float] = field(default_factory=dict)  # tp -> seconds

    @property
    def speedup_at_max_tp(self) -> float:
        tps = sorted(self.times)
        return self.times[tps[0]] / self.times[tps[-1]]


def figure2() -> list[Figure2Row]:
    """Iteration time vs. TP degree, prefill and decode (Figure 2)."""
    cost = _cost_model()
    rows: list[Figure2Row] = []
    for grid, phase in [
        (FIGURE2_PREFILL_GRID, "prefill"),
        (FIGURE2_PREFILL_LONG_GRID, "prefill"),
    ]:
        for bs, length in grid:
            row = Figure2Row(batch_size=bs, length=length, phase=phase)
            for tp in FIGURE2_TP_DEGREES:
                row.times[tp] = cost.prefill_time([length] * bs, instances=1, tensor_parallel=tp)
            rows.append(row)
    for bs, length in FIGURE2_PREFILL_GRID + FIGURE2_PREFILL_LONG_GRID:
        row = Figure2Row(batch_size=bs, length=length, phase="decode")
        for tp in FIGURE2_TP_DEGREES:
            row.times[tp] = cost.decode_time([length] * bs, instances=1, tensor_parallel=tp)
        rows.append(row)
    return rows


# -- Figure 3: fixed sequence parallelism vs. tensor parallelism -------------------------

FIGURE3_GRID = [
    (512, 1_000),
    (128, 5_000),
    (64, 10_000),
    (16, 50_000),
    (4, 100_000),
    (1, 500_000),
]
FIGURE3_STRATEGIES = [
    ParallelismStrategy(tensor_parallel=8, sequence_parallel=1),
    ParallelismStrategy(tensor_parallel=4, sequence_parallel=2),
    ParallelismStrategy(tensor_parallel=2, sequence_parallel=4),
]


@dataclass
class Figure3Row:
    batch_size: int
    length: int
    phase: str
    times: dict[str, float] = field(default_factory=dict)  # strategy label -> s

    @property
    def best(self) -> str:
        return min(self.times, key=self.times.get)


def figure3() -> list[Figure3Row]:
    """SPxTP vs. pure TP iteration times over the paper's grid (Figure 3)."""
    cost = _cost_model()
    rows = []
    for bs, length in FIGURE3_GRID:
        prefill_row = Figure3Row(batch_size=bs, length=length, phase="prefill")
        decode_row = Figure3Row(batch_size=bs, length=length, phase="decode")
        for strategy in FIGURE3_STRATEGIES:
            prefill_row.times[strategy.label] = cost.prefill_time(
                [length] * bs,
                instances=strategy.sequence_parallel,
                tensor_parallel=strategy.tensor_parallel,
            )
            decode_row.times[strategy.label] = cost.decode_time(
                [length] * bs,
                instances=strategy.sequence_parallel,
                tensor_parallel=strategy.tensor_parallel,
                num_masters=strategy.sequence_parallel,
            )
        rows.append(prefill_row)
        rows.append(decode_row)
    return rows


# -- Figure 14: overhead of the elastic scaling mechanisms ----------------------------

FIGURE14_GRID = [
    (1024, 10),
    (256, 100),
    (64, 1_000),
    (16, 10_000),
    (4, 50_000),
    (2, 100_000),
    (1, 200_000),
]


@dataclass
class Figure14aRow:
    """Scale-down: prefill with proactive retention vs. reactive migration."""

    batch_size: int
    length: int
    plain_prefill: float
    with_proactive: float
    with_reactive: float

    @property
    def proactive_overhead(self) -> float:
        return self.with_proactive / self.plain_prefill - 1.0

    @property
    def reactive_overhead(self) -> float:
        return self.with_reactive / self.plain_prefill - 1.0


def figure14a() -> list[Figure14aRow]:
    """Scale-down overhead (Figure 14a).

    Proactive scale-down reuses the prefill's own ring traffic, so its
    iteration time equals the plain prefill (the <2% the paper reports is
    kernel-level bookkeeping).  The reactive alternative pays an explicit
    post-prefill KV migration of half the batch's tokens (DoP 4 -> 2).
    """
    cost = _cost_model()
    instances = [0, 1, 2, 3]
    rows = []
    for bs, length in FIGURE14_GRID:
        plain = cost.prefill_time([length] * bs, instances, tensor_parallel=2)
        proactive = plain  # zero extra communication by construction (§4.1)
        moved_tokens = bs * length // 2
        reactive = plain + cost.migration_time(
            moved_tokens, src_instance=2, dst_instance=0, tensor_parallel=2
        )
        rows.append(
            Figure14aRow(
                batch_size=bs,
                length=length,
                plain_prefill=plain,
                with_proactive=proactive,
                with_reactive=reactive,
            )
        )
    return rows


@dataclass
class Figure14bRow:
    """Scale-up: decode latency with 1/2/4 master instances (group of 4)."""

    batch_size: int
    length: int
    times: dict[int, float] = field(default_factory=dict)  # masters -> s

    @property
    def speedup_4_masters(self) -> float:
        return self.times[1] / self.times[4]


def figure14b() -> list[Figure14bRow]:
    """Multi-master decode overhead/benefit (Figure 14b)."""
    cost = _cost_model()
    instances = [0, 1, 2, 3]
    rows = []
    for bs, length in FIGURE14_GRID:
        row = Figure14bRow(batch_size=bs, length=length)
        for masters in (1, 2, 4):
            row.times[masters] = cost.decode_time(
                [length] * bs, instances, tensor_parallel=2, num_masters=masters
            )
        rows.append(row)
    return rows


# -- Figure 15: accuracy of the analytical model --------------------------------

FIGURE15_STRATEGIES = [
    ParallelismStrategy(tensor_parallel=4, sequence_parallel=2),
    ParallelismStrategy(tensor_parallel=2, sequence_parallel=4),
    ParallelismStrategy(tensor_parallel=1, sequence_parallel=8),
]
FIGURE15_BATCH_SIZES = [1, 2, 4, 8]
FIGURE15_LENGTHS = [10_000, 50_000, 100_000, 200_000, 300_000, 400_000, 500_000]


@dataclass
class Figure15Point:
    strategy: str
    batch_size: int
    length: int
    predicted: float
    measured: float

    @property
    def deviation(self) -> float:
        return abs(self.predicted - self.measured) / self.measured


def figure15() -> list[Figure15Point]:
    """Fit the SIB model and compare predictions vs. ground truth (Fig. 15)."""
    cost = _cost_model()
    sib = ScalingInformationBase()
    fitted = sib.profile_strategies(cost, FIGURE15_STRATEGIES)
    points = []
    for strategy in FIGURE15_STRATEGIES:
        for bs in FIGURE15_BATCH_SIZES:
            for length in FIGURE15_LENGTHS:
                if bs * length > 1_000_000:
                    continue  # beyond the context window
                workload = [length] * bs
                measured = cost.prefill_time(
                    workload,
                    instances=strategy.sequence_parallel,
                    tensor_parallel=strategy.tensor_parallel,
                )
                predicted = fitted.predict(strategy, workload)
                points.append(
                    Figure15Point(
                        strategy=strategy.label,
                        batch_size=bs,
                        length=length,
                        predicted=predicted,
                        measured=measured,
                    )
                )
    return points


def figure15_max_deviation(points: list[Figure15Point]) -> float:
    return max(p.deviation for p in points)


def figure15_mean_deviation(points: list[Figure15Point]) -> float:
    return float(np.mean([p.deviation for p in points]))
