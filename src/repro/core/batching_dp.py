"""Step 3 — batching via dynamic programming (§5.3, Eq. 5).

Requests (sorted by length, descending) and instances (sorted by free
slots, ascending) are both split into contiguous intervals; interval pair
(requests j+1..i, instances l+1..k) forms one batch executed at DoP
``k - l``.  ``f[i][k]`` is the minimum summed input latency of the first
``i`` requests using the first ``k`` instances:

    f[i][k] = min over j<i, l<k, D(j,i) <= V(l,k) of
              f[j][l] + (i-j) * T(R[j+1..i], E[l+1..k])

with ``D``/``V`` token/slot interval sums from prefix arrays and ``T``
answered in O(1) by the analytical model's Σlen/Σlen² form.  An extra
``f[i][k-1]`` transition lets an instance sit idle.

The paper accelerates the DP with the quadrangle-inequality split-point
monotonicity (Eq. 6): ``split_req[i][k]`` is non-decreasing in ``k`` and
``split_ins[i][k]`` non-decreasing in ``i``, so a forward fill can lower-
bound both inner loops by previously computed split points.  That pruned
variant is the default.  Note: with a fitted cost model whose constant
term α grows with SP, the quadrangle-inequality premise can be violated
on rare inputs, making the pruned optimum marginally worse than the
exhaustive one (observed <1%; the test suite bounds it).  The exhaustive
variant remains available via ``optimized=False``.  The paper implements
this loop in C++ for constant factors; pure Python is fine at simulation
scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.costmodel.analytical import AnalyticalModel
from repro.parallel.strategy import ParallelismStrategy
from repro.types import Request


@dataclass
class PlannedBatch:
    """One prefill batch: requests plus their ESP group's instances."""

    requests: list[Request]
    instance_ids: list[int]

    @property
    def dop(self) -> int:
        return len(self.instance_ids)

    @property
    def total_tokens(self) -> int:
        return sum(r.input_len for r in self.requests)


@dataclass
class BatchPlan:
    """DP outcome: the batches and the objective value reached."""

    batches: list[PlannedBatch] = field(default_factory=list)
    objective: float = math.inf

    @property
    def is_empty(self) -> bool:
        return not self.batches


@dataclass
class _Tables:
    """DP state: values, split points, and the skip-instance marker."""

    f: list[list[float]]
    split_req: list[list[int]]
    split_ins: list[list[int]]
    skip: list[list[bool]]


def plan_batches(
    requests: Sequence[Request],
    instance_ids: Sequence[int],
    free_slots: dict[int, int],
    predictor: AnalyticalModel,
    tensor_parallel: int,
    optimized: bool = True,
) -> BatchPlan:
    """Split ``requests`` over ``instance_ids`` into DoP-annotated batches.

    ``predictor`` is the fitted :class:`AnalyticalModel`, or any model
    with its ``has_strategy``/``predict_sums`` surface.
    """
    reqs = sorted(requests, key=lambda r: -r.prefill_tokens)
    insts = sorted(instance_ids, key=lambda i: free_slots.get(i, 0))
    n, m = len(reqs), len(insts)
    if n == 0:
        return BatchPlan(batches=[], objective=0.0)
    if m == 0:
        return BatchPlan(batches=[], objective=math.inf)

    need = [0] * (n + 1)
    length_sum = [0.0] * (n + 1)
    length_sq_sum = [0.0] * (n + 1)
    for idx, request in enumerate(reqs, start=1):
        need[idx] = need[idx - 1] + request.kv_demand
        length_sum[idx] = length_sum[idx - 1] + request.prefill_tokens
        length_sq_sum[idx] = length_sq_sum[idx - 1] + request.prefill_tokens**2
    slots = [0] * (m + 1)
    for idx, instance_id in enumerate(insts, start=1):
        slots[idx] = slots[idx - 1] + free_slots.get(instance_id, 0)

    strategies: dict[int, ParallelismStrategy] = {}
    for sp in range(1, m + 1):
        strategy = ParallelismStrategy(tensor_parallel=tensor_parallel, sequence_parallel=sp)
        if predictor.has_strategy(strategy):
            strategies[sp] = strategy
    if not strategies:
        raise ValueError("analytical model has no fitted strategies for this TP degree")

    if isinstance(predictor, AnalyticalModel):
        # Hoisted (α, β, γ) per DoP: the DP calls batch_time O(n²m²)
        # times, and the attribute/method hops of predict_sums dominated
        # the fill.  The expression below is predict_sums' own, same
        # float-op order, so the table values are bit-identical.
        coeffs: dict[int, tuple[float, float, float]] = {}
        for sp, strategy in strategies.items():
            fitted = predictor.coefficients(strategy)
            coeffs[sp] = (fitted.alpha, fitted.beta, fitted.gamma)

        def batch_time(j: int, i: int, l: int, k: int) -> float:
            """T(R[j+1..i], E[l+1..k]); inf when infeasible."""
            abc = coeffs.get(k - l)
            if abc is None:
                return math.inf
            if need[i] - need[j] > slots[k] - slots[l]:
                return math.inf
            total = length_sum[i] - length_sum[j]
            total_sq = length_sq_sum[i] - length_sq_sum[j]
            return abc[0] + abc[1] * total + abc[2] * total_sq

    else:
        # Any other predictor (e.g. a roofline oracle) has no coefficients
        # to hoist; it prices each interval from the same sums.
        def batch_time(j: int, i: int, l: int, k: int) -> float:
            """T(R[j+1..i], E[l+1..k]); inf when infeasible."""
            strategy = strategies.get(k - l)
            if strategy is None or need[i] - need[j] > slots[k] - slots[l]:
                return math.inf
            return predictor.predict_sums(
                strategy,
                length_sum[i] - length_sum[j],
                length_sq_sum[i] - length_sq_sum[j],
            )

    # Small tables are solved exhaustively (exact and still fast); the
    # monotone pruning only engages where the O(n^2 m^2) cost would bite.
    use_pruning = optimized and n * n * m * m > 4_096
    tables = _fill_tables(n, m, batch_time, use_pruning)
    f = tables.f
    best_k = min(range(1, m + 1), key=lambda k: f[n][k])
    if math.isinf(f[n][best_k]):
        return BatchPlan(batches=[], objective=math.inf)

    batches: list[PlannedBatch] = []
    i, k = n, best_k
    while i > 0:
        if tables.skip[i][k]:
            k -= 1
            continue
        j, l = tables.split_req[i][k], tables.split_ins[i][k]
        batches.append(
            PlannedBatch(requests=list(reqs[j:i]), instance_ids=list(insts[l:k]))
        )
        i, k = j, l
    batches.reverse()
    return BatchPlan(batches=batches, objective=f[n][best_k])


def _fill_tables(n: int, m: int, batch_time, optimized: bool) -> _Tables:
    """Forward DP fill, optionally pruned by split-point monotonicity."""
    inf = math.inf
    f = [[inf] * (m + 1) for _ in range(n + 1)]
    split_req = [[0] * (m + 1) for _ in range(n + 1)]
    split_ins = [[0] * (m + 1) for _ in range(n + 1)]
    skip = [[False] * (m + 1) for _ in range(n + 1)]
    for k in range(m + 1):
        f[0][k] = 0.0

    for i in range(1, n + 1):
        for k in range(1, m + 1):
            best = inf
            best_j = best_l = 0
            best_skip = False
            if f[i][k - 1] < best:
                best = f[i][k - 1]
                best_skip = True
                # Inherit the split point so monotone bounds stay valid.
                best_j = split_req[i][k - 1]
                best_l = split_ins[i][k - 1]

            j_lo = 0
            l_lo = 0
            if optimized:
                # Eq. 6: split_req monotone in k, split_ins monotone in i.
                j_lo = split_req[i][k - 1]
                l_lo = split_ins[i - 1][k]
            for j in range(j_lo, i):
                row = f[j]
                for l in range(l_lo, k):
                    base = row[l]
                    if base == inf:
                        continue
                    t = batch_time(j, i, l, k)
                    if t == inf:
                        continue
                    candidate = base + (i - j) * t
                    if candidate < best:
                        best = candidate
                        best_j, best_l = j, l
                        best_skip = False
            f[i][k] = best
            split_req[i][k] = best_j
            split_ins[i][k] = best_l
            skip[i][k] = best_skip

    return _Tables(f=f, split_req=split_req, split_ins=split_ins, skip=skip)
