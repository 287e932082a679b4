"""Tests for the batching DP (§5.3): feasibility, optimality, and the
quadrangle-inequality pruning's plan equivalence."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching_dp import plan_batches
from repro.costmodel.analytical import AnalyticalModel, StrategyCoefficients
from repro.parallel.strategy import ParallelismStrategy
from tests.conftest import make_request


def make_predictor(max_sp: int = 4) -> AnalyticalModel:
    """A synthetic model where more instances genuinely help: per-strategy
    coefficients shrink with SP but carry a growing constant."""
    model = AnalyticalModel()
    for sp in range(1, max_sp + 1):
        model.set_coefficients(
            ParallelismStrategy(tensor_parallel=2, sequence_parallel=sp),
            StrategyCoefficients(
                alpha=0.004 + 0.001 * sp, beta=2e-6 / sp, gamma=5e-12 / sp
            ),
        )
    return model


def brute_force_objective(requests, instances, free_slots, predictor) -> float:
    """Exhaustive search over contiguous splits of both sequences."""
    reqs = sorted(requests, key=lambda r: -r.current_len)
    insts = sorted(instances, key=lambda i: free_slots.get(i, 0))
    n, m = len(reqs), len(insts)

    def splits(total, parts):
        for cuts in itertools.combinations(range(1, total), parts - 1):
            yield [0, *cuts, total]

    best = math.inf
    for num_batches in range(1, min(n, m) + 1):
        for req_cut in splits(n, num_batches):
            for ins_cut in splits(m, num_batches):
                cost = 0.0
                ok = True
                for b in range(num_batches):
                    batch_reqs = reqs[req_cut[b]:req_cut[b + 1]]
                    batch_inst = insts[ins_cut[b]:ins_cut[b + 1]]
                    need = sum(r.current_len + 1 for r in batch_reqs)
                    slots = sum(free_slots.get(i, 0) for i in batch_inst)
                    if need > slots:
                        ok = False
                        break
                    strategy = ParallelismStrategy(2, len(batch_inst))
                    if not predictor.has_strategy(strategy):
                        ok = False
                        break
                    t = predictor.predict(strategy, [r.current_len for r in batch_reqs])
                    cost += len(batch_reqs) * t
                if ok:
                    best = min(best, cost)
    return best


class TestPlanBatchesBasics:
    def test_empty_requests(self):
        plan = plan_batches([], [0, 1], {0: 10, 1: 10}, make_predictor(), 2)
        assert plan.is_empty
        assert plan.objective == 0.0

    def test_no_instances_infeasible(self):
        plan = plan_batches([make_request()], [], {}, make_predictor(), 2)
        assert plan.objective == math.inf

    def test_single_request_gets_full_dop_when_beneficial(self):
        predictor = make_predictor()
        request = make_request(input_len=100_000)
        plan = plan_batches([request], [0, 1, 2, 3], {i: 300_000 for i in range(4)},
                            predictor, 2)
        assert len(plan.batches) == 1
        assert len(plan.batches[0].instance_ids) == 4

    def test_tiny_request_avoids_high_dop_overhead(self):
        predictor = make_predictor()
        request = make_request(input_len=10)
        plan = plan_batches([request], [0, 1, 2, 3], {i: 1_000 for i in range(4)},
                            predictor, 2)
        assert len(plan.batches[0].instance_ids) == 1  # alpha grows with SP

    def test_memory_constraint_respected(self):
        predictor = make_predictor()
        requests = [make_request(input_len=90) for _ in range(4)]
        plan = plan_batches(requests, [0, 1], {0: 200, 1: 200}, predictor, 2)
        for batch in plan.batches:
            need = sum(r.current_len + 1 for r in batch.requests)
            slots = sum(200 for _ in batch.instance_ids)
            assert need <= slots

    def test_infeasible_when_memory_short(self):
        predictor = make_predictor()
        requests = [make_request(input_len=1_000)]
        plan = plan_batches(requests, [0], {0: 100}, predictor, 2)
        assert plan.is_empty and plan.objective == math.inf

    def test_all_requests_placed_exactly_once(self):
        predictor = make_predictor()
        requests = [make_request(input_len=n) for n in (5_000, 200, 90_000, 40)]
        plan = plan_batches(requests, [0, 1, 2, 3], {i: 200_000 for i in range(4)},
                            predictor, 2)
        placed = [r.request_id for b in plan.batches for r in b.requests]
        assert sorted(placed) == sorted(r.request_id for r in requests)

    def test_instances_disjoint_across_batches(self):
        predictor = make_predictor()
        requests = [make_request(input_len=n) for n in (50_000, 60, 70, 80)]
        plan = plan_batches(requests, [0, 1, 2, 3], {i: 200_000 for i in range(4)},
                            predictor, 2)
        used = [i for b in plan.batches for i in b.instance_ids]
        assert len(used) == len(set(used))


class TestOptimality:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        predictor = make_predictor()
        requests = [
            make_request(input_len=int(rng.integers(50, 50_000)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        instances = list(range(int(rng.integers(1, 5))))
        free = {i: int(rng.integers(30_000, 120_000)) for i in instances}
        plan = plan_batches(requests, instances, free, predictor, 2, optimized=False)
        expected = brute_force_objective(requests, instances, free, predictor)
        if math.isinf(expected):
            assert plan.objective == math.inf or plan.is_empty
        else:
            assert plan.objective == pytest.approx(expected, rel=1e-9)

    @given(
        lens=st.lists(st.integers(min_value=10, max_value=80_000), min_size=1, max_size=7),
        slots=st.lists(st.integers(min_value=10_000, max_value=150_000), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_pruned_close_to_naive_objective(self, lens, slots):
        """The quadrangle-inequality pruning can miss the optimum only
        when the fitted α(SP) structure violates the QI premise, and then
        by a tightly bounded margin (never below the true optimum)."""
        predictor = make_predictor()
        requests = [make_request(input_len=n) for n in lens]
        instances = list(range(len(slots)))
        free = {i: s for i, s in enumerate(slots)}
        naive = plan_batches(requests, instances, free, predictor, 2, optimized=False)
        pruned = plan_batches(requests, instances, free, predictor, 2, optimized=True)
        if math.isinf(naive.objective):
            assert math.isinf(pruned.objective)
        else:
            assert pruned.objective >= naive.objective * (1 - 1e-9)
            assert pruned.objective <= naive.objective * 1.05

    def test_similar_lengths_batch_contiguously(self):
        """The paper's insight — similar-length requests batch together —
        is enforced structurally: every batch is a contiguous interval of
        the length-sorted request order."""
        predictor = make_predictor()
        requests = [make_request(input_len=n) for n in (40_000, 39_000, 100, 90, 85)]
        plan = plan_batches(requests, [0, 1, 2, 3], {i: 200_000 for i in range(4)},
                            predictor, 2)
        order = sorted(requests, key=lambda r: -r.current_len)
        positions = {r.request_id: idx for idx, r in enumerate(order)}
        for batch in plan.batches:
            indices = sorted(positions[r.request_id] for r in batch.requests)
            assert indices == list(range(indices[0], indices[0] + len(indices)))
