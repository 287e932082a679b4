"""Tests for parallelism strategies and groups."""

import pytest

from repro.parallel.groups import ParallelGroup
from repro.parallel.strategy import ParallelismStrategy, strategies_for_gpus


class TestStrategy:
    def test_label_matches_paper_naming(self):
        assert ParallelismStrategy(2, 4).label == "SP4TP2"

    def test_world_size(self):
        assert ParallelismStrategy(2, 4).world_size == 8

    def test_dop_is_sp(self):
        assert ParallelismStrategy(2, 3).dop == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ParallelismStrategy(0, 1)
        with pytest.raises(ValueError):
            ParallelismStrategy(1, 0)

    def test_strategies_for_gpus(self):
        menu = strategies_for_gpus(8, tensor_parallel=2)
        assert [s.sequence_parallel for s in menu] == [1, 2, 3, 4]

    def test_strategies_rejects_indivisible(self):
        with pytest.raises(ValueError):
            strategies_for_gpus(10, tensor_parallel=4)

    def test_ordering(self):
        a = ParallelismStrategy(2, 1)
        b = ParallelismStrategy(2, 4)
        assert a < b


class TestParallelGroup:
    def test_default_master_is_first(self):
        group = ParallelGroup(instance_ids=(3, 1), tensor_parallel=2)
        assert group.masters == (3,)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ParallelGroup(instance_ids=(1, 1), tensor_parallel=2)

    def test_rejects_foreign_master(self):
        with pytest.raises(ValueError):
            ParallelGroup(instance_ids=(0, 1), tensor_parallel=2, masters=(5,))

    def test_expanded_keeps_masters(self):
        group = ParallelGroup(instance_ids=(0,), tensor_parallel=2)
        bigger = group.expanded((1, 2))
        assert bigger.instance_ids == (0, 1, 2)
        assert bigger.masters == (0,)

    def test_expanded_rejects_overlap(self):
        group = ParallelGroup(instance_ids=(0, 1), tensor_parallel=2)
        with pytest.raises(ValueError):
            group.expanded((1,))

    def test_shrunk_reassigns_masters(self):
        group = ParallelGroup(instance_ids=(0, 1, 2), tensor_parallel=2, masters=(0,))
        smaller = group.shrunk((1, 2))
        assert smaller.masters == (1,)

    def test_shrunk_to_empty_rejected(self):
        group = ParallelGroup(instance_ids=(0,), tensor_parallel=2)
        with pytest.raises(ValueError):
            group.shrunk(())

    def test_strategy_derived(self):
        group = ParallelGroup(instance_ids=(0, 1, 2), tensor_parallel=2)
        assert group.strategy.label == "SP3TP2"

    def test_contains_and_len(self):
        group = ParallelGroup(instance_ids=(0, 2), tensor_parallel=2)
        assert 2 in group
        assert 1 not in group
        assert len(group) == 2

