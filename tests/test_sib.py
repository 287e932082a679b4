"""Tests for the Scaling Information Base (SQLite profiling store)."""

from repro.cluster.cluster import Cluster
from repro.core.sib import ScalingInformationBase
from repro.costmodel.latency import RooflineCostModel
from repro.model.spec import LWM_7B_1M
from repro.parallel.strategy import ParallelismStrategy

SP2 = ParallelismStrategy(tensor_parallel=2, sequence_parallel=2)
SP4 = ParallelismStrategy(tensor_parallel=2, sequence_parallel=4)


class TestRecordAndQuery:
    def test_record_roundtrip(self):
        sib = ScalingInformationBase()
        sib.record(SP2, [100, 200], 0.05)
        samples = sib.samples(SP2)
        assert samples == [([100, 200], 0.05)]

    def test_samples_isolated_per_strategy(self):
        sib = ScalingInformationBase()
        sib.record(SP2, [100], 0.05)
        sib.record(SP4, [100], 0.03)
        assert len(sib.samples(SP2)) == 1
        assert len(sib.samples(SP4)) == 1

    def test_strategies_listed(self):
        sib = ScalingInformationBase()
        sib.record(SP4, [10], 0.01)
        sib.record(SP2, [10], 0.01)
        assert sib.strategies() == [SP2, SP4]


class TestFitting:
    def test_fit_requires_samples(self):
        sib = ScalingInformationBase()
        model = sib.fit()
        assert model.strategies == []

    def test_profile_strategies_fits_all(self):
        cost = RooflineCostModel(cluster=Cluster.homogeneous(8), model=LWM_7B_1M)
        sib = ScalingInformationBase()
        model = sib.profile_strategies(cost, [SP2, SP4], max_len=100_000)
        assert model.has_strategy(SP2)
        assert model.has_strategy(SP4)
        assert sib.samples(SP2) and sib.samples(SP4)

    def test_fitted_model_accurate_on_grid(self):
        """Figure 15's premise at the SIB level: <10% deviation."""
        cost = RooflineCostModel(cluster=Cluster.homogeneous(8), model=LWM_7B_1M)
        sib = ScalingInformationBase()
        model = sib.profile_strategies(cost, [SP4], max_len=200_000)
        for lens in ([1_234], [45_000], [150_000], [3_000] * 4):
            real = cost.prefill_time(lens, 4, 2)
            predicted = model.predict(SP4, lens)
            assert abs(predicted - real) / real < 0.10
