"""Tests for the analytical model (Eq. 7) and its least-squares fitting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.core.sib import ScalingInformationBase
from repro.costmodel.analytical import AnalyticalModel, StrategyCoefficients
from repro.costmodel.fitting import default_profile_grid, fit_quadratic
from repro.costmodel.latency import RooflineCostModel
from repro.model.spec import LWM_7B_1M
from repro.parallel.strategy import ParallelismStrategy

SP4TP2 = ParallelismStrategy(tensor_parallel=2, sequence_parallel=4)
SP2TP4 = ParallelismStrategy(tensor_parallel=4, sequence_parallel=2)


class TestFitQuadratic:
    def test_recovers_exact_quadratic(self):
        truth = StrategyCoefficients(alpha=0.01, beta=2e-6, gamma=3e-12)
        samples = []
        for lens in [[100], [1_000], [10_000], [500, 500], [2_000, 8_000]]:
            total = sum(lens)
            total_sq = sum(n * n for n in lens)
            samples.append((lens, truth.predict(total, total_sq)))
        fitted = fit_quadratic(samples)
        assert fitted.alpha == pytest.approx(truth.alpha, rel=1e-6)
        assert fitted.beta == pytest.approx(truth.beta, rel=1e-6)
        assert fitted.gamma == pytest.approx(truth.gamma, rel=1e-6)

    def test_requires_three_samples(self):
        with pytest.raises(ValueError):
            fit_quadratic([([100], 0.1), ([200], 0.2)])

    def test_rejects_degenerate_samples(self):
        with pytest.raises(ValueError):
            fit_quadratic([([100], 0.1)] * 5)

    def test_clamps_negative_alpha(self):
        truth = StrategyCoefficients(alpha=0.0, beta=1e-6, gamma=0.0)
        samples = [
            ([n], truth.predict(n, n * n) - 1e-9) for n in (10, 100, 1000, 10000)
        ]
        fitted = fit_quadratic(samples)
        assert fitted.alpha >= 0.0
        assert fitted.gamma >= 0.0

    @given(
        alpha=st.floats(min_value=0.001, max_value=0.1),
        beta=st.floats(min_value=1e-8, max_value=1e-5),
        gamma=st.floats(min_value=1e-14, max_value=1e-10),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, alpha, beta, gamma):
        """Fitting noiseless quadratic data recovers the coefficients."""
        truth = StrategyCoefficients(alpha=alpha, beta=beta, gamma=gamma)
        grid = default_profile_grid(max_len=200_000)
        samples = [
            (lens, truth.predict(sum(lens), sum(n * n for n in lens)))
            for lens in grid
        ]
        fitted = fit_quadratic(samples)
        for lens in ([123], [4_567], [100, 90_000]):
            total, total_sq = sum(lens), sum(n * n for n in lens)
            assert fitted.predict(total, total_sq) == pytest.approx(
                truth.predict(total, total_sq), rel=1e-3, abs=1e-9
            )


class TestAnalyticalModel:
    def test_unknown_strategy_raises(self):
        model = AnalyticalModel()
        with pytest.raises(KeyError):
            model.predict(SP4TP2, [100])

    def test_set_and_predict(self):
        model = AnalyticalModel()
        model.set_coefficients(SP4TP2, StrategyCoefficients(0.01, 1e-6, 0.0))
        assert model.predict(SP4TP2, [1000]) == pytest.approx(0.011)

    def test_predict_sums_matches_predict(self):
        model = AnalyticalModel()
        model.set_coefficients(SP4TP2, StrategyCoefficients(0.01, 1e-6, 1e-12))
        lens = [100, 5000]
        by_list = model.predict(SP4TP2, lens)
        by_sums = model.predict_sums(SP4TP2, sum(lens), sum(n * n for n in lens))
        assert by_list == pytest.approx(by_sums)

    def test_prefill_time_interface(self):
        model = AnalyticalModel()
        model.set_coefficients(SP4TP2, StrategyCoefficients(0.01, 1e-6, 0.0))
        assert model.prefill_time([1000], instances=4, tensor_parallel=2) > 0

    def test_strategies_sorted(self):
        model = AnalyticalModel()
        model.set_coefficients(SP4TP2, StrategyCoefficients(0.01, 1e-6, 0.0))
        model.set_coefficients(SP2TP4, StrategyCoefficients(0.01, 1e-6, 0.0))
        assert model.strategies[0].sequence_parallel == 2


class TestProfileAndFit:
    def test_fits_roofline_within_ten_percent(self):
        """The Figure 15 claim: fitted model within 10% of ground truth."""
        cost = RooflineCostModel(cluster=Cluster.homogeneous(8), model=LWM_7B_1M)

        def measure(strategy, lens):
            return cost.prefill_time(
                lens, strategy.sequence_parallel, strategy.tensor_parallel
            )

        fitted = ScalingInformationBase().profile_strategies(cost, [SP4TP2, SP2TP4])
        deviations = []
        for strategy in (SP4TP2, SP2TP4):
            for lens in ([2_000], [30_000], [300_000], [8_000] * 4):
                real = measure(strategy, lens)
                pred = fitted.predict(strategy, lens)
                deviations.append(abs(pred - real) / real)
        assert max(deviations) < 0.10

    def test_profile_grid_is_diverse(self):
        grid = default_profile_grid()
        totals = {sum(w) for w in grid}
        assert len(totals) >= 5
