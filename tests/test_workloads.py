"""Tests for workload generation: datasets, arrivals, traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.arrival import BurstyArrivals, PoissonArrivals, UniformArrivals
from repro.workloads.datasets import LEVAL, LVEVAL, MIXED, SHAREGPT, ZipfMixed
from repro.workloads.trace_gen import clone_requests, make_trace


class TestDatasets:
    @pytest.mark.parametrize(
        "dataset,lo,hi",
        [(SHAREGPT, 4, 2_300), (LEVAL, 2_700, 210_500), (LVEVAL, 15_100, 497_300)],
    )
    def test_published_input_ranges(self, dataset, lo, hi):
        """Sampled input lengths stay inside the paper's §7.1 ranges."""
        rng = np.random.default_rng(0)
        for _ in range(300):
            input_len, output_len = dataset.sample(rng)
            assert lo <= input_len <= hi
            assert output_len >= 1

    def test_dataset_ordering_by_scale(self):
        rng = np.random.default_rng(1)
        means = {}
        for dataset in (SHAREGPT, LEVAL, LVEVAL):
            means[dataset.name] = np.mean(
                [dataset.sample(rng)[0] for _ in range(300)]
            )
        assert means["ShareGPT"] < means["L-Eval"] < means["LV-Eval"]

    def test_mixed_spans_components(self):
        rng = np.random.default_rng(2)
        lens = [MIXED.sample(rng)[0] for _ in range(600)]
        assert min(lens) < 2_300
        assert max(lens) > 15_100

    def test_sharegpt_output_heavier_than_lveval(self):
        """ShareGPT is chatty (long outputs); LV-Eval answers are short."""
        rng = np.random.default_rng(3)
        share = np.mean([SHAREGPT.sample(rng)[1] for _ in range(300)])
        lv = np.mean([LVEVAL.sample(rng)[1] for _ in range(300)])
        assert share > lv


class TestZipfMixed:
    def test_higher_zipf_skews_shorter(self):
        rng_a = np.random.default_rng(4)
        rng_b = np.random.default_rng(4)
        gentle = ZipfMixed(name="z1", zipf=1.0)
        steep = ZipfMixed(name="z14", zipf=1.4)
        mean_gentle = np.mean([gentle.sample(rng_a)[0] for _ in range(300)])
        mean_steep = np.mean([steep.sample(rng_b)[0] for _ in range(300)])
        assert mean_steep < mean_gentle

    def test_caps_input_length(self):
        dataset = ZipfMixed(name="z", zipf=1.0, max_input_len=200_000)
        rng = np.random.default_rng(5)
        assert all(dataset.sample(rng)[0] <= 200_000 for _ in range(200))


class TestArrivals:
    def test_poisson_rate_approximate(self):
        rng = np.random.default_rng(6)
        times = PoissonArrivals(rate=10.0).times(5_000, rng)
        measured = len(times) / times[-1]
        assert measured == pytest.approx(10.0, rel=0.1)

    def test_poisson_monotone(self):
        rng = np.random.default_rng(7)
        times = PoissonArrivals(rate=2.0).times(100, rng)
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_uniform_gaps(self):
        times = UniformArrivals(rate=4.0).times(3)
        assert times == pytest.approx([0.25, 0.5, 0.75])

    def test_rejects_nonpositive_rate(self):
        for rate in (0.0, math.nan, math.inf):
            for arrivals in (PoissonArrivals, BurstyArrivals, UniformArrivals):
                with pytest.raises(ValueError):
                    arrivals(rate=rate)

    @given(rate=st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=20, deadline=None)
    def test_times_nonnegative_property(self, rate):
        rng = np.random.default_rng(8)
        times = PoissonArrivals(rate=rate).times(50, rng)
        assert all(t > 0 for t in times)


class TestTraceGeneration:
    def test_reproducible_with_seed(self):
        a = make_trace(SHAREGPT, rate=5.0, num_requests=20, seed=9)
        b = make_trace(SHAREGPT, rate=5.0, num_requests=20, seed=9)
        assert [(r.input_len, r.output_len, r.arrival_time) for r in a] == [
            (r.input_len, r.output_len, r.arrival_time) for r in b
        ]

    def test_different_seeds_differ(self):
        a = make_trace(SHAREGPT, rate=5.0, num_requests=20, seed=10)
        b = make_trace(SHAREGPT, rate=5.0, num_requests=20, seed=11)
        assert [r.input_len for r in a] != [r.input_len for r in b]

    def test_max_input_cap(self):
        trace = make_trace(LVEVAL, rate=1.0, num_requests=50, seed=12, max_input_len=20_000)
        assert all(r.input_len <= 20_000 for r in trace)

    def test_clone_resets_runtime_state(self):
        trace = make_trace(SHAREGPT, rate=5.0, num_requests=5, seed=13)
        trace[0].generated = 7
        trace[0].prefill_end = 1.0
        clones = clone_requests(trace)
        assert clones[0].generated == 0
        assert clones[0].prefill_end is None
        assert clones[0].request_id == trace[0].request_id
        assert clones[0].input_len == trace[0].input_len
