"""Least-squares fitting of the analytical model (§5.5).

The paper trains the (α, β, γ) coefficients of Eq. 7 "by the least square
method based on a few profiling results".  ``fit_quadratic`` solves the
normal equations via :func:`numpy.linalg.lstsq`; ``default_profile_grid``
is the workload grid the profiler sweeps.  The SIB
(``repro.core.sib.ScalingInformationBase.profile_strategies``) runs that
grid against the roofline model and fits every strategy from its stored
samples, which is the workflow behind Figure 15.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.costmodel.analytical import StrategyCoefficients

ProfileSample = tuple[Sequence[int], float]


def fit_quadratic(samples: Iterable[ProfileSample]) -> StrategyCoefficients:
    """Fit (α, β, γ) from (input_lens, measured_time) samples.

    Each sample contributes the row ``[1, Σ len, Σ len²]``.  At least three
    linearly independent samples are required; α and γ are clamped at zero
    (a fitted negative constant or negative quadratic term is never
    physical and would mislead the scheduler's extrapolation).
    """
    rows = []
    times = []
    for input_lens, measured in samples:
        total = float(sum(input_lens))
        total_sq = float(sum(n * n for n in input_lens))
        rows.append([1.0, total, total_sq])
        times.append(measured)
    if len(rows) < 3:
        raise ValueError(f"need at least 3 profiling samples, got {len(rows)}")
    design = np.asarray(rows)
    target = np.asarray(times)
    solution, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < 3:
        raise ValueError("profiling samples are degenerate; vary lengths and batch sizes")
    alpha, beta, gamma = (float(v) for v in solution)
    return StrategyCoefficients(alpha=max(alpha, 0.0), beta=beta, gamma=max(gamma, 0.0))


def default_profile_grid(max_len: int = 500_000) -> list[list[int]]:
    """The profiling workload grid: single requests plus small batches.

    Mirrors the paper's profiling tool, which sweeps batch sizes and
    lengths ("a few profiling results" per strategy).
    """
    singles: list[list[int]] = []
    length = 256
    while length <= max_len:
        singles.append([length])
        length *= 4
    batches = [
        [1024] * 4,
        [4096] * 4,
        [16384] * 2,
        [1024, 8192],
        [2048, 2048, 65536],
    ]
    grid = singles + [b for b in batches if sum(b) <= 2 * max_len]
    grid.append([max_len])
    return grid

