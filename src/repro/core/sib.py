"""Scaling Information Base (SIB, §5.5, §6).

The paper stores profiling results in a SQLite database and trains the
analytical model's coefficients by least squares on demand.  This module
does the same: ``record`` inserts profiling samples, ``fit`` selects the
samples for each strategy and returns a fitted :class:`AnalyticalModel`.
``profile_strategies`` runs the default profiling grid against a
ground-truth cost model (the roofline model stands in for real kernels).
"""

from __future__ import annotations

import json
import sqlite3
from typing import Sequence

from repro.costmodel.analytical import AnalyticalModel
from repro.costmodel.fitting import default_profile_grid, fit_quadratic
from repro.costmodel.latency import RooflineCostModel
from repro.parallel.strategy import ParallelismStrategy


class ScalingInformationBase:
    """In-memory SQLite store of profiling samples, one row per measurement."""

    def __init__(self) -> None:
        self._conn = sqlite3.connect(":memory:")
        self._conn.execute(
            """
            CREATE TABLE profiles (
                id INTEGER PRIMARY KEY AUTOINCREMENT,
                tensor_parallel INTEGER NOT NULL,
                sequence_parallel INTEGER NOT NULL,
                input_lens TEXT NOT NULL,
                total_len INTEGER NOT NULL,
                total_len_sq INTEGER NOT NULL,
                iteration_time REAL NOT NULL
            )
            """
        )

    def record(
        self,
        strategy: ParallelismStrategy,
        input_lens: Sequence[int],
        iteration_time: float,
    ) -> None:
        """Insert one profiling sample."""
        lens = list(int(n) for n in input_lens)
        self._conn.execute(
            "INSERT INTO profiles (tensor_parallel, sequence_parallel, input_lens,"
            " total_len, total_len_sq, iteration_time) VALUES (?, ?, ?, ?, ?, ?)",
            (
                strategy.tensor_parallel,
                strategy.sequence_parallel,
                json.dumps(lens),
                sum(lens),
                sum(n * n for n in lens),
                iteration_time,
            ),
        )

    def samples(
        self, strategy: ParallelismStrategy
    ) -> list[tuple[list[int], float]]:
        """All samples recorded for one strategy."""
        rows = self._conn.execute(
            "SELECT input_lens, iteration_time FROM profiles"
            " WHERE tensor_parallel = ? AND sequence_parallel = ?",
            (strategy.tensor_parallel, strategy.sequence_parallel),
        ).fetchall()
        return [(json.loads(lens), time) for lens, time in rows]

    def strategies(self) -> list[ParallelismStrategy]:
        rows = self._conn.execute(
            "SELECT DISTINCT tensor_parallel, sequence_parallel FROM profiles"
        ).fetchall()
        return [
            ParallelismStrategy(tensor_parallel=tp, sequence_parallel=sp)
            for tp, sp in sorted(rows)
        ]

    def fit(self) -> AnalyticalModel:
        """Fit the α/β/γ model for every strategy with recorded samples."""
        model = AnalyticalModel()
        for strategy in self.strategies():
            model.set_coefficients(strategy, fit_quadratic(self.samples(strategy)))
        return model

    def profile_strategies(
        self,
        cost_model: RooflineCostModel,
        strategies: Sequence[ParallelismStrategy],
        max_len: int | None = None,
    ) -> AnalyticalModel:
        """Run the default profiling grid against ``cost_model`` and fit.

        Mirrors the paper's offline profiling tool: sweep the grid once per
        strategy, store each measurement, then train from the database.
        """
        limit = max_len if max_len is not None else cost_model.model.context_window // 2
        grid = default_profile_grid(max_len=min(limit, 500_000))
        for strategy in strategies:
            for workload in grid:
                measured = cost_model.prefill_time(
                    workload,
                    instances=strategy.sequence_parallel,
                    tensor_parallel=strategy.tensor_parallel,
                )
                self.record(strategy, workload, measured)
        return self.fit()
