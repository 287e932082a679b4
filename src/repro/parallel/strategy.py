"""Parallelism strategy descriptors.

A strategy is a (tensor_parallel, sequence_parallel) pair: the model is
sharded TP-ways inside each elastic instance, and a parallel group of SP
instances splits the sequence dimension.  The paper's launch configuration
fixes TP (TP=2 for LoongServe) and lets SP vary per iteration — that per-
iteration SP is the *degree of parallelism* (DoP).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class ParallelismStrategy:
    """One TPxSP layout, e.g. SP4TP2 = 4 instances of 2 GPUs each."""

    tensor_parallel: int
    sequence_parallel: int

    def __post_init__(self) -> None:
        if self.tensor_parallel < 1:
            raise ValueError(f"tensor_parallel must be >= 1, got {self.tensor_parallel}")
        if self.sequence_parallel < 1:
            raise ValueError(f"sequence_parallel must be >= 1, got {self.sequence_parallel}")

    @property
    def dop(self) -> int:
        """Degree of parallelism = number of elastic instances."""
        return self.sequence_parallel

    @property
    def label(self) -> str:
        """The paper's naming, e.g. ``SP4TP2``."""
        return f"SP{self.sequence_parallel}TP{self.tensor_parallel}"

    def __str__(self) -> str:
        return self.label


def strategies_for_gpus(num_gpus: int, tensor_parallel: int) -> list[ParallelismStrategy]:
    """All SP degrees available at a fixed launch-time TP.

    With TP=2 on 8 GPUs this yields SP1TP2 .. SP4TP2 — the DoP menu the
    LoongServe global manager chooses from each iteration.
    """
    if num_gpus % tensor_parallel != 0:
        raise ValueError(f"{num_gpus} GPUs not divisible by TP={tensor_parallel}")
    max_sp = num_gpus // tensor_parallel
    return [
        ParallelismStrategy(tensor_parallel=tensor_parallel, sequence_parallel=sp)
        for sp in range(1, max_sp + 1)
    ]
