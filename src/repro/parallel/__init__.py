"""Parallelism abstractions: TPxSP strategies and ESP groups."""

from repro.parallel.groups import ParallelGroup
from repro.parallel.strategy import ParallelismStrategy

__all__ = [
    "ParallelGroup",
    "ParallelismStrategy",
]
