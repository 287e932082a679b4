"""GPU hardware specifications.

Peak numbers follow vendor datasheets; ``compute_efficiency`` and
``memory_efficiency`` discount them to sustained rates, the standard
practice in roofline-style serving simulators (e.g. the DistServe simulator
the paper's baseline uses).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GPUSpec:
    """Static description of one GPU.

    ``peak_flops`` is dense fp16/bf16 tensor-core throughput in FLOP/s.
    ``memory_bandwidth`` is HBM bandwidth in bytes/s.
    ``memory_bytes`` is usable device memory in bytes.
    """

    name: str
    peak_flops: float
    memory_bandwidth: float
    memory_bytes: int
    compute_efficiency: float = 0.55
    memory_efficiency: float = 0.80

    def __post_init__(self) -> None:
        if self.peak_flops <= 0 or self.memory_bandwidth <= 0 or self.memory_bytes <= 0:
            raise ValueError(f"GPU spec {self.name} has non-positive capability")
        if not 0 < self.compute_efficiency <= 1 or not 0 < self.memory_efficiency <= 1:
            raise ValueError(f"GPU spec {self.name} efficiency must be in (0, 1]")

    @property
    def sustained_flops(self) -> float:
        """Achievable FLOP/s for large GEMMs."""
        return self.peak_flops * self.compute_efficiency

    @property
    def sustained_bandwidth(self) -> float:
        """Achievable HBM bytes/s for streaming access."""
        return self.memory_bandwidth * self.memory_efficiency


# The paper's testbed GPU (§7.1): A800 is the export variant of the A100 with
# NVLink capped at 400 GB/s; compute and HBM match the A100 80GB SXM.
A800_80GB = GPUSpec(
    name="A800-80GB",
    peak_flops=312e12,
    memory_bandwidth=2.039e12,
    memory_bytes=80 * 2**30,
)

A100_80GB = GPUSpec(
    name="A100-80GB",
    peak_flops=312e12,
    memory_bandwidth=2.039e12,
    memory_bytes=80 * 2**30,
)

H100_80GB = GPUSpec(
    name="H100-80GB",
    peak_flops=989e12,
    memory_bandwidth=3.35e12,
    memory_bytes=80 * 2**30,
)
