"""Interconnect topology: which links connect which GPUs, and how fast.

Two link classes matter for the paper's experiments:

* **NVLink** inside a node — 400 GB/s between any GPU pair on the A800
  testbed (§7.1).
* **InfiniBand** between nodes — four 200 Gbps NICs per node, i.e. 100 GB/s
  of aggregate unidirectional node-to-node bandwidth.

The topology answers "what bandwidth and latency does a transfer between
GPU i and GPU j see", which is all the communication cost model needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class LinkKind(enum.Enum):
    SELF = "self"
    NVLINK = "nvlink"
    INFINIBAND = "infiniband"


@dataclass(frozen=True)
class Interconnect:
    """Bandwidth/latency of one link class."""

    kind: LinkKind
    bandwidth: float  # bytes per second, unidirectional
    latency: float  # seconds per message (launch + wire latency)

    def transfer_time(self, num_bytes: float) -> float:
        """Seconds to move ``num_bytes`` across this link."""
        if num_bytes < 0:
            raise ValueError("bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.latency + num_bytes / self.bandwidth


# Defaults for the paper's testbed.
NVLINK_A800 = Interconnect(kind=LinkKind.NVLINK, bandwidth=400e9, latency=5e-6)
INFINIBAND_4X200 = Interconnect(kind=LinkKind.INFINIBAND, bandwidth=100e9, latency=15e-6)
LOCAL = Interconnect(kind=LinkKind.SELF, bandwidth=float("inf"), latency=0.0)


@dataclass(frozen=True)
class Topology:
    """Maps GPU pairs to interconnects.

    GPUs are numbered globally; ``gpus_per_node`` partitions them into
    nodes.  Within a node every pair shares the NVLink spec; across nodes
    every pair shares the InfiniBand spec.
    """

    num_gpus: int
    gpus_per_node: int
    nvlink: Interconnect = NVLINK_A800
    infiniband: Interconnect = INFINIBAND_4X200

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ValueError("num_gpus must be positive")
        if self.gpus_per_node <= 0:
            raise ValueError("gpus_per_node must be positive")
        if self.num_gpus % self.gpus_per_node not in (0,) and self.num_gpus > self.gpus_per_node:
            raise ValueError(
                f"num_gpus={self.num_gpus} must be a multiple of "
                f"gpus_per_node={self.gpus_per_node} for multi-node layouts"
            )

    @property
    def num_nodes(self) -> int:
        return max(1, -(-self.num_gpus // self.gpus_per_node))

    def node_of(self, gpu: int) -> int:
        """Node index holding a GPU."""
        self._check_gpu(gpu)
        return gpu // self.gpus_per_node

    def link(self, src: int, dst: int) -> Interconnect:
        """The interconnect a ``src -> dst`` transfer uses."""
        self._check_gpu(src)
        self._check_gpu(dst)
        if src == dst:
            return LOCAL
        if self.node_of(src) == self.node_of(dst):
            return self.nvlink
        return self.infiniband

    def transfer_time(self, src: int, dst: int, num_bytes: float) -> float:
        """Seconds for a point-to-point transfer of ``num_bytes``."""
        return self.link(src, dst).transfer_time(num_bytes)

    def bandwidth(self, src: int, dst: int) -> float:
        """Bytes/s between two GPUs (infinite for self-transfers)."""
        return self.link(src, dst).bandwidth

    def spans_nodes(self, gpus: list[int]) -> bool:
        """True when the GPU set crosses a node boundary."""
        nodes = {self.node_of(g) for g in gpus}
        return len(nodes) > 1

    def _check_gpu(self, gpu: int) -> None:
        if not 0 <= gpu < self.num_gpus:
            raise ValueError(f"gpu index {gpu} out of range [0, {self.num_gpus})")
