"""Cluster composition: nodes of GPUs plus the interconnect topology."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.gpu import A800_80GB, GPUSpec
from repro.cluster.topology import Topology


@dataclass(frozen=True)
class Node:
    """One physical server: a contiguous range of global GPU indices."""

    node_id: int
    gpu_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.gpu_ids:
            raise ValueError("a node must contain at least one GPU")


@dataclass(frozen=True)
class Cluster:
    """A homogeneous GPU cluster.

    The paper evaluates on one node (8 GPUs) and two nodes (16 GPUs); this
    model supports arbitrary node counts with uniform GPUs, which covers
    every experiment.
    """

    gpu: GPUSpec
    topology: Topology
    nodes: tuple[Node, ...] = field(default=())

    def __post_init__(self) -> None:
        total = sum(len(n.gpu_ids) for n in self.nodes)
        if total != self.topology.num_gpus:
            raise ValueError(
                f"nodes hold {total} GPUs but topology declares {self.topology.num_gpus}"
            )

    @classmethod
    def homogeneous(
        cls,
        num_gpus: int = 8,
        gpu: GPUSpec = A800_80GB,
        gpus_per_node: int = 8,
    ) -> Cluster:
        """Build a cluster of identical GPUs packed ``gpus_per_node`` per node."""
        if num_gpus <= 0:
            raise ValueError("num_gpus must be positive")
        gpus_per_node = min(gpus_per_node, num_gpus)
        topology = Topology(num_gpus=num_gpus, gpus_per_node=gpus_per_node)
        nodes = []
        for node_id in range(topology.num_nodes):
            lo = node_id * gpus_per_node
            hi = min(lo + gpus_per_node, num_gpus)
            nodes.append(Node(node_id=node_id, gpu_ids=tuple(range(lo, hi))))
        return cls(gpu=gpu, topology=topology, nodes=tuple(nodes))

    @property
    def num_gpus(self) -> int:
        return self.topology.num_gpus

    def instance_gpus(self, instance_id: int, tensor_parallel: int) -> list[int]:
        """Global GPU indices backing one elastic instance.

        Instances are carved out of the cluster in contiguous blocks of
        ``tensor_parallel`` GPUs, matching the paper's layout where each
        elastic instance spans a fixed TP group (§4).
        """
        if tensor_parallel <= 0:
            raise ValueError("tensor_parallel must be positive")
        num_instances = self.num_gpus // tensor_parallel
        if not 0 <= instance_id < num_instances:
            raise ValueError(
                f"instance_id {instance_id} out of range for TP={tensor_parallel} "
                f"on {self.num_gpus} GPUs"
            )
        lo = instance_id * tensor_parallel
        return list(range(lo, lo + tensor_parallel))

    def instance_bandwidth(self, src_instance: int, dst_instance: int, tensor_parallel: int) -> float:
        """Aggregate bandwidth between two instances' GPU sets.

        Each of the TP ranks in the source instance streams its KV shard to
        the matching rank of the destination, so transfers proceed in
        parallel across ``tensor_parallel`` links.
        """
        src = self.instance_gpus(src_instance, tensor_parallel)
        dst = self.instance_gpus(dst_instance, tensor_parallel)
        per_rank = min(
            self.topology.bandwidth(s, d) for s, d in zip(src, dst)
        )
        return per_rank * tensor_parallel
