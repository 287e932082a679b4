"""Unit tests for the cluster substrate: GPUs, topology, instance mapping."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.gpu import A800_80GB, GPUSpec
from repro.cluster.topology import LinkKind, Topology
from repro.costmodel.comm import CollectiveModel


class TestGPUSpec:
    def test_a800_matches_datasheet(self):
        assert A800_80GB.peak_flops == pytest.approx(312e12)
        assert A800_80GB.memory_bytes == 80 * 2**30

    def test_sustained_rates_discounted(self):
        assert A800_80GB.sustained_flops < A800_80GB.peak_flops
        assert A800_80GB.sustained_bandwidth < A800_80GB.memory_bandwidth

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            GPUSpec(
                name="bad", peak_flops=1.0, memory_bandwidth=1.0,
                memory_bytes=1, compute_efficiency=1.5,
            )


class TestTopology:
    def test_single_node_all_nvlink(self):
        topo = Topology(num_gpus=8, gpus_per_node=8)
        for i in range(8):
            for j in range(8):
                if i != j:
                    assert topo.link(i, j).kind == LinkKind.NVLINK

    def test_cross_node_is_infiniband(self):
        topo = Topology(num_gpus=16, gpus_per_node=8)
        assert topo.link(0, 8).kind == LinkKind.INFINIBAND
        assert topo.link(3, 12).kind == LinkKind.INFINIBAND
        assert topo.link(8, 15).kind == LinkKind.NVLINK

    def test_self_link_free(self):
        collectives = CollectiveModel(cluster=Cluster.homogeneous(8))
        assert collectives.migration_time(1e9, 2, 2, tensor_parallel=2) == 0.0

    def test_nvlink_faster_than_ib(self):
        # TP=2 on two 8-GPU nodes: instance 1 shares instance 0's node,
        # instance 4 sits on the other one.
        collectives = CollectiveModel(cluster=Cluster.homogeneous(16))
        intra = collectives.migration_time(1e9, 0, 1, tensor_parallel=2)
        inter = collectives.migration_time(1e9, 0, 4, tensor_parallel=2)
        assert 0.0 < intra < inter

    def test_spans_nodes(self):
        topo = Topology(num_gpus=16, gpus_per_node=8)
        assert not topo.spans_nodes([0, 7])
        assert topo.spans_nodes([7, 8])

    def test_gpu_range_checked(self):
        topo = Topology(num_gpus=8, gpus_per_node=8)
        with pytest.raises(ValueError):
            topo.link(0, 8)

    def test_node_of(self):
        topo = Topology(num_gpus=16, gpus_per_node=8)
        assert topo.node_of(0) == 0
        assert topo.node_of(7) == 0
        assert topo.node_of(8) == 1


class TestCluster:
    def test_homogeneous_single_node(self):
        cluster = Cluster.homogeneous(num_gpus=8)
        assert cluster.num_gpus == 8
        assert len(cluster.nodes) == 1

    def test_homogeneous_two_nodes(self):
        cluster = Cluster.homogeneous(num_gpus=16, gpus_per_node=8)
        assert len(cluster.nodes) == 2
        assert cluster.nodes[1].gpu_ids == tuple(range(8, 16))

    def test_instance_gpus_contiguous(self):
        cluster = Cluster.homogeneous(num_gpus=8)
        assert cluster.instance_gpus(0, tensor_parallel=2) == [0, 1]
        assert cluster.instance_gpus(3, tensor_parallel=2) == [6, 7]

    def test_instance_gpus_tp8(self):
        cluster = Cluster.homogeneous(num_gpus=8)
        assert cluster.instance_gpus(0, tensor_parallel=8) == list(range(8))

    def test_instance_id_out_of_range(self):
        cluster = Cluster.homogeneous(num_gpus=8)
        with pytest.raises(ValueError):
            cluster.instance_gpus(4, tensor_parallel=2)

    def test_instance_bandwidth_parallel_links(self):
        cluster = Cluster.homogeneous(num_gpus=8)
        bw = cluster.instance_bandwidth(0, 1, tensor_parallel=2)
        assert bw == pytest.approx(2 * cluster.topology.nvlink.bandwidth)

    def test_cross_node_instance_bandwidth_uses_ib(self):
        cluster = Cluster.homogeneous(num_gpus=16, gpus_per_node=8)
        bw = cluster.instance_bandwidth(0, 4, tensor_parallel=2)
        assert bw == pytest.approx(2 * cluster.topology.infiniband.bandwidth)
