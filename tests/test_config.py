"""Tests for system configuration and derived capacities."""

import inspect
from dataclasses import fields

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.gpu import H100_80GB
from repro.config import SchedulerConfig, SystemConfig, default_config
from repro.experiments.systems import make_fleet, make_system
from repro.model.spec import LLAMA2_70B, LWM_7B_1M


class TestSystemConfig:
    def test_default_is_paper_testbed(self):
        config = default_config()
        assert config.cluster.num_gpus == 8
        assert config.tensor_parallel == 2
        assert config.max_sequence_parallel == 4
        assert config.num_instances == 4

    def test_kv_slots_match_memory_arithmetic(self):
        config = default_config()
        gpu_bytes = config.cluster.gpu.memory_bytes * config.tensor_parallel
        budget = (gpu_bytes - config.model.weight_bytes) * config.kv_memory_fraction
        expected = int(budget // config.model.kv_bytes_per_token)
        assert config.kv_slots_per_instance == expected

    def test_vllm_layout_has_more_total_slots(self):
        """TP=8 stores one weight replica; TP=2 x 4 instances store four.
        The replication cost is real KV capacity (§2.3 trade-off)."""
        loong = default_config(tensor_parallel=2)
        vllm = default_config(tensor_parallel=8)
        assert vllm.total_kv_slots > loong.total_kv_slots

    def test_rejects_oversubscribed_parallelism(self):
        cluster = Cluster.homogeneous(num_gpus=8)
        with pytest.raises(ValueError):
            SystemConfig(
                cluster=cluster, model=LWM_7B_1M,
                tensor_parallel=4, max_sequence_parallel=4,
            )

    def test_rejects_model_too_big_for_instance(self):
        cluster = Cluster.homogeneous(num_gpus=8)
        config = SystemConfig(
            cluster=cluster, model=LLAMA2_70B,
            tensor_parallel=1, max_sequence_parallel=8,
        )
        with pytest.raises(ValueError):
            _ = config.kv_slots_per_instance

    def test_with_parallelism_copy(self):
        config = default_config()
        other = config.with_parallelism(4, 2)
        assert other.tensor_parallel == 4
        assert other.num_instances == 2
        assert config.tensor_parallel == 2  # original untouched

    def test_multi_node_defaults(self):
        config = default_config(num_gpus=16, gpus_per_node=8)
        assert config.cluster.num_nodes == 2
        assert config.max_sequence_parallel == 8
        assert config.num_instances == 8

    def test_alternative_gpu(self):
        config = default_config(gpu=H100_80GB)
        assert config.cluster.gpu.name == "H100-80GB"

    def test_scheduler_config_frozen(self):
        config = SchedulerConfig()
        with pytest.raises(AttributeError):
            config.max_batch_size = 5  # type: ignore[misc]


class TestOptionSurface:
    """The served system's options, pinned by name: a new knob shows up
    here as an edit, where review can ask which two callers need it."""

    def test_scheduler_config_fields(self):
        assert [f.name for f in fields(SchedulerConfig)] == [
            "decode_compute_bound_bs", "prefill_tipping_tokens",
            "max_batch_size", "enable_scale_up", "enable_scale_down",
            "enable_multi_master", "enable_prefix_cache", "max_cached_tokens",
            "kv_tier_policy", "kv_host_tokens", "kv_ssd_tokens",
        ]

    def test_make_system_parameters(self):
        assert list(inspect.signature(make_system).parameters) == [
            "name", "requests", "num_gpus", "gpus_per_node", "prefix_cache",
            "qos", "admission", "kv_tiers", "kv_host_tokens", "kv_ssd_tokens",
        ]

    def test_make_fleet_parameters(self):
        assert list(inspect.signature(make_fleet).parameters) == [
            "system", "replicas", "router", "requests", "num_gpus",
            "prefix_cache", "autoscale", "steal", "migrate_kv", "faults",
            "control_interval", "qos", "admission", "autoscale_predictive",
            "sharded", "disagg", "kv_tiers", "kv_host_tokens",
            "kv_ssd_tokens", "standby", "router_kwargs",
        ]
