"""Tests for system configuration and derived capacities."""

import inspect
from dataclasses import fields

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.gpu import H100_80GB
from repro.config import (
    KV_MEMORY_FRACTION,
    SchedulerConfig,
    SystemConfig,
    default_config,
)
from repro.costmodel.latency import RooflineCostModel
from repro.experiments.systems import make_fleet, make_system
from repro.fleet.router import LengthAwareRouter
from repro.metrics.slo import goodput_is_censored, max_rate_under_slo
from repro.model.spec import LLAMA2_70B, LWM_7B_1M
from repro.obs.health import SLOHealthMonitor
from repro.qos import QoSPolicy


class TestSystemConfig:
    def test_default_is_paper_testbed(self):
        config = default_config()
        assert config.cluster.num_gpus == 8
        assert config.tensor_parallel == 2
        assert config.num_instances == 4

    def test_kv_slots_match_memory_arithmetic(self):
        config = default_config()
        gpu_bytes = config.cluster.gpu.memory_bytes * config.tensor_parallel
        budget = (gpu_bytes - config.model.weight_bytes) * KV_MEMORY_FRACTION
        expected = int(budget // config.model.kv_bytes_per_token)
        assert config.kv_slots_per_instance == expected

    def test_vllm_layout_has_more_total_slots(self):
        """TP=8 stores one weight replica; TP=2 x 4 instances store four.
        The replication cost is real KV capacity (§2.3 trade-off)."""
        loong = default_config(tensor_parallel=2)
        vllm = default_config(tensor_parallel=8)
        assert (
            vllm.kv_slots_per_instance * vllm.num_instances
            > loong.kv_slots_per_instance * loong.num_instances
        )

    def test_rejects_oversubscribed_parallelism(self):
        """An instance spans 1 to ``num_gpus`` GPUs; outside that range
        the system would have no instance to serve on."""
        cluster = Cluster.homogeneous(num_gpus=8)
        with pytest.raises(ValueError, match="TP=16 needs 16 GPUs"):
            SystemConfig(cluster=cluster, model=LWM_7B_1M, tensor_parallel=16)
        with pytest.raises(ValueError, match="TP=0 gives an instance no GPU"):
            SystemConfig(cluster=cluster, model=LWM_7B_1M, tensor_parallel=0)
        whole = SystemConfig(cluster=cluster, model=LWM_7B_1M, tensor_parallel=8)
        assert whole.num_instances == 1

    def test_rejects_model_too_big_for_instance(self):
        cluster = Cluster.homogeneous(num_gpus=8)
        config = SystemConfig(cluster=cluster, model=LLAMA2_70B, tensor_parallel=1)
        with pytest.raises(ValueError):
            _ = config.kv_slots_per_instance

    def test_multi_node_defaults(self):
        config = default_config(num_gpus=16, gpus_per_node=8)
        assert len(config.cluster.nodes) == 2
        assert config.num_instances == 8

    def test_alternative_gpu(self):
        config = default_config(gpu=H100_80GB)
        assert config.cluster.gpu.name == "H100-80GB"

    def test_scheduler_config_frozen(self):
        config = SchedulerConfig()
        with pytest.raises(AttributeError):
            config.enable_scale_up = False  # type: ignore[misc]


class TestOptionSurface:
    """The served system's options, pinned by name: a new knob shows up
    here as an edit, where review can ask which two callers need it."""

    def test_scheduler_config_fields(self):
        assert [f.name for f in fields(SchedulerConfig)] == [
            "enable_scale_up", "enable_multi_master", "enable_prefix_cache",
            "kv_tier_policy", "kv_host_tokens", "kv_ssd_tokens",
        ]

    def test_system_config_fields(self):
        assert [f.name for f in fields(SystemConfig)] == [
            "cluster", "model", "tensor_parallel", "scheduler",
        ]

    def test_cost_model_fields(self):
        """The roofline's overheads and overlaps are module constants."""
        assert [f.name for f in fields(RooflineCostModel)] == ["cluster", "model"]

    def test_threshold_parameters(self):
        """Profiled and reporting thresholds are module constants: the
        health monitor, QoS policy, length-aware router and goodput
        functions take none as a parameter."""
        assert {
            fn.__name__: list(inspect.signature(fn).parameters)
            for fn in (
                SLOHealthMonitor, QoSPolicy, LengthAwareRouter,
                max_rate_under_slo, goodput_is_censored,
            )
        } == {
            "SLOHealthMonitor": [],
            "QoSPolicy": ["ideal", "admission"],
            "LengthAwareRouter": ["long_threshold"],
            "max_rate_under_slo": ["rates", "attainments"],
            "goodput_is_censored": ["rates", "attainments"],
        }

    def test_make_system_parameters(self):
        assert list(inspect.signature(make_system).parameters) == [
            "name", "requests", "num_gpus", "prefix_cache",
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

    def test_actuator_parameters(self):
        """The control-plane actuators take no tuning knobs: their
        thresholds are module constants."""
        from repro.fleet import (
            KVMigrator,
            PredictiveAutoscaler,
            QueueDepthAutoscaler,
            WorkStealer,
        )
        from repro.qos import AdmissionController

        assert {
            cls.__name__: list(inspect.signature(cls).parameters)
            for cls in (
                WorkStealer, QueueDepthAutoscaler, PredictiveAutoscaler,
                KVMigrator, AdmissionController,
            )
        } == {
            "WorkStealer": [],
            "QueueDepthAutoscaler": [],
            "PredictiveAutoscaler": ["token_rate"],
            "KVMigrator": ["collectives", "model", "tensor_parallel"],
            "AdmissionController": [],
        }
