"""Factories building every evaluated system in its §7.1 configuration.

All systems share the same cluster and roofline cost model; only the
parallelism layout and scheduling policy differ, matching how the paper
configures its baselines on the 8-GPU testbed.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.baselines.base import EnginePolicy, EngineServer
from repro.baselines.distserve import DistServeServer
from repro.baselines.no_scaleup import build_loongserve, build_no_scale_up_loongserve
from repro.baselines.replicated import ReplicatedServer
from repro.baselines.splitfuse import SplitFusePolicy, SplitFuseServer, ideal_chunk_size
from repro.baselines.static_sp import StaticSPServer
from repro.baselines.vllm import PrefillPriorityPolicy, VLLMServer
from repro.config import SchedulerConfig, SystemConfig, default_config
from repro.types import Request

# DeepSpeed-MII crashes ("illegal memory access") past 32K-token prompts
# (§7.1), so the paper only evaluates it on ShareGPT.
DEEPSPEED_MII_INPUT_LIMIT = 32_768


def build_vllm(num_gpus: int = 8) -> VLLMServer:
    """vLLM with TP spanning the whole node (TP=8)."""
    return VLLMServer(default_config(num_gpus=num_gpus, tensor_parallel=num_gpus))


def build_splitfuse(
    requests: Sequence[Request] | None = None,
    chunk_size: int | None = None,
    num_gpus: int = 8,
    deepspeed_mii: bool = False,
) -> SplitFuseServer:
    """Chunked prefill at TP=8, with SARATHI's oracle chunk size.

    The paper grants LightLLM-SplitFuse the per-dataset ideal "P:D ratio"
    chunk size; pass the workload's requests to compute it, or an explicit
    ``chunk_size``.
    """
    if chunk_size is None:
        if requests is None:
            chunk_size = 2048
        else:
            chunk_size = ideal_chunk_size(requests)
    config = default_config(num_gpus=num_gpus, tensor_parallel=num_gpus)
    if deepspeed_mii:
        return SplitFuseServer(
            config,
            chunk_size=chunk_size,
            crash_input_len=DEEPSPEED_MII_INPUT_LIMIT,
            name="DeepSpeed MII (Dynamic SplitFuse)",
        )
    return SplitFuseServer(config, chunk_size=chunk_size)


def build_distserve(num_gpus: int = 8) -> DistServeServer:
    """Prefill-decode disaggregation, DoP 4 + 4 on eight GPUs."""
    return DistServeServer(
        default_config(num_gpus=num_gpus, tensor_parallel=num_gpus // 2)
    )


def build_static_sp(num_gpus: int = 8) -> StaticSPServer:
    """LoongServe w/o ESP: fixed TP=2 x SP=4 hybrid."""
    return StaticSPServer(default_config(num_gpus=num_gpus, tensor_parallel=2))


def _replicated(
    config: SystemConfig,
    policy: Callable[[], EnginePolicy],
    engine_name: str,
    name: str,
) -> ReplicatedServer:
    """One independent single-instance engine per elastic instance of
    ``config``, each with its own ``policy()``, behind one server."""
    engines = [
        EngineServer(
            config=config,
            policy=policy(),
            instance_ids=[i],
            kv_slots=config.kv_slots_per_instance,
            name=engine_name,
        )
        for i in range(config.num_instances)
    ]
    return ReplicatedServer(engines, name=name)


def build_replicated_tp2(num_gpus: int = 8) -> ReplicatedServer:
    """LoongServe w/o ESP (TP=2) x N: independent replicas, no KV sharing."""
    config = default_config(num_gpus=num_gpus, tensor_parallel=2)
    return _replicated(
        config, PrefillPriorityPolicy, "TP=2 replica",
        f"LoongServe w/o ESP (TP=2) x {config.num_instances}",
    )


def build_vllm_per_node(num_gpus: int = 16, gpus_per_node: int = 8) -> ReplicatedServer:
    """Multi-node vLLM: one TP=8 replica per server (Figure 11)."""
    config = default_config(
        num_gpus=num_gpus, tensor_parallel=gpus_per_node, gpus_per_node=gpus_per_node
    )
    return _replicated(config, PrefillPriorityPolicy, "vLLM", "vLLM")


def build_splitfuse_per_node(
    requests: Sequence[Request] | None = None,
    num_gpus: int = 16,
    gpus_per_node: int = 8,
) -> ReplicatedServer:
    """Multi-node LightLLM-SplitFuse: one replica per server (Figure 11)."""
    chunk = ideal_chunk_size(requests) if requests else 2048
    config = default_config(
        num_gpus=num_gpus, tensor_parallel=gpus_per_node, gpus_per_node=gpus_per_node
    )
    return _replicated(
        config, lambda: SplitFusePolicy(chunk_size=chunk),
        "LightLLM w/ SplitFuse", "LightLLM w/ SplitFuse",
    )


# Systems whose servers expose the crash()/recover surface failure
# injection needs (LoongServe shapes; see LoongServeServer.crash).
CRASHABLE_SYSTEMS = ("loongserve", "loongserve-no-scaleup")

# QoS scheduling hooks live in the LoongServe global-manager loop, so
# the same shapes gate it.
QOS_SYSTEMS = CRASHABLE_SYSTEMS


def _replica_token_rate(server) -> float:
    """Prefill tokens/s one replica sustains, from its own cost model."""
    from repro.qos import prefill_token_rate

    config, cost = server.config, server.cost_model
    if config is None or cost is None:
        raise ValueError(
            "predictive autoscaling needs replicas that expose a cost model "
            "(LoongServe shapes)"
        )
    return prefill_token_rate(
        cost, list(range(config.num_instances)), config.tensor_parallel
    )


def _slo_router_kwargs(server) -> dict:
    """Cost-model wiring for the ``slo`` router (empty when the replica
    shape exposes none — the router then ranks by token work alone)."""
    from repro.metrics.slo import IdealLatencyModel

    config, cost = server.config, server.cost_model
    if config is None or cost is None:
        return {}
    ideal = IdealLatencyModel(
        cost_model=cost,
        tensor_parallel=config.tensor_parallel,
        max_instances=config.num_instances,
    )
    return {"ideal": ideal, "token_rate": _replica_token_rate(server)}


def make_fleet(
    system: str = "loongserve",
    replicas: int = 4,
    router: str = "round-robin",
    requests: Sequence[Request] | None = None,
    num_gpus: int = 8,
    prefix_cache: bool = False,
    autoscale: bool = False,
    steal: bool = False,
    migrate_kv: bool = False,
    faults=None,
    control_interval: float | None = None,
    qos: bool = False,
    admission: bool = False,
    autoscale_predictive: bool = False,
    sharded: bool = True,
    disagg: int = 0,
    kv_tiers: str | None = None,
    kv_host_tokens: int = 200_000,
    kv_ssd_tokens: int = 1_000_000,
    standby: int = 0,
    **router_kwargs,
):
    """Build a fleet of identical replicas under a cluster policy.

    ``system`` is any :func:`make_system` name; ``num_gpus`` is the GPU
    count *per replica* (the fleet spans ``replicas * num_gpus`` GPUs).
    ``prefix_cache`` arms every replica's prefix-KV cache (LoongServe
    replicas only) — required for ``router="affinity"`` to have any
    state to match against.

    ``autoscale`` / ``steal`` / ``migrate_kv`` arm the control-loop
    actuators (replica park/unpark on load hysteresis, queued-request
    rebalancing, and cross-replica session-KV migration); with all
    three off the fleet is the bit-identical route-once front-end of
    PR 1–2.  ``control_interval`` overrides the control-tick period.

    ``faults`` takes a :class:`~repro.fleet.faults.FaultPlan`: replicas
    crash at the scheduled instants (queued/running requests orphaned,
    KV lost), orphans fail over through the placement router, and the
    replica recovers after its downtime plus a modelled warm-up.  An
    empty plan is the off switch — no injector is armed at all, so the
    run stays bit-identical to a fault-free fleet.  Replica lifecycle
    pricing (weight-loading latency on unpark and crash recovery,
    cool-down capacity on park) is armed exactly when something can
    change replica lifecycle state (``autoscale``,
    ``autoscale_predictive``, or ``faults``).

    QoS (``repro.qos``): ``qos`` arms every replica's scheduler with the
    SLO-class policy (deadline-aware dispatch + batch-tier preemption),
    ``admission`` adds the deadline-feasibility admission controller,
    ``router="slo"`` places on predicted slack (the router is built with
    the replicas' cost model), and ``autoscale_predictive`` swaps the
    reactive autoscaler for the forecast-driven one.  All off = the
    bit-identical pre-QoS fleet.

    Disaggregated serving (``repro.fleet.disagg``): ``disagg=N`` makes
    the first ``N`` replicas a dedicated prefill pool and the rest the
    decode pool — arrivals prefill on the first pool and their KV rides
    the priced fabric to a decode replica (requires ``prefix_cache``;
    composes with ``steal`` — moves never cross the pool boundary and
    clones are pinned — and with ``faults`` — a prefill-source crash
    mid-clone degrades to the direct-decode fallback, a decode-side
    crash re-routes over the surviving pool).  ``kv_tiers`` arms
    host/SSD KV offload
    on every replica's prefix cache with that victim policy
    (``lru``/``fifo``/``lifo``; capacities via ``kv_host_tokens`` /
    ``kv_ssd_tokens``).  ``standby=N`` appends ``N`` warm standby
    replicas: parked decode capacity with weights resident that an
    autoscaler promotes with zero warm-up (requires ``autoscale`` or
    ``autoscale_predictive``).

    ``sharded=False`` puts every replica on the simulator's shard 0,
    whose horizon is global.  The sharded default gives each replica a
    shard of its own and serves identical outcomes in fewer events, and
    faster; ``sharded=False`` is kept as the reference layout the
    sharded fleets are checked against.
    """
    from repro.fleet import (
        DEFAULT_CONTROL_INTERVAL,
        ClusterPolicy,
        FaultInjector,
        FleetServer,
        KVMigrator,
        PredictiveAutoscaler,
        QueueDepthAutoscaler,
        WorkStealer,
        make_router,
    )
    from repro.costmodel.comm import CollectiveModel
    from repro.costmodel.latency import ReplicaLifecycleModel

    if replicas < 1:
        raise ValueError(f"need at least one replica, got {replicas}")
    if migrate_kv and not prefix_cache:
        raise ValueError(
            "migrate_kv (--migrate-kv) moves prefix-KV cache extents; it "
            "needs prefix_cache=True (--prefix-cache)"
        )
    if autoscale and autoscale_predictive:
        raise ValueError(
            "pass at most one of autoscale / autoscale_predictive"
        )
    if disagg:
        if not prefix_cache:
            raise ValueError(
                "disagg hands prefilled KV between replicas' prefix caches; "
                "it needs prefix_cache=True"
            )
        if not 1 <= disagg < replicas:
            raise ValueError(
                f"disagg={disagg} must leave both pools non-empty "
                f"(fleet has {replicas} replicas)"
            )
    if standby:
        if standby < 0:
            raise ValueError(f"standby must be >= 0, got {standby}")
        if not (autoscale or autoscale_predictive):
            raise ValueError(
                "standby replicas start parked; an autoscaler must be armed "
                "to ever promote them"
            )
    if faults:
        if system not in CRASHABLE_SYSTEMS:
            raise ValueError(
                f"failure injection needs a crashable system "
                f"({', '.join(CRASHABLE_SYSTEMS)}), not {system!r}"
            )
        if faults.max_replica_id >= replicas:
            raise ValueError(
                f"fault plan targets replica {faults.max_replica_id} but the "
                f"fleet has only {replicas} replicas"
            )
    servers = [
        make_system(system, requests=requests, num_gpus=num_gpus,
                    prefix_cache=prefix_cache, qos=qos, admission=admission,
                    kv_tiers=kv_tiers, kv_host_tokens=kv_host_tokens,
                    kv_ssd_tokens=kv_ssd_tokens)
        for _ in range(replicas + standby)
    ]
    migrator = None
    if migrate_kv:
        config = servers[0].config  # LoongServe shape, guaranteed by the gate
        migrator = KVMigrator(
            collectives=CollectiveModel(cluster=config.cluster),
            model=config.model,
            tensor_parallel=config.tensor_parallel,
        )
    lifecycle = None
    if autoscale or autoscale_predictive or faults:
        config = servers[0].config
        if config is not None:
            lifecycle = ReplicaLifecycleModel.for_model(
                config.model, config.tensor_parallel
            )
    if router == "slo" and "ideal" not in router_kwargs:
        # The SLO router prices queueing in seconds; hand it the
        # replicas' own cost model when they expose one.
        router_kwargs.update(_slo_router_kwargs(servers[0]))
    autoscaler = None
    if autoscale:
        autoscaler = QueueDepthAutoscaler()
    elif autoscale_predictive:
        autoscaler = PredictiveAutoscaler(
            token_rate=_replica_token_rate(servers[0])
        )
    policy = ClusterPolicy(
        router=make_router(router, **router_kwargs),
        autoscaler=autoscaler,
        stealer=WorkStealer() if steal else None,
        migrator=migrator,
        injector=FaultInjector(plan=faults) if faults else None,
        lifecycle=lifecycle,
    )
    dispatcher = None
    if disagg:
        from repro.fleet.disagg import DisaggDispatcher

        config = servers[0].config  # LoongServe shape, guaranteed by the gate
        dispatcher = DisaggDispatcher(
            num_prefill=disagg,
            pricing=(
                CollectiveModel(cluster=config.cluster),
                config.model,
                config.tensor_parallel,
            ),
        )
    fleet = FleetServer(
        servers,
        policy=policy,
        control_interval=(
            DEFAULT_CONTROL_INTERVAL if control_interval is None else control_interval
        ),
        sharded=sharded,
        disagg=dispatcher,
    )
    for handle in fleet.replicas[len(fleet.replicas) - standby:] if standby else ():
        handle.standby = True
    return fleet


def make_system(
    name: str,
    requests: Sequence[Request] | None = None,
    num_gpus: int = 8,
    prefix_cache: bool = False,
    qos: bool = False,
    admission: bool = False,
    kv_tiers: str | None = None,
    kv_host_tokens: int = 200_000,
    kv_ssd_tokens: int = 1_000_000,
):
    """Build any evaluated system by its paper name.

    ``prefix_cache=True`` enables the radix prefix-KV cache
    (``repro.sessions``); it is a LoongServe scheduler feature, so other
    systems reject it rather than silently serving without one.
    ``kv_tiers`` adds host/SSD offload tiers under that cache
    (``repro.kvcache.tiers``) with the given victim policy.

    ``qos=True`` arms the SLO-class policy (``repro.qos``) on the
    server's scheduler — deadline-aware dispatch ordering plus
    batch-tier decode preemption; ``admission=True`` additionally arms
    the deadline-feasibility admission controller.  Both are LoongServe
    scheduler features and off by default (bit-identical without them).
    """
    if prefix_cache and name not in ("loongserve", "loongserve-no-scaleup"):
        raise ValueError(
            f"prefix_cache is only supported on LoongServe systems, not {name!r}"
        )
    if admission and not qos:
        raise ValueError("admission control requires the QoS policy (qos=True)")
    if qos and name not in QOS_SYSTEMS:
        raise ValueError(
            f"QoS scheduling is only supported on LoongServe systems, not {name!r}"
        )
    if kv_tiers is not None and name != "loongserve":
        raise ValueError(
            f"kv_tiers (tiered KV offload) is only supported on the "
            f"'loongserve' system, not {name!r}"
        )
    scheduler = None
    if prefix_cache or kv_tiers is not None:
        scheduler = SchedulerConfig(
            enable_prefix_cache=prefix_cache, kv_tier_policy=kv_tiers,
            kv_host_tokens=kv_host_tokens, kv_ssd_tokens=kv_ssd_tokens,
        )
    builders = {
        "loongserve": lambda: build_loongserve(num_gpus=num_gpus, scheduler=scheduler),
        "loongserve-no-scaleup": lambda: build_no_scale_up_loongserve(
            num_gpus=num_gpus, prefix_cache=prefix_cache,
        ),
        "vllm": lambda: build_vllm(num_gpus=num_gpus),
        "deepspeed-mii": lambda: build_splitfuse(
            requests, num_gpus=num_gpus, deepspeed_mii=True
        ),
        "splitfuse": lambda: build_splitfuse(requests, num_gpus=num_gpus),
        "distserve": lambda: build_distserve(num_gpus=num_gpus),
        "static-sp": lambda: build_static_sp(num_gpus=num_gpus),
        "replicated-tp2": lambda: build_replicated_tp2(num_gpus=num_gpus),
    }
    try:
        server = builders[name]()
    except KeyError:
        raise ValueError(f"unknown system {name!r}; choose from {sorted(builders)}") from None
    if qos:
        from repro.qos import QoSPolicy

        server.qos = QoSPolicy.for_config(
            server.config, server.cost_model, admission=admission
        )
    return server
