"""Per-layer wall-clock profiler, installed from the benchmark's side.

Each layer is a module of ``repro``.  The profiler wraps the layer's
entry points (class methods on their defining class, module functions
in every ``repro`` module that bound them, e.g. where
``core.global_manager`` looks up the four scheduler steps) with a
counting timer.  A stack of open calls gives each layer its *self*
time: a call's duration minus the part its wrapped callees covered.
The run's root call (``LoongServeServer.run``/``FleetServer.run``)
belongs to ``core.server``, so that layer's self time is the residual —
run wall time no other wrapped layer covers.

Coarse entry points also record a span (kept in memory, written once
as Perfetto trace-event JSON when the run ends); hot leaves such as
``costmodel`` and ``kvcache.pool`` only count.  Wrappers pass arguments,
results and exceptions through untouched, so a profiled run serves
exactly what an unprofiled one does.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

# Spans kept per run; a run that opens more keeps the first ones and
# counts the rest, so the export stays a few tens of MB at most.
MAX_SPANS = 200_000


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``owner`` is ``module`` or ``module:Class``."""

    owner: str
    names: tuple[str, ...]
    span: bool = False


# Layer name -> its entry points.  Names are module paths under repro.
LAYERS: dict[str, tuple[Target, ...]] = {
    "sim.queue": (
        Target("repro.sim.events:EventQueue", ("push", "push_entry", "pop", "discard")),
        Target("repro.sim.engine:Simulator", ("call_at",)),
        Target("repro.sim.engine:ShardClock", ("call_at",)),
    ),
    "core.server": (
        Target("repro.core.server:LoongServeServer", ("run",), span=True),
        Target("repro.fleet.server:FleetServer", ("run",), span=True),
        Target("repro.core.server:LoongServeServer", ("_tick",)),
    ),
    "core.global_manager": (
        Target("repro.core.global_manager:GlobalManager", ("schedule",), span=True),
    ),
    "core.dispatching": (
        Target("repro.core.dispatching", ("select_prefill_requests",)),
    ),
    "core.allocation": (
        Target("repro.core.allocation", ("allocate_instances",), span=True),
    ),
    "core.batching_dp": (Target("repro.core.batching_dp", ("plan_batches",), span=True),),
    "core.scaling_plan": (
        Target(
            "repro.core.scaling_plan",
            ("plan_scale_down", "plan_scale_up", "assign_masters", "pick_append_instance"),
        ),
    ),
    "costmodel": (
        Target(
            "repro.costmodel.latency:RooflineCostModel",
            ("prefill_time", "fused_iteration_time", "decode_time", "migration_time"),
        ),
        Target(
            "repro.costmodel.analytical:AnalyticalModel",
            ("predict", "predict_sums", "prefill_time"),
        ),
    ),
    "kvcache.pool": (
        Target(
            "repro.kvcache.pool:InstancePool",
            ("allocate", "release", "release_all", "snapshot"),
        ),
        Target(
            "repro.kvcache.unified:UnifiedKVPool",
            (
                "free_on", "free_map", "can_fit_unified", "can_fit_grouped",
                "placement_of", "tokens_of", "instances_of", "place", "extend",
                "evict", "reassign", "move", "balanced_placement",
            ),
        ),
    ),
    "kvcache.tiers": (
        Target("repro.kvcache.tiers:TieredKVStore", ("offload", "fetch"), span=True),
        Target("repro.kvcache.tiers:TieredKVStore", ("probe", "resident_tokens")),
    ),
    "prefix_cache": (
        Target(
            "repro.sessions.prefix_cache:PrefixKVCache",
            ("adopt_finished", "import_prefix", "evict", "clear"),
            span=True,
        ),
        Target(
            "repro.sessions.prefix_cache:PrefixKVCache",
            (
                "peek_match", "match_and_lock", "release", "take_swap_debt",
                "note_prefill", "export_prefix", "note_export",
                "resident_sequences",
            ),
        ),
    ),
    "fleet.router": (
        Target("repro.fleet.router:*Router", ("route", "probe_scores"), span=True),
    ),
    "fleet.control": (
        Target("repro.fleet.control:ClusterPolicy", ("place",)),
        Target(
            "repro.fleet.control:FleetController",
            ("_tick", "_inject", "_deliver", "try_hold_arrival"),
            span=True,
        ),
        Target("repro.fleet.autoscaler:QueueDepthAutoscaler", ("decide",)),
        Target("repro.fleet.autoscaler:PredictiveAutoscaler", ("decide",)),
        Target("repro.fleet.stealing:WorkStealer", ("plan",)),
        Target(
            "repro.fleet.migration:KVMigrator",
            ("migrate_request_prefix", "rescue_resident"),
        ),
    ),
    "qos": (
        Target(
            "repro.qos.policy:QoSPolicy",
            ("qos_class", "ideal_latency", "deadline_for", "slack", "dispatch_key"),
        ),
        Target("repro.qos.admission:AdmissionController", ("decide",)),
    ),
    "obs": (
        Target(
            "repro.obs.tracer:Tracer",
            ("audit", "record", "transition", "end_span", "finalize"),
        ),
        Target(
            "repro.obs.observe:Observability", ("sample_fleet", "sample_server"),
            span=True,
        ),
        Target("repro.obs.health:SLOHealthMonitor", ("observe",)),
    ),
    "fleet.disagg": (
        Target(
            "repro.fleet.disagg:DisaggDispatcher",
            ("dispatch", "_handoff", "_deliver", "clone_failover", "failover_target"),
            span=True,
        ),
    ),
}


def _arg(args: tuple, kwargs: dict, name: str, index: int):
    """An argument of a wrapped call, passed by keyword or position."""
    return kwargs[name] if name in kwargs else args[index]


def _classes(owner: str) -> list[type]:
    """Resolve ``module:Class`` (``*Suffix`` = every class so named)."""
    module_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(module_name)
    if not cls_name.startswith("*"):
        return [getattr(module, cls_name)]
    suffix = cls_name[1:]
    return [
        value for name, value in vars(module).items()
        if isinstance(value, type) and name.endswith(suffix)
        and value.__module__ == module_name
    ]


class LayerProfiler:
    """Counts calls and self time per layer while installed.

    ``hooks`` (entry-point label -> ``fn(args, kwargs, result)``, set
    before :meth:`install`) read extra counters at a layer boundary,
    e.g. how many pending requests dispatching scanned.
    """

    def __init__(self, layers: dict[str, tuple[Target, ...]] = LAYERS) -> None:
        self.layers = layers
        self.calls: dict[str, int] = dict.fromkeys(layers, 0)
        self.self_s: dict[str, float] = dict.fromkeys(layers, 0.0)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, str, float, float]] = []
        self.spans_dropped = 0
        self.missing: list[str] = []
        self.origin = perf_counter()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.hooks: dict[str, object] = {}

    # -- the timer -----------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, span: bool = False):
        """``fn`` with its calls and self time charged to ``layer``."""
        stack = self._stack
        calls, self_s, spans = self.calls, self.self_s, self.spans
        hook = self.hooks.get(name)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    if len(spans) < MAX_SPANS:
                        spans.append((layer, name, start, elapsed))
                    else:
                        self.spans_dropped += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        for layer, targets in self.layers.items():
            for target in targets:
                if ":" in target.owner:
                    self._patch_methods(layer, target)
                else:
                    self._patch_functions(layer, target)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "LayerProfiler":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_methods(self, layer: str, target: Target) -> None:
        classes = _classes(target.owner)
        for attr in target.names:
            found = False
            for cls in classes:
                raw = cls.__dict__.get(attr)
                if raw is None:
                    continue
                found = True
                label = f"{cls.__name__}.{attr}"
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self.wrap(layer, label, raw.__func__, target.span))
                else:
                    wrapped = self.wrap(layer, label, raw, target.span)
                self._set(cls, attr, wrapped)
            if not found:
                self.missing.append(f"{target.owner}.{attr}")

    def _patch_functions(self, layer: str, target: Target) -> None:
        module = importlib.import_module(target.owner)
        for attr in target.names:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{target.owner}.{attr}")
                continue
            wrapped = self.wrap(layer, attr, fn, target.span)
            # Rebind everywhere the function object was imported, so
            # callers that did ``from module import fn`` see the wrapper.
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name.startswith("repro") and mod.__dict__.get(attr) is fn:
                    self._set(mod, attr, wrapped)

    # -- boundary counters ---------------------------------------------------

    def count_boundaries(self) -> None:
        """Arm the extra counters read where the scheduler's steps meet."""
        counters = self.counters

        def on_dispatch(args, kwargs, decision):
            counters["core.dispatching.pending_scanned"] += len(_arg(args, kwargs, "pending", 0))
            counters["core.dispatching.selected"] += len(decision.requests)

        def on_plan_batches(args, kwargs, plan):
            counters["plan_batches_in_schedule"] += 1

        def on_schedule(args, kwargs, plan):
            # Calls past the first within one schedule() are the trims of
            # an infeasible dispatch set.
            calls = counters.pop("plan_batches_in_schedule", 0)
            counters["core.batching_dp.trims"] += max(0, calls - 1)
            pool = _arg(args, kwargs, "pool", 4)
            counters["pool_used_frac_sum"] += pool.total_used / pool.total_capacity
            counters["pool_samples"] += 1

        def on_scale_up(args, kwargs, decision):
            if decision is not None:
                counters["core.scaling_plan.scale_ups"] += 1

        def on_scale_down(args, kwargs, placement):
            group = _arg(args, kwargs, "group_instances", 1)
            if len(placement.kept_instances) < len(group):
                counters["core.scaling_plan.scale_downs"] += 1

        def on_match(args, kwargs, matched):
            counters["prefix_cache.match_calls"] += 1

        self.hooks.update({
            "select_prefill_requests": on_dispatch,
            "plan_batches": on_plan_batches,
            "GlobalManager.schedule": on_schedule,
            "plan_scale_up": on_scale_up,
            "plan_scale_down": on_scale_down,
            "PrefixKVCache.match_and_lock": on_match,
        })

    # -- export --------------------------------------------------------------

    def perfetto(self, label: str) -> dict:
        """The recorded spans as a Chrome/Perfetto trace-event document."""
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": f"perfbench {label}"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "simulator (wall clock)"}},
        ]
        for layer, name, start, elapsed in self.spans:
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 0,
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round(elapsed * 1e6, 3),
            })
        end = max((s[2] + s[3] for s in self.spans), default=self.origin)
        events.append({
            "name": "layer_calls", "ph": "C", "pid": 1, "tid": 0,
            "ts": round((end - self.origin) * 1e6, 3),
            "args": dict(self.calls),
        })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"spans_dropped": self.spans_dropped},
        }


# Extra per-layer metrics beyond each layer's ``calls``/``self_s``.
EXTRA_UNITS = {
    "sim.events": "count",
    "core.dispatching.pending_scanned": "count",
    "core.dispatching.selected": "count",
    "core.dispatching.yield": "ratio",
    "core.batching_dp.trims": "count",
    "core.scaling_plan.scale_ups": "count",
    "core.scaling_plan.scale_downs": "count",
    "kvcache.pool.preemptions": "count",
    "kvcache.pool.used_frac_mean": "ratio",
    "kvcache.tiers.offloaded_tokens": "tokens",
    "kvcache.tiers.swapped_in_tokens": "tokens",
    "prefix_cache.match_calls": "count",
    "prefix_cache.hit_token_frac": "ratio",
    "prefix_cache.evicted_tokens": "tokens",
    "fleet.control.steals": "count",
    "fleet.control.kv_migrated_tokens": "tokens",
    "fleet.control.failovers": "count",
    "qos.rejected": "count",
    "qos.downgraded": "count",
    "fleet.disagg.handoffs": "count",
    "fleet.disagg.handoff_tokens": "tokens",
    "core.queue_wait_mean_s": "s",
    "core.prefill_mean_s": "s",
    "bench.trace_overhead_frac": "ratio",
}

PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **EXTRA_UNITS,
}


def _servers(system) -> list:
    replicas = getattr(system, "replicas", None)
    return [h.server for h in replicas] if replicas is not None else [system]


def layer_metrics(profiler: LayerProfiler, system, result, trace) -> dict[str, float]:
    """Per-layer metrics of one profiled run, in ``PER_LAYER_UNITS`` order.

    Wall-clock figures come from the profiler; the work counts read the
    run's own ledgers (cache, tier, control-plane, QoS), which are
    simulated-time facts.
    """
    c = profiler.counters
    out: dict[str, float] = {}
    for layer in profiler.layers:
        out[f"{layer}.calls"] = profiler.calls[layer]
        out[f"{layer}.self_s"] = profiler.self_s[layer]
    sim = getattr(system, "last_sim", None) or system.sim
    cache = result.cache_stats or {}
    prompt_tokens = cache.get("hit_tokens", 0) + cache.get("miss_tokens", 0)
    tiers = [
        s.prefix_cache.tiers.stats for s in _servers(system)
        if getattr(s, "prefix_cache", None) is not None
        and s.prefix_cache.tiers is not None
    ]
    elastic = getattr(result, "elastic", None)
    qos = (result.qos_stats or {}).values()
    served = [r for r in trace if r.finished and r.prefill_start is not None]
    scanned = c["core.dispatching.pending_scanned"]
    out.update({
        "sim.events": sim.events_processed,
        "core.dispatching.pending_scanned": scanned,
        "core.dispatching.selected": c["core.dispatching.selected"],
        "core.dispatching.yield": (
            c["core.dispatching.selected"] / scanned if scanned else 0.0
        ),
        "core.batching_dp.trims": c["core.batching_dp.trims"],
        "core.scaling_plan.scale_ups": c["core.scaling_plan.scale_ups"],
        "core.scaling_plan.scale_downs": c["core.scaling_plan.scale_downs"],
        "kvcache.pool.preemptions": sum(r.preemptions for r in trace),
        "kvcache.pool.used_frac_mean": (
            c["pool_used_frac_sum"] / c["pool_samples"] if c["pool_samples"] else 0.0
        ),
        "kvcache.tiers.offloaded_tokens": sum(t.offloaded_tokens for t in tiers),
        "kvcache.tiers.swapped_in_tokens": sum(t.swapped_in_tokens for t in tiers),
        "prefix_cache.match_calls": c["prefix_cache.match_calls"],
        "prefix_cache.hit_token_frac": (
            cache.get("hit_tokens", 0) / prompt_tokens if prompt_tokens else 0.0
        ),
        "prefix_cache.evicted_tokens": cache.get("evicted_tokens", 0),
        "fleet.control.steals": elastic.stolen_requests if elastic else 0,
        "fleet.control.kv_migrated_tokens": elastic.migrated_kv_tokens if elastic else 0,
        "fleet.control.failovers": elastic.failovers if elastic else 0,
        "qos.rejected": sum(k.get("rejected", 0) for k in qos),
        "qos.downgraded": sum(k.get("downgraded", 0) for k in qos),
        "fleet.disagg.handoffs": elastic.disagg_handoffs if elastic else 0,
        "fleet.disagg.handoff_tokens": elastic.disagg_handoff_tokens if elastic else 0,
        "core.queue_wait_mean_s": (
            sum(r.prefill_start - r.arrival_time for r in served) / len(served)
        ),
        "core.prefill_mean_s": (
            sum(r.prefill_end - r.prefill_start for r in served) / len(served)
        ),
    })
    return out
