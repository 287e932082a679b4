"""Shared engine machinery for the baseline systems.

An *engine* is one statically-parallelised model replica: a fixed set of
elastic-instance slots (e.g. one TP=8 instance for vLLM, four TP=2
instances for the static hybrid) with one KV pool and one scheduler
queue.  ``EngineServer`` provides continuous batching with
preemption-by-recomputation; an :class:`EnginePolicy` decides what each
iteration executes, which is the only place the baselines differ.
``EngineGroup`` serves engines on one clock as one replica: its ``run``
and ``run_driven`` are the shared serving loop (:mod:`repro.serving`).

An engine never queues a request it can never serve.  ``submit``
aborts one whose worst case exceeds the pool, or whose prompt the
policy could never start (:meth:`EnginePolicy.never_admits`), and a
preempted request that has grown past that is aborted instead of
requeued.  Every engine abort goes through :meth:`EngineServer.abort`:
audited, span closed, completion hook fired.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.config import SystemConfig
from repro.costmodel.latency import SCHEDULING_OVERHEAD_S, RooflineCostModel
from repro.kvcache.pool import InstancePool
from repro.obs.tracer import Tracer
from repro.serving import serve
from repro.sim.engine import Simulator
from repro.types import (
    IterationLedger,
    Phase,
    Request,
    RequestState,
    ServeResult,
)


@dataclass
class IterationPlan:
    """What one engine iteration executes.

    ``prefill_chunks`` maps request -> new tokens processed this iteration
    (the whole input for whole-prefill policies; a chunk for SplitFuse).
    ``decode_requests`` advance by one token each.
    """

    prefill_chunks: list[tuple[Request, int]] = field(default_factory=list)
    decode_requests: list[Request] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.prefill_chunks and not self.decode_requests

    @property
    def phase(self) -> Phase:
        return Phase.PREFILL if self.prefill_chunks else Phase.DECODE


class EnginePolicy(abc.ABC):
    """Chooses the next iteration's contents."""

    @abc.abstractmethod
    def next_iteration(self, engine: EngineServer) -> IterationPlan:
        """Build the next iteration from the engine's queues."""

    def never_admits(self, engine: EngineServer, request: Request) -> bool:
        """True when no state of ``engine`` would ever start ``request``
        (one that fits the pool but never passes this policy's gate)."""
        return False


class EngineGroup:
    """Engines on one clock, served as one fleet replica.

    The fleet's replica contract (``repro.fleet.server.ServingReplica``)
    over ``engines``, in engine order: a lone :class:`EngineServer` is a
    group of one, DistServe and the replicated baselines group several.
    Each engine keeps its own ledgers, so observers' cursors stay valid
    per engine.  No engine has a prefix cache or a QoS ledger, rescales,
    or can crash.
    """

    name = "engine group"
    prefix_cache = None
    qos_ledger = None
    obs = None  # observe() routes audits only: nothing to sample
    engines: Sequence[EngineServer]

    def run(self, requests: list[Request]) -> ServeResult:
        """Serve a trace to completion (:func:`repro.serving.serve`)."""
        return serve(self, requests)

    def run_driven(self, driver) -> ServeResult:
        """Serve a closed-loop workload driver to completion."""
        return serve(self, driver=driver)

    def use_simulator(self, sim: Simulator) -> None:
        """Reset every engine onto a (shared) clock, so an outer
        dispatcher — e.g. a fleet router — can drive this system via
        ``submit`` instead of ``run``."""
        for engine in self.engines:
            engine._reset()
            engine.sim = sim

    def observe(self, obs, replica: int = 0) -> None:
        """Send the engines' audits to ``obs.tracer``, tagged ``replica``
        (no spans or telemetry on the baseline serving loop)."""
        for engine in self.engines:
            engine.trace = obs.tracer
            engine.obs_replica = replica

    def queued(self) -> list[Request]:
        return [r for engine in self.engines for r in engine.waiting]

    def withdraw(self, request: Request) -> bool:
        """Take a queued request back (it holds no KV yet)."""
        for engine in self.engines:
            if request in engine.waiting:
                engine.waiting.remove(request)
                return True
        return False

    def kv_pools(self) -> list[tuple[int, InstancePool]]:
        return [(i, engine.pool) for i, engine in enumerate(self.engines)]

    def crash(self) -> tuple[list[Request], int]:
        raise TypeError(f"replica {self.name!r} does not support failure injection")

    def import_prefix(self, token_ids: tuple[int, ...], now: float) -> int:
        return 0  # no prefix cache

    def clear_prefix_cache(self) -> int:
        return 0

    def ledgers(self) -> Sequence[EngineServer]:
        return self.engines

    def decode_batch_size(self) -> int:
        return sum(len(engine.running) for engine in self.engines)

    def generated_tokens(self) -> int:
        return sum(engine._generated_total for engine in self.engines)


class EngineServer(EngineGroup):
    """One statically-parallelised engine with continuous batching."""

    name = "engine"
    scaling_events = ()  # static parallelism never rescales
    # Keep a BatchStats row per iteration in ``iterations``
    # (repro.serving.keep_iteration_rows); survives _reset.
    keep_rows = False

    @property
    def engines(self) -> tuple[EngineServer]:
        return (self,)

    def __init__(
        self,
        config: SystemConfig,
        policy: EnginePolicy,
        cost_model: RooflineCostModel | None = None,
        instance_ids: list[int] | None = None,
        kv_slots: int | None = None,
        num_masters: int = 1,
        name: str | None = None,
        trace: Tracer | None = None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.cost_model = cost_model or RooflineCostModel(
            cluster=config.cluster, model=config.model
        )
        self.instance_ids = instance_ids if instance_ids is not None else list(
            range(config.num_instances)
        )
        self.kv_slots = kv_slots if kv_slots is not None else (
            config.kv_slots_per_instance * len(self.instance_ids)
        )
        self.num_masters = num_masters
        if name:
            self.name = name
        self.trace = trace or Tracer(enabled=False)
        self.obs_replica = 0
        # Called when a request finishes its prefill but still has tokens
        # to decode; returning True removes it from this engine (used by
        # DistServe's prefill->decode handoff).
        self.prefill_complete_hook: Callable[[Request], bool] | None = None
        self._reset()

    def _reset(self) -> None:
        self.sim = Simulator()
        self.pool = InstancePool(instance_id=-1, capacity=self.kv_slots)
        self.waiting: list[Request] = []
        self.running: list[Request] = []
        self.prefilling: list[Request] = []  # mid-prefill (chunked policies)
        self.prefill_progress: dict[int, int] = {}
        self.finished: list[Request] = []
        self.aborted: list[Request] = []
        self.iterations = IterationLedger([] if self.keep_rows else None)
        self.busy = False
        # Output tokens this engine generated (the telemetry
        # throughput read), credited where ``generated`` grows.
        self._generated_total = 0

    def inject_running(self, request: Request, preallocated: bool = False) -> None:
        """Admit an already-prefilled request straight into decoding.

        DistServe's decode engine receives requests whose KV has just
        migrated in; ``preallocated`` skips the slot allocation when the
        caller reserved capacity before starting the migration.
        """
        if not preallocated:
            self.pool.allocate(request.request_id, request.current_len)
        request.state = RequestState.DECODING
        self.running.append(request)
        self._maybe_start()

    # -- queue management ------------------------------------------------------------

    def submit(self, request: Request) -> None:
        """External enqueue (used by dispatchers and DistServe's handoff)."""
        if request.max_total_len + 1 > self.kv_slots:
            self.abort(request, "exceeds the KV pool")
            return
        if self.policy.never_admits(self, request):
            self.abort(request, "never admitted")
            return
        self.waiting.append(request)
        self.waiting.sort(key=lambda r: r.arrival_time)
        self._maybe_start()

    def abort(self, request: Request, reason: str) -> None:
        """Drop a request for good (terminal, but flagged): the engines'
        one abort path, audited with ``reason``."""
        request.state = RequestState.FINISHED
        self.aborted.append(request)
        if self.trace.enabled:
            now = self.sim.now
            self.trace.audit(
                now, "abort", component="server", replica=self.obs_replica,
                request=request.request_id, engine=self.name, reason=reason,
            )
            self.trace.end_span(request.request_id, now, aborted=True)
        self._fire_terminal_hook(request)

    # -- the iteration loop ------------------------------------------------------------

    def _maybe_start(self) -> None:
        if self.busy:
            return
        plan = self.policy.next_iteration(self)
        if plan.is_empty:
            return
        self._execute(plan)

    def _execute(self, plan: IterationPlan) -> None:
        now = self.sim.now
        chunks: list[tuple[int, int]] = []
        for request, tokens in plan.prefill_chunks:
            progress = self.prefill_progress.get(request.request_id, 0)
            if progress == 0:
                if request in self.waiting:
                    self.waiting.remove(request)
                self.prefilling.append(request)
                request.state = RequestState.PREFILLING
                if request.prefill_start is None:
                    request.prefill_start = now
            self.pool.allocate(request.request_id, tokens)
            chunks.append((tokens, progress))
        decode_contexts = [r.current_len for r in plan.decode_requests]
        for request in plan.decode_requests:
            self.pool.allocate(request.request_id, 1)

        duration = self.cost_model.fused_iteration_time(
            chunks,
            decode_contexts,
            self.instance_ids,
            self.config.tensor_parallel,
            num_masters=self.num_masters,
        )
        duration += SCHEDULING_OVERHEAD_S
        total_tokens = sum(t for t, _ in chunks) + len(decode_contexts)
        self.iterations.add(
            phase=plan.phase,
            batch_size=len(plan.prefill_chunks) + len(plan.decode_requests),
            total_tokens=total_tokens,
            dop=len(self.instance_ids),
            duration=duration,
            start_time=now,
        )
        self.busy = True
        self.sim.call_after(duration, lambda: self._on_iteration_done(plan))

    def _on_iteration_done(self, plan: IterationPlan) -> None:
        now = self.sim.now
        for request, tokens in plan.prefill_chunks:
            progress = self.prefill_progress.get(request.request_id, 0) + tokens
            if progress >= request.current_len:
                # Prefill complete: first output token emitted.
                self.prefill_progress.pop(request.request_id, None)
                if request in self.prefilling:
                    self.prefilling.remove(request)
                self.pool.allocate(request.request_id, 1)
                request.generated += 1
                self._generated_total += 1
                request.prefill_end = now
                request.record_first_token(now)
                if request.generated >= request.output_len:
                    self._finish(request)
                elif self.prefill_complete_hook is not None and self.prefill_complete_hook(
                    request
                ):
                    pass  # handed off to another engine
                else:
                    request.state = RequestState.DECODING
                    self.running.append(request)
            else:
                self.prefill_progress[request.request_id] = progress
        self._generated_total += len(plan.decode_requests)
        for request in plan.decode_requests:
            request.generated += 1
            if request.generated >= request.output_len:
                self._finish(request)
        self.running = [r for r in self.running if not r.finished]
        self.busy = False
        self._maybe_start()

    def _finish(self, request: Request) -> None:
        request.state = RequestState.FINISHED
        request.finish_time = self.sim.now
        self.pool.release(request.request_id)
        if request in self.running:
            self.running.remove(request)
        self.finished.append(request)
        self._fire_terminal_hook(request)

    def _fire_terminal_hook(self, request: Request) -> None:
        """Run a request's completion hook exactly once (closed-loop
        session drivers chain the next turn off it)."""
        hook, request.on_finish = request.on_finish, None
        if hook is not None:
            hook(self.sim.now)

    # -- memory pressure ------------------------------------------------------------------

    def free_slots_for_decode(self) -> bool:
        """Ensure a decode iteration can append; preempt youngest if not."""
        while self.running and self.pool.free < len(self.running):
            victim = max(self.running, key=lambda r: r.arrival_time)
            self._preempt(victim)
        return bool(self.running)

    def _preempt(self, request: Request) -> None:
        self.pool.release(request.request_id)
        self.running.remove(request)
        self.prefill_progress.pop(request.request_id, None)
        if request in self.prefilling:
            self.prefilling.remove(request)
        request.state = RequestState.PREEMPTED
        request.preemptions += 1
        if self.trace.enabled:
            self.trace.audit(
                self.sim.now, "preempt", component="server",
                replica=self.obs_replica, request=request.request_id,
            )
        if self.policy.never_admits(self, request):
            # Grown past what the queue could ever start again.
            self.abort(request, "never admitted")
            return
        self.waiting.append(request)
        self.waiting.sort(key=lambda r: r.arrival_time)

