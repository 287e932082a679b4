"""DistServe baseline: prefill-decoding disaggregation (§2.2, §7.1).

Two static GPU groups — a prefill engine and a decode engine, DoP 4 each
on the 8-GPU testbed (the paper's validated best split).  After a request
prefills, its whole KV cache *reactively migrates* across the group
boundary before decoding can start; the migration time comes from the
communication model (the overhead LoongServe's proactive mechanism
eliminates).

Isolation costs reproduced here:

* Each phase sees only half the GPUs, so the longest servable request is
  bounded by the *minimum* of the two pools — the paper's LV-Eval / Mixed
  OOM, surfaced as aborted requests.
* Prefill KV slots stay held until the migration completes, shrinking the
  prefill engine's effective capacity.
"""

from __future__ import annotations

from collections import deque

from repro.baselines.base import EngineGroup, EngineServer
from repro.baselines.vllm import PrefillPriorityPolicy
from repro.config import SystemConfig
from repro.costmodel.latency import RooflineCostModel
from repro.obs.tracer import Tracer
from repro.sim.engine import Simulator
from repro.types import Request


class _DecodeEngine(EngineServer):
    """Decode-side engine that pumps the handoff queue as slots free up."""

    handoff_pump = None

    def _finish(self, request: Request) -> None:
        super()._finish(request)
        if self.handoff_pump is not None:
            self.handoff_pump()


class DistServeServer(EngineGroup):
    """Disaggregated serving over one cluster: prefill group + decode group.

    ``engines`` is ``[prefill_engine, decode_engine]``; requests the
    capacity cap rejects land in the prefill engine's ``aborted`` list.
    """

    name = "DistServe"

    def __init__(
        self,
        config: SystemConfig,
        cost_model: RooflineCostModel | None = None,
        trace: Tracer | None = None,
    ) -> None:
        if config.num_instances != 2:
            raise ValueError(
                "DistServe splits the cluster into two equal groups; build its "
                "config with tensor_parallel = num_gpus // 2"
            )
        self.config = config
        self.cost_model = cost_model or RooflineCostModel(
            cluster=config.cluster, model=config.model
        )
        self.prefill_engine = EngineServer(
            config=config,
            policy=PrefillPriorityPolicy(),
            cost_model=self.cost_model,
            instance_ids=[0],
            kv_slots=config.kv_slots_per_instance,
            name="DistServe-prefill",
            trace=trace,
        )
        self.decode_engine = _DecodeEngine(
            config=config,
            policy=PrefillPriorityPolicy(),
            cost_model=self.cost_model,
            instance_ids=[1],
            kv_slots=config.kv_slots_per_instance,
            name="DistServe-decode",
            trace=trace,
        )
        self.engines = [self.prefill_engine, self.decode_engine]
        self.migrations = 0
        self.migration_seconds = 0.0
        self._handoff_queue: deque[Request] = deque()

    def use_simulator(self, sim: Simulator) -> None:
        super().use_simulator(sim)
        self.prefill_engine.prefill_complete_hook = self._handoff
        self.decode_engine.handoff_pump = self._pump_handoffs
        self.migrations = 0
        self.migration_seconds = 0.0
        self._handoff_queue = deque()
        self._sim = sim

    def submit(self, request: Request) -> None:
        """External enqueue, applying the disaggregation capacity cap.

        The longest servable request is capped by both pools: the KV
        must fit the prefill group first and the decode group after.
        """
        prefill = self.prefill_engine
        capacity = min(prefill.kv_slots, self.decode_engine.kv_slots)
        if request.max_total_len + 1 > capacity:
            prefill.abort(request, "exceeds a disaggregated pool")
            return
        prefill.submit(request)

    def _handoff(self, request: Request) -> bool:
        """Queue a finished prefill for migration to the decode group."""
        self._handoff_queue.append(request)
        self._pump_handoffs()
        return True

    def _pump_handoffs(self) -> None:
        """Start reactive migrations while the decode pool has capacity.

        Decode slots are reserved *before* the copy starts; when the
        decode group is full, handoffs (and, through the held prefill
        slots, the prefill engine itself) stall — the isolation
        backpressure of disaggregated designs.
        """
        while self._handoff_queue:
            request = self._handoff_queue[0]
            needed = request.current_len
            if self.decode_engine.pool.free < needed + len(self.decode_engine.running):
                break
            self._handoff_queue.popleft()
            self.decode_engine.pool.allocate(request.request_id, needed)
            migration_time = self.cost_model.migration_time(
                request.current_len,
                src_instance=0,
                dst_instance=1,
                tensor_parallel=self.config.tensor_parallel,
            )
            self.migrations += 1
            self.migration_seconds += migration_time

            def _complete_migration(request: Request = request) -> None:
                # Slots leave the prefill pool only once the copy is done.
                self.prefill_engine.pool.release(request.request_id)
                self.decode_engine.inject_running(request, preallocated=True)
                self.prefill_engine._maybe_start()

            self._sim.call_after(migration_time, _complete_migration)
