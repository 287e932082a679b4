"""Replicated engines behind a dispatcher.

Covers two baselines:

* **LoongServe w/o ESP (TP=2) x 4** (Figure 12) — four independent TP=2
  engines; a request's whole KV must fit one engine's pool, the
  fragmentation pathology of Figure 4.
* **Per-node baselines in the multi-node evaluation** (Figure 11) — the
  paper deploys each baseline independently on each server.

Dispatch is least-outstanding-work (queued + resident tokens), the
strongest simple policy, so the comparison is not handicapped.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.base import EngineGroup, EngineServer
from repro.sim.engine import Simulator
from repro.types import Request, ServeResult


class ReplicatedServer(EngineGroup):
    """N engines, one queue dispatcher, shared virtual clock.

    The engines may differ, so the group has no single deployment
    ``config`` or ``cost_model``.
    """

    config = None
    cost_model = None

    def __init__(
        self,
        engines: Sequence[EngineServer],
        name: str | None = None,
    ) -> None:
        if not engines:
            raise ValueError("need at least one engine")
        self.engines = list(engines)
        self.name = name or f"{engines[0].name} x {len(engines)}"

    def run(self, requests: list[Request]) -> ServeResult:
        sim = Simulator()
        self.use_simulator(sim)
        for request in requests:
            sim.call_at(
                request.arrival_time,
                self._make_arrival(request),
                label=f"arrival:{request.request_id}",
            )
        sim.run_until_idle()

        aborted = [r for engine in self.engines for r in engine.aborted]
        aborted_ids = {r.request_id for r in aborted}
        stats = [s for engine in self.engines for s in engine.iteration_stats]
        return ServeResult(
            system=self.name,
            requests=[r for r in requests if r.request_id not in aborted_ids],
            iteration_stats=sorted(stats, key=lambda s: s.start_time),
            makespan=sim.now,
            aborted=aborted,
        )

    def submit(self, request: Request) -> None:
        """External enqueue: dispatch one request to the best engine."""
        engine = min(self.engines, key=self._outstanding_tokens)
        engine.submit(request)

    def _make_arrival(self, request: Request):
        def _on_arrival() -> None:
            self.submit(request)

        return _on_arrival

    def _outstanding_tokens(self, engine: EngineServer) -> int:
        queued = sum(r.current_len for r in engine.waiting)
        resident = engine.pool.used
        return queued + resident
