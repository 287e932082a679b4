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
from repro.types import Request


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

    def submit(self, request: Request) -> None:
        """External enqueue: dispatch one request to the best engine."""
        engine = min(self.engines, key=self._outstanding_tokens)
        engine.submit(request)

    def _outstanding_tokens(self, engine: EngineServer) -> int:
        queued = sum(r.current_len for r in engine.waiting)
        resident = engine.pool.used
        return queued + resident
