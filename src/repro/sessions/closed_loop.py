"""Closed-loop (feedback) session arrivals.

The open-loop Sessions trace fixes every turn's arrival time at
generation time, with a service-time *allowance* standing in for the
previous turn's latency.  That is fine at low load but wrong under
pressure: a real user cannot type their follow-up before the model
answers, so arrival feedback throttles an overloaded system instead of
piling turns onto it.  The closed-loop driver replays the *same*
pre-sampled conversations (:func:`~repro.sessions.workload.plan_sessions`)
with the realistic coupling: turn ``t+1`` is submitted ``think_gap``
seconds after turn ``t`` *finishes* (or aborts — the client gives up on
that turn but the conversation goes on).

The driver is transport-agnostic: it schedules submissions on any
simulator via a ``submit`` callable, so both a single server of any
shape (its ``run_driven``) and a routed fleet
(``FleetServer.run_driven``) can be driven.  Each driver instance is
single-use — it materialises fresh :class:`~repro.types.Request`
objects (arrival times are run outcomes, not inputs) and keeps them in
``requests`` for post-run inspection.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.sessions.workload import SessionPlan
from repro.types import Request, next_request_id

__all__ = ["ClosedLoopDriver"]


class ClosedLoopDriver:
    """Submit each session's turns think-time after the previous finish."""

    def __init__(self, sessions: Sequence[SessionPlan]) -> None:
        self.sessions = list(sessions)
        self.requests: list[Request] = []
        self._installed = False

    @property
    def total_requests(self) -> int:
        """Turns the driver will eventually submit (for arrival budgets)."""
        return sum(len(plan.turns) for plan in self.sessions)

    def install(self, sim, submit: Callable[[Request], None]) -> None:
        """Schedule every session's opening turn on ``sim``.

        Follow-up turns chain themselves through the requests'
        ``on_finish`` hooks; the serving system fires the hook whenever
        a request reaches a terminal state (finished *or* aborted).
        """
        if self._installed:
            raise RuntimeError(
                "a ClosedLoopDriver is single-use; build a fresh one per run"
            )
        self._installed = True
        for plan in self.sessions:
            if not plan.turns:
                continue
            sim.call_at(
                plan.start_time,
                (lambda p=plan: self._submit_turn(sim, submit, p, 0)),
                label=f"session-open:{plan.session_id}",
            )

    def _submit_turn(self, sim, submit, plan: SessionPlan, index: int) -> None:
        turn = plan.turns[index]
        request = Request(
            request_id=next_request_id(),
            input_len=len(turn.prompt),
            output_len=len(turn.output),
            arrival_time=sim.now,
            session_id=plan.session_id,
            turn=index,
            token_ids=turn.prompt,
            output_token_ids=turn.output,
            qos=plan.qos,
        )
        if index + 1 < len(plan.turns):

            def _chain(finish_time: float) -> None:
                sim.call_at(
                    finish_time + turn.think_gap,
                    (lambda: self._submit_turn(sim, submit, plan, index + 1)),
                    label=f"session-think:{plan.session_id}:{index + 1}",
                )

            request.on_finish = _chain
        self.requests.append(request)
        submit(request)
