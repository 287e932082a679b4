"""Multi-turn conversation workload generation (the ``Sessions`` dataset).

A session is a chatbot/agent-loop conversation: turn ``t``'s prompt is
the full context so far (all previous prompts and model outputs) plus a
fresh user message, so consecutive turns share an ever-growing token
prefix.  The sampler draws, per session:

* **turn count** — geometric with mean ``mean_turns`` (capped),
* **first prompt / per-turn growth** — clipped lognormals, ShareGPT-like
  (short chatty messages; the context grows by the previous output plus
  the new user message each turn),
* **output length** — clipped lognormal, ShareGPT's chatty decode,
* **think time** — exponential gap between a turn's arrival and the
  next, plus a service-time allowance proportional to the output length.

The trace is open-loop (arrival times fixed at generation time, like
every other trace here).  The think-time allowance makes the common case
"previous turn finished before the next arrives", but under overload a
turn can arrive while its predecessor is still running — it then simply
misses the part of the prefix not yet cached, which is exactly how a
real radix cache behaves.

Token ids are synthetic but *consistent*: each turn's answer is
pre-sampled into ``Request.output_token_ids`` and embedded in the next
turn's prompt, and the serving loop reads the same field when donating a
finished request's KV to the prefix cache — so cache matching works end
to end without modelling a tokenizer, and a given seed reproduces the
exact token streams.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.types import Request, next_request_id
from repro.workloads.arrival import PoissonArrivals
from repro.workloads.datasets import LengthSpec

# Synthetic token-id vocabulary.  Large enough that accidental cross-
# session prefix collisions are negligible (~1/VOCAB_SIZE per request).
VOCAB_SIZE = 50_000

# Seconds of service-time allowance per output token when spacing turns;
# a rough decode-speed guess, only used to make open-loop arrival gaps
# realistic (see module docstring).
_SERVICE_ALLOWANCE_S = 0.03

_session_ids = itertools.count()


def next_session_id() -> int:
    """Process-unique monotonically increasing session id."""
    return next(_session_ids)


@dataclass(frozen=True)
class SessionSpec:
    """Distribution knobs of the Sessions conversation sampler."""

    name: str = "Sessions"
    mean_turns: float = 4.0
    max_turns: int = 12
    first_input: LengthSpec = field(
        default=LengthSpec(log_mean=math.log(320.0), log_sigma=0.8, minimum=16, maximum=2300)
    )
    turn_input: LengthSpec = field(
        default=LengthSpec(log_mean=math.log(120.0), log_sigma=0.7, minimum=8, maximum=1000)
    )
    output: LengthSpec = field(
        default=LengthSpec(log_mean=math.log(200.0), log_sigma=0.9, minimum=4, maximum=1500)
    )
    think_time_mean_s: float = 8.0
    # Sessions whose next prompt would exceed this context length end
    # early (the client's context-window cutoff).
    max_context_len: int = 32_000
    # Arrival feedback: False = open-loop (arrivals fixed at generation
    # time, think time plus a service allowance), True = closed-loop
    # (turn t+1 is submitted think-time after turn t *finishes*).  A
    # closed-loop workload has no static trace — build it with
    # :func:`make_session_workload` and serve via ``run_driven``.
    closed_loop: bool = False

    def __post_init__(self) -> None:
        if self.mean_turns < 1.0:
            raise ValueError(f"mean_turns must be >= 1, got {self.mean_turns}")
        if self.max_turns < 1:
            raise ValueError(f"max_turns must be >= 1, got {self.max_turns}")


SESSIONS = SessionSpec()


@dataclass(frozen=True)
class TurnPlan:
    """One pre-sampled conversation turn.

    ``arrival_time`` is the open-loop absolute arrival (think time plus
    the service-time allowance, as before); ``think_gap`` is the raw
    think-time draw alone, which the closed-loop driver applies relative
    to the *previous turn's finish* instead.
    """

    prompt: tuple[int, ...]
    output: tuple[int, ...]
    arrival_time: float
    think_gap: float


@dataclass(frozen=True)
class SessionPlan:
    """One conversation's pre-sampled turns (tokens chain turn to turn)."""

    session_id: int
    start_time: float
    turns: tuple[TurnPlan, ...]
    qos: str | None = None


def plan_sessions(
    spec: SessionSpec = SESSIONS,
    rate: float = 1.0,
    num_sessions: int = 20,
    seed: int = 0,
    qos_mix: dict[str, float] | None = None,
) -> list[SessionPlan]:
    """Sample every session's turns, tokens, and think times.

    The sampling order is exactly the historical ``make_session_trace``
    order, so a given seed keeps producing the same conversations; the
    plans just make the think-time structure explicit so the same trace
    can be replayed open-loop (fixed arrivals) or closed-loop (next turn
    arrives think-time after the previous turn *finishes*).

    ``qos_mix`` tags whole sessions with SLO classes from a separate RNG
    stream (a conversation is one tenant's workload); ``None`` leaves
    the plans untagged and the sampling untouched.
    """
    rng = np.random.default_rng(seed)
    session_starts = PoissonArrivals(rate=rate).times(num_sessions, rng)
    plans: list[SessionPlan] = []
    for start in session_starts:
        session_id = next_session_id()
        turns = min(int(rng.geometric(1.0 / spec.mean_turns)), spec.max_turns)
        history: list[int] = []
        arrival = float(start)
        turn_plans: list[TurnPlan] = []
        for turn in range(turns):
            length_spec = spec.first_input if turn == 0 else spec.turn_input
            user_len = length_spec.sample(rng)
            user_tokens = [int(t) for t in rng.integers(0, VOCAB_SIZE, size=user_len)]
            prompt = history + user_tokens
            if turn > 0 and len(prompt) > spec.max_context_len:
                break  # context-window cutoff ends the session
            output_len = spec.output.sample(rng)
            output_tokens = [
                int(t) for t in rng.integers(0, VOCAB_SIZE, size=output_len)
            ]
            think_gap = float(rng.exponential(spec.think_time_mean_s))
            turn_plans.append(
                TurnPlan(
                    prompt=tuple(prompt),
                    output=tuple(output_tokens),
                    arrival_time=arrival,
                    think_gap=think_gap,
                )
            )
            history = prompt + output_tokens
            arrival += think_gap + _SERVICE_ALLOWANCE_S * output_len
        plans.append(
            SessionPlan(
                session_id=session_id,
                start_time=float(start),
                turns=tuple(turn_plans),
            )
        )
    if qos_mix is not None:
        plans = tag_session_plans(plans, qos_mix, seed=seed)
    return plans


def tag_session_plans(
    plans: list[SessionPlan], qos_mix: dict[str, float], seed: int = 0
) -> list[SessionPlan]:
    """Assign each session an SLO class drawn from ``qos_mix``.

    Uses a dedicated RNG stream so tagging never perturbs the sampled
    conversations themselves.
    """
    from repro.qos.classes import qos_mix_sampler

    draw = qos_mix_sampler(qos_mix, seed=seed)
    return [replace(plan, qos=draw()) for plan in plans]


def make_session_trace(
    spec: SessionSpec = SESSIONS,
    rate: float = 1.0,
    num_sessions: int = 20,
    seed: int = 0,
    qos_mix: dict[str, float] | None = None,
) -> list[Request]:
    """Draw a Poisson-arrival multi-turn trace (``rate`` in sessions/s).

    Returns the requests of every turn of every session, sorted by
    arrival time, with ``session_id``/``turn``/``token_ids`` populated so
    prefix caching and affinity routing can chain the turns.  The trace
    is open-loop; see :mod:`repro.sessions.closed_loop` for the feedback
    variant driven off the same plans.
    """
    if spec.closed_loop:
        raise ValueError(
            "a closed-loop SessionSpec has no static trace (arrival times "
            "are run outcomes); build the workload with "
            "make_session_workload and serve it via run_driven"
        )
    plans = plan_sessions(
        spec, rate=rate, num_sessions=num_sessions, seed=seed, qos_mix=qos_mix
    )
    requests: list[Request] = []
    for plan in plans:
        for turn, turn_plan in enumerate(plan.turns):
            requests.append(
                Request(
                    request_id=next_request_id(),
                    input_len=len(turn_plan.prompt),
                    output_len=len(turn_plan.output),
                    arrival_time=turn_plan.arrival_time,
                    session_id=plan.session_id,
                    turn=turn,
                    token_ids=turn_plan.prompt,
                    output_token_ids=turn_plan.output,
                    qos=plan.qos,
                )
            )
    requests.sort(key=lambda r: (r.arrival_time, r.request_id))
    return requests


def make_session_workload(
    spec: SessionSpec = SESSIONS,
    rate: float = 1.0,
    num_sessions: int = 20,
    seed: int = 0,
    qos_mix: dict[str, float] | None = None,
):
    """Build the workload the spec's arrival model calls for.

    Open-loop specs return a static request trace (serve via ``run``);
    ``spec.closed_loop=True`` returns a
    :class:`~repro.sessions.closed_loop.ClosedLoopDriver` over the same
    pre-sampled conversations (serve via ``run_driven``).  Both draw
    identical sessions for a given seed — only the arrival coupling
    differs.
    """
    if not spec.closed_loop:
        return make_session_trace(
            spec, rate=rate, num_sessions=num_sessions, seed=seed,
            qos_mix=qos_mix,
        )
    from repro.sessions.closed_loop import ClosedLoopDriver

    plans = plan_sessions(
        spec, rate=rate, num_sessions=num_sessions, seed=seed, qos_mix=qos_mix
    )
    return ClosedLoopDriver(plans)
