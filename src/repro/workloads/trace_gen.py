"""Trace assembly: lengths x arrivals -> request lists.

``make_trace`` builds a reproducible trace; ``clone_requests`` copies one
so the same trace can be replayed on several serving systems (servers
mutate request state in place).
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.types import Request, next_request_id
from repro.workloads.arrival import PoissonArrivals


class LengthSampler(Protocol):
    def sample(self, rng: np.random.Generator) -> tuple[int, int]: ...


class ArrivalProcess(Protocol):
    def times(self, count: int, rng: np.random.Generator) -> list[float]: ...


def make_trace(
    dataset: LengthSampler,
    rate: float,
    num_requests: int,
    seed: int = 0,
    max_input_len: int | None = None,
    arrivals: ArrivalProcess | None = None,
    qos_mix: dict[str, float] | None = None,
) -> list[Request]:
    """Draw a trace from a dataset distribution.

    Arrivals default to the paper's Poisson process at ``rate``; pass an
    explicit ``arrivals`` process (e.g. ``BurstyArrivals``) to change
    the temporal shape while keeping the length distribution.

    ``qos_mix`` tags each request with an SLO class drawn from the given
    class->weight mapping (``repro.qos``).  Tagging uses its own RNG
    stream, so a ``qos_mix=None`` trace is bit-identical to pre-QoS
    generation and a tagged trace differs only in the ``qos`` field.
    """
    rng = np.random.default_rng(seed)
    times = (arrivals or PoissonArrivals(rate=rate)).times(num_requests, rng)
    requests = []
    for arrival in times:
        input_len, output_len = dataset.sample(rng)
        if max_input_len is not None:
            input_len = min(input_len, max_input_len)
        requests.append(
            Request(
                request_id=next_request_id(),
                input_len=input_len,
                output_len=output_len,
                arrival_time=arrival,
            )
        )
    if qos_mix is not None:
        from repro.qos.classes import assign_qos

        assign_qos(requests, qos_mix, seed=seed)
    return requests


def clone_requests(requests: Sequence[Request]) -> list[Request]:
    """Fresh Request objects with identical workload parameters.

    Runtime state (timestamps, generated counts) is reset so each serving
    system starts from the same clean trace.
    """
    return [
        Request(
            request_id=r.request_id,
            input_len=r.input_len,
            output_len=r.output_len,
            arrival_time=r.arrival_time,
            max_tokens=r.max_tokens,
            session_id=r.session_id,
            turn=r.turn,
            token_ids=r.token_ids,
            output_token_ids=r.output_token_ids,
            qos=r.qos,
        )
        for r in requests
    ]
