"""Property-based invariants of the serving loop under random traces.

Hypothesis drives small random workloads through LoongServe and asserts
the conservation laws any correct serving system must satisfy.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.core.server import LoongServeServer
from repro.types import Request, next_request_id
from tests.conftest import with_rows

CONFIG = default_config()

request_params = st.tuples(
    st.integers(min_value=1, max_value=20_000),   # input_len
    st.integers(min_value=1, max_value=40),       # output_len
    st.floats(min_value=0.0, max_value=5.0),      # arrival
)


def build_trace(params: list[tuple[int, int, float]]) -> list[Request]:
    return [
        Request(
            request_id=next_request_id(),
            input_len=input_len,
            output_len=output_len,
            arrival_time=arrival,
        )
        for input_len, output_len, arrival in sorted(params, key=lambda p: p[2])
    ]


@given(params=st.lists(request_params, min_size=1, max_size=12))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_serving_conservation_laws(params):
    """For any admissible trace: every request finishes with exactly its
    output_len tokens, timestamps are ordered, the KV pool drains, and
    instances end idle."""
    server = LoongServeServer(CONFIG)
    trace = build_trace(params)
    result = server.run(trace)

    assert len(result.finished_requests) == len(trace)
    for request in result.finished_requests:
        assert request.generated == request.output_len
        assert request.arrival_time <= request.prefill_start
        assert request.prefill_start <= request.prefill_end
        assert request.prefill_end <= request.finish_time
    assert server.pool.total_used == 0
    assert all(inst.is_idle for inst in server.instances.values())
    assert result.makespan >= max(r.finish_time for r in result.finished_requests) - 1e-9


@given(
    params=st.lists(request_params, min_size=2, max_size=10),
    seed=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scaling_events_well_formed(params, seed):
    """Every recorded scaling event changes the group in the advertised
    direction and never exceeds the cluster."""
    server = LoongServeServer(CONFIG)
    rng = np.random.default_rng(seed)
    trace = build_trace(params)
    for request in trace:
        request.arrival_time += float(rng.uniform(0, 1))
    trace.sort(key=lambda r: r.arrival_time)
    result = server.run(trace)

    for event in result.scaling_events:
        before, after = set(event.group_before), set(event.group_after)
        assert after <= set(range(CONFIG.num_instances))
        if event.kind == "scale_up":
            assert before < after
        else:
            assert after < before


@given(params=st.lists(request_params, min_size=1, max_size=8))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_iteration_stats_cover_all_tokens(params):
    """Prefill iterations process every admitted request's prompt once
    (no request is silently skipped or double-prefilled)."""
    server = with_rows(LoongServeServer(CONFIG))
    trace = build_trace(params)
    result = server.run(trace)
    from repro.types import Phase

    prefill_tokens = sum(
        s.total_tokens for s in result.iterations.rows if s.phase == Phase.PREFILL
    )
    expected = sum(r.input_len for r in trace)
    # Preemption-free traces prefill each prompt exactly once.
    total_preemptions = sum(r.preemptions for r in trace)
    if total_preemptions == 0:
        assert prefill_tokens == expected
    else:
        assert prefill_tokens >= expected
