"""Integration tests for the LoongServe serving loop."""

import hashlib

import pytest

from repro.config import SchedulerConfig, default_config
from repro.core.batch import DecodeBatch, next_batch_id
from repro.core.server import LoongServeServer
from repro.parallel.groups import ParallelGroup
from repro.types import Phase, RequestState
from repro.workloads.datasets import LEVAL, MIXED, SHAREGPT
from repro.workloads.trace_gen import clone_requests, make_trace
from tests.conftest import make_request


@pytest.fixture(scope="module")
def server() -> LoongServeServer:
    return LoongServeServer(default_config())


class TestBasicServing:
    def test_single_request_completes(self, server):
        request = make_request(input_len=1_000, output_len=5, arrival=0.0)
        result = server.run([request])
        assert request.state == RequestState.FINISHED
        assert request.finish_time is not None
        assert request.generated == 5
        assert result.makespan > 0

    def test_single_token_output(self, server):
        """output_len == 1 finishes at prefill completion."""
        request = make_request(input_len=500, output_len=1)
        server.run([request])
        assert request.finished
        assert request.prefill_end == request.finish_time

    def test_all_requests_complete(self, server):
        trace = make_trace(SHAREGPT, rate=10.0, num_requests=40, seed=3)
        result = server.run(trace)
        assert len(result.finished_requests) == 40
        assert not result.aborted

    def test_pool_empty_after_run(self, server):
        trace = make_trace(SHAREGPT, rate=10.0, num_requests=20, seed=4)
        server.run(trace)
        assert server.pool.total_used == 0

    def test_instances_idle_after_run(self, server):
        trace = make_trace(SHAREGPT, rate=10.0, num_requests=20, seed=5)
        server.run(trace)
        assert all(inst.is_idle for inst in server.instances.values())

    def test_latency_ordering_invariants(self, server):
        trace = make_trace(SHAREGPT, rate=5.0, num_requests=15, seed=6)
        result = server.run(trace)
        for request in result.finished_requests:
            assert request.arrival_time <= request.prefill_start
            assert request.prefill_start <= request.prefill_end
            assert request.prefill_end <= request.finish_time

    def test_deterministic_across_runs(self):
        config = default_config()
        trace = make_trace(SHAREGPT, rate=8.0, num_requests=25, seed=7)
        a = LoongServeServer(config).run(clone_requests(trace))
        b = LoongServeServer(config).run(clone_requests(trace))
        lat_a = sorted(r.normalized_latency for r in a.finished_requests)
        lat_b = sorted(r.normalized_latency for r in b.finished_requests)
        assert lat_a == pytest.approx(lat_b)


class TestMemoryManagement:
    def test_oversized_request_aborted(self, server):
        request = make_request(input_len=10_000_000, output_len=5)
        result = server.run([request])
        assert request in result.aborted
        assert not result.requests

    def test_long_request_spans_instances(self):
        """A request bigger than one instance's pool still serves — the
        unified pool has no locality constraint (Figure 4)."""
        config = default_config()
        server = LoongServeServer(config)
        per_instance = config.kv_slots_per_instance
        request = make_request(input_len=int(1.5 * per_instance), output_len=3)
        result = server.run([request])
        assert request.finished
        assert not result.aborted

    def test_kv_accounting_during_decode(self):
        server = LoongServeServer(default_config())
        request = make_request(input_len=100, output_len=50)
        server.run([request])
        assert request.generated == 50

    def test_tokens_land_on_the_first_most_free_master(self):
        """A decode iteration appends each token where
        ``pick_append_instance`` would: the master with the most free
        slots, the first one on ties."""
        config = default_config()
        server = LoongServeServer(config)
        requests = [make_request(input_len=100, output_len=10) for _ in range(3)]
        for request in requests:
            server.pool.place(request.request_id, {0: request.input_len})
        batch = DecodeBatch(
            batch_id=next_batch_id(),
            requests=list(requests),
            group=ParallelGroup((0, 1, 2), tensor_parallel=config.tensor_parallel),
        )
        server._on_decode_done(batch, (1, 2), batch.group)
        # Masters 1 and 2 start tied: the first token goes to 1, the
        # second to the now freer 2, the third to 1 on the renewed tie.
        landed = [server.pool.placement_of(r.request_id) for r in requests]
        assert landed == [{0: 100, 1: 1}, {0: 100, 2: 1}, {0: 100, 1: 1}]

    def test_full_masters_fall_back_to_the_group_then_preempt(self):
        """With every master full a token goes to the most-free group
        instance with room; with the whole group full it is preempted."""
        config = default_config()
        server = LoongServeServer(config)
        server.pool.place(make_request().request_id, {1: config.kv_slots_per_instance})
        spill, stuck = make_request(output_len=10), make_request(output_len=10)
        server.pool.place(spill.request_id, {0: 100})
        server.pool.place(stuck.request_id, {0: 100})
        # An event due now keeps the tick queued, so the preempted
        # request is still pending when the iteration returns.
        server.sim.call_at(0.0, lambda: None)

        def decode_once(request, group):
            batch = DecodeBatch(
                batch_id=next_batch_id(),
                requests=[request],
                group=ParallelGroup(group, tensor_parallel=config.tensor_parallel),
            )
            server._on_decode_done(batch, (1,), batch.group)

        decode_once(spill, (0, 1, 2))
        assert server.pool.placement_of(spill.request_id) == {0: 100, 2: 1}
        decode_once(stuck, (1,))
        assert stuck.state == RequestState.PREEMPTED
        assert stuck.generated == 0
        assert server.pending == [stuck]
        assert server.pool.tokens_of(stuck.request_id) == 0


class TestElasticity:
    def test_scale_down_recorded_for_long_prefill(self):
        server = LoongServeServer(default_config())
        request = make_request(input_len=200_000, output_len=20)
        result = server.run([request])
        downs = [e for e in result.scaling_events if e.kind == "scale_down"]
        assert downs, "a DoP-4 prefill of a long request must scale down"
        assert len(downs[0].group_after) < len(downs[0].group_before)

    def test_decode_runs_on_kept_instances_only(self):
        server = LoongServeServer(default_config())
        request = make_request(input_len=200_000, output_len=30)
        result = server.run([request])
        decode_stats = [s for s in result.iteration_stats if s.phase == Phase.DECODE]
        assert decode_stats
        assert max(s.dop for s in decode_stats) < 4

    def test_prefill_uses_high_dop_for_long_request(self):
        server = LoongServeServer(default_config())
        request = make_request(input_len=300_000, output_len=5)
        result = server.run([request])
        prefill_stats = [s for s in result.iteration_stats if s.phase == Phase.PREFILL]
        assert prefill_stats[0].dop == 4

    def test_scale_up_disabled_honored(self):
        from repro.baselines.no_scaleup import build_no_scale_up_loongserve

        server = build_no_scale_up_loongserve()
        trace = make_trace(SHAREGPT, rate=30.0, num_requests=150, seed=8)
        result = server.run(trace)
        ups = [e for e in result.scaling_events if e.kind == "scale_up"]
        assert not ups

    def test_scale_up_fires_under_load(self):
        server = LoongServeServer(default_config())
        trace = make_trace(SHAREGPT, rate=40.0, num_requests=300, seed=9)
        result = server.run(trace)
        ups = [e for e in result.scaling_events if e.kind == "scale_up"]
        assert ups, "sustained ShareGPT load must trigger elastic scale-up"

    def test_multiple_batches_coexist(self):
        """Prefill and decode proceed concurrently on disjoint groups."""
        server = LoongServeServer(default_config())
        trace = make_trace(LEVAL, rate=2.0, num_requests=20, seed=10)
        result = server.run(trace)
        assert len(result.finished_requests) == 20
        stats = result.iteration_stats
        prefill_windows = [
            (s.start_time, s.start_time + s.duration)
            for s in stats
            if s.phase == Phase.PREFILL
        ]
        decode_times = [s.start_time for s in stats if s.phase == Phase.DECODE]
        overlapped = any(
            lo < t < hi for t in decode_times for lo, hi in prefill_windows
        )
        assert overlapped, "decode iterations should run during prefills"


class TestColdStartCoopting:
    """Regression: before any request finishes, AvgLat_d must be seeded
    from the predictor, not hard-zeroed — a zero average nulls the Eq. 2
    gain and disables co-opting for a run's entire warm-up."""

    def _server_with_decode_batch(self):
        from repro.core.batch import DecodeBatch, next_batch_id
        from repro.parallel.groups import ParallelGroup

        server = LoongServeServer(default_config())
        batch = DecodeBatch(batch_id=next_batch_id())
        batch.group = ParallelGroup(instance_ids=(2, 3), tensor_parallel=2)
        for _ in range(2):
            request = make_request(input_len=50, output_len=2_000)
            request.generated = 1_000
            request.prefill_end = 0.0
            batch.requests.append(request)
        server.decode_batches.append(batch)
        return server, batch

    def test_cold_average_is_zero_without_decode_batches(self):
        server = LoongServeServer(default_config())
        assert server._avg_decode_latency() == 0.0  # nothing to co-opt

    def test_cold_average_seeded_from_predictor(self):
        server, _ = self._server_with_decode_batch()
        assert server._decode_latency_count == 0
        assert server._avg_decode_latency() > 0.0

    def test_measured_average_takes_over(self):
        server, _ = self._server_with_decode_batch()
        server._decode_latency_sum = 4.0
        server._decode_latency_count = 2
        assert server._avg_decode_latency() == pytest.approx(2.0)

    def test_coopt_can_fire_on_cold_system(self):
        """The seeded estimate lets the Eq. 1/2 analysis co-opt a decode
        batch before the first request ever finishes, where the old
        hard-zero average could not."""
        from repro.config import SchedulerConfig
        from repro.core.dispatching import select_prefill_requests

        server, batch = self._server_with_decode_batch()
        seeded = server._avg_decode_latency()
        pending = [make_request(input_len=100) for _ in range(6)]
        free = {0: 0, 1: 0, 2: 50_000, 3: 50_000}
        config = SchedulerConfig(prefill_tipping_tokens=150)

        def dispatch(avg):
            return select_prefill_requests(
                pending, [], free, [batch],
                server.manager.predictor, 2, config,
                avg_decode_latency=avg, now=0.0,
            )

        cold = dispatch(0.0)
        assert not cold.coopted_batches  # zero gain: the old behaviour
        warm = dispatch(seeded)
        assert batch in warm.coopted_batches
        assert len(warm.requests) > 1


class TestSchedulerConfigKnobs:
    def test_small_max_batch_size(self):
        config = default_config(scheduler=SchedulerConfig(max_batch_size=1))
        server = LoongServeServer(config)
        trace = make_trace(SHAREGPT, rate=5.0, num_requests=10, seed=11)
        result = server.run(trace)
        assert len(result.finished_requests) == 10

    def test_multi_master_disabled_still_serves(self):
        config = default_config(scheduler=SchedulerConfig(enable_multi_master=False))
        server = LoongServeServer(config)
        trace = make_trace(SHAREGPT, rate=10.0, num_requests=30, seed=12)
        result = server.run(trace)
        assert len(result.finished_requests) == 30


class TestIterationGolden:
    """Per-iteration golden gate.  The per-request timeline gates miss an
    iteration that changes shape without moving a finish time; this one
    hashes every iteration (phase, batch size, tokens, DoP, duration,
    start) and every scaling event.  Only update the hashes for an
    *intentional* scheduling or pricing change."""

    @staticmethod
    def _digest(server):
        stats = [
            (s.phase.value, s.batch_size, s.total_tokens, s.dop,
             round(s.duration, 9), round(s.start_time, 9))
            for s in server.iteration_stats
        ]
        events = [
            (round(e.time, 9), e.kind, e.group_before, e.group_after, e.batch_size)
            for e in server.scaling_events
        ]
        return hashlib.md5(repr((stats, events)).encode()).hexdigest()

    def test_iterations_and_scaling_events_are_bit_identical(self):
        # Mixed preempts (the decode append fallback), ShareGPT scales up.
        # The event counts pin which decode iterations and scheduler
        # ticks run inside another event (decode windows, inline ticks)
        # rather than as events of their own.
        expected = {
            (MIXED, 8.0, 120): ("25670fcea1f94455369b16d6e06c0b78", 668),
            (SHAREGPT, 40.0, 400): ("9b78a758ecf25542d0aca12776735488", 2_617),
        }
        preemptions = scale_ups = 0
        for (dataset, rate, count), (digest, events) in expected.items():
            trace = make_trace(dataset, rate=rate, num_requests=count, seed=7)
            server = LoongServeServer(default_config())
            result = server.run(trace)
            assert len(result.finished_requests) == count
            assert self._digest(server) == digest, dataset.name
            assert server.sim.events_processed == events, dataset.name
            preemptions += sum(r.preemptions for r in trace)
            scale_ups += sum(e.kind == "scale_up" for e in server.scaling_events)
        assert preemptions >= 1
        assert scale_ups >= 1
