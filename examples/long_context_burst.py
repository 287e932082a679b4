#!/usr/bin/env python3
"""The paper's motivating scenario: a 1M-class context hits a busy server.

A steady stream of chat traffic is interrupted by book-length prompts
(200K-400K tokens, LV-Eval scale).  Watch LoongServe's lifecycle from
Figure 6 play out in the iteration trace: the long prefill grabs every
instance the allocation step can justify, proactively scales down to the
fewest instances its KV fits, and the chat decode batches keep producing
tokens on the other instances the whole time.

Run:  python examples/long_context_burst.py
"""

from repro import (
    LoongServeServer,
    Request,
    default_config,
    make_trace,
    summarize_latency,
)
from repro.obs import Tracer
from repro.serving import keep_iteration_rows
from repro.types import Phase, next_request_id
from repro.workloads.datasets import SHAREGPT


def main() -> None:
    config = default_config()
    server = LoongServeServer(config, trace=Tracer(enabled=True))
    keep_iteration_rows(server)  # the iteration trace below reads every row

    chat = make_trace(SHAREGPT, rate=8.0, num_requests=120, seed=3)
    bursts = [
        Request(request_id=next_request_id(), input_len=250_000, output_len=40,
                arrival_time=3.0),
        Request(request_id=next_request_id(), input_len=400_000, output_len=40,
                arrival_time=6.0),
    ]
    result = server.run(chat + bursts)
    summary = summarize_latency(result)

    print(f"served {summary.finished}/{summary.total} requests "
          f"in {result.makespan:.1f}s simulated")
    for burst in bursts:
        print(f"\nburst request ({burst.input_len:,} tokens):")
        print(f"  queued {burst.prefill_start - burst.arrival_time:.2f}s, "
              f"prefilled in {burst.prefill_end - burst.prefill_start:.2f}s, "
              f"finished at t={burst.finish_time:.1f}s")

    prefill_stats = [s for s in result.iterations.rows if s.phase == Phase.PREFILL]
    big = [s for s in prefill_stats if s.total_tokens >= 250_000]
    print(f"\nlong prefills ran at DoP {[s.dop for s in big]} "
          f"(cluster max is {config.num_instances})")

    chat_decode = [
        r for r in result.finished_requests if r.input_len <= 2_300 and r.output_len > 1
    ]
    worst = max(chat_decode, key=lambda r: r.normalized_output_latency)
    print(f"chat requests finished: {len(chat_decode)}; worst normalized output "
          f"latency {worst.normalized_output_latency * 1000:.1f} ms/token")

    downs = [e for e in result.scaling_events if e.kind == "scale_down"]
    ups = [e for e in result.scaling_events if e.kind == "scale_up"]
    print(f"scaling actions: {len(downs)} scale-downs, {len(ups)} scale-ups")

    from repro.viz.timeline import occupancy_timeline

    print("\ninstance occupancy (P=prefill, d=decode):")
    print(occupancy_timeline(result, config.num_instances))


if __name__ == "__main__":
    main()
