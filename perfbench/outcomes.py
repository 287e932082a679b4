"""What a finished run served: the request ledger, SLO metrics, digest.

Everything here reads simulated time only, so it is a pure function of
the workload seed: repeated runs, and traced against untraced runs,
must agree bit for bit.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import statistics
from pathlib import Path

from repro.metrics.slo import IdealLatencyModel, slo_report
from repro.obs.tracer import SHADOW_REQUEST_OFFSET

# Requests a workload must submit before its tail metric is p99: below
# this, p99 would rest on fewer than ten samples, so the tail is p90.
P99_MIN_REQUESTS = 1000


class AccountingError(RuntimeError):
    """Submitted requests do not reconcile with the run's outcomes."""


def tail_percentile(submitted: int) -> int:
    """The highest percentile with at least ten samples beyond it."""
    return 99 if submitted >= P99_MIN_REQUESTS else 90


def request_ledger(trace, result) -> dict[str, int]:
    """Classify every submitted request id exactly once.

    ``finished`` served to completion; ``aborted`` dropped as impossible
    to fit; ``rejected`` refused by QoS admission (which stamps a
    deadline before refusing); ``stranded`` still non-terminal when the
    simulator went idle.  Shadow prefill clones (ids at or above
    ``SHADOW_REQUEST_OFFSET``) are internal and skipped.  Raises
    :class:`AccountingError` when an id is classified twice, an outcome
    belongs to no submitted id, or the counts do not add up.
    """
    submitted = {r.request_id for r in trace}
    if len(submitted) != len(trace):
        raise AccountingError("duplicate request ids in the submitted trace")
    status: dict[int, str] = {}

    def classify(request, kind: str) -> None:
        rid = request.request_id
        if rid >= SHADOW_REQUEST_OFFSET:
            return
        if rid not in submitted:
            raise AccountingError(f"outcome for request {rid}, never submitted")
        if rid in status:
            raise AccountingError(
                f"request {rid} counted twice ({status[rid]} and {kind})"
            )
        status[rid] = kind

    for request in result.aborted:
        classify(request, "rejected" if request.deadline is not None else "aborted")
    for request in result.requests:
        if request.finished and request.finish_time is not None:
            classify(request, "finished")
    ledger = {"finished": 0, "aborted": 0, "rejected": 0}
    for kind in status.values():
        ledger[kind] += 1
    ledger["stranded"] = sum(
        1 for r in trace if r.request_id not in status and not r.finished
    )
    counted = sum(ledger.values())
    ledger["submitted"] = len(submitted)
    if counted != len(submitted):
        raise AccountingError(f"ledger does not add up to the submitted count: {ledger}")
    return ledger


@functools.cache
def _sim_speed_bench():
    """``benchmarks/bench_sim_speed.py``, whose outcome signature we share."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_sim_speed.py"
    spec = importlib.util.spec_from_file_location("bench_sim_speed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def outcome_digest(requests) -> str:
    """Digest of every request's serving outcome, request ids excluded
    (``outcome_signature``: the workload tuple plus served timestamps)."""
    return _sim_speed_bench().outcome_signature(requests)


def calibration_score() -> float:
    """The interpreter's speed right now, in M-iterations/s of a fixed
    pure-Python loop (``calibration_score`` of the same bench)."""
    return _sim_speed_bench().calibration_score()


def ideal_model(system) -> IdealLatencyModel:
    """The no-load latency model behind each request's SLO (25x ideal)."""
    replicas = getattr(system, "replicas", None)
    server = replicas[0].server if replicas is not None else system
    return IdealLatencyModel(
        cost_model=server.cost_model,
        tensor_parallel=server.config.tensor_parallel,
        max_instances=server.config.num_instances,
    )


def episode_outcome(trace, result, ideal: IdealLatencyModel) -> dict:
    """One served trace: its ledger, makespan, and per-request rows.

    Latency runs from each request's trace ``arrival_time`` (when it was
    due), so a stalled system charges every request queued behind it.
    A row is ``[ttft_s, tpot_s or None, e2e/(input+output), attained]``.
    """
    ledger = request_ledger(trace, result)
    rows = []
    for r in trace:
        if not r.finished or r.finish_time is None or r.first_token_time is None:
            continue
        tpot = (
            (r.finish_time - r.first_token_time) / (r.output_len - 1)
            if r.output_len > 1 else None
        )
        attained = r.end_to_end_latency <= ideal.deadline(r)
        rows.append([r.first_token_time - r.arrival_time, tpot,
                     r.normalized_latency, attained])
    if len(rows) != ledger["finished"]:
        raise AccountingError(
            f"{ledger['finished']} finished in the ledger, {len(rows)} in the trace"
        )
    slo = slo_report(result, ideal)
    if slo.attained != sum(row[3] for row in rows):
        raise AccountingError("slo_report disagrees with the per-request SLO check")
    return {"ledger": ledger, "makespan": result.makespan, "rows": rows}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def serving_metrics(episodes: list[dict]) -> dict:
    """The paper's end-to-end metrics over every request of every episode.

    ``slo_attainment`` is attained over *submitted* requests (failures
    miss), ``goodput_rps`` attained requests per simulated second of
    serving, ``completed_frac`` finished over submitted.
    """
    submitted = sum(e["ledger"]["submitted"] for e in episodes)
    finished = sum(e["ledger"]["finished"] for e in episodes)
    rows = [row for e in episodes for row in e["rows"]]
    if not rows:
        raise AccountingError("no request finished")
    tail = tail_percentile(submitted)
    ttft = [row[0] for row in rows]
    tpot = [row[1] for row in rows if row[1] is not None]
    attained = sum(row[3] for row in rows)
    return {
        "ttft_p50_s": percentile(ttft, 50),
        "ttft_tail_s": percentile(ttft, tail),
        "tpot_p50_ms": percentile(tpot, 50) * 1e3,
        "tpot_tail_ms": percentile(tpot, tail) * 1e3,
        "norm_latency_s_per_tok": statistics.fmean(row[2] for row in rows),
        "slo_attainment": attained / submitted,
        "goodput_rps": attained / sum(e["makespan"] for e in episodes),
        "completed_frac": finished / submitted,
        "failed_frac": 1.0 - finished / submitted,
        "tail_percentile": tail,
    }
