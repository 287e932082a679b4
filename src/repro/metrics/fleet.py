"""Fleet-aggregated metrics: merged results, load imbalance, elasticity.

A fleet run produces one ``ServeResult`` per replica; the paper's
latency/SLO metrics apply to the *union* of requests, so
``merge_serve_results`` folds the per-replica results into one (global
makespan = the latest replica finish).  ``fleet_load_report`` keeps the
per-replica view: how evenly the router spread requests, tokens, and
busy time — the quantities that explain *why* one routing policy beats
another.  ``ElasticStats`` is the control plane's flight recorder: the
fleet-capacity timeline (replicas online over time), the work-stealing
ledger (moves plus the re-prefill tokens steals charged), and the
cross-replica KV-migration traffic — the quantities that explain what
elasticity bought (or cost) on top of placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.metrics.qos import merge_qos_stats
from repro.types import IterationLedger, ServeResult


def merge_serve_results(
    per_replica: Sequence[ServeResult],
    system: str = "fleet",
) -> ServeResult:
    """Fold per-replica results into one fleet-wide ``ServeResult``.

    Requests, aborts and scaling events concatenate, and the iteration
    ledgers add together (:meth:`~repro.types.IterationLedger.total`);
    the fleet makespan is the maximum replica makespan (replicas on a
    shared clock all report it; independently-run replicas report their
    own, and the fleet is done only when the last one is).  Prefix-cache
    and QoS-ledger counters are plain sums, so fleet totals stay exact.
    """
    if not per_replica:
        raise ValueError("need at least one replica result")
    return ServeResult(
        system=system,
        requests=[r for result in per_replica for r in result.requests],
        scaling_events=[e for result in per_replica for e in result.scaling_events],
        iterations=IterationLedger.total([r.iterations for r in per_replica]),
        makespan=max(result.makespan for result in per_replica),
        aborted=[r for result in per_replica for r in result.aborted],
        cache_stats=merge_cache_stats(per_replica),
        qos_stats=merge_qos_stats(per_replica),
    )


def merge_cache_stats(per_replica: Sequence[ServeResult]) -> dict[str, float] | None:
    """Sum per-replica prefix-cache counters (None when no replica has a
    cache — the counters are plain sums, so fleet totals stay exact)."""
    with_stats = [r.cache_stats for r in per_replica if r.cache_stats is not None]
    if not with_stats:
        return None
    merged: dict[str, float] = {}
    for stats in with_stats:
        for key, value in stats.items():
            merged[key] = merged.get(key, 0) + value
    return merged


@dataclass
class ElasticStats:
    """Mutable flight recorder the fleet control plane writes during a run.

    ``capacity_timeline`` holds ``(time, replicas_online)`` transitions
    (always seeded with the launch state at t=0); ``scaling_log`` the
    individual park/unpark/drain actions.  Steal and migration counters
    are fleet-wide totals.  ``control_ticks`` counts evaluated control
    intervals, so experiments can report actuator activity per tick.
    """

    capacity_timeline: list[tuple[float, int]] = field(default_factory=list)
    scaling_log: list[tuple[float, str, int]] = field(default_factory=list)
    control_ticks: int = 0
    stolen_requests: int = 0
    steal_reprefill_tokens: int = 0
    migrated_kv_tokens: int = 0
    migrations: int = 0
    migration_seconds: float = 0.0
    # Failure injection (``repro.fleet.faults``): crashes that fired,
    # KV tokens the fleet lost with them, the failover ledger (orphans
    # re-dispatched and the already-computed tokens they must redo), and
    # stolen requests rescued from a mid-flight delivery to a dead
    # replica.  The capacity timeline doubles as the availability
    # timeline — crashes and recoveries are recorded into it.
    crashes: int = 0
    lost_kv_tokens: int = 0
    failovers: int = 0
    failover_reprefill_tokens: int = 0
    rescued_inflight: int = 0
    # Fault outages: ``[start, end, replica_id]`` windows a replica was
    # down *because it crashed* (end is None while still down — clipped
    # to the makespan when reading).  Kept apart from the capacity
    # timeline so availability() measures capacity lost to faults, not
    # capacity the autoscaler parked on purpose.
    fault_outages: list[list] = field(default_factory=list)
    # Replica lifecycle charges (``costmodel.latency.ReplicaLifecycleModel``):
    # warm-up is also *latency* (the replica joins late); cool-down is
    # capacity only.  Both are replica-seconds added to the bill.
    warmup_seconds: float = 0.0
    cooldown_seconds: float = 0.0
    # Disaggregated serving (``repro.fleet.disagg``): prefill-pool ->
    # decode-pool KV handoffs over the priced fabric, and the prefix
    # tokens the decode side had to re-prefill when an import fell
    # short (dropped by the destination's pool pressure).
    disagg_handoffs: int = 0
    disagg_handoff_tokens: int = 0
    disagg_handoff_seconds: float = 0.0
    disagg_reprefill_tokens: int = 0

    def record_capacity(self, now: float, online: int) -> None:
        """Append a capacity transition (deduplicated against the last)."""
        if self.capacity_timeline and self.capacity_timeline[-1][1] == online:
            return
        self.capacity_timeline.append((now, online))

    def record_action(self, now: float, action: str, replica_id: int) -> None:
        self.scaling_log.append((now, action, replica_id))

    def note_outage_start(self, now: float, replica_id: int) -> None:
        """A replica crashed: open its fault-downtime window."""
        self.fault_outages.append([now, None, replica_id])

    def note_outage_end(self, now: float, replica_id: int) -> None:
        """A replica came back online; closes its open fault window, if
        any (no-op for autoscaler unparks — parking is not an outage)."""
        for outage in reversed(self.fault_outages):
            if outage[2] == replica_id and outage[1] is None:
                outage[1] = now
                return

    def fault_downtime_seconds(self, makespan: float) -> float:
        """Replica-seconds lost to crashes (open windows clip at the
        makespan — a replica still down when the run ends was down to
        the end)."""
        total = 0.0
        for start, end, _ in self.fault_outages:
            stop = makespan if end is None else min(end, makespan)
            total += max(0.0, stop - start)
        return total

    @property
    def scale_downs(self) -> int:
        return sum(1 for _, action, _ in self.scaling_log if action == "park")

    @property
    def scale_ups(self) -> int:
        return sum(1 for _, action, _ in self.scaling_log if action == "unpark")

    def replica_seconds(self, makespan: float) -> float:
        """Integral of replicas-online over the run (capacity actually paid
        for) — the autoscaler's headline saving vs. ``N * makespan``."""
        if not self.capacity_timeline:
            return 0.0
        total = 0.0
        for (t0, online), (t1, _) in zip(
            self.capacity_timeline, self.capacity_timeline[1:]
        ):
            total += online * (max(t1, t0) - t0)
        last_t, last_online = self.capacity_timeline[-1]
        total += last_online * max(0.0, makespan - last_t)
        return total

    def availability(self, makespan: float) -> float:
        """Fraction of peak replica-seconds *not* lost to faults.

        1.0 means no crash ever cost capacity; each fault outage (crash
        until back online, recovery warm-up included) pulls it down.
        Capacity the autoscaler parked on purpose does not count —
        deliberate scale-in is not unavailability.  Peak is the highest
        online count the timeline saw (the fleet's intended size).
        """
        if not self.capacity_timeline or makespan <= 0:
            return 1.0
        peak = max(online for _, online in self.capacity_timeline)
        if peak == 0:
            return 1.0
        lost = self.fault_downtime_seconds(makespan)
        return max(0.0, 1.0 - lost / (peak * makespan))

    def render(self, makespan: float) -> str:
        """The elastic timeline block of ``FleetLoadReport.render``."""
        steps = " -> ".join(
            f"{online}@{t:.1f}s" for t, online in self.capacity_timeline
        )
        lines = [f"replicas online: {steps or 'n/a'}"]
        if self.capacity_timeline:
            peak = max(online for _, online in self.capacity_timeline)
            used = self.replica_seconds(makespan)
            lines.append(
                f"capacity: {used:,.1f} replica-s used of "
                f"{peak * makespan:,.1f} static ({self.scale_ups} unparks, "
                f"{self.scale_downs} parks, {self.control_ticks} ticks)"
            )
        lines.append(
            f"work stealing: {self.stolen_requests} requests moved, "
            f"{self.steal_reprefill_tokens:,} re-prefill tokens charged"
        )
        lines.append(
            f"kv migration: {self.migrated_kv_tokens:,} tokens in "
            f"{self.migrations} transfers ({self.migration_seconds * 1000:.1f} ms modelled)"
        )
        if self.disagg_handoffs:
            lines.append(
                f"disagg handoffs: {self.disagg_handoff_tokens:,} tokens in "
                f"{self.disagg_handoffs} prefill->decode transfers "
                f"({self.disagg_handoff_seconds * 1000:.1f} ms modelled, "
                f"{self.disagg_reprefill_tokens:,} re-prefill tokens)"
            )
        if self.warmup_seconds or self.cooldown_seconds:
            lines.append(
                f"lifecycle: {self.warmup_seconds:.2f}s warm-up + "
                f"{self.cooldown_seconds:.2f}s cool-down charged"
            )
        if self.crashes:
            lines.append(
                f"faults: {self.crashes} crashes, {self.lost_kv_tokens:,} KV "
                f"tokens lost, {self.failovers} failovers "
                f"({self.failover_reprefill_tokens:,} re-prefill tokens, "
                f"{self.rescued_inflight} in-flight rescues); "
                f"availability {self.availability(makespan):.1%}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class ReplicaLoad:
    """Work one replica received and performed during a fleet run."""

    replica_id: int
    system: str
    routed: int
    finished: int
    aborted: int
    input_tokens: int
    output_tokens: int
    busy_seconds: float
    # Prefix-cache counters (0 on replicas serving without a cache).
    prefix_hit_tokens: int = 0
    prefix_miss_tokens: int = 0
    # KV tier counters (0 on replicas without host/SSD offload armed).
    tier_offloaded_tokens: int = 0
    tier_swapped_in_tokens: int = 0
    tier_swap_in_seconds: float = 0.0

    @property
    def total_tokens(self) -> int:
        return self.input_tokens + self.output_tokens

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prefill tokens served from this replica's cache."""
        total = self.prefix_hit_tokens + self.prefix_miss_tokens
        return self.prefix_hit_tokens / total if total else 0.0


@dataclass(frozen=True)
class FleetLoadReport:
    """Per-replica load breakdown plus fleet imbalance statistics.

    ``elastic`` carries the control plane's recorder when the run used
    one (``None`` on static fleets); ``makespan`` anchors its
    replica-seconds integral.  ``qos_stats`` is the fleet-summed
    per-class admission ledger when any replica served under a QoS
    policy (``None`` otherwise).
    """

    replicas: tuple[ReplicaLoad, ...]
    elastic: ElasticStats | None = None
    makespan: float = 0.0
    qos_stats: dict[str, dict[str, float]] | None = None

    @property
    def token_imbalance(self) -> float:
        """Max/mean routed tokens across replicas (1.0 = perfect balance)."""
        totals = [r.total_tokens for r in self.replicas]
        mean = float(np.mean(totals)) if totals else 0.0
        return max(totals) / mean if mean > 0 else 1.0

    @property
    def request_cv(self) -> float:
        """Coefficient of variation of routed request counts."""
        counts = [r.routed for r in self.replicas]
        mean = float(np.mean(counts)) if counts else 0.0
        return float(np.std(counts)) / mean if mean > 0 else 0.0

    @property
    def saved_prefill_tokens(self) -> int:
        """Fleet-wide prefill tokens skipped via prefix-cache hits."""
        return sum(r.prefix_hit_tokens for r in self.replicas)

    @property
    def has_prefix_caches(self) -> bool:
        return any(
            r.prefix_hit_tokens or r.prefix_miss_tokens for r in self.replicas
        )

    @property
    def has_kv_tiers(self) -> bool:
        return any(
            r.tier_offloaded_tokens or r.tier_swapped_in_tokens
            for r in self.replicas
        )

    def render(self) -> str:
        """Text table for the CLI."""
        with_cache = self.has_prefix_caches
        header = (
            "replica  system                      reqs  finished  aborted"
            "      tokens   busy s"
        )
        if with_cache:
            header += "  hit-rate"
        lines = [header]
        for load in self.replicas:
            row = (
                f"{load.replica_id:>7}  {load.system[:26]:<26}"
                f"{load.routed:>6}{load.finished:>10}{load.aborted:>9}"
                f"{load.total_tokens:>12,}{load.busy_seconds:>9.1f}"
            )
            if with_cache:
                row += f"{load.prefix_hit_rate:>10.1%}"
            lines.append(row)
        lines.append(
            f"token imbalance (max/mean): {self.token_imbalance:.2f}   "
            f"request-count CV: {self.request_cv:.2f}"
        )
        if with_cache:
            lines.append(
                f"prefix cache: {self.saved_prefill_tokens:,} prefill tokens saved"
            )
        if self.has_kv_tiers:
            offloaded = sum(r.tier_offloaded_tokens for r in self.replicas)
            swapped = sum(r.tier_swapped_in_tokens for r in self.replicas)
            seconds = sum(r.tier_swap_in_seconds for r in self.replicas)
            lines.append(
                f"kv tiers: {offloaded:,} tokens offloaded, {swapped:,} "
                f"swapped back in ({seconds * 1000:.1f} ms charged)"
            )
        if self.qos_stats:
            for name in sorted(self.qos_stats):
                counters = self.qos_stats[name]
                lines.append(
                    f"qos {name:<12} "
                    f"submitted {int(counters.get('submitted', 0)):>5}  "
                    f"admitted {int(counters.get('admitted', 0)):>5}  "
                    f"rejected {int(counters.get('rejected', 0)):>4}  "
                    f"downgraded {int(counters.get('downgraded', 0)):>4}  "
                    f"preempted {int(counters.get('preempted', 0)):>4}"
                )
        if self.elastic is not None:
            lines.append(self.elastic.render(self.makespan))
        return "\n".join(lines)


def fleet_load_report(
    per_replica: Sequence[ServeResult],
    elastic: ElasticStats | None = None,
    makespan: float | None = None,
) -> FleetLoadReport:
    """Summarise how a fleet run's work spread across replicas."""
    loads = []
    for replica_id, result in enumerate(per_replica):
        routed = list(result.requests) + list(result.aborted)
        cache = result.cache_stats or {}
        loads.append(
            ReplicaLoad(
                replica_id=replica_id,
                system=result.system,
                routed=len(routed),
                finished=len(result.finished_requests),
                aborted=len(result.aborted),
                input_tokens=sum(r.input_len for r in routed),
                output_tokens=sum(r.generated for r in routed),
                busy_seconds=result.iterations.busy_seconds,
                prefix_hit_tokens=int(cache.get("hit_tokens", 0)),
                prefix_miss_tokens=int(cache.get("miss_tokens", 0)),
                tier_offloaded_tokens=int(cache.get("tier_offloaded_tokens", 0)),
                tier_swapped_in_tokens=int(cache.get("tier_swapped_in_tokens", 0)),
                tier_swap_in_seconds=float(cache.get("tier_swap_in_seconds", 0.0)),
            )
        )
    if makespan is None:
        makespan = max((r.makespan for r in per_replica), default=0.0)
    return FleetLoadReport(
        replicas=tuple(loads),
        elastic=elastic,
        makespan=makespan,
        qos_stats=merge_qos_stats(per_replica),
    )
