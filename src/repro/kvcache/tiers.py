"""Host/SSD KV tiers: cold prefix extents park off-GPU instead of dying.

Production long-context fleets spill cold KV down a memory hierarchy
(GPU HBM -> pinned host memory over PCIe -> local NVMe) because decode-
side KV residency, not prefill compute, is the binding resource.  This
module models that hierarchy for the prefix cache: when
:class:`~repro.sessions.prefix_cache.PrefixKVCache` evicts an extent, a
:class:`TieredKVStore` (when armed) catches the full root-to-leaf token
sequence in the host tier; under host pressure extents demote to the
SSD tier, and off the bottom they are dropped for real.  A later prefix
match that extends past GPU residency *fetches* the extent back up,
charging the swap-in transfer to the request's prefill launch via the
cache's swap-debt ledger.

Victim selection within a tier is pluggable (the fluid vLLM simulator's
swapping mode is the exemplar): ``lru`` demotes the coldest extent,
``fifo`` the oldest-inserted, ``lifo`` the newest-inserted (which
protects long-lived hot prefixes at the cost of thrashing fresh ones).

Invariants the chaos tests lean on (see :meth:`TieredKVStore.check_invariants`):

* **Token conservation** — every token ever accepted into the store is
  exactly one of: still resident (host or SSD), swapped back in, or
  dropped.
* **No double-residency** — an extent lives in exactly one tier, and no
  extent's payload span is contained in another extent's payload span
  of the same sequence line (covered extents are deduplicated on
  offload, overlapping ones trimmed).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.costmodel.comm import SwapPricing

#: Recognised victim-selection policies for tier demotion.
VICTIM_POLICIES = ("lru", "fifo", "lifo")


@dataclass
class TierStats:
    """Flow counters for one store; safe to sum across replicas."""

    offloaded_tokens: int = 0    # accepted from the GPU cache
    swapped_in_tokens: int = 0   # fetched back up to the GPU
    spilled_tokens: int = 0      # demoted host -> SSD
    dropped_tokens: int = 0      # fell off the bottom (or deduplicated)
    swap_in_seconds: float = 0.0
    swap_out_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "tier_offloaded_tokens": self.offloaded_tokens,
            "tier_swapped_in_tokens": self.swapped_in_tokens,
            "tier_spilled_tokens": self.spilled_tokens,
            "tier_dropped_tokens": self.dropped_tokens,
            "tier_swap_in_seconds": self.swap_in_seconds,
            "tier_swap_out_seconds": self.swap_out_seconds,
        }


class _Extent:
    """One offloaded extent: the payload is ``seq[start:]``.

    ``seq`` is the full token sequence from the radix root, so prefix
    matching against a later prompt needs no tree — the span before
    ``start`` is context that was resident elsewhere when the extent
    was evicted.
    """

    __slots__ = ("seq", "start", "tier", "last_access", "seqno")

    def __init__(
        self, seq: tuple[int, ...], start: int, tier: str,
        last_access: float, seqno: int,
    ) -> None:
        self.seq = seq
        self.start = start
        self.tier = tier
        self.last_access = last_access
        self.seqno = seqno

    @property
    def tokens(self) -> int:
        return len(self.seq) - self.start


class TieredKVStore:
    """Two-tier (host/SSD) backing store for evicted prefix extents."""

    def __init__(
        self,
        policy: str = "lru",
        host_capacity_tokens: int = 200_000,
        ssd_capacity_tokens: int = 1_000_000,
        bytes_per_token: float = 0.0,
        pricing: SwapPricing | None = None,
    ) -> None:
        if policy not in VICTIM_POLICIES:
            raise ValueError(
                f"unknown victim policy {policy!r}; choose from {VICTIM_POLICIES}"
            )
        if host_capacity_tokens < 0 or ssd_capacity_tokens < 0:
            raise ValueError("tier capacities must be >= 0")
        self.policy = policy
        self.host_capacity_tokens = host_capacity_tokens
        self.ssd_capacity_tokens = ssd_capacity_tokens
        self.bytes_per_token = bytes_per_token
        self.pricing = pricing if pricing is not None else SwapPricing()
        self.stats = TierStats()
        self._extents: dict[tuple[int, ...], _Extent] = {}
        self._seqno = itertools.count()
        # Observability sinks (duck-typed so this module stays
        # dependency-light): a tracer records one audit per tier op, a
        # metrics registry counts token flow.  None = silent, the
        # bit-identical default.
        self._tracer = None
        self._metrics = None
        self._replica = -1

    def observe(self, tracer=None, metrics=None, replica: int = -1) -> None:
        """Attach audit/telemetry sinks (idempotent; fleet runs re-arm
        after every ``_reset`` since the store outlives crashes)."""
        self._tracer = tracer
        self._metrics = metrics
        self._replica = replica

    def _audit(self, now: float, kind: str, *, tokens: int, seconds: float = 0.0,
               **payload) -> None:
        """One tier-flow audit record (tokens, priced bytes + latency)."""
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.audit(
                now, kind, component="kvtiers", replica=self._replica,
                tokens=tokens, bytes=int(tokens * self.bytes_per_token),
                seconds=round(seconds, 9), **payload,
            )
        if self._metrics is not None:
            self._metrics.counter(f"{kind}_tokens").inc(tokens)

    # -- queries --------------------------------------------------------------

    def resident_tokens(self, tier: str | None = None) -> int:
        return sum(
            e.tokens
            for e in self._extents.values()
            if tier is None or e.tier == tier
        )

    def __len__(self) -> int:
        return len(self._extents)

    def extents(self, tier: str | None = None) -> list[tuple[tuple[int, ...], int, str]]:
        """(seq, start, tier) snapshots, insertion-ordered (tests/debug)."""
        return [
            (e.seq, e.start, e.tier)
            for e in self._extents.values()
            if tier is None or e.tier == tier
        ]

    def probe(self, token_ids: tuple[int, ...], resident_len: int) -> int:
        """Longest usable prefix of ``token_ids`` after fetching one
        extent, given ``resident_len`` tokens already GPU-resident.
        Returns ``resident_len`` when no extent extends the match."""
        extent = self._best_extension(token_ids, resident_len)
        if extent is None:
            return resident_len
        return common_prefix_len(extent.seq, token_ids)

    # -- offload path ---------------------------------------------------------

    def offload(self, seq: tuple[int, ...], start: int, now: float) -> int:
        """Accept an evicted extent (payload ``seq[start:]``) into the
        host tier.  Returns the tokens accepted (0 when the extent is
        already covered or empty)."""
        if not seq or start >= len(seq) or self.host_capacity_tokens == 0:
            return 0
        deduped = self._dedup_against_existing(seq, start, now)
        if deduped is None:
            return 0
        seq, start = deduped
        extent = _Extent(seq, start, "host", now, next(self._seqno))
        self._extents[seq] = extent
        accepted = extent.tokens
        self.stats.offloaded_tokens += accepted
        offload_s = self.pricing.host_swap_time(accepted * self.bytes_per_token)
        self.stats.swap_out_seconds += offload_s
        self._audit(now, "kv_tier_offload", tokens=accepted, seconds=offload_s,
                    tier="host")
        self._rebalance(now)
        return accepted

    def _dedup_against_existing(
        self, seq: tuple[int, ...], start: int, now: float
    ) -> tuple[tuple[int, ...], int] | None:
        """Enforce the no-double-residency invariant before insert.

        Any existing extent whose payload is covered by the new one is
        removed (its tokens count as dropped: the new copy supersedes
        it); if the new payload is covered by an existing extent it is
        rejected (None); partial overlaps trim the new extent's span.
        Returns the possibly trimmed ``(seq, start)`` to insert."""
        doomed = []
        for other in list(self._extents.values()):
            if other.seq == seq:
                # Same sequence line: keep whichever covers more.
                if other.start <= start:
                    return None
                doomed.append(other)
                continue
            if _is_prefix(other.seq, seq):
                # Existing is an ancestor line; its payload ends at
                # len(other.seq) <= len(seq).
                if start <= other.start:
                    doomed.append(other)  # fully inside the new span
                elif start < len(other.seq):
                    start = len(other.seq)  # skip past the covered part
                continue
            if _is_prefix(seq, other.seq):
                # Existing is a descendant line whose span runs to
                # len(other.seq) >= len(seq).
                if other.start <= start:
                    return None  # new payload fully inside existing span
                if other.start < len(seq):
                    # Trim the tail: [start, other.start) is the gap the
                    # existing extent does not cover.
                    seq = seq[: other.start]
                if start >= len(seq):
                    return None
        if start >= len(seq):
            return None
        for other in doomed:
            self._drop(other, now, reason="superseded")
        return seq, start

    def _rebalance(self, now: float) -> None:
        """Demote host overflow to SSD, drop SSD overflow."""
        while self.resident_tokens("host") > self.host_capacity_tokens:
            victim = self._victim("host")
            if victim is None:
                break
            if self.ssd_capacity_tokens > 0:
                victim.tier = "ssd"
                self.stats.spilled_tokens += victim.tokens
                demote_s = self.pricing.ssd_swap_time(
                    victim.tokens * self.bytes_per_token
                )
                self.stats.swap_out_seconds += demote_s
                self._audit(now, "kv_tier_demote", tokens=victim.tokens,
                            seconds=demote_s, tier="ssd")
            else:
                self._drop(victim, now, reason="capacity")
        while self.resident_tokens("ssd") > self.ssd_capacity_tokens:
            victim = self._victim("ssd")
            if victim is None:
                break
            self._drop(victim, now, reason="capacity")

    def _drop(self, extent: _Extent, now: float, reason: str) -> None:
        del self._extents[extent.seq]
        self.stats.dropped_tokens += extent.tokens
        self._audit(now, "kv_tier_drop", tokens=extent.tokens,
                    tier=extent.tier, reason=reason)

    def _victim(self, tier: str) -> _Extent | None:
        candidates = [e for e in self._extents.values() if e.tier == tier]
        if not candidates:
            return None
        if self.policy == "lru":
            return min(candidates, key=lambda e: (e.last_access, e.seqno))
        if self.policy == "fifo":
            return min(candidates, key=lambda e: e.seqno)
        return max(candidates, key=lambda e: e.seqno)  # lifo

    # -- swap-in path ---------------------------------------------------------

    def fetch(
        self, token_ids: tuple[int, ...], resident_len: int, now: float,
        request_id: int | None = None,
    ) -> tuple[int, float]:
        """Swap the best extending extent back up to the GPU.

        Returns ``(usable_len, swap_seconds)`` where ``usable_len`` is
        the new longest usable prefix of ``token_ids`` (== ``resident_len``
        when no extent helps, with zero cost).  The extent leaves the
        store — swap-in is a move, never a copy.  ``request_id`` names
        the benefiting request in the audit record (the prefill whose
        launch the swap debt will be charged to)."""
        extent = self._best_extension(token_ids, resident_len)
        if extent is None:
            return resident_len, 0.0
        usable = common_prefix_len(extent.seq, token_ids)
        seconds = self.pricing.swap_time(
            extent.tokens * self.bytes_per_token, extent.tier
        )
        tier = extent.tier
        del self._extents[extent.seq]
        self.stats.swapped_in_tokens += extent.tokens
        self.stats.swap_in_seconds += seconds
        self._audit(
            now, "kv_tier_swap_in", tokens=extent.tokens, seconds=seconds,
            tier=tier,
            **({} if request_id is None else {"request": request_id}),
        )
        return usable, seconds

    def _best_extension(
        self, token_ids: tuple[int, ...], resident_len: int
    ) -> _Extent | None:
        """The extent giving the longest usable prefix beyond
        ``resident_len``; contiguity requires its span to start at or
        before the resident boundary.  Deterministic tie-break by
        insertion order."""
        best = None
        best_usable = resident_len
        first = token_ids[0] if token_ids else None
        for extent in self._extents.values():
            if extent.start > resident_len:
                continue
            seq = extent.seq
            # An extent whose line diverges at token 0 has usable == 0,
            # which can never win (winning needs usable > resident_len
            # >= 0) — skip the prefix compare.  This is the common case
            # under multi-session traffic, where most offloaded extents
            # belong to other sequence lines.
            if not seq or seq[0] != first:
                continue
            usable = common_prefix_len(seq, token_ids)
            if usable > best_usable or (
                usable == best_usable
                and best is not None
                and usable > resident_len
                and extent.seqno < best.seqno
            ):
                best = extent
                best_usable = usable
        return best

    # -- invariants -----------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError when conservation or residency is broken
        (the chaos tests call this after every perturbation)."""
        host = self.resident_tokens("host")
        ssd = self.resident_tokens("ssd")
        stats = self.stats
        assert stats.offloaded_tokens == (
            host + ssd + stats.swapped_in_tokens + stats.dropped_tokens
        ), (
            f"tier token conservation broken: offloaded={stats.offloaded_tokens} "
            f"!= host={host} + ssd={ssd} + in={stats.swapped_in_tokens} "
            f"+ dropped={stats.dropped_tokens}"
        )
        assert host <= self.host_capacity_tokens, "host tier over capacity"
        assert ssd <= self.ssd_capacity_tokens, "ssd tier over capacity"
        spans = [
            (e.seq, e.start, len(e.seq)) for e in self._extents.values()
        ]
        for i, (seq_a, start_a, end_a) in enumerate(spans):
            for seq_b, start_b, end_b in spans[i + 1:]:
                if not (_is_prefix(seq_a, seq_b) or _is_prefix(seq_b, seq_a)):
                    continue  # different sequence lines never alias
                lo = max(start_a, start_b)
                hi = min(end_a, end_b)
                assert hi <= lo, (
                    f"double residency: spans [{start_a},{end_a}) and "
                    f"[{start_b},{end_b}) overlap on a shared line"
                )


def common_prefix_len(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Length of the longest common prefix of two token tuples.

    Compares whole slices, so the element scan runs in C: one compare
    when either tuple is a prefix of the other, otherwise a bisection
    whose slice compares add up to about twice the shorter length.
    Both arguments must be tuples (a list never equals a tuple).
    """
    n = min(len(a), len(b))
    if a[:n] == b[:n]:
        return n
    lo, hi = 0, n  # a[:lo] == b[:lo]; the first mismatch is in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


def _is_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return len(a) <= len(b) and b[: len(a)] == a
