"""Radix-tree prefix-KV cache over a replica's unified pool.

Finished requests donate their KV to the tree instead of freeing it: the
full token sequence (prompt + generated output) becomes a cached prefix
for the conversation's next turn, which then prefills only its uncached
suffix.  The design follows the production pattern (SGLang's RadixAttention,
vLLM's prefix caching) adapted to this repo's token-granularity simulation:

* Each tree node owns one **extent** — a contiguous span of the token
  sequence whose KV slots are held in the :class:`UnifiedKVPool` under a
  negative *owner id* (so cache extents coexist with live requests and
  survive the migration bookkeeping unchanged).
* **Ref-counting** pins the matched path while a request relies on it:
  extents under an active lock are never evicted, so a prefill charged
  only for its suffix can never lose its prefix mid-flight.
* **Eviction** is LRU over unlocked leaves, triggered by the server when
  pending work needs slots the pool cannot otherwise provide — the cache
  only ever occupies memory nothing else wants.
* Lock paths always end on node boundaries (the tree is split at the
  match point when a lock is taken), which keeps later splits trivially
  safe: any node inside a lock path is fully covered by it, so both
  halves of a split stay pinned.

All placement bookkeeping lives in the pool (``place``/``evict``/
``reassign``); the tree stores only owner ids and token spans, so KV
migrations between instances are transparent to the cache.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.kvcache.tiers import common_prefix_len
from repro.kvcache.unified import UnifiedKVPool
from repro.types import Request


@dataclass
class PrefixCacheStats:
    """Hit/miss/eviction accounting, counted in requests and tokens.

    ``lookups``/``hits``/``misses`` count prefill launches; the token
    counters measure the actual work: ``hit_tokens`` is prefill compute
    (and KV allocation) saved by matched prefixes, ``miss_tokens`` the
    suffix tokens still prefilled from scratch.
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    hit_tokens: int = 0
    miss_tokens: int = 0
    inserted_tokens: int = 0
    evicted_tokens: int = 0
    # Cross-replica migration traffic (``repro.fleet`` control plane):
    # tokens this cache received from / shipped to a peer replica's cache.
    imported_tokens: int = 0
    exported_tokens: int = 0

    def as_dict(self) -> dict[str, float]:
        """Plain counters, safe to sum across replicas for fleet views."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_tokens": self.hit_tokens,
            "miss_tokens": self.miss_tokens,
            "inserted_tokens": self.inserted_tokens,
            "evicted_tokens": self.evicted_tokens,
            "imported_tokens": self.imported_tokens,
            "exported_tokens": self.exported_tokens,
        }


class _Node:
    """One radix-tree node: an edge-label extent plus children."""

    __slots__ = ("tokens", "children", "parent", "owner", "ref", "last_access")

    def __init__(
        self,
        tokens: tuple[int, ...],
        parent: "_Node | None",
        owner: int,
        last_access: float = 0.0,
    ) -> None:
        self.tokens = tokens
        self.children: dict[int, _Node] = {}
        self.parent = parent
        self.owner = owner
        self.ref = 0
        self.last_access = last_access

    @property
    def is_leaf(self) -> bool:
        return not self.children


class PrefixKVCache:
    """Token-id prefix → resident KV extent map for one replica."""

    def __init__(
        self,
        pool: UnifiedKVPool,
        stats: PrefixCacheStats | None = None,
        tiers=None,
    ) -> None:
        self.pool = pool
        self.root = _Node(tokens=(), parent=None, owner=0)
        self._owner_ids = itertools.count(1)
        self._locks: dict[int, list[_Node]] = {}
        self._resident_tokens = 0
        # Host/SSD offload tiers (repro.kvcache.tiers.TieredKVStore).
        # When armed, evicted extents demote into the store instead of
        # vanishing, and match_and_lock swaps extending extents back up,
        # charging the transfer via the per-request swap-debt ledger the
        # server drains into the prefill duration.  None = pre-tier
        # behaviour, bit-identical.
        self.tiers = tiers
        self._swap_debt: dict[int, float] = {}
        # A replica crash rebuilds the cache over a fresh pool but keeps
        # the old hit/miss ledger — that serving history happened.
        self.stats = stats if stats is not None else PrefixCacheStats()

    # -- queries --------------------------------------------------------------

    @property
    def resident_tokens(self) -> int:
        """KV slots currently held by cached extents."""
        return self._resident_tokens

    def peek_match(self, token_ids: tuple[int, ...] | None) -> int:
        """Longest cached prefix of ``token_ids``, without locking.

        This is the probe fleet affinity routing reads: how much of the
        request's prompt is already resident on this replica.
        """
        if not token_ids:
            return 0
        _, matched = self._walk(token_ids)
        return matched

    # -- request lifecycle ----------------------------------------------------

    def match_and_lock(self, request: Request, now: float) -> int:
        """Match a pending request's prompt and pin the matched path.

        Returns the matched token count, capped at ``input_len - 1`` so a
        prefill always processes at least one token (the token whose KV
        append produces the first output).  Re-entrant: a fresh match
        releases the previous lock first, so the scheduler can re-match
        every tick as earlier turns populate the tree.
        """
        self.release(request.request_id)
        if not request.token_ids:
            return 0
        if self.tiers is not None:
            self._tier_fill(request, now)
        path, matched = self._walk(request.token_ids)
        cap = min(matched, request.input_len - 1)
        if cap <= 0:
            return 0
        locked: list[_Node] = []
        depth = 0
        for node, _ in path:
            if depth + len(node.tokens) <= cap:
                locked.append(node)
                depth += len(node.tokens)
                if depth == cap:
                    break
            else:
                offset = cap - depth
                if offset > 0:
                    self._split(node, offset)  # node becomes the prefix half
                    locked.append(node)
                    depth += offset
                break
        for node in locked:
            node.ref += 1
            node.last_access = now
        if locked:
            self._locks[request.request_id] = locked
        return depth

    def release(self, request_id: int) -> None:
        """Drop a request's pins (finish / preemption / abort); no-op when
        the request holds none."""
        for node in self._locks.pop(request_id, ()):
            node.ref -= 1

    def _tier_fill(self, request: Request, now: float) -> None:
        """Swap an offloaded extent back up when it extends the match.

        Runs before the GPU-tree walk so the re-imported extent is
        matched and pinned by the same tick.  The transfer's wall-clock
        cost lands in the swap-debt ledger; :meth:`take_swap_debt`
        drains it into the benefiting prefill's duration."""
        token_ids = request.token_ids
        _, resident = self._walk(token_ids)
        if resident >= request.input_len - 1:
            return  # GPU residency already covers everything usable
        usable, seconds = self.tiers.fetch(
            token_ids, resident, now, request_id=request.request_id
        )
        if usable <= resident:
            return
        self.import_prefix(token_ids[:usable], now, count_import=False)
        if seconds > 0.0:
            self._swap_debt[request.request_id] = (
                self._swap_debt.get(request.request_id, 0.0) + seconds
            )

    def take_swap_debt(self, request_id: int) -> float:
        """Drain the request's accumulated swap-in seconds (charged once,
        by the prefill launch that benefits from the swapped-in extent)."""
        if not self._swap_debt:
            return 0.0
        return self._swap_debt.pop(request_id, 0.0)

    def stats_dict(self) -> dict[str, float]:
        """Cache counters, plus tier flow counters when tiers are armed."""
        out = self.stats.as_dict()
        if self.tiers is not None:
            out.update(self.tiers.stats.as_dict())
        return out

    def note_prefill(self, request: Request) -> None:
        """Account one prefill launch against the hit/miss counters."""
        self.stats.lookups += 1
        if request.cached_prefix_len > 0:
            self.stats.hits += 1
            self.stats.hit_tokens += request.cached_prefix_len
        else:
            self.stats.misses += 1
        self.stats.miss_tokens += request.prefill_tokens

    def adopt_finished(self, request: Request, full_tokens: tuple[int, ...], now: float) -> None:
        """Donate a finished request's KV to the tree.

        ``full_tokens`` is the complete sequence (prompt + generated
        output).  The request's pool slots cover the part beyond its
        matched prefix; the uncovered tail becomes a new extent, any
        overlap with extents inserted meanwhile is freed as duplicate.
        """
        request_id = request.request_id
        owned = self.pool.tokens_of(request_id)
        path, matched = self._walk(full_tokens)
        if path and path[-1][1] < len(path[-1][0].tokens):
            self._split(path[-1][0], path[-1][1])
        parent = path[-1][0] if path else self.root
        # The request's slots cover the sequence *after* its matched
        # prefix, but not necessarily to the end (the final generated
        # token's KV is never appended — decode stops once the request
        # finishes).  Cache exactly the covered span: a shorter prefix is
        # still a valid prefix.
        tail = full_tokens[matched:matched + owned]
        for node, _ in path:
            node.last_access = now
        if not tail:
            self.pool.evict(request_id)  # fully cached already: all duplicate
            self.release(request_id)
            return
        owner = -next(self._owner_ids)
        self.pool.reassign(request_id, owner, len(tail))
        self.pool.evict(request_id)  # frees the duplicated surplus, if any
        node = _Node(tokens=tuple(tail), parent=parent, owner=owner, last_access=now)
        parent.children[tail[0]] = node
        self._resident_tokens += len(tail)
        self.stats.inserted_tokens += len(tail)
        self.release(request_id)

    # -- cross-replica migration ----------------------------------------------

    def export_prefix(self, token_ids: tuple[int, ...]) -> tuple[int, ...]:
        """Read out the longest resident prefix of ``token_ids`` for
        migration to a peer replica's cache.

        Returns the matched token span (possibly empty).  A pure read:
        the source extents stay in place — migration is a copy, and the
        LRU eviction path reclaims the source copy under pressure
        exactly like any other cold extent.  The migrator charges
        ``exported_tokens`` via :meth:`note_export` only once the
        destination actually installed the extent, so failed handoffs
        never inflate the traffic ledger; the transfer's wall-clock cost
        is also the caller's to model
        (see ``repro.kvcache.migration.PrefixHandoff``).
        """
        if not token_ids:
            return ()
        _, matched = self._walk(token_ids)
        return tuple(token_ids[:matched])

    def note_export(self, num_tokens: int) -> None:
        """Account tokens a peer replica successfully imported from here."""
        self.stats.exported_tokens += num_tokens

    def import_prefix(
        self, token_ids: tuple[int, ...], now: float, count_import: bool = True
    ) -> int:
        """Install a migrated prefix extent shipped from a peer replica.

        The already-resident part of ``token_ids`` is skipped (the
        longest local match); the remainder becomes one new extent whose
        KV slots are allocated in this replica's pool.  Under pool
        pressure, unlocked LRU extents are evicted to make room; if the
        suffix still does not fit in full, a leading sub-span is imported
        instead (a shorter prefix is still a valid prefix).  Returns the
        number of newly resident tokens (0 when nothing could be placed).
        """
        if not token_ids:
            return 0
        # Make room before walking: eviction prunes leaves, so any path
        # captured earlier could dangle.  The pre-walk only sizes the
        # demand estimate.
        _, matched = self._walk(token_ids)
        shortfall = (len(token_ids) - matched) - self.pool.total_free
        if shortfall > 0:
            self.evict(shortfall)
        path, matched = self._walk(token_ids)
        tail = tuple(token_ids[matched:])
        for node, _ in path:
            node.last_access = now
        if not tail:
            return 0
        room = self.pool.total_free
        if room <= 0:
            return 0
        tail = tail[:room]
        if path and path[-1][1] < len(path[-1][0].tokens):
            self._split(path[-1][0], path[-1][1])
        parent = path[-1][0] if path else self.root
        owner = -next(self._owner_ids)
        placement = self.pool.balanced_placement(
            len(tail), list(self.pool.pools)
        )
        self.pool.place(owner, placement)
        node = _Node(tokens=tail, parent=parent, owner=owner, last_access=now)
        parent.children[tail[0]] = node
        self._resident_tokens += len(tail)
        if count_import:  # tier swap-ins are local, not cross-replica traffic
            self.stats.imported_tokens += len(tail)
        self.stats.inserted_tokens += len(tail)
        return len(tail)

    def resident_sequences(self) -> list[tuple[float, tuple[int, ...]]]:
        """Every root-to-leaf resident token sequence, most recent first.

        The drain path walks this list to re-home a parking replica's hot
        conversation state onto surviving replicas before its cache is
        cleared.
        """
        sequences: list[tuple[float, tuple[int, ...]]] = []
        stack: list[tuple[_Node, tuple[int, ...]]] = [(self.root, ())]
        while stack:
            node, prefix = stack.pop()
            full = prefix + node.tokens
            if node is not self.root and node.is_leaf:
                sequences.append((node.last_access, full))
            stack.extend((child, full) for child in node.children.values())
        sequences.sort(key=lambda item: (-item[0], item[1]))
        return sequences

    def clear(self) -> int:
        """Evict every unlocked extent (replica park / teardown).

        Returns the KV slots freed; pinned extents (an in-flight prefill
        still relies on them) survive.
        """
        return self.evict(self._resident_tokens)

    # -- eviction -------------------------------------------------------------

    def evict(self, num_tokens: int, instance_ids: list[int] | None = None) -> int:
        """Free at least ``num_tokens`` cached slots (LRU leaves first).

        With ``instance_ids`` given, progress is counted only on those
        instances (whole leaves are still evicted — an extent is valid
        only in full).  Returns the slots freed on the counted instances;
        may be less than asked when every remaining extent is pinned.
        """
        wanted = set(instance_ids) if instance_ids is not None else None
        freed = 0
        while freed < num_tokens:
            victim = self._lru_evictable_leaf(wanted)
            if victim is None:
                break
            freed += self._evict_node(victim, wanted)
        return freed

    def _lru_evictable_leaf(self, wanted: set[int] | None) -> _Node | None:
        best: _Node | None = None
        stack = [self.root]
        while stack:
            node = stack.pop()
            stack.extend(node.children.values())
            if node is self.root or node.ref > 0 or not node.is_leaf:
                continue
            if wanted is not None and not (
                wanted & self.pool.placement_of(node.owner).keys()
            ):
                continue
            if best is None or node.last_access < best.last_access:
                best = node
        return best

    def _evict_node(self, node: _Node, wanted: set[int] | None) -> int:
        placement = self.pool.placement_of(node.owner)
        released = self.pool.evict(node.owner)
        assert node.parent is not None  # root is never evicted
        if self.tiers is not None:
            # Demote instead of dropping: the full root-to-leaf sequence
            # keys the extent, the payload is only this node's span (the
            # ancestors stay GPU-resident).
            parts = []
            walk = node.parent
            while walk is not None:
                parts.append(walk.tokens)
                walk = walk.parent
            prefix: tuple[int, ...] = ()
            for part in reversed(parts):
                prefix += part
            self.tiers.offload(
                prefix + node.tokens, len(prefix), now=node.last_access
            )
        del node.parent.children[node.tokens[0]]
        self._resident_tokens -= len(node.tokens)
        self.stats.evicted_tokens += released
        if wanted is None:
            return released
        return sum(t for i, t in placement.items() if i in wanted)

    # -- tree mechanics -------------------------------------------------------

    def _walk(self, tokens: tuple[int, ...]) -> tuple[list[tuple[_Node, int]], int]:
        """Descend along ``tokens``; returns (path of (node, tokens matched
        inside node), total matched).  Only the last path entry may be a
        partial match.  Each edge costs one slice compare, not one
        Python step per token."""
        path: list[tuple[_Node, int]] = []
        node = self.root
        pos = 0
        while pos < len(tokens):
            child = node.children.get(tokens[pos])
            if child is None:
                break
            edge = child.tokens
            k = common_prefix_len(edge, tokens[pos:pos + len(edge)])
            path.append((child, k))
            pos += k
            if k < len(edge):
                break
            node = child
        return path, pos

    def _split(self, node: _Node, offset: int) -> None:
        """Split ``node``'s extent at ``offset``; ``node`` keeps the prefix.

        The new suffix node inherits the ref count and joins every lock
        path containing ``node`` (lock paths fully cover their nodes, so
        both halves stay pinned — see the module docstring invariant).
        """
        if not 0 < offset < len(node.tokens):
            raise ValueError(
                f"split offset {offset} outside extent of {len(node.tokens)} tokens"
            )
        suffix = _Node(
            tokens=node.tokens[offset:],
            parent=node,
            owner=-next(self._owner_ids),
            last_access=node.last_access,
        )
        suffix.children = node.children
        for child in suffix.children.values():
            child.parent = suffix
        suffix.ref = node.ref
        self.pool.reassign(node.owner, suffix.owner, len(node.tokens) - offset)
        node.tokens = node.tokens[:offset]
        node.children = {suffix.tokens[0]: suffix}
        for locked in self._locks.values():
            if node in locked:
                locked.insert(locked.index(node) + 1, suffix)
