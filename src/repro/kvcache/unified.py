"""The unified distributed KV cache pool (§3, §4).

The global manager sees all instances' pools as one token-granularity
pool: a request's KV tokens may live on any subset of instances, in any
split.  ``Placement`` is that split.  Because no locality constraint
exists, a request fits whenever *total* free slots suffice — the direct
fix for the Figure-4 fragmentation example, which ``can_fit_grouped``
lets baselines reproduce for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kvcache.pool import InstancePool, PoolExhaustedError

# instance id -> token count; a request's KV split across instances.
Placement = dict[int, int]


@dataclass(slots=True)
class UnifiedKVPool:
    """Global view over every elastic instance's KV slots."""

    pools: dict[int, InstancePool] = field(default_factory=dict)
    _placements: dict[int, Placement] = field(default_factory=dict)

    @classmethod
    def create(cls, num_instances: int, slots_per_instance: int) -> UnifiedKVPool:
        pools = {
            i: InstancePool(instance_id=i, capacity=slots_per_instance)
            for i in range(num_instances)
        }
        return cls(pools=pools)

    # -- capacity queries ----------------------------------------------------

    @property
    def num_instances(self) -> int:
        return len(self.pools)

    @property
    def total_capacity(self) -> int:
        return sum(p.capacity for p in self.pools.values())

    @property
    def total_free(self) -> int:
        return sum(p.free for p in self.pools.values())

    @property
    def total_used(self) -> int:
        return sum(p.used for p in self.pools.values())

    def free_on(self, instance_ids: list[int] | None = None) -> int:
        """Free slots over a subset of instances (all when None)."""
        ids = self.pools.keys() if instance_ids is None else instance_ids
        return sum(self.pools[i].free for i in ids)

    def free_map(self) -> dict[int, int]:
        return {i: p.free for i, p in self.pools.items()}

    def can_fit_unified(self, num_tokens: int) -> bool:
        """LoongServe's rule: total free slots suffice, any split allowed."""
        return self.free_on() >= num_tokens

    def can_fit_grouped(self, num_tokens: int) -> bool:
        """Locality-constrained rule of group-based baselines: the whole
        request must fit inside a single instance (Figure 4)."""
        return any(p.free >= num_tokens for p in self.pools.values())

    # -- placement lifecycle ---------------------------------------------------

    def placement_of(self, request_id: int) -> Placement:
        """Current KV split of a request (empty when not resident)."""
        return dict(self._placements.get(request_id, {}))

    def tokens_of(self, request_id: int) -> int:
        return sum(self._placements.get(request_id, {}).values())

    def instances_of(self, request_id: int) -> list[int]:
        return sorted(self._placements.get(request_id, {}))

    def place(self, request_id: int, placement: Placement) -> None:
        """Install a request's KV tokens according to ``placement``.

        All-or-nothing: if any instance lacks slots the whole placement is
        rolled back and ``PoolExhaustedError`` raised.
        """
        if self._placements.get(request_id):
            raise ValueError(f"request {request_id} already placed; use extend()")
        done: list[tuple[int, int]] = []
        try:
            for instance_id, tokens in placement.items():
                self.pools[instance_id].allocate(request_id, tokens)
                done.append((instance_id, tokens))
        except PoolExhaustedError:
            for instance_id, tokens in done:
                self.pools[instance_id].release(request_id, tokens)
            raise
        self._placements[request_id] = {i: t for i, t in placement.items() if t > 0}

    def extend(self, request_id: int, instance_id: int, num_tokens: int = 1) -> None:
        """Append newly generated KV tokens on one instance (decode path)."""
        self.pools[instance_id].allocate(request_id, num_tokens)
        placement = self._placements.setdefault(request_id, {})
        placement[instance_id] = placement.get(instance_id, 0) + num_tokens

    def evict(self, request_id: int) -> int:
        """Drop a request's KV entirely (preemption); returns tokens freed."""
        placement = self._placements.pop(request_id, {})
        freed = 0
        for instance_id, tokens in placement.items():
            freed += self.pools[instance_id].release(request_id, tokens)
        return freed

    def reassign(self, src_owner: int, dst_owner: int, num_tokens: int) -> Placement:
        """Hand ``num_tokens`` of one owner's slots to another owner in
        place (no data movement — the slots stay on their instances).

        Used by the prefix-KV cache when a radix extent splits or adopts a
        finished request's suffix.  Tokens are taken from the source's
        instances in ascending id order; returns the transferred split.
        """
        if num_tokens < 0:
            raise ValueError("num_tokens must be non-negative")
        placement = self._placements.get(src_owner, {})
        held = sum(placement.values())
        if held < num_tokens:
            raise ValueError(
                f"owner {src_owner} holds {held} tokens, cannot reassign {num_tokens}"
            )
        moved: Placement = {}
        remaining = num_tokens
        for instance_id in sorted(placement):
            if remaining == 0:
                break
            take = min(placement[instance_id], remaining)
            self.pools[instance_id].release(src_owner, take)
            self.pools[instance_id].allocate(dst_owner, take)
            placement[instance_id] -= take
            if placement[instance_id] == 0:
                del placement[instance_id]
            moved[instance_id] = take
            remaining -= take
        if not placement:
            self._placements.pop(src_owner, None)
        if moved:
            dst = self._placements.setdefault(dst_owner, {})
            for instance_id, tokens in moved.items():
                dst[instance_id] = dst.get(instance_id, 0) + tokens
        return moved

    def move(self, request_id: int, src: int, dst: int, num_tokens: int) -> None:
        """Migrate tokens of one request between instances (bookkeeping
        only — the time cost is charged by the caller via the cost model)."""
        placement = self._placements.get(request_id)
        if not placement or placement.get(src, 0) < num_tokens:
            raise ValueError(
                f"request {request_id} holds {placement.get(src, 0) if placement else 0} "
                f"tokens on instance {src}, cannot move {num_tokens}"
            )
        self.pools[dst].allocate(request_id, num_tokens)
        self.pools[src].release(request_id, num_tokens)
        placement[src] -= num_tokens
        if placement[src] == 0:
            del placement[src]
        placement[dst] = placement.get(dst, 0) + num_tokens

    # -- placement helpers -------------------------------------------------------

    def balanced_placement(
        self, num_tokens: int, instance_ids: list[int]
    ) -> Placement:
        """Split tokens across instances proportionally to free capacity.

        Proactive scale-down permits any token-level split at zero cost
        (§4.1), so the manager balances by availability, avoiding the
        uneven-load problem reactive migration forces.
        """
        if num_tokens < 0:
            raise ValueError("num_tokens must be non-negative")
        frees = {i: self.pools[i].free for i in instance_ids}
        total_free = sum(frees.values())
        if total_free < num_tokens:
            raise PoolExhaustedError(
                f"{num_tokens} tokens do not fit in {total_free} free slots "
                f"on instances {instance_ids}"
            )
        placement: Placement = {}
        remaining = num_tokens
        for rank, instance_id in enumerate(sorted(instance_ids, key=lambda i: -frees[i])):
            if remaining == 0:
                break
            left = len(instance_ids) - rank
            share = min(frees[instance_id], -(-remaining // left))
            if share > 0:
                placement[instance_id] = share
                remaining -= share
        if remaining > 0:  # spill into residual free capacity
            for instance_id in sorted(instance_ids, key=lambda i: -frees[i]):
                spare = frees[instance_id] - placement.get(instance_id, 0)
                take = min(spare, remaining)
                if take > 0:
                    placement[instance_id] = placement.get(instance_id, 0) + take
                    remaining -= take
                if remaining == 0:
                    break
        assert remaining == 0
        return placement
