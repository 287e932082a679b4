"""Functional elastic instances: token-granularity KV shard storage.

A :class:`FunctionalInstance` is one SP rank of the functional engine.
Its KV pool stores, per request and per layer, an arbitrary *set* of
token positions with their K/V tensors — the token-granularity,
no-locality-constraint storage model of the unified distributed KV cache
pool (§4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class KVShard:
    """K/V tensors for a set of global token positions of one layer.

    ``positions`` need not be contiguous or sorted — attention masks by
    explicit position, so any token subset is a valid shard.
    """

    positions: np.ndarray  # (n,) int
    k: np.ndarray  # (n, kv_heads, head_dim)
    v: np.ndarray  # (n, kv_heads, head_dim)

    @property
    def num_tokens(self) -> int:
        return int(self.positions.shape[0])

    @classmethod
    def empty(cls, num_kv_heads: int, head_dim: int) -> KVShard:
        return cls(
            positions=np.zeros(0, dtype=np.int64),
            k=np.zeros((0, num_kv_heads, head_dim)),
            v=np.zeros((0, num_kv_heads, head_dim)),
        )

    def append(self, positions: np.ndarray, k: np.ndarray, v: np.ndarray) -> None:
        if positions.shape[0] != k.shape[0] or k.shape != v.shape:
            raise ValueError("positions/k/v shapes disagree")
        overlap = np.intersect1d(self.positions, positions)
        if overlap.size:
            raise ValueError(f"positions {overlap.tolist()} already stored in shard")
        self.positions = np.concatenate([self.positions, positions.astype(np.int64)])
        self.k = np.concatenate([self.k, k], axis=0)
        self.v = np.concatenate([self.v, v], axis=0)


@dataclass
class FunctionalInstance:
    """One SP rank: a KV pool keyed by (request, layer)."""

    instance_id: int
    num_layers: int
    num_kv_heads: int
    head_dim: int
    _shards: dict[int, list[KVShard]] = field(default_factory=dict)

    def _layers_of(self, request_id: int) -> list[KVShard]:
        if request_id not in self._shards:
            self._shards[request_id] = [
                KVShard.empty(self.num_kv_heads, self.head_dim)
                for _ in range(self.num_layers)
            ]
        return self._shards[request_id]

    def store(
        self,
        request_id: int,
        layer: int,
        positions: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
    ) -> None:
        """Save KV tensors for some token positions of one layer."""
        if not 0 <= layer < self.num_layers:
            raise ValueError(f"layer {layer} out of range")
        self._layers_of(request_id)[layer].append(positions, k, v)

    def shard(self, request_id: int, layer: int) -> KVShard:
        """This instance's KV shard (possibly empty) for a request+layer."""
        layers = self._shards.get(request_id)
        if layers is None:
            return KVShard.empty(self.num_kv_heads, self.head_dim)
        return layers[layer]

    def tokens_held(self, request_id: int) -> int:
        """Token count of the request's shard (layer 0 is authoritative)."""
        layers = self._shards.get(request_id)
        return layers[0].num_tokens if layers else 0

    def positions_held(self, request_id: int) -> np.ndarray:
        layers = self._shards.get(request_id)
        if not layers:
            return np.zeros(0, dtype=np.int64)
        return np.sort(layers[0].positions)

    def evict(self, request_id: int) -> int:
        """Drop a request's shards; returns tokens freed."""
        layers = self._shards.pop(request_id, None)
        return layers[0].num_tokens if layers else 0

    @property
    def total_tokens(self) -> int:
        return sum(layers[0].num_tokens for layers in self._shards.values())

    @property
    def resident_requests(self) -> list[int]:
        return sorted(r for r in self._shards if self._shards[r][0].num_tokens > 0)


def group_placement(
    instances: list[FunctionalInstance], request_id: int
) -> dict[int, int]:
    """Observed placement of a request across instances (id -> tokens)."""
    return {
        inst.instance_id: inst.tokens_held(request_id)
        for inst in instances
        if inst.tokens_held(request_id) > 0
    }
