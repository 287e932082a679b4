"""Per-instance KV slot accounting.

Each elastic instance owns a fixed number of token-granularity KV slots
(PagedAttention at token granularity, §6).  The pool tracks which request
owns how many slots; the simulator does not model physical page layout —
token counts are sufficient for every scheduling decision and capacity
constraint in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class PoolExhaustedError(RuntimeError):
    """Raised when an allocation exceeds the instance's free slots."""


@dataclass(slots=True)
class InstancePool:
    """Token-granularity KV slot pool of one elastic instance."""

    instance_id: int
    capacity: int
    _owned: dict[int, int] = field(default_factory=dict)
    # Incrementally maintained sum of ``_owned`` — ``used`` sits on the
    # hot scheduling path (free-slot probes every tick), so recomputing
    # the sum per call is avoided.
    _used: int = 0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"pool capacity must be positive, got {self.capacity}")
        self._used = sum(self._owned.values())

    @property
    def used(self) -> int:
        return self._used

    @property
    def free(self) -> int:
        return self.capacity - self._used

    def held_by(self, request_id: int) -> int:
        """Slots owned by a request (0 when absent)."""
        return self._owned.get(request_id, 0)

    def allocate(self, request_id: int, num_tokens: int) -> None:
        """Grant ``num_tokens`` additional slots to a request."""
        if num_tokens < 0:
            raise ValueError("num_tokens must be non-negative")
        if num_tokens == 0:
            return
        if num_tokens > self.free:
            raise PoolExhaustedError(
                f"instance {self.instance_id}: requested {num_tokens} slots, "
                f"only {self.free} free of {self.capacity}"
            )
        self._owned[request_id] = self._owned.get(request_id, 0) + num_tokens
        self._used += num_tokens

    def release(self, request_id: int, num_tokens: int | None = None) -> int:
        """Free a request's slots (all of them when ``num_tokens`` is None).

        Returns the number of slots actually released.
        """
        held = self._owned.get(request_id, 0)
        if held == 0:
            return 0
        if num_tokens is None or num_tokens >= held:
            del self._owned[request_id]
            self._used -= held
            return held
        if num_tokens < 0:
            raise ValueError("num_tokens must be non-negative")
        self._owned[request_id] = held - num_tokens
        self._used -= num_tokens
        return num_tokens

    def release_all(self) -> None:
        self._owned.clear()
        self._used = 0

    def snapshot(self) -> dict[int, int]:
        """Copy of the ownership map (request id -> slots)."""
        return dict(self._owned)
