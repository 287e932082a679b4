"""Performance-layer elastic instances (§4).

Each elastic instance is the minimum independent execution unit: a fixed
TP group of GPUs holding a full replica of the model weights plus a KV
slot pool.  The global manager assigns instances to parallel groups every
iteration; this class tracks the assignment and busy state the scheduler
reads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.kvcache.pool import InstancePool


class InstanceRole(enum.Enum):
    IDLE = "idle"
    PREFILL = "prefill"
    DECODE = "decode"


@dataclass
class ElasticInstance:
    """Scheduler-visible state of one elastic instance."""

    instance_id: int
    pool: InstancePool
    role: InstanceRole = InstanceRole.IDLE
    group_id: int | None = None

    @property
    def is_idle(self) -> bool:
        return self.role == InstanceRole.IDLE

    @property
    def free_slots(self) -> int:
        return self.pool.free

    def assign(self, role: InstanceRole, group_id: int) -> None:
        if role == InstanceRole.IDLE:
            raise ValueError("use release() to idle an instance")
        self.role = role
        self.group_id = group_id

    def release(self) -> None:
        self.role = InstanceRole.IDLE
        self.group_id = None

    def __repr__(self) -> str:  # concise for traces
        return (
            f"Instance({self.instance_id}, {self.role.value}, "
            f"free={self.free_slots}, group={self.group_id})"
        )
