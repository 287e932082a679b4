"""ESP parallel groups.

A :class:`ParallelGroup` is a set of elastic instances executing one batch
with DoP = group size (§4).  Groups are disjoint; the global manager
re-forms them every iteration.  Master designations implement single- and
multi-master distributed decoding (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.parallel.strategy import ParallelismStrategy


@dataclass
class ParallelGroup:
    """A set of instances jointly executing one batch."""

    instance_ids: tuple[int, ...]
    tensor_parallel: int
    masters: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.instance_ids:
            raise ValueError("a parallel group needs at least one instance")
        if len(set(self.instance_ids)) != len(self.instance_ids):
            raise ValueError(f"duplicate instances in group: {self.instance_ids}")
        if not self.masters:
            self.masters = (self.instance_ids[0],)
        unknown = set(self.masters) - set(self.instance_ids)
        if unknown:
            raise ValueError(f"masters {sorted(unknown)} not members of group")

    @property
    def dop(self) -> int:
        """Degree of parallelism of this group."""
        return len(self.instance_ids)

    @property
    def num_masters(self) -> int:
        return len(self.masters)

    @property
    def strategy(self) -> ParallelismStrategy:
        return ParallelismStrategy(
            tensor_parallel=self.tensor_parallel, sequence_parallel=self.dop
        )

    def expanded(self, new_instances: tuple[int, ...]) -> ParallelGroup:
        """Group after scale-up: new instances join without KV migration."""
        overlap = set(new_instances) & set(self.instance_ids)
        if overlap:
            raise ValueError(f"instances {sorted(overlap)} already in group")
        return ParallelGroup(
            instance_ids=self.instance_ids + tuple(new_instances),
            tensor_parallel=self.tensor_parallel,
            masters=self.masters,
        )

    def shrunk(self, keep: tuple[int, ...]) -> ParallelGroup:
        """Group after scale-down to the ``keep`` subset."""
        missing = set(keep) - set(self.instance_ids)
        if missing:
            raise ValueError(f"instances {sorted(missing)} not in group")
        if not keep:
            raise ValueError("cannot shrink a group to zero instances")
        masters = tuple(i for i in self.masters if i in keep) or (keep[0],)
        return ParallelGroup(
            instance_ids=tuple(keep),
            tensor_parallel=self.tensor_parallel,
            masters=masters,
        )

    def __contains__(self, instance_id: int) -> bool:
        return instance_id in self.instance_ids

    def __len__(self) -> int:
        return len(self.instance_ids)
