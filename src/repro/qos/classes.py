"""Multi-tenant SLO classes (the QoS tier model).

The paper evaluates goodput against a single 25x no-load-latency SLO
(§7.1); production mixed long/short serving is multi-tenant — an
interactive chat turn, a standard API call, and an overnight batch
summarisation job arrive interleaved but buy very different latency
contracts.  A :class:`QoSClass` makes that contract explicit:

* ``priority`` — dispatch order between tiers (0 = most important);
* ``deadline_scale`` — the tier's SLO as a multiple of the request's
  own no-load (ideal) latency, the paper's deadline shape with a
  per-tier scale;
* ``preemptible`` — whether the tier's *decoding* requests may be
  preempted (evicted + recomputed later) to make room for a
  higher tier's prefill that would otherwise miss its deadline;
* ``admission`` — what the admission controller does with an arrival
  whose deadline is already infeasible: ``"reject"`` it outright,
  ``"downgrade"`` it to ``downgrade_to`` (a looser deadline, lower
  priority), or ``"always"`` admit it regardless (batch work waits).

The three standard tiers in :data:`QOS_CLASSES` cover the design
space.  Each downgrade moves to a strictly lower tier, so every
downgrade chain terminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.types import Request

__all__ = [
    "BATCH",
    "DEFAULT_QOS_MIX",
    "INTERACTIVE",
    "QOS_CLASSES",
    "STANDARD",
    "QoSClass",
    "assign_qos",
    "parse_qos_mix",
    "qos_mix_sampler",
    "resolve_qos_class",
]


@dataclass(frozen=True)
class QoSClass:
    """One SLO tier's service contract."""

    name: str
    priority: int
    deadline_scale: float
    preemptible: bool = False
    admission: str = "reject"  # "reject" | "downgrade" | "always"
    downgrade_to: str | None = None

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise ValueError(f"priority must be >= 0, got {self.priority}")
        if self.deadline_scale <= 0:
            raise ValueError(
                f"deadline_scale must be positive, got {self.deadline_scale}"
            )
        if self.admission not in ("reject", "downgrade", "always"):
            raise ValueError(
                f"admission must be reject/downgrade/always, got {self.admission!r}"
            )
        if self.admission == "downgrade" and self.downgrade_to is None:
            raise ValueError(f"class {self.name!r} downgrades but names no target")


INTERACTIVE = QoSClass(
    name="interactive",
    priority=0,
    deadline_scale=10.0,
    admission="downgrade",
    downgrade_to="standard",
)
STANDARD = QoSClass(
    name="standard",
    priority=1,
    deadline_scale=25.0,  # the paper's default SLO scale
    admission="reject",
)
BATCH = QoSClass(
    name="batch",
    priority=2,
    deadline_scale=100.0,
    preemptible=True,
    admission="always",
)

QOS_CLASSES: dict[str, QoSClass] = {
    c.name: c for c in (INTERACTIVE, STANDARD, BATCH)
}

# Untagged requests are served with standard semantics (the paper's
# single-tier world is exactly "everything is standard").
DEFAULT_CLASS = STANDARD

DEFAULT_QOS_MIX: dict[str, float] = {
    "interactive": 0.3,
    "standard": 0.5,
    "batch": 0.2,
}


def resolve_qos_class(name: str | None) -> QoSClass:
    """Map a request's class name to its tier (None -> standard)."""
    if name is None:
        return DEFAULT_CLASS
    try:
        return QOS_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown QoS class {name!r}; choose from {sorted(QOS_CLASSES)}"
        ) from None


def parse_qos_mix(spec: str) -> dict[str, float]:
    """Parse a ``--qos-mix`` string like ``interactive:0.3,batch:0.7``.

    Weights must be finite and positive; they are normalised to sum to 1, so
    ``interactive:1,batch:3`` is a valid 25/75 split.
    """
    mix: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight_part = part.partition(":")
        name = name.strip()
        resolve_qos_class(name)  # validates the class name
        try:
            weight = float(weight_part)
        except ValueError:
            raise ValueError(
                f"qos mix entry {part!r} wants CLASS:WEIGHT (e.g. interactive:0.3)"
            ) from None
        if not 0 < weight < math.inf:
            raise ValueError(f"qos mix weight for {name!r} must be finite and positive")
        mix[name] = mix.get(name, 0.0) + weight
    if not mix:
        raise ValueError(f"empty qos mix {spec!r}")
    total = sum(mix.values())
    return {name: weight / total for name, weight in mix.items()}


def qos_mix_sampler(mix: Mapping[str, float], seed: int = 0):
    """Validated draw() -> class-name sampler over a qos mix.

    The single implementation of mix validation, normalisation, and the
    seeded draw, shared by request tagging (:func:`assign_qos`) and
    session-plan tagging
    (:func:`repro.sessions.workload.tag_session_plans`) so the two can
    never diverge.  Uses its own RNG stream, so tagging never perturbs
    the workload sampling itself.
    """
    names = sorted(mix)
    if not names:
        raise ValueError("qos mix must name at least one class")
    weights = np.array([mix[name] for name in names], dtype=float)
    if not np.all((weights > 0) & np.isfinite(weights)):
        raise ValueError("qos mix weights must be finite and positive")
    weights = weights / weights.sum()
    for name in names:
        resolve_qos_class(name)
    rng = np.random.default_rng(seed)

    def draw() -> str:
        return names[int(rng.choice(len(names), p=weights))]

    return draw


def assign_qos(
    requests: Sequence[Request] | Iterable[Request],
    mix: Mapping[str, float],
    seed: int = 0,
) -> None:
    """Tag requests with classes drawn from ``mix`` (in place).

    All turns of one session get the same class — a conversation is one
    tenant's workload, and splitting its turns across tiers would make
    per-class session metrics meaningless.
    """
    draw = qos_mix_sampler(mix, seed=seed)
    session_class: dict[int, str] = {}
    for request in requests:
        if request.session_id is not None and request.session_id in session_class:
            request.qos = session_class[request.session_id]
            continue
        choice = draw()
        request.qos = choice
        if request.session_id is not None:
            session_class[request.session_id] = choice
