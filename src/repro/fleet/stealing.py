"""Work stealing between fleet replicas.

Route-once placement cannot undo a bad bet: a burst of long-context
requests behind one replica queues there even while a neighbour sits
idle.  The stealer is the control plane's corrective actuator — each
control tick it plans moves of *still-queued* requests (never started,
no resident KV) from the deepest queue to the shallowest, until the
depth gap closes or the per-tick budget runs out.

Steals honour prefix affinity: a queued request whose prompt has a long
resident prefix on its current replica would forfeit that cache hit by
moving, so such moves are skipped unless the KV migrator travels with
the control plane (``can_migrate``) — in which case the prefix extent
is shipped alongside the request and the steal keeps its hit.  Either
way the *re-prefill cost* (source-match tokens the destination cannot
serve from cache) is charged to the steal in the fleet metrics, so
experiments see what rebalancing actually cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.types import Request


# Minimum depth difference (requests) between the deepest and shallowest
# queue before any move is planned; keeps the stealer quiet on balanced
# fleets.
MIN_QUEUE_GAP = 2
# Per-tick move budget, bounding control work.
MAX_MOVES_PER_TICK = 4
# A request whose source-side prefix match exceeds the destination's by
# more than this stays put unless the migrator can ship the extent along.
AFFINITY_GUARD_TOKENS = 256


@dataclass(frozen=True)
class StealMove:
    """One planned relocation of a queued request."""

    request: Request
    src: object  # ReplicaHandle (duck-typed)
    dst: object
    src_match: int
    dst_match: int

    @property
    def reprefill_tokens(self) -> int:
        """Prefix tokens the destination must re-prefill (pre-migration)."""
        return max(0, self.src_match - self.dst_match)

    def audit_payload(self) -> dict:
        """Structured fields for the control-plane audit log."""
        return {
            "request": self.request.request_id,
            "src": self.src.replica_id,
            "dst": self.dst.replica_id,
            "src_match": self.src_match,
            "dst_match": self.dst_match,
        }


class WorkStealer:
    """Plan queue rebalancing moves from overloaded to idle replicas."""

    name = "queue-gap"

    def plan(
        self, replicas: Sequence, now: float, can_migrate: bool = False
    ) -> list[StealMove]:
        """Moves for one control tick; deterministic given replica state.

        Victims come from the *tail* of the deepest queue (latest
        arrivals — the requests that would wait longest anyway, and the
        smallest FCFS disruption on the source).
        """
        available = [r for r in replicas if r.available]
        if len(available) < 2:
            return []
        queues = {r.replica_id: r.queued_requests() for r in available}
        moves: list[StealMove] = []
        while len(moves) < MAX_MOVES_PER_TICK:
            src = max(
                available, key=lambda r: (len(queues[r.replica_id]), -r.replica_id)
            )
            dst = min(
                available, key=lambda r: (len(queues[r.replica_id]), r.replica_id)
            )
            gap = len(queues[src.replica_id]) - len(queues[dst.replica_id])
            if src is dst or gap < MIN_QUEUE_GAP:
                break
            move = self._pick_victim(queues[src.replica_id], src, dst, can_migrate)
            if move is None:
                break  # every queued request is pinned by affinity
            queues[src.replica_id].remove(move.request)
            queues[dst.replica_id].append(move.request)
            moves.append(move)
        return moves

    def _pick_victim(
        self, queue: list[Request], src, dst, can_migrate: bool
    ) -> StealMove | None:
        for request in reversed(queue):
            src_match = src.prefix_match_len(request)
            dst_match = dst.prefix_match_len(request)
            orphaned = src_match - dst_match
            if orphaned > AFFINITY_GUARD_TOKENS and not can_migrate:
                continue  # stealing would orphan a hot session prefix
            return StealMove(
                request=request,
                src=src,
                dst=dst,
                src_match=src_match,
                dst_match=dst_match,
            )
        return None
