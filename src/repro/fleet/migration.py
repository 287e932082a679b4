"""Cross-replica session-KV migration for the fleet control plane.

Affinity routing keeps a conversation on the replica holding its KV —
until a rebalance (steal) or a scale-in (drain/park) moves the session
away from its cache.  The migrator closes that gap: it ships resident
prefix extents between replicas' :class:`PrefixKVCache`\\ s so rebalanced
sessions keep their cache hits.

Two flows exist:

* **steal-coupled** (:meth:`KVMigrator.migrate_request_prefix`) — when
  the stealer relocates a queued request whose prompt has a long
  resident prefix on the source, the matched extent is exported,
  imported on the destination, and the request is re-submitted only
  after the transfer's modelled wall-clock cost has elapsed.
* **drain rescue** (:meth:`KVMigrator.rescue_resident`) — before a
  drained replica parks, its resident sequences (most recent first, up
  to a token budget) are re-homed onto the surviving replica with the
  most free KV, so parking a replica does not cold-start every session
  it hosted.

Transfers are priced with :class:`PrefixHandoff` over the cluster's
inter-node fabric (``costmodel.comm.cross_replica_migration_time``).
"""

from __future__ import annotations

from repro.costmodel.comm import CollectiveModel
from repro.kvcache.migration import PrefixHandoff
from repro.model.spec import ModelSpec


# Extents smaller than this are not worth a transfer (the destination
# just re-prefills them).
MIN_MIGRATION_TOKENS = 64
# Cap on rescue traffic when parking a replica; the coldest sequences
# beyond it are simply dropped.
DRAIN_BUDGET_TOKENS = 200_000


class KVMigrator:
    """Move cached prefix extents between replicas' prefix-KV caches."""

    name = "prefix-kv"

    def __init__(
        self,
        collectives: CollectiveModel,
        model: ModelSpec,
        tensor_parallel: int,
    ) -> None:
        self.collectives = collectives
        self.model = model
        self.tensor_parallel = tensor_parallel

    @property
    def pricing(self) -> tuple[CollectiveModel, ModelSpec, int]:
        """Arguments :meth:`PrefixHandoff.cost` prices a transfer with."""
        return (self.collectives, self.model, self.tensor_parallel)

    # -- steal-coupled migration ----------------------------------------------

    def migrate_request_prefix(
        self, request, src, dst, now: float
    ) -> PrefixHandoff | None:
        """Ship the prefix a stolen request would orphan on ``src``.

        Returns the executed handoff (destination cache updated), or
        None when the move is not worth a transfer — no caches, too few
        orphaned tokens, or no destination pool space.
        """
        if not (src.has_prefix_cache and dst.has_prefix_cache):
            return None
        src_match = src.prefix_match_len(request)
        dst_match = dst.prefix_match_len(request)
        if src_match - dst_match < MIN_MIGRATION_TOKENS:
            return None
        tokens = src.export_prefix(request)
        imported = dst.import_prefix(tokens, now)
        if imported == 0:
            return None
        src.note_prefix_export(imported)
        remaining = max(0, src_match - dst.prefix_match_len(request))
        return PrefixHandoff(
            request_id=request.request_id,
            src_replica=src.replica_id,
            dst_replica=dst.replica_id,
            num_tokens=imported,
            reprefill_tokens=remaining,
        )

    # -- drain rescue ----------------------------------------------------------

    def rescue_resident(
        self, src, peers, now: float
    ) -> list[PrefixHandoff]:
        """Re-home a parking replica's hot extents onto surviving peers.

        Sequences transfer most-recently-used first until the drain
        budget is spent; each goes to the peer with the most free KV at
        that moment (ties to the lowest replica id).  Returns the
        executed handoffs; the caller clears the source cache afterwards.
        """
        if not src.has_prefix_cache:
            return []
        targets = [p for p in peers if p.has_prefix_cache]
        if not targets:
            return []
        budget = DRAIN_BUDGET_TOKENS
        handoffs: list[PrefixHandoff] = []
        for _, tokens in src.resident_prefix_sequences():
            if budget <= 0:
                break
            if len(tokens) < MIN_MIGRATION_TOKENS:
                continue
            dst = min(targets, key=lambda p: (-p.kv_free(), p.replica_id))
            imported = dst.import_prefix(tuple(tokens[: budget]), now)
            if imported == 0:
                continue
            src.note_prefix_export(imported)
            budget -= imported
            handoffs.append(
                PrefixHandoff(
                    request_id=-1,  # extent rescue, not tied to one request
                    src_replica=src.replica_id,
                    dst_replica=dst.replica_id,
                    num_tokens=imported,
                )
            )
        return handoffs
