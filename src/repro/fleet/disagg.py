"""Disaggregated prefill/decode dispatch for the fleet.

Monolithic replicas interleave prefill and decode on the same hardware,
so a long prompt's prefill stalls every co-resident decode iteration.
The disaggregated layout (DistServe/Splitwise at fleet scale) splits the
replicas into two pools instead: arrivals **prefill** on one pool, then
their KV is handed to a **decode** pool over the priced inter-replica
fabric, and only the decode pool runs token generation.  Decode latency
is thereby isolated from prompt bursts at the cost of one KV transfer
per request.

``DisaggDispatcher`` implements the two-stage path on top of the
existing replica machinery, with no new server shape:

1. The arrival is routed over the prefill pool and a **prefill clone**
   (same prompt, ``output_len=1``) runs there for real — queueing,
   batching, and KV allocation included — via
   :meth:`ReplicaHandle.submit_shadow`, so the clone loads the probe
   surface without appearing in the fleet result.
2. When the clone finishes, its KV has just been donated to the prefill
   replica's prefix cache (``adopt_finished`` runs before the terminal
   hook).  The dispatcher exports that prefix, imports it into the
   routed decode replica's cache, and prices the transfer with
   :class:`~repro.kvcache.migration.PrefixHandoff` over the fabric.
3. After the modelled transfer delay, the *original* request is
   submitted to the decode replica.  Its prefill matches the imported
   prefix (capped at ``input_len - 1``), so the decode side recomputes
   exactly one prompt token — the KV-append that produces the first
   output token — and then decodes normally.

If the clone aborts (e.g. the prompt cannot fit the prefill replica's
pool) the dispatcher falls back to submitting the original directly to
the decode pool, which prefills from scratch — degraded, never lost.

Faults and work stealing compose with the two-stage path (they were
gated off in the first cut):

* a prefill-pool crash orphans the shadow clone; the dispatcher fires
  its handoff hook in the aborted state, so the original takes the
  direct-decode fallback (full re-prefill on the decode side);
* a decode-pool crash while the original rides the fabric wipes the
  just-imported prefix; delivery re-routes over the surviving decode
  pool and prefills from scratch;
* the work stealer never relocates clones (their KV must finish where
  the export will read it) and never moves requests across the pool
  boundary — the controller plans each pool's steals on their own.

The handoff is keyed by the prompt's token ids.  A token-less request
(a plain length-only trace) is given a synthetic prompt at dispatch:
one request-unique id, above any workload vocabulary, repeated
``input_len`` times.  That key is enough because the radix tree asks
only two things of it.  Different requests must diverge at their first
token, since children are keyed by first token, so they never share a
node, a hit, or a split.  One request's key must equal itself position
by position, so every prefix of it (the clone's adopted extent, the
decode side's imported copy) matches exactly as far as it reaches.
Every match, split, export and import length is therefore what
distinct per-position ids would give, while the prompt costs one
pointer per token instead of one int object per token.
"""

from __future__ import annotations

from typing import Sequence

from repro.fleet.control import placement_pool
from repro.fleet.router import LeastKVRouter, LeastOutstandingRouter, Router
from repro.kvcache.migration import PrefixHandoff
from repro.obs.tracer import SHADOW_REQUEST_OFFSET
from repro.types import Request

# Clone ids live far above any workload request id so per-replica
# bookkeeping (pools, locks, spans) never collides with the original.
# Aliases the obs-layer shadow offset so every request-facing view
# (histograms, blame, explain) agrees on what is internal machinery.
CLONE_ID_OFFSET = SHADOW_REQUEST_OFFSET
# Synthetic prompt ids for token-less requests start here, far above
# real session vocabularies (which are small).
_SYNTH_TOKEN_BASE = 1 << 60


def _synthetic_tokens(request: Request) -> tuple[int, ...]:
    """A token-less request's prompt key: its own id, ``input_len`` times.

    Distinct first tokens keep different requests apart in the radix
    tree, and a repeated id matches itself at every position, so the
    key behaves exactly like unique per-position ids (see the module
    docstring) while holding a single int object.
    """
    return (_SYNTH_TOKEN_BASE + request.request_id,) * request.input_len


class DisaggDispatcher:
    """Two-stage (prefill pool → fabric → decode pool) arrival dispatch.

    ``num_prefill`` leading replicas form the prefill pool, the rest the
    decode pool (standby decode replicas stay parked until an autoscaler
    promotes them).  ``pricing`` is the ``(collectives, model,
    tensor_parallel)`` triple :meth:`PrefixHandoff.cost` prices the
    KV transfer with — the same shape ``KVMigrator.pricing`` exposes.
    Prefills go to the least-loaded prefill replica, handoffs to the
    decode replica with the most free KV.
    """

    def __init__(self, num_prefill: int, pricing: tuple) -> None:
        if num_prefill < 1:
            raise ValueError("disaggregation needs at least 1 prefill replica")
        self.num_prefill = num_prefill
        self.pricing = pricing
        self.prefill_router = LeastOutstandingRouter()
        self.decode_router = LeastKVRouter()
        self.sim = None
        self.prefill_pool: Sequence = ()
        self.decode_pool: Sequence = ()
        self.elastic = None
        self._tracer = None
        # Requests between arrival and decode-side submission: the gap
        # where neither pool's outstanding count covers them (the clone
        # finished, the original is still riding the fabric), read by
        # ``FleetServer._work_remaining`` so control loops keep ticking.
        self.inflight = 0

    @property
    def name(self) -> str:
        return (
            f"disagg[{self.num_prefill}p:{self.prefill_router.name}"
            f"/{self.decode_router.name}]"
        )

    def reset(self, sim, replicas: Sequence, elastic, obs=None) -> None:
        """Arm the dispatcher for one fleet run (called by
        ``FleetServer.use_simulator``)."""
        if self.num_prefill >= len(replicas):
            raise ValueError(
                f"num_prefill={self.num_prefill} leaves no decode replicas "
                f"(fleet has {len(replicas)})"
            )
        self.sim = sim
        self.prefill_pool = replicas[: self.num_prefill]
        self.decode_pool = replicas[self.num_prefill :]
        self.elastic = elastic
        self._tracer = obs.tracer if obs is not None else None
        self.inflight = 0
        for handle in self.prefill_pool:
            if handle.server.prefix_cache is None:
                raise ValueError(
                    "disaggregated dispatch requires prefix_cache on every "
                    f"replica (replica {handle.replica_id} has none)"
                )

    # -- the two-stage path ----------------------------------------------------

    def dispatch(self, request: Request) -> None:
        """Stage 1: run the arrival's prefill as a clone on the prefill
        pool; the handoff chains off the clone's completion hook."""
        now = self.sim.now
        self.inflight += 1
        if request.token_ids is None:
            request.token_ids = _synthetic_tokens(request)
        src = self._pick(self.prefill_router, request, self.prefill_pool, now)
        if not src.placeable:
            # The whole prefill pool is down (crashed/warming): a shadow
            # clone would sit in a dead queue.  Skip the two-stage path
            # and let the decode side prefill from scratch.
            dst = self.failover_target(request, now)
            self._audit(
                now, "disagg_fallback",
                replica=dst.replica_id, request=request.request_id,
            )
            self._deliver(request, dst)
            return
        clone = Request(
            request_id=request.request_id + CLONE_ID_OFFSET,
            input_len=request.input_len,
            output_len=1,
            arrival_time=now,
            token_ids=request.token_ids,
        )
        clone.on_finish = lambda finish_time: self._handoff(
            request, clone, src, finish_time
        )
        src.submit_shadow(clone)
        self._audit(
            now, "disagg_prefill",
            replica=src.replica_id, request=request.request_id,
            tokens=request.input_len,
        )
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            # The original request's first span: it has no server-side
            # story until the decode submission, so the dispatcher owns
            # the arrival → handoff window (the clone's spans live under
            # its offset id and never merge with the original's).
            tracer.transition(
                request.request_id, "disagg_handoff", now,
                replica=src.replica_id, stage="prefill",
            )

    def _handoff(self, request: Request, clone: Request, src, now: float) -> None:
        """Stage 2: ship the prefilled KV to a decode replica, then
        submit the original there after the fabric delay."""
        dst = self._pick(self.decode_router, request, self.decode_pool, now)
        if clone.generated == 0:
            # The clone aborted (prompt did not fit the prefill replica):
            # nothing to ship, the decode replica prefills from scratch.
            self._audit(
                now, "disagg_fallback",
                replica=dst.replica_id, request=request.request_id,
            )
            self._deliver(request, dst)
            return
        tokens = src.export_prefix(request)
        imported = dst.import_prefix(tokens, now) if tokens else 0
        delay = 0.0
        if imported > 0:
            src.note_prefix_export(imported)
            handoff = PrefixHandoff(
                request_id=request.request_id,
                src_replica=src.replica_id,
                dst_replica=dst.replica_id,
                num_tokens=imported,
                reprefill_tokens=max(0, request.input_len - 1 - imported),
            )
            delay = handoff.cost(*self.pricing)
            elastic = self.elastic
            if elastic is not None:
                elastic.disagg_handoffs += 1
                elastic.disagg_handoff_tokens += imported
                elastic.disagg_handoff_seconds += delay
                elastic.disagg_reprefill_tokens += handoff.reprefill_tokens
        self._audit(
            now, "disagg_handoff",
            replica=dst.replica_id, request=request.request_id,
            src=src.replica_id, tokens=imported, seconds=round(delay, 6),
        )
        tracer = self._tracer
        if tracer is not None and tracer.enabled and delay > 0.0:
            tracer.transition(
                request.request_id, "disagg_handoff", now,
                replica=dst.replica_id, stage="transfer",
                src=src.replica_id, tokens=imported,
            )
        if delay > 0.0:
            self.sim.call_after(
                delay,
                (lambda: self._deliver(request, dst)),
                label=f"disagg-handoff:{request.request_id}",
            )
        else:
            self._deliver(request, dst)

    def _deliver(self, request: Request, dst) -> None:
        if not dst.placeable:
            # The decode replica crashed (or is still warming) while the
            # original rode the fabric; the imported prefix died in the
            # wipe.  Re-route over whatever decode capacity survives —
            # the replacement prefills from scratch.
            dst = self.failover_target(request, self.sim.now)
        dst.submit(request)
        self.inflight -= 1

    # -- fault composition -----------------------------------------------------

    def clone_failover(self, clone: Request, now: float) -> None:
        """A prefill-pool crash orphaned the shadow clone mid-prefill.

        The prefilled KV died with the replica, so fire the pending
        handoff hook in the clone's aborted state (``generated == 0``):
        the original takes the direct-decode fallback and prefills from
        scratch on the decode pool — degraded, never lost.
        """
        hook, clone.on_finish = clone.on_finish, None
        if hook is not None:
            hook(now)

    def failover_target(self, request: Request, now: float):
        """Placement for a decode-side request orphaned by a crash.

        Stays inside the decode pool while any of it can still serve
        (the prefill pool never runs decodes); pool purity yields to
        liveness only when the whole decode pool is down.
        """
        if any(r.placeable for r in self.decode_pool):
            return self._pick(self.decode_router, request, self.decode_pool, now)
        fleet = list(self.prefill_pool) + list(self.decode_pool)
        candidates = [r for r in fleet if r.placeable] or list(self.decode_pool)
        return self.decode_router.route(request, candidates, now)

    # -- helpers ---------------------------------------------------------------

    def _pick(self, router: Router, request: Request, pool: Sequence, now: float):
        """Route over one pool with the same liveness fallback chain
        :meth:`ClusterPolicy.place` uses for the whole fleet."""
        return router.route(request, placement_pool(pool), now)

    def _audit(self, now: float, kind: str, **payload) -> None:
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.audit(now, kind, component="disagg", **payload)
