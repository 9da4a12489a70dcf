"""The responder half of every reconciliation protocol.

One :class:`Responder` serves one connection (or one sim session): each
request type has one handler, computed from the responder's own replica
alone.  The sim driver (:class:`~repro.reconcile.engine.
ReconcileSession`) calls :meth:`Responder.handle` in-process when a
request is delivered; the live serve loop calls it for every decoded
frame.  Nothing here trusts the peer: a malformed request raises
:class:`~repro.reconcile.messages.ReconcileError`, and pushed blocks pass
the full §IV-E validation inside :func:`~repro.reconcile.session.
merge_blocks`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.node import VegvisirNode
from repro.obs.profiling import PHASE_VERIFY, maybe_phase
from repro.reconcile.bloom import BloomFilter
from repro.reconcile.delta import delta_reply, join_delta_push
from repro.reconcile.messages import ReconcileError, hashes
from repro.reconcile.session import BlockSink, merge_blocks
from repro.reconcile.sketch import IBLT, decode_against
from repro.reconcile.skip import first_difference, height_digests


class Responder:
    """Answers one peer's requests from the local replica.

    :meth:`handle` maps a request to its reply, or ``None`` for one-way
    messages (the push batches).  The one piece of per-session state is
    the frontier protocol's ``sent_hashes`` memo — which blocks were
    already sent, so deeper levels never resend bodies; a ``get_frontier``
    at level 1 starts a fresh session and resets it.  *on_blocks*
    receives every pushed batch that merged (the live node persists it)
    and *profiler* times those merges as the ``verify`` phase.
    """

    def __init__(self, node: VegvisirNode,
                 on_blocks: Optional[BlockSink] = None, profiler=None):
        self._node = node
        self._on_blocks = on_blocks
        self.profiler = profiler
        self._sent_hashes: set = set()

    def handle(self, message: dict) -> Optional[dict]:
        if not isinstance(message, dict) or "type" not in message:
            raise ReconcileError("request is not a typed map")
        kind = message["type"]
        handler = getattr(self, f"_handle_{kind}", None)
        if handler is None:
            raise ReconcileError(f"unknown request type {kind!r}")
        try:
            return handler(message)
        except (KeyError, TypeError, ValueError) as exc:
            raise ReconcileError(f"malformed {kind}: {exc}") from exc

    def _frontier_digests(self) -> list:
        return [h.digest for h in sorted(self._node.frontier())]

    # -- frontier ------------------------------------------------------

    def _handle_get_frontier_hashes(self, message: dict) -> dict:
        return {"type": "frontier_hashes", "hashes": self._frontier_digests()}

    def _handle_get_frontier(self, message: dict) -> dict:
        level = int(message["level"])
        if level < 1:
            raise ReconcileError("frontier level must be >= 1")
        if level == 1:
            self._sent_hashes = set()
        dag = self._node.dag
        level_hashes = sorted(dag.frontier_level(level))
        new_blocks = [
            dag.get(h) for h in level_hashes if h not in self._sent_hashes
        ]
        self._sent_hashes.update(level_hashes)
        return {"type": "frontier_set", "level": level, "blocks": new_blocks}

    # -- full exchange -------------------------------------------------

    def _handle_get_dag(self, message: dict) -> dict:
        return {"type": "dag", "blocks": list(self._node.dag.blocks())}

    # -- bloom ---------------------------------------------------------

    def _handle_bloom(self, message: dict) -> dict:
        digest = BloomFilter.from_wire(message["filter"])
        return {
            "type": "bloom_blocks",
            "blocks": [
                block for block in self._node.dag.blocks()
                if block.hash.digest not in digest
            ],
            "frontier": self._frontier_digests(),
        }

    def _handle_get_blocks(self, message: dict) -> dict:
        dag = self._node.dag
        blocks = []
        for block_hash in hashes(message["hashes"]):
            block = dag.maybe_get(block_hash)
            if block is not None:
                blocks.append(block)
        return {"type": "blocks", "blocks": blocks}

    # -- height skip ---------------------------------------------------

    def _handle_height_digests(self, message: dict) -> dict:
        dag = self._node.dag
        split = first_difference(message["digests"], height_digests(dag))
        if split is None:
            return {"type": "height_match",
                    "frontier": self._frontier_digests()}
        return {
            "type": "height_blocks",
            "from_height": split,
            "blocks": [
                block for block in dag.blocks()
                if dag.height(block.hash) >= split
            ],
            "frontier": self._frontier_digests(),
        }

    # -- sketch --------------------------------------------------------

    def _handle_sketch(self, message: dict) -> dict:
        sketch = IBLT.from_wire(message["sketch"])
        local_only, remote_only, ok = decode_against(self._node, sketch)
        if not ok:
            return {"type": "sketch_fail", "size": len(self._node.dag)}
        only_here = set(local_only)
        return {
            "type": "sketch_blocks",
            "blocks": [
                block for block in self._node.dag.blocks()
                if block.hash.digest in only_here
            ],
            "want": remote_only,
            "frontier": self._frontier_digests(),
        }

    # -- delta ---------------------------------------------------------

    def _handle_delta_summary(self, message: dict) -> dict:
        return {
            "type": "delta_state",
            "crdts": delta_reply(self._node, message["crdts"]),
        }

    def _handle_delta_push(self, message: dict) -> None:
        join_delta_push(self._node, message["crdts"])

    # -- push ----------------------------------------------------------

    def _handle_push_blocks(self, message: dict) -> None:
        with maybe_phase(self.profiler, PHASE_VERIFY) as ph:
            merged = merge_blocks(self._node, message["blocks"])
            ph.units += len(merged.added)
        if self._on_blocks is not None and merged.added:
            self._on_blocks(merged.added)
