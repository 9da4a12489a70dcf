"""The paper's reconciliation protocol (Algorithm 1, Fig. 3).

The initiator asks the responder for its level-1 frontier set.  If every
received frontier hash is already known and the frontiers match, the
replicas are identical and the session stops after one round trip.
Otherwise the initiator merges what it can; while any received block
still lacks parents, it asks for the next deeper level — the level-N
frontier set is level N-1 plus the parents of its blocks — which must
eventually bridge the gap because both replicas share the genesis block.

After a successful pull the initiator pushes the blocks the responder
lacks, making one contact sufficient for bidirectional convergence (the
gossip layer relies on this).

The responder sends full blocks for the *new* level and bare hashes for
levels already transmitted, so the deepening loop does not resend data.

:meth:`FrontierProtocol.initiate` is the initiator's half; the shared
:class:`~repro.reconcile.responder.Responder` answers its requests (see
:mod:`repro.reconcile.engine`).
"""

from __future__ import annotations

from repro.reconcile.engine import Protocol
from repro.reconcile.messages import expect, hashes
from repro.reconcile.session import Local


class FrontierProtocol(Protocol):
    """Level-N frontier-set reconciliation (Algorithm 1).

    With ``hash_first=True``, an extra preliminary round exchanges bare
    frontier *hashes* (32 bytes each) before any block bodies: when the
    replicas are already equal — the common case in steady-state gossip
    — the session costs ~100 bytes instead of a full frontier of block
    bodies.  An ablation knob; the paper's text transfers blocks
    directly.
    """

    name = "frontier"

    def __init__(self, max_level: int = 10_000, push: bool = True,
                 hash_first: bool = False):
        self._max_level = max_level
        self._push = push
        self._hash_first = hash_first

    def initiate(self, local: Local):
        stats = local.stats
        responder_frontier = None
        if self._hash_first:
            stats.rounds += 1
            reply = yield {"type": "get_frontier_hashes"}
            responder_frontier = hashes(
                expect(reply, "frontier_hashes")["hashes"]
            )
            if local.holds(responder_frontier):
                stats.converged = True
                if self._push:
                    yield from local.push(local.lacking(responder_frontier))
                return

        pending = []
        level = 1
        while level <= self._max_level:
            stats.rounds += 1
            reply = yield {"type": "get_frontier", "level": level}
            new_blocks = expect(reply, "frontier_set")["blocks"]
            if level == 1:
                # Level 1 carries the whole frontier (nothing was sent
                # before it), which doubles as the responder-frontier
                # snapshot the push needs.  Identical frontiers mean
                # identical chains; otherwise an initiator holding them
                # all is strictly ahead and only needs to push.
                level_hashes = [block.hash for block in new_blocks]
                if responder_frontier is None:
                    responder_frontier = level_hashes
                if local.holds(level_hashes):
                    stats.converged = True
                    break
            pending.extend(new_blocks)
            merged = local.merge(pending)
            if merged.complete:
                stats.converged = True
                break
            # Only the blocks still awaiting parents carry to the retry;
            # invalid blocks were dropped by merge_blocks.
            pending = merged.unplaced
            level += 1

        if stats.converged and self._push:
            yield from local.push(local.lacking(responder_frontier))
