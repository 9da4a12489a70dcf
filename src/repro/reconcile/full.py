"""Full-DAG exchange — the strawman baseline.

The paper motivates Algorithm 1 as "considerably more efficient than
exchanging entire DAGs" (§VI); this protocol is that strawman: the
responder ships every block it has, then the initiator pushes back the
difference.  Bandwidth is proportional to chain length regardless of how
little the replicas diverge, which is exactly what experiments F3/E5
demonstrate.

The responder knows nothing about the initiator here, so the pushed
difference is simply every block missing from the ``dag`` reply.
"""

from __future__ import annotations

from repro.reconcile.engine import Protocol
from repro.reconcile.messages import expect
from repro.reconcile.session import Local


class FullExchangeProtocol(Protocol):
    """Ship the whole DAG both ways."""

    name = "full_exchange"

    def __init__(self, push: bool = True):
        self._push = push

    def initiate(self, local: Local):
        stats = local.stats
        stats.rounds = 1
        blocks = expect((yield {"type": "get_dag"}), "dag")["blocks"]
        merged = local.merge(blocks)
        stats.converged = merged.complete
        if stats.converged and self._push:
            responder_has = {block.hash for block in blocks}
            yield from local.push([
                block for block in local.node.dag.blocks()
                if block.hash not in responder_has
            ])
