"""Shared reconciliation plumbing: merging received blocks, and the
initiator's view of its own half of a session.

``merge_blocks`` inserts a batch of received blocks in dependency order,
tolerating duplicates and quarantining blocks whose parents are absent
(the caller fetches deeper and retries).  :class:`Local` is what a
protocol's initiator generator works with: its own replica, the session
stats, and the merge/push helpers every protocol shares.  After a
successful pull the initiator's DAG is a superset of the responder's, so
the responder's holdings are exactly the ancestry of its frontier and
the push set can be computed without further negotiation.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.chain.block import Block
from repro.chain.errors import (
    ChainError,
    DuplicateBlockError,
    MissingParentsError,
    ValidationError,
)
from repro.core.node import VegvisirNode
from repro.crypto.sha import Hash
from repro.obs.profiling import PHASE_VERIFY, maybe_phase
from repro.reconcile.stats import ReconcileStats

#: Called with each batch of blocks newly merged into the local replica
#: (the persistence hook: LiveNode appends them to its BlockStore).
BlockSink = Callable[[List[Block]], None]


class MergeResult:
    """What happened to one batch of received blocks."""

    __slots__ = ("added", "duplicates", "invalid", "missing_parents",
                 "unplaced")

    def __init__(self):
        self.added: list[Block] = []
        self.duplicates = 0
        self.invalid = 0
        self.missing_parents: set[Hash] = set()
        self.unplaced: list[Block] = []

    @property
    def complete(self) -> bool:
        """Did every non-duplicate, valid block make it into the DAG?"""
        return not self.missing_parents


def merge_blocks(node: VegvisirNode, blocks: Iterable[Block]) -> MergeResult:
    """Insert received blocks in dependency order.

    Repeatedly sweeps the batch, inserting every block whose parents are
    present, until a fixpoint; blocks still missing parents are reported
    in the result so the protocol can fetch another level.  Invalid
    blocks (bad signature, timestamp, non-member) are counted and
    dropped — a malicious responder cannot poison the DAG.
    """
    result = MergeResult()
    pending = list(blocks)
    progress = True
    while pending and progress:
        progress = False
        remaining: list[Block] = []
        # Batch-verify every block insertable this sweep before the
        # insertion loop: the backend sees one batch per dependency
        # level instead of one call per block, and the verdicts land in
        # the shared verified-block cache so validate() only hits.
        node.validator.preverify(pending)
        dag = node.dag
        for block in pending:
            if node.has_block(block.hash):
                result.duplicates += 1
                progress = True
                continue
            # Cheap readiness probe: a block whose parents are not in
            # yet cannot land this sweep, and the full validate-and-
            # raise path costs ~30x a pair of dict lookups.
            if not all(parent in dag for parent in block.parents):
                remaining.append(block)
                continue
            try:
                node.receive_block(block)
            except MissingParentsError:
                remaining.append(block)
            except (ValidationError, ChainError, DuplicateBlockError):
                result.invalid += 1
                progress = True
            else:
                result.added.append(block)
                progress = True
        pending = remaining
    result.unplaced = pending
    for block in pending:
        for parent in block.parents:
            if not node.has_block(parent):
                result.missing_parents.add(parent)
    return result


def responder_holdings(node: VegvisirNode,
                       frontier_hashes: Iterable[Hash]) -> set[Hash]:
    """Blocks a peer with the given frontier must hold (provenance §IV-A:
    a replica always holds the full ancestry of its frontier)."""
    holdings: set[Hash] = set()
    for frontier_hash in frontier_hashes:
        if node.has_block(frontier_hash):
            holdings.add(frontier_hash)
            holdings |= node.dag.ancestors(frontier_hash)
    return holdings


class Local:
    """The initiator's half of one session.

    Holds the initiator's replica and the stats the session charges, plus
    the hooks a driver attaches to merges: *on_blocks* receives every
    batch newly merged (the live node persists it) and *profiler* times
    the merges as the ``verify`` phase.
    """

    __slots__ = ("node", "stats", "on_blocks", "profiler")

    def __init__(self, node: VegvisirNode, stats: ReconcileStats,
                 on_blocks: Optional[BlockSink] = None, profiler=None):
        self.node = node
        self.stats = stats
        self.on_blocks = on_blocks
        self.profiler = profiler

    def holds(self, block_hashes: Iterable[Hash]) -> bool:
        return all(self.node.has_block(h) for h in block_hashes)

    def merge(self, blocks: List[Block]) -> MergeResult:
        """Merge pulled blocks, charging the outcome to the stats."""
        with maybe_phase(self.profiler, PHASE_VERIFY) as ph:
            merged = merge_blocks(self.node, blocks)
            ph.units += len(merged.added)
        stats = self.stats
        stats.blocks_pulled += len(merged.added)
        stats.duplicate_blocks += merged.duplicates
        stats.invalid_blocks += merged.invalid
        if self.on_blocks is not None and merged.added:
            self.on_blocks(merged.added)
        return merged

    def lacking(self, responder_frontier: Iterable[Hash]) -> List[Block]:
        """Blocks a peer with *responder_frontier* lacks, in topological
        order (assumes the pull completed, so ours is a superset)."""
        responder_has = responder_holdings(self.node, responder_frontier)
        return [
            block for block in self.node.dag.blocks()
            if block.hash not in responder_has
        ]

    def push(self, blocks: List[Block]):
        """The push half of a session: one one-way block batch (nothing
        when *blocks* is empty).  ``blocks_pushed`` counts blocks sent;
        an honest responder merges them all."""
        if not blocks:
            return
        yield {"type": "push_blocks", "blocks": blocks}
        self.stats.blocks_pushed += len(blocks)
