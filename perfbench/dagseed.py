"""The seeded chain every live workload starts from.

One deployment (an owner, eight authors, and the member keys the
benchmark's replicas run under) and a branching DAG built from the
workload seed.  Each author appends on top of the frontier of the
blocks it has seen; between appends, an author sometimes learns
another author's view, so the DAG branches and re-merges the way a
partitioned fleet's does.

Block timestamps count up from a fixed epoch in the past, so the
same seed gives byte-identical blocks on every run and no replica's
wall clock ever lags the chain (a lagging clock makes fresh replicas
reject blocks as "from the future").
"""

from __future__ import annotations

import os
import random

from repro.chain.block import Block, Transaction
from repro.core.genesis import create_genesis
from repro.core.node import VegvisirNode
from repro.crypto.keys import KeyPair
from repro.membership.authority import CertificateAuthority
from repro.storage.blockstore import BlockStore

AUTHORS = 8
EPOCH_MS = 1_600_000_000_000
LEDGER = "ledger"
PAYLOAD_BYTES = 48
# Chance that an author merges one other author's view before it
# appends: low enough that frontiers stay a few blocks wide.
SYNC_PROBABILITY = 0.35
# The DAG ends with this many tips on every seed: a session's cost
# grows with the responder's frontier, and its width should not be
# left to the seed.
TIPS = 4

# Key indices: 0 owns the chain, 1..AUTHORS wrote the seed DAG, and
# the rest are the replicas the benchmark runs.
OWNER_KEY = 0
GATEWAY_KEY = AUTHORS + 1
PEER_KEY = AUTHORS + 2
FRESH_KEY = AUTHORS + 3


class Deployment:
    """Keys and genesis shared by every replica of one run."""

    def __init__(self):
        self.owner = KeyPair.deterministic(OWNER_KEY)
        self.keys = {
            index: KeyPair.deterministic(index)
            for index in range(1, FRESH_KEY + 1)
        }
        authority = CertificateAuthority(self.owner)
        certificates = [
            authority.issue(key.public_key, "member", issued_at=1)
            for _, key in sorted(self.keys.items())
        ]
        self.genesis = create_genesis(
            self.owner, chain_name="perfbench", timestamp=EPOCH_MS,
            founding_members=certificates,
        )

    def key(self, index: int) -> KeyPair:
        return self.keys[index]


def build_blocks(deployment: Deployment, seed: int,
                 count: int) -> list[Block]:
    """*count* signed blocks (genesis excluded) in a valid insertion
    order; the same seed gives the same bytes."""
    rng = random.Random(seed)
    authors = [deployment.key(index) for index in range(1, AUTHORS + 1)]
    timestamp = EPOCH_MS
    genesis_hash = deployment.genesis.hash
    timestamp += 1
    creator = VegvisirNode(authors[0], deployment.genesis,
                           clock=lambda: timestamp)
    create = creator.create_crdt(
        LEDGER, "append_log", "any", permissions={"append": "*"}
    )
    blocks = [create]
    # Per author: every block seen (ancestor-closed) and its frontier.
    seen = [{genesis_hash, create.hash} for _ in authors]
    frontier = [{create.hash} for _ in authors]
    while len(blocks) < count - TIPS:
        author = rng.randrange(AUTHORS)
        if rng.random() < SYNC_PROBABILITY:
            other = rng.randrange(AUTHORS)
            if other != author:
                _merge_view(seen, frontier, author, other)
        timestamp += 1 + rng.randrange(5)
        payload = bytes(rng.randrange(256) for _ in range(PAYLOAD_BYTES))
        block = Block.create(
            key_pair=authors[author],
            parents=sorted(frontier[author]),
            timestamp=timestamp,
            transactions=[Transaction(LEDGER, "append", [payload.hex()])],
        )
        blocks.append(block)
        seen[author].add(block.hash)
        frontier[author] = {block.hash}
    # TIPS authors each see every block so far, then append without
    # seeing each other's last block.
    cited = {parent for block in blocks for parent in block.parents}
    tips = sorted(block.hash for block in blocks if block.hash not in cited)
    for author in rng.sample(range(AUTHORS), min(TIPS, count - len(blocks))):
        timestamp += 1 + rng.randrange(5)
        payload = bytes(rng.randrange(256) for _ in range(PAYLOAD_BYTES))
        blocks.append(Block.create(
            key_pair=authors[author], parents=tips, timestamp=timestamp,
            transactions=[Transaction(LEDGER, "append", [payload.hex()])],
        ))
    return blocks


def _merge_view(seen, frontier, into: int, other: int) -> None:
    """Author *into* learns everything author *other* has seen.

    Both views are ancestor-closed, so a frontier block of one view is
    still a frontier block of the union unless the other view holds it
    as a non-frontier block (it then has a child there).
    """
    mine, theirs = seen[into], seen[other]
    merged = {
        block_hash for block_hash in frontier[into]
        if block_hash not in theirs or block_hash in frontier[other]
    } | {
        block_hash for block_hash in frontier[other]
        if block_hash not in mine or block_hash in frontier[into]
    }
    mine |= theirs
    frontier[into] = merged


def write_store(deployment: Deployment, blocks: list[Block],
                path: os.PathLike) -> None:
    """A block store holding genesis plus *blocks*, ready for a
    :class:`~repro.live.node.LiveNode` to load."""
    with BlockStore(path, fsync=False) as store:
        store.append(deployment.genesis)
        store.append_all(blocks)


def max_height(blocks: list[Block]) -> int:
    """Longest parent chain above genesis, for the round bound."""
    height: dict = {}
    for block in blocks:
        height[block.hash] = 1 + max(
            (height.get(parent, 0) for parent in block.parents), default=0
        )
    return max(height.values(), default=0)


def dag_digest(deployment: Deployment, blocks: list[Block]) -> str:
    """What ``LiveNode.dag_digest()`` reads on a replica holding
    exactly genesis plus *blocks*."""
    from repro.crypto.sha import Hash

    return Hash.of_value(sorted(
        block.hash.digest for block in [deployment.genesis, *blocks]
    )).hex()
