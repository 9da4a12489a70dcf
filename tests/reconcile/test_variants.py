"""Protocol variants: hash-first frontier, and sessions over a byte
transport (the live driver over loopback frames)."""

import asyncio
import random

from repro.live.antientropy import serve_connection
from repro.live.protocol import run_session
from repro.live.transport import LoopbackTransport
from repro.reconcile import FrontierProtocol


def _over_bytes(protocol, initiator, responder):
    """One session of *protocol* as frames between the two replicas."""
    async def scenario():
        init_end, resp_end = LoopbackTransport.pair()
        server = asyncio.ensure_future(serve_connection(responder, resp_end))
        stats = await run_session(protocol, initiator, init_end)
        await init_end.close()
        await server
        return stats

    return asyncio.run(scenario())


def _diverged(deployment, left_appends, right_appends):
    left = deployment.node(0)
    right = deployment.node(1)
    shared = left.append_transactions([])
    right.receive_block(shared)
    for _ in range(left_appends):
        left.append_transactions([])
    for _ in range(right_appends):
        right.append_transactions([])
    return left, right


class TestHashFirstFrontier:
    def test_identical_replicas_cost_collapses(self, deployment):
        left, right = _diverged(deployment, 0, 0)
        FrontierProtocol().run(left, right)
        plain = FrontierProtocol().run(left, right)
        hash_first = FrontierProtocol(hash_first=True).run(left, right)
        assert hash_first.converged
        assert hash_first.total_bytes < plain.total_bytes
        assert hash_first.blocks_transferred == 0

    def test_divergence_still_converges(self, deployment):
        left, right = _diverged(deployment, 3, 5)
        stats = FrontierProtocol(hash_first=True).run(left, right)
        assert stats.converged
        assert left.state_digest() == right.state_digest()

    def test_initiator_ahead_pushes_after_hash_round(self, deployment):
        left, right = _diverged(deployment, 5, 0)
        stats = FrontierProtocol(hash_first=True).run(left, right)
        assert stats.converged
        assert stats.blocks_pulled == 0
        assert stats.blocks_pushed == 5
        assert left.dag.hashes() == right.dag.hashes()

    def test_hash_round_costs_one_extra_round_when_behind(self, deployment):
        left_a, right_a = _diverged(deployment, 0, 4)
        plain = FrontierProtocol().run(left_a, right_a)
        deployment_b = type(deployment)()
        left_b, right_b = _diverged(deployment_b, 0, 4)
        hashed = FrontierProtocol(hash_first=True).run(left_b, right_b)
        assert hashed.rounds == plain.rounds + 1


class TestByteTransportAdapter:
    def test_interchangeable_with_in_memory(self, deployment):
        left, right = _diverged(deployment, 3, 4)
        stats = _over_bytes(FrontierProtocol(), left, right)
        assert stats.converged
        assert left.state_digest() == right.state_digest()

    def test_pull_only(self, deployment):
        left, right = _diverged(deployment, 3, 4)
        stats = _over_bytes(FrontierProtocol(push=False), left, right)
        assert stats.converged
        assert stats.blocks_pushed == 0
        assert right.dag.hashes() < left.dag.hashes()

    def test_drives_a_whole_simulation(self):
        """Random-pair gossip among four replicas, every session over
        frames, converges the whole fleet."""
        from tests.conftest import Deployment

        deployment = Deployment()
        nodes = [deployment.node(i) for i in range(4)]
        rng = random.Random(31)
        session_bytes = 0
        for round_number in range(40):
            if round_number % 8 == 0:
                nodes[rng.randrange(4)].append_transactions([])
            initiator, responder = rng.sample(nodes, 2)
            stats = _over_bytes(FrontierProtocol(), initiator, responder)
            session_bytes += stats.total_bytes
        # Two star passes through node 0 finish what gossip left.
        for node in nodes[1:] + nodes[1:]:
            _over_bytes(FrontierProtocol(), node, nodes[0])
        assert len({node.state_digest() for node in nodes}) == 1
        assert session_bytes > 0
