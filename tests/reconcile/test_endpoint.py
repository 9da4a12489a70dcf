"""The responder endpoint at the byte boundary: a session must be complete
over frames alone, and robust to garbage and hostile peers on either
end.  Sessions run through the live driver over a loopback transport,
which frames every payload exactly as a socket would."""

import asyncio

import pytest

from repro import wire
from repro.live.antientropy import serve_connection
from repro.live.protocol import LiveSessionError, run_session
from repro.live.transport import LoopbackTransport, TransportClosed
from repro.reconcile import FrontierProtocol, Responder
from repro.reconcile.messages import decode, encode


def _diverged(deployment, left_appends=3, right_appends=5):
    left = deployment.node(0)
    right = deployment.node(1)
    shared = left.append_transactions([])
    right.receive_block(shared)
    for _ in range(left_appends):
        left.append_transactions([])
    for _ in range(right_appends):
        right.append_transactions([])
    return left, right


def _over_frames(initiator, serve, protocol=None):
    """Run one frontier session from *initiator* against the coroutine
    ``serve(transport)``; returns (stats, error or None)."""
    protocol = protocol or FrontierProtocol()

    async def scenario():
        init_end, resp_end = LoopbackTransport.pair()
        server = asyncio.ensure_future(serve(resp_end))
        error = None
        try:
            stats = await run_session(protocol, initiator, init_end)
        except LiveSessionError as exc:
            stats, error = None, exc
        await init_end.close()
        await server
        return stats, error

    return asyncio.run(scenario())


def _honest(node):
    async def serve(transport):
        await serve_connection(node, transport)
    return serve


def _replying(answer):
    """A peer that answers every request frame with ``answer(payload)``."""
    async def serve(transport):
        try:
            while True:
                payload = await transport.recv()
                await transport.send(answer(payload))
        except TransportClosed:
            pass
    return serve


class TestSessionOverFrames:
    def test_full_sync_over_bytes(self, deployment):
        left, right = _diverged(deployment)
        stats, error = _over_frames(left, _honest(right))
        assert error is None
        assert stats.converged
        assert left.state_digest() == right.state_digest()

    def test_matches_in_memory_protocol_result(self, deployment):
        left_remote, right_remote = _diverged(deployment)
        remote, _ = _over_frames(left_remote, _honest(right_remote))

        deployment2 = type(deployment)()
        left_local, right_local = _diverged(deployment2)
        local = FrontierProtocol().run(left_local, right_local)

        assert left_remote.dag.hashes() == right_remote.dag.hashes()
        assert left_local.dag.hashes() == right_local.dag.hashes()
        assert remote.as_dict() == local.as_dict()

    def test_identical_replicas_one_round_trip(self, deployment):
        left, right = _diverged(deployment, 0, 0)
        _over_frames(left, _honest(right))
        stats, _ = _over_frames(left, _honest(right))
        assert stats.converged
        assert stats.rounds == 1
        assert stats.total_messages == 2
        assert stats.blocks_pulled == 0
        assert stats.blocks_pushed == 0

    def test_garbage_transport_terminates_cleanly(self, deployment):
        left, _ = _diverged(deployment)
        before = left.state_digest()
        stats, error = _over_frames(left, _replying(lambda _: b"\xff\xff"))
        assert isinstance(error, LiveSessionError)
        assert left.state_digest() == before

    def test_error_reply_terminates_cleanly(self, deployment):
        left, _ = _diverged(deployment)
        error_frame = encode({"type": "error", "reason": "nope"})
        _, error = _over_frames(left, _replying(lambda _: error_frame))
        assert "nope" in str(error)

    def test_lying_responder_cannot_poison(self, deployment):
        """A responder that injects a forged block into its replies
        cannot get it into the initiator's DAG."""
        from repro.chain.block import Block
        from repro.crypto.keys import KeyPair

        left, right = _diverged(deployment)
        stranger = KeyPair.deterministic(601)
        forged = Block.create(
            stranger, [deployment.genesis.hash], deployment.clock() + 1
        )
        responder = Responder(right)

        def hostile(request: bytes) -> bytes:
            response = responder.handle(decode(request))
            if response["type"] == "frontier_set":
                response["blocks"] = [forged] + response["blocks"]
            return encode(response)

        async def serve(transport):
            try:
                while True:
                    payload = await transport.recv()
                    if decode(payload)["type"] == "push_blocks":
                        continue
                    await transport.send(hostile(payload))
            except TransportClosed:
                pass

        stats, error = _over_frames(left, serve)
        assert error is None
        assert stats.converged  # honest blocks still make it
        assert not left.has_block(forged.hash)
        assert stats.invalid_blocks >= 1


class TestEndpointRobustness:
    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"",
            b"\x00",
            b"\xff" * 40,
            wire.encode("not a map"),
            wire.encode({"no_type": 1}),
            wire.encode({"type": "unknown_thing"}),
            wire.encode({"type": "get_frontier"}),  # missing level
            wire.encode({"type": "get_frontier", "level": 0}),
            wire.encode({"type": "get_blocks", "hashes": [b"short"]}),
            wire.encode({"type": "push_blocks", "blocks": ["bad"]}),
            wire.encode({"type": "bloom", "filter": {
                "bits": b"", "bit_count": 64, "hash_count": 2,
            }}),
        ],
    )
    def test_bad_requests_get_error_replies(self, deployment,
                                            request_bytes):
        node = deployment.node(0)

        async def scenario():
            init_end, resp_end = LoopbackTransport.pair()
            server = asyncio.ensure_future(serve_connection(node, resp_end))
            await init_end.send(request_bytes)
            response = wire.decode(await init_end.recv())
            return response, await server, init_end.closed

        response, reason, closed = asyncio.run(scenario())
        assert response["type"] == "error"
        assert reason is not None
        assert closed

    def test_get_blocks_skips_unknown_hashes(self, deployment):
        responder = Responder(deployment.node(0))
        response = responder.handle(
            {"type": "get_blocks", "hashes": [b"\x00" * 32]}
        )
        assert response == {"type": "blocks", "blocks": []}

    def test_push_blocks_reports_invalid(self, deployment):
        from repro.chain.block import Block
        from repro.crypto.keys import KeyPair

        node = deployment.node(0)
        before = node.state_digest()
        merged = []
        responder = Responder(node, on_blocks=merged.extend)
        stranger = KeyPair.deterministic(602)
        forged = Block.create(
            stranger, [deployment.genesis.hash], deployment.clock() + 1
        )
        assert responder.handle(
            {"type": "push_blocks", "blocks": [forged]}
        ) is None
        assert merged == []
        assert not node.has_block(forged.hash)
        assert node.state_digest() == before
