"""Failure injection: crashes mid-session, flaky transports, extreme
loss, repeated hostile input — the replica must stay correct (never
corrupt state) and live (recover once conditions allow).

Sessions run through the live driver (:func:`run_session`) over a
loopback frame transport against the shared responder, for every
protocol in ``PROTOCOLS_BY_NAME``.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.live.antientropy import serve_connection
from repro.live.protocol import LiveResponder, LiveSessionError, run_session
from repro.live.transport import (
    LoopbackTransport,
    TransportClosed,
    TransportError,
)
from repro.net.links import LinkModel
from repro.reconcile import PROTOCOLS_BY_NAME
from repro.reconcile.messages import decode
from repro.reconcile.stats import ReconcileStats
from repro.sim import Scenario, Simulation
from repro.wire import decode as wire_decode

PROTOCOLS = sorted(PROTOCOLS_BY_NAME)


def _diverged(deployment, left_appends=3, right_appends=6):
    left = deployment.node(0)
    right = deployment.node(1)
    shared = left.append_transactions([])
    right.receive_block(shared)
    for _ in range(left_appends):
        left.append_transactions([])
    for _ in range(right_appends):
        right.append_transactions([])
    return left, right


def _session(name: str, initiator, serve) -> ReconcileStats:
    """One session of protocol *name* from *initiator* against the
    coroutine ``serve(transport)`` on the other end of a loopback pair.
    A torn session comes back flagged ``interrupted``."""
    protocol = PROTOCOLS_BY_NAME[name]()

    async def scenario():
        init_end, resp_end = LoopbackTransport.pair()
        server = asyncio.ensure_future(serve(resp_end))
        stats = ReconcileStats(protocol.name)
        try:
            await run_session(protocol, initiator, init_end, stats)
        except (TransportError, LiveSessionError):
            stats.interrupted = True
        await init_end.close()
        await server
        return stats

    return asyncio.run(scenario())


def _honest(node):
    async def serve(transport):
        await serve_connection(node, transport)
    return serve


def _serving(node, survive_requests: int = -1, crash_at: str = None,
             corrupt_rate: float = 0.0, seed: int = 0):
    """A responder whose radio goes away after *survive_requests*
    requests or on the first *crash_at* request, and which flips one
    byte of a *corrupt_rate* share of its replies."""
    rng = random.Random(seed)

    async def serve(transport):
        responder = LiveResponder(node)
        remaining = survive_requests
        try:
            while remaining != 0:
                payload = await transport.recv()
                if crash_at is not None and decode(payload)["type"] == crash_at:
                    break
                remaining -= 1
                reply = responder.reply_to(payload)
                if reply is None:
                    continue
                if rng.random() < corrupt_rate:
                    corrupted = bytearray(reply)
                    corrupted[rng.randrange(len(corrupted))] ^= 0xFF
                    reply = bytes(corrupted)
                await transport.send(reply)
        except TransportClosed:
            pass
        await transport.close()
    return serve


class TestMidSessionCrash:
    @pytest.mark.parametrize("survive", [0, 1, 2, 3])
    def test_crash_leaves_consistent_state(self, survive):
        from tests.conftest import Deployment

        for name in PROTOCOLS:
            left, right = _diverged(Deployment())
            blocks_before = len(left.dag)
            _session(name, left, _serving(right, survive))
            # Partial progress is fine; corruption is not: whatever
            # merged must validate and the CSM must still be internally
            # consistent.
            assert len(left.dag) >= blocks_before, name
            for block in left.dag.blocks():
                assert left.csm.has_replayed(block.hash), name

    def test_retry_after_crash_completes(self):
        from tests.conftest import Deployment

        for name in PROTOCOLS:
            left, right = _diverged(Deployment())
            _session(name, left, _serving(right, 2))
            stats = _session(name, left, _honest(right))
            assert stats.converged, name
            assert left.state_digest() == right.state_digest(), name

    def test_interrupted_push_recovers(self):
        # Crash exactly at the push: pull completed, responder missed
        # the push; the *reverse* session heals it.
        from tests.conftest import Deployment

        for name in PROTOCOLS:
            left, right = _diverged(
                Deployment(), left_appends=4, right_appends=1
            )
            _session(name, left, _serving(right, crash_at="push_blocks"))
            assert right.dag.hashes() < left.dag.hashes(), name
            reverse = _session(name, right, _honest(left))
            assert reverse.converged, name
            assert left.state_digest() == right.state_digest(), name


class TestCorruption:
    def test_corrupted_responses_never_poison(self):
        from tests.conftest import Deployment

        for name in PROTOCOLS:
            left, right = _diverged(Deployment())
            union_before = left.dag.hashes() | right.dag.hashes()
            for seed in range(6):
                _session(name, left, _serving(
                    right, corrupt_rate=0.5, seed=seed
                ))
            # Whatever happened, every block on the replica is genuine.
            assert left.dag.hashes() <= union_before, name
            clean = _session(name, left, _honest(right))
            assert clean.converged, name
            assert left.state_digest() == right.state_digest(), name


class TestExtremeLoss:
    def test_90_percent_contact_loss_eventually_converges(self):
        sim = Simulation(
            Scenario(node_count=4, duration_ms=30_000,
                     append_interval_ms=8_000,
                     gossip_interval_ms=500,
                     link=LinkModel(loss_rate=0.9, seed=5), seed=5)
        ).run()
        sim.run_quiescence(240_000)
        assert sim.converged()
        assert sim.metrics.contacts_lost > sim.metrics.sessions_completed


class TestHostileRequestFlood:
    def test_endpoint_survives_garbage_flood(self, deployment):
        node = deployment.node(0)
        before = node.state_digest()
        rng = random.Random(9)

        async def flood():
            for _ in range(300):
                blob = bytes(rng.randrange(256)
                             for _ in range(rng.randrange(1, 80)))
                init_end, resp_end = LoopbackTransport.pair()
                server = asyncio.ensure_future(
                    serve_connection(node, resp_end)
                )
                await init_end.send(blob)
                reply = wire_decode(await init_end.recv())
                assert reply["type"] == "error"
                assert await server is not None
                assert resp_end.closed and init_end.closed

        asyncio.run(flood())
        assert node.state_digest() == before
