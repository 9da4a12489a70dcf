"""Failure paths of the live anti-entropy layer: an oversized frame on
either end of a session, or any request the responder refuses, ends in a
counted, reason-tagged teardown with both transports closed — never a
dead task, a session left waiting for its timeout, or a loop that
outlives its cancellation."""

import asyncio

from repro.live import LiveNode
from repro.live.antientropy import AntiEntropyLoop, serve_connection
from repro.live.protocol import LiveSessionError, run_session
from repro.live.transport import LoopbackTransport
from repro.obs import Observability
from repro.obs.trace import RingBufferSink
from repro.reconcile import BloomProtocol

from tests.conftest import Deployment

SMALL_FRAMES = 4096


def _pair(ahead: int, behind: int):
    """(initiator, responder): *ahead* blocks only the initiator holds,
    *behind* blocks only the responder holds."""
    deployment = Deployment()
    initiator = deployment.node(0)
    responder = deployment.node(1)
    for _ in range(ahead):
        initiator.append_transactions([])
    for _ in range(behind):
        responder.append_transactions([])
    return initiator, responder


class _OnePeer:
    """The slice of PeerManager the loop uses: one connected peer."""

    def __init__(self, transport):
        self._transport = transport

    def connected_peers(self):
        return [] if self._transport.closed else ["peer"]

    def connection(self, name):
        return None if self._transport.closed else self._transport


class TestResponderTeardown:
    def test_oversized_reply_fails_the_initiator_at_once(self):
        initiator, responder = _pair(ahead=0, behind=40)

        async def scenario():
            init_end, resp_end = LoopbackTransport.pair(
                max_frame_bytes=SMALL_FRAMES
            )
            server = asyncio.ensure_future(
                serve_connection(responder, resp_end)
            )
            try:
                await asyncio.wait_for(
                    run_session(BloomProtocol(), initiator, init_end), 5.0
                )
            except LiveSessionError as exc:
                error = exc
            else:
                error = None
            return error, await server, init_end, resp_end

        error, reason, init_end, resp_end = asyncio.run(scenario())
        assert isinstance(error, LiveSessionError)
        assert "exceeds" in str(error)
        assert reason == "frame_too_large"
        assert init_end.closed and resp_end.closed

    def test_live_node_counts_teardowns_by_reason(self, tmp_path):
        deployment = Deployment()
        obs = Observability()

        async def scenario():
            node = LiveNode(
                deployment.keys[0], tmp_path / "a.vgv",
                genesis=deployment.genesis, clock=deployment.clock,
                fsync=False, obs=obs,
            )
            for garbage in (b"\xff\xff", b"\xff\xff"):
                init_end, resp_end = LoopbackTransport.pair()
                serving = asyncio.ensure_future(
                    node._serve_peer(resp_end, {"name": "p"})
                )
                await init_end.send(garbage)
                await serving
            node.store.close()

        asyncio.run(scenario())
        assert obs.registry.value(
            "live_serve_teardowns_total", reason="undecodable"
        ) == 2


class TestInitiatorOversizedRequest:
    def test_oversized_push_interrupts_without_killing_gossip(self):
        initiator, responder = _pair(ahead=40, behind=1)
        ring = RingBufferSink()
        obs = Observability(sinks=[ring])

        async def scenario():
            init_end, resp_end = LoopbackTransport.pair(
                max_frame_bytes=SMALL_FRAMES
            )
            server = asyncio.ensure_future(
                serve_connection(responder, resp_end)
            )
            loop = AntiEntropyLoop(
                initiator, _OnePeer(init_end), interval_s=0.01,
                jitter_s=0, obs=obs,
            )
            stats = await loop.run_once("peer")
            await server
            # The tick after the torn session finds no connected peer
            # and returns cleanly instead of raising.
            assert await loop.run_tick() == []
            return stats, loop, init_end

        stats, loop, init_end = asyncio.run(scenario())
        assert stats.interrupted
        assert stats.blocks_pulled == 1  # the pull before the push holds
        assert loop.sessions_interrupted == 1
        assert init_end.closed
        [event] = [e for e in ring.events()
                   if e.type == "session.interrupted"]
        assert event.fields["reason"] == "frame_too_large"


class TestTimeout:
    def test_silent_peer_times_out_and_is_cut(self):
        initiator, _ = _pair(ahead=0, behind=0)
        ring = RingBufferSink()

        async def scenario():
            init_end, _silent_end = LoopbackTransport.pair()
            loop = AntiEntropyLoop(
                initiator, _OnePeer(init_end), session_timeout_s=0.05,
                obs=Observability(sinks=[ring]),
            )
            return await loop.run_once("peer"), init_end

        stats, init_end = asyncio.run(scenario())
        assert stats.interrupted
        assert init_end.closed
        [event] = [e for e in ring.events()
                   if e.type == "session.interrupted"]
        assert event.fields["reason"] == "timeout"


class TestCancellation:
    def test_cancel_is_never_swallowed_by_a_finishing_session(self):
        """Cancel run_once after every possible number of loop steps,
        including the step where the session has just finished: the
        cancellation must always surface (LiveNode.stop relies on it)."""
        outcomes = set()
        for steps in range(40):
            initiator, responder = _pair(ahead=0, behind=0)

            async def scenario():
                init_end, resp_end = LoopbackTransport.pair()
                server = asyncio.ensure_future(
                    serve_connection(responder, resp_end)
                )
                loop = AntiEntropyLoop(initiator, _OnePeer(init_end))
                task = asyncio.ensure_future(loop.run_once("peer"))
                for _ in range(steps):
                    await asyncio.sleep(0)
                if task.done():
                    outcome = "finished"
                else:
                    task.cancel()
                    try:
                        await task
                    except asyncio.CancelledError:
                        outcome = "cancelled"
                    else:
                        outcome = "swallowed"
                await init_end.close()
                await server
                return outcome

            outcomes.add(asyncio.run(scenario()))
        assert outcomes == {"cancelled", "finished"}
