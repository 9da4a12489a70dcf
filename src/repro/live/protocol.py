"""The live driver: reconciliation sessions over a frame transport.

Every protocol in :mod:`repro.reconcile` is one initiator generator plus
handlers on the shared :class:`~repro.reconcile.responder.Responder`,
each touching only its own replica.  The sim driver calls the responder
in-process; this module carries the same messages over a socket:

* :func:`run_session` drives an initiator generator, sending each
  request as one frame and resuming the generator with the decoded
  reply;
* :class:`LiveResponder` is the responder at the byte boundary: one
  request frame in, one reply frame (or nothing) out.

Both sides convert with the one :mod:`repro.reconcile.messages` codec,
so the frame payloads equal the sim's wire messages byte for byte — the
live/sim parity tests (``tests/live/test_parity.py``) hold them to it.

Nothing here trusts the peer: received blocks pass the full §IV-E
validation inside :func:`~repro.reconcile.session.merge_blocks`, and a
malformed or hostile reply raises :class:`LiveSessionError`, which the
anti-entropy loop turns into a torn session — never a corrupted DAG.
"""

from __future__ import annotations

from typing import Optional

from repro.core.node import VegvisirNode
from repro.obs.profiling import PHASE_CODEC, maybe_phase
from repro.reconcile import messages
from repro.reconcile.messages import ONE_WAY, ReconcileError
from repro.reconcile.responder import Responder
from repro.reconcile.session import BlockSink, Local
from repro.reconcile.stats import (
    INITIATOR_TO_RESPONDER,
    RESPONDER_TO_INITIATOR,
    ReconcileStats,
)
from repro.wire import DecodeError


class LiveSessionError(ReconcileError):
    """The peer sent something unusable; the session must be torn down."""


async def run_session(protocol, node: VegvisirNode, transport,
                      stats: Optional[ReconcileStats] = None,
                      on_blocks: Optional[BlockSink] = None,
                      profiler=None) -> ReconcileStats:
    """One initiator session of *protocol* over *transport*.

    Each request is charged to *stats* and sent as one frame; unless it
    is one-way the next frame is its reply.  An ``error`` reply, bytes
    that do not decode, or a reply the protocol cannot use raise
    :class:`LiveSessionError`; transport failures propagate as they are.
    """
    stats = stats if stats is not None else ReconcileStats(protocol.name)
    requests = protocol.initiate(Local(node, stats, on_blocks, profiler))
    reply = None
    try:
        while True:
            try:
                request = requests.send(reply)
            except StopIteration:
                return stats
            except (ReconcileError, KeyError, TypeError, ValueError) as exc:
                raise LiveSessionError(f"unusable reply: {exc}") from exc
            with maybe_phase(profiler, PHASE_CODEC) as ph:
                payload = messages.encode(request)
                ph.units += len(payload)
            stats.record_raw(INITIATOR_TO_RESPONDER, len(payload))
            await transport.send(payload)
            if request["type"] in ONE_WAY:
                reply = None
                continue
            reply_payload = await transport.recv()
            stats.record_raw(RESPONDER_TO_INITIATOR, len(reply_payload))
            try:
                with maybe_phase(profiler, PHASE_CODEC) as ph:
                    reply = messages.decode(reply_payload)
                    ph.units += len(reply_payload)
            except (DecodeError, ReconcileError) as exc:
                raise LiveSessionError(f"undecodable reply: {exc}") from exc
            if reply["type"] == "error":
                raise LiveSessionError(
                    f"peer reported error: {reply.get('reason', '?')}"
                )
    finally:
        requests.close()


class LiveResponder(Responder):
    """The shared responder behind one connection's frames."""

    def reply_to(self, payload: bytes) -> Optional[bytes]:
        """Decode one request frame, handle it, encode the reply.

        Raises :class:`~repro.wire.DecodeError` or
        :class:`~repro.reconcile.messages.ReconcileError` for a request
        that cannot be served.
        """
        with maybe_phase(self.profiler, PHASE_CODEC) as ph:
            message = messages.decode(payload)
            ph.units += len(payload)
        reply = self.handle(message)
        if reply is None:
            return None
        with maybe_phase(self.profiler, PHASE_CODEC) as ph:
            reply_payload = messages.encode(reply)
            ph.units += len(reply_payload)
        return reply_payload
