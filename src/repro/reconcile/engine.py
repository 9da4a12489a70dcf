"""The sim driver: one session between two in-process replicas.

Each protocol in this package is written once, as two pieces that each
touch only their own replica:

* an **initiator generator** (``protocol.initiate(local)``) that yields
  one request at a time and is sent the reply (``reply = yield
  request``; ``None`` after a one-way push);
* the shared :class:`~repro.reconcile.responder.Responder`, one handler
  per request type.

Two drivers carry the messages between them.  The live runtime's
:func:`repro.live.protocol.run_session` sends them as frames over a
socket.  This module's :class:`ReconcileSession` calls the responder
in-process, one wire message per :meth:`~ReconcileSession.next_step`, so
the same session serves two execution models:

* **atomic** — :func:`drive_to_completion` (``protocol.run``) steps the
  session to its end at one instant;
* **message** — the gossip scheduler schedules every step as its own
  event on the simulation loop, charging per-message latency and
  re-checking connectivity before each delivery.  A session whose pair
  walks out of radio range is :meth:`~ReconcileSession.abort`-ed between
  messages; its :class:`~repro.reconcile.stats.ReconcileStats` keep the
  partial totals charged so far and are flagged ``interrupted``.

Interruption can never corrupt a replica: blocks are only ever inserted
through :func:`~repro.reconcile.session.merge_blocks`, which adds a
block if and only if all its parents are present (parent-closed
batches).  Blocks still in flight — or received but awaiting parents —
are simply dropped with the torn session.
"""

from __future__ import annotations

from typing import Optional

from repro.core.node import VegvisirNode
from repro.reconcile.session import Local
from repro.reconcile.stats import (
    INITIATOR_TO_RESPONDER,
    RESPONDER_TO_INITIATOR,
    ReconcileStats,
)


class Protocol:
    """Base of the protocol classes: ``initiate`` plus the atomic run."""

    name = "?"

    def initiate(self, local: Local):
        """Yield the initiator's requests; each ``yield`` returns the
        reply (``None`` for a one-way message)."""
        raise NotImplementedError

    def run(self, initiator: VegvisirNode,
            responder: VegvisirNode) -> ReconcileStats:
        return drive_to_completion(self, initiator, responder)


class SessionStep:
    """One wire message of a session, with its canonical encoded size."""

    __slots__ = ("direction", "message", "size")

    def __init__(self, direction: str, message: dict, size: int):
        self.direction = direction
        self.message = message
        self.size = size

    @property
    def from_initiator(self) -> bool:
        return self.direction == INITIATOR_TO_RESPONDER

    def __repr__(self) -> str:
        kind = self.message.get("type", "?")
        return f"SessionStep({self.direction}, {kind!r}, {self.size} B)"


class ReconcileSession:
    """A suspended reconciliation between two replicas.

    Pull wire messages one at a time with :meth:`next_step`; every call
    delivers the previous message (the responder answers a request, or
    the initiator takes a reply) and returns the next transmission, or
    ``None`` once the protocol has finished.  :meth:`abort` tears the
    session down between messages, keeping the partial byte/block totals
    in :attr:`stats`.  Replicas of different chains (different genesis
    blocks, §IV-G) exchange nothing.
    """

    def __init__(self, protocol, initiator: VegvisirNode,
                 responder: VegvisirNode):
        # Imported here: the responder imports every protocol module,
        # and those import this one for :class:`Protocol`.
        from repro.reconcile.responder import Responder

        self.protocol = protocol
        self.initiator = initiator
        self.responder = responder
        self.stats = ReconcileStats(protocol.name)
        self._responder = Responder(responder)
        self._requests = protocol.initiate(Local(initiator, self.stats))
        self._last: Optional[SessionStep] = None
        self._done = initiator.chain_id != responder.chain_id

    @property
    def done(self) -> bool:
        """Has the session finished (completed or aborted)?"""
        return self._done

    @property
    def interrupted(self) -> bool:
        return self.stats.interrupted

    def next_step(self) -> Optional[SessionStep]:
        """Deliver the previous message and return the next one.

        The returned step's bytes are charged to :attr:`stats` at this
        point — transmission energy is spent whether or not the message
        will ultimately be delivered.  Returns ``None`` when the
        protocol is complete (or the session was already torn down).
        """
        if self._done:
            return None
        last = self._last
        delivered = None
        if last is not None:
            if last.from_initiator:
                reply = self._responder.handle(last.message)
                if reply is not None:
                    return self._emit(RESPONDER_TO_INITIATOR, reply)
            else:
                delivered = last.message
        try:
            request = self._requests.send(delivered)
        except StopIteration:
            self._done = True
            return None
        return self._emit(INITIATOR_TO_RESPONDER, request)

    def _emit(self, direction: str, message: dict) -> SessionStep:
        size = self.stats.record(direction, message)
        self._last = SessionStep(direction, message, size)
        return self._last

    def abort(self) -> None:
        """Tear the session down between messages.

        Idempotent, and a no-op on an already-completed session.  The
        stats keep every byte and block charged so far and are flagged
        ``interrupted``; no replica is left structurally invalid because
        blocks only ever enter a DAG in parent-closed batches.
        """
        if self._done:
            return
        self._done = True
        self.stats.interrupted = True
        self._requests.close()


def drive_to_completion(protocol, initiator: VegvisirNode,
                        responder: VegvisirNode) -> ReconcileStats:
    """Run a session to its end at one instant.

    This is the atomic execution model: identical message sequence and
    accounting to the message-level model with an ideal (zero-latency,
    uninterrupted) link, which the equivalence tests enforce.
    """
    session = ReconcileSession(protocol, initiator, responder)
    while session.next_step() is not None:
        pass
    return session.stats
