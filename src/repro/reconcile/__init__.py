"""DAG reconciliation protocols (S9, paper §IV-G and Algorithm 1).

Blocks spread by opportunistic pairwise reconciliation: when two nodes
meet, the initiator pulls the blocks it lacks and then pushes the blocks
the responder lacks.  Six protocols share that contract but differ in
how they discover the difference:

* :class:`FrontierProtocol` — the paper's Algorithm 1: ask for the
  level-N frontier set with increasing N until the gap is bridged.
* :class:`FullExchangeProtocol` — the strawman the paper compares
  against: ship the entire DAG.
* :class:`BloomProtocol` — the §VI "more efficient reconciliation"
  direction: exchange a Bloom digest of held hashes, then transfer only
  probably-missing blocks, repairing false positives by explicit fetches.
* :class:`HeightSkipProtocol` — per-height digests locate the lowest
  diverging height in one round trip, then transfer everything above it.
* :class:`SketchProtocol` — an invertible Bloom lookup table recovers
  the exact difference in one round trip.
* :class:`DeltaProtocol` — delta-state CRDT sync, chained with the
  hash-first frontier protocol for the blocks.

Each protocol is written once, as two pieces that each touch only their
own replica: an **initiator generator** (``protocol.initiate``) that
yields requests and is sent the replies, and the handlers of the one
shared :class:`Responder`.  Two drivers run every pair: the sim's
:class:`ReconcileSession` (stepped one message at a time, or atomically
by ``protocol.run``) calls the responder in-process, and
:func:`repro.live.protocol.run_session` carries the same messages as
frames over a socket.  :mod:`repro.reconcile.messages` is the one codec
at the byte boundary, so every protocol counts the exact canonical-wire
bytes each direction and the bandwidth experiments (F3, E5) measure real
encodings.
"""

from repro.reconcile.bloom import BloomFilter, BloomProtocol
from repro.reconcile.delta import DeltaProtocol, DeltaStore, delta_view_value
from repro.reconcile.engine import (
    Protocol,
    ReconcileSession,
    SessionStep,
    drive_to_completion,
)
from repro.reconcile.frontier import FrontierProtocol
from repro.reconcile.full import FullExchangeProtocol
from repro.reconcile.messages import ReconcileError
from repro.reconcile.responder import Responder
from repro.reconcile.session import Local, merge_blocks
from repro.reconcile.sketch import IBLT, SketchProtocol
from repro.reconcile.skip import HeightSkipProtocol
from repro.reconcile.stats import ReconcileStats

__all__ = [
    "ALL_PROTOCOLS",
    "BloomFilter",
    "BloomProtocol",
    "DeltaProtocol",
    "DeltaStore",
    "FrontierProtocol",
    "FullExchangeProtocol",
    "HeightSkipProtocol",
    "IBLT",
    "Local",
    "PROTOCOLS_BY_NAME",
    "Protocol",
    "ReconcileError",
    "ReconcileSession",
    "ReconcileStats",
    "Responder",
    "SessionStep",
    "SketchProtocol",
    "delta_view_value",
    "drive_to_completion",
    "merge_blocks",
    "protocol_class",
    "protocol_factory",
]

ALL_PROTOCOLS = (
    FrontierProtocol,
    FullExchangeProtocol,
    BloomProtocol,
    HeightSkipProtocol,
    SketchProtocol,
    DeltaProtocol,
)

#: Scenario/CLI/live protocol knob: wire name -> protocol class.  Every
#: class accepts a ``push`` keyword (the gossip layer builds sessions
#: through ``lambda push: cls(push=push)``).
PROTOCOLS_BY_NAME = {
    "frontier": FrontierProtocol,
    "full": FullExchangeProtocol,
    "bloom": BloomProtocol,
    "height_skip": HeightSkipProtocol,
    "sketch": SketchProtocol,
    "delta": DeltaProtocol,
}


def protocol_class(name: str):
    """The protocol class for a wire name.

    Raises ``ValueError`` naming the valid choices for anything else —
    the CLI surfaces that as its one-line ``error:`` exit.
    """
    try:
        return PROTOCOLS_BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}: expected one of "
            f"{sorted(PROTOCOLS_BY_NAME)}"
        ) from None


def protocol_factory(name: str):
    """A ``Scenario.protocol_factory`` callable for a named protocol."""
    cls = protocol_class(name)
    return lambda push: cls(push=push)
