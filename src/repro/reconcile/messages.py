"""Reconciliation messages and their one byte-boundary codec.

A message is a map with a ``type``.  In process — between a protocol's
initiator generator, the shared :class:`~repro.reconcile.responder.
Responder` and the sim driver — block-carrying messages hold
:class:`~repro.chain.block.Block` objects under ``"blocks"``, so a
replica never re-decodes a block it already holds.  :func:`encode` and
:func:`decode` are the only conversion to and from bytes: the live
transport sends what :func:`encode` produced, :meth:`ReconcileStats.
record <repro.reconcile.stats.ReconcileStats.record>` charges its
length, and the fault injector corrupts it.  Sizes therefore always
equal the canonical encoding's.
"""

from __future__ import annotations

from typing import Iterable, List

from repro import wire
from repro.chain.block import Block
from repro.chain.errors import MalformedBlockError
from repro.crypto.sha import Hash

#: Requests the responder answers with nothing: the driver resumes the
#: initiator with ``None`` instead of waiting for a reply.
ONE_WAY = frozenset({"push_blocks", "delta_push"})


class ReconcileError(Exception):
    """A peer's message is malformed or unexpected; the session must be
    torn down (a replica is never touched by the bad message)."""


def to_wire(message: dict) -> dict:
    """The message with its blocks as canonical wire maps."""
    blocks = message.get("blocks")
    if blocks is None:
        return message
    plain = dict(message)
    plain["blocks"] = [block.to_wire() for block in blocks]
    return plain


def encode(message: dict) -> bytes:
    return wire.encode(to_wire(message))


def decode(payload: bytes) -> dict:
    """Bytes to a typed message with :class:`Block` objects.

    Raises :class:`~repro.wire.DecodeError` for bytes the codec rejects
    and :class:`ReconcileError` for a value that is not a typed map or
    carries a malformed block.
    """
    message = wire.decode(payload)
    if not isinstance(message, dict) or not isinstance(
        message.get("type"), str
    ):
        raise ReconcileError("message is not a typed map")
    blocks = message.get("blocks")
    if blocks is not None:
        if not isinstance(blocks, list):
            raise ReconcileError("blocks field is not a list")
        try:
            message["blocks"] = [Block.from_wire(value) for value in blocks]
        except MalformedBlockError as exc:
            raise ReconcileError(f"malformed block: {exc}") from exc
    return message


def expect(reply: dict, wanted: str) -> dict:
    if reply["type"] != wanted:
        raise ReconcileError(
            f"expected {wanted!r} reply, got {reply['type']!r}"
        )
    return reply


def hashes(digests: Iterable[bytes]) -> List[Hash]:
    """A peer's digest list as hashes (``ValueError`` on a bad one)."""
    out = []
    for digest in digests:
        if not isinstance(digest, bytes):
            raise ValueError("digest is not a byte string")
        out.append(Hash(digest))
    return out
