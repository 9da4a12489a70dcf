"""Byte and message accounting for reconciliation sessions.

:meth:`ReconcileStats.record` charges a message's exact canonical
encoding size (:func:`repro.reconcile.messages.encode`) to the sending
direction, so protocol comparisons measure what would really cross the
radio.
"""

from __future__ import annotations

from typing import Any

from repro.reconcile.messages import encode as encode_message

INITIATOR_TO_RESPONDER = "i->r"
RESPONDER_TO_INITIATOR = "r->i"

DIRECTIONS = (INITIATOR_TO_RESPONDER, RESPONDER_TO_INITIATOR)


class ReconcileStats:
    """Outcome of one pairwise reconciliation session.

    With a :class:`~repro.obs.metrics.MetricsRegistry` passed (or bound
    later via :meth:`bind_registry`), every recorded message is mirrored
    live into the shared ``reconcile_bytes_total`` /
    ``reconcile_messages_total`` instruments, making the stats object a
    thin per-session view over the registry's running totals.
    """

    def __init__(self, protocol: str, registry=None):
        self.protocol = protocol
        self.rounds = 0
        self.messages = {INITIATOR_TO_RESPONDER: 0, RESPONDER_TO_INITIATOR: 0}
        self.bytes = {INITIATOR_TO_RESPONDER: 0, RESPONDER_TO_INITIATOR: 0}
        self.blocks_pulled = 0
        self.blocks_pushed = 0
        self.duplicate_blocks = 0
        self.invalid_blocks = 0
        # Blocks re-sent because a Bloom filter false positive hid them
        # from the digest round — the attributable share of Bloom's
        # waste in the E5 protocol comparison.
        self.fp_resend = 0
        # Times a sketch session gave up peeling and degraded to the
        # frontier protocol (the bytes/rounds above then include the
        # fallback's traffic).
        self.fallbacks = 0
        # Delta-plane lattice entries moved by the delta protocol; the
        # block counters above stay block-granular.
        self.delta_entries_pulled = 0
        self.delta_entries_pushed = 0
        self.delta_entries_invalid = 0
        self.converged = False
        # Set by the session engine when a message-level session was
        # aborted mid-transfer; the counters above then hold the partial
        # totals charged before the tear-down.
        self.interrupted = False
        self._mirror_bytes = None
        self._mirror_messages = None
        if registry is not None:
            self.bind_registry(registry)

    def bind_registry(self, registry) -> "ReconcileStats":
        """Mirror future :meth:`record` calls into registry counters."""
        byte_counter = registry.counter(
            "reconcile_bytes_total",
            "session bytes by protocol and direction",
            labels=("protocol", "direction"),
        )
        message_counter = registry.counter(
            "reconcile_messages_total",
            "session messages by protocol and direction",
            labels=("protocol", "direction"),
        )
        self._mirror_bytes = {
            direction: byte_counter.labels(
                protocol=self.protocol, direction=direction
            )
            for direction in DIRECTIONS
        }
        self._mirror_messages = {
            direction: message_counter.labels(
                protocol=self.protocol, direction=direction
            )
            for direction in DIRECTIONS
        }
        return self

    def record(self, direction: str, message: Any) -> int:
        """Charge one message; returns its encoded size in bytes."""
        return self.record_raw(direction, len(encode_message(message)))

    def record_raw(self, direction: str, size: int) -> int:
        """Charge one already-encoded message of *size* bytes.

        The live transport layer uses this: it holds the exact frame
        payload that crossed the socket, so re-encoding the decoded
        message just to measure it would be wasted work (the codec is
        canonical, so the sizes are identical by construction).
        """
        if direction not in self.messages:
            raise ValueError(
                f"unknown direction {direction!r}: expected one of "
                f"{DIRECTIONS}"
            )
        self.messages[direction] += 1
        self.bytes[direction] += size
        if self._mirror_bytes is not None:
            self._mirror_bytes[direction].inc(size)
            self._mirror_messages[direction].inc()
        return size

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    @property
    def total_messages(self) -> int:
        return sum(self.messages.values())

    @property
    def blocks_transferred(self) -> int:
        return self.blocks_pulled + self.blocks_pushed

    def as_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "rounds": self.rounds,
            "messages": self.total_messages,
            "bytes": self.total_bytes,
            "blocks_pulled": self.blocks_pulled,
            "blocks_pushed": self.blocks_pushed,
            "duplicates": self.duplicate_blocks,
            "invalid": self.invalid_blocks,
            "fp_resend": self.fp_resend,
            "fallbacks": self.fallbacks,
            "delta_entries_pulled": self.delta_entries_pulled,
            "delta_entries_pushed": self.delta_entries_pushed,
            "delta_entries_invalid": self.delta_entries_invalid,
            "converged": self.converged,
            "interrupted": self.interrupted,
        }

    def __repr__(self) -> str:
        return (
            f"ReconcileStats({self.protocol}, rounds={self.rounds}, "
            f"bytes={self.total_bytes}, blocks={self.blocks_transferred})"
        )
