"""Ablation A2 — byte-transport overhead of the reconciliation session.

One protocol object runs under two drivers: the sim driver hands Block
objects to the responder in-process, while the live driver
(:func:`~repro.live.protocol.run_session`) ships canonical bytes as
frames over a loopback transport to the served responder.  This
ablation runs the same divergence through both and reports bytes,
messages, and wall time — quantifying what the simulator's shortcut
hides (it should be: nothing but encoding and framing time; the byte
counts match because the in-memory stats already charge canonical
encodings).
"""

from __future__ import annotations

import asyncio
import time

from repro.live.antientropy import serve_connection
from repro.live.protocol import run_session
from repro.live.transport import LoopbackTransport
from repro.reconcile import FrontierProtocol

from benchmarks.bench_util import Table, make_fleet


def _pair(divergence: int, seed: int):
    _, genesis, nodes, clock = make_fleet(2, seed=seed)
    left, right = nodes
    for _ in range(30):
        block = left.append_transactions([])
        right.receive_block(block)
    for _ in range(divergence):
        right.append_transactions([])
        left.append_transactions([])
    return left, right


def _over_loopback(left, right):
    async def scenario():
        init_end, resp_end = LoopbackTransport.pair()
        server = asyncio.ensure_future(serve_connection(right, resp_end))
        stats = await run_session(FrontierProtocol(), left, init_end)
        await init_end.close()
        await server
        return stats

    return asyncio.run(scenario())


def test_a2_transport_overhead(benchmark, results_dir):
    table = Table(
        "A2: in-memory protocol vs byte transport (30-block shared chain)",
        ["divergence", "mode", "bytes", "messages", "wall_ms"],
    )
    for divergence in (2, 8):
        left, right = _pair(divergence, seed=divergence)
        start = time.perf_counter()
        memory_stats = FrontierProtocol().run(left, right)
        memory_ms = (time.perf_counter() - start) * 1000
        assert memory_stats.converged
        table.add(divergence, "in-memory", memory_stats.total_bytes,
                  memory_stats.total_messages, round(memory_ms, 2))

        left, right = _pair(divergence, seed=divergence)
        start = time.perf_counter()
        remote_stats = _over_loopback(left, right)
        remote_ms = (time.perf_counter() - start) * 1000
        assert remote_stats.converged
        assert left.state_digest() == right.state_digest()
        table.add(divergence, "byte-transport", remote_stats.total_bytes,
                  remote_stats.total_messages, round(remote_ms, 2))

        # Same order of magnitude: the simulator's in-memory accounting
        # is a faithful stand-in for real encodings (both drivers carry
        # the same messages, so the ratio is exactly 1).
        ratio = remote_stats.total_bytes / max(1, memory_stats.total_bytes)
        assert 0.3 < ratio < 4.0, f"byte accounting diverged: {ratio}"
    table.emit(results_dir, "a2_transport_overhead")

    def kernel():
        left, right = _pair(2, seed=77)
        _over_loopback(left, right)

    benchmark(kernel)
