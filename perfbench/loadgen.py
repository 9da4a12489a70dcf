"""Open-loop load for the ``replicate`` workload.

One process, a fixed pool of keep-alive connections (at most the
machine's processor count), and Poisson arrivals at one fixed rate
drawn from the workload seed.  Each request is timed from when it was
*due*, so a stall that delays later sends counts against the system
and not in the generator's favour.  The generator reports how late it
sent (lateness) and how busy its connections were (occupancy: mean
requests in flight per connection); if either grows, the harness is
what is being measured.

A WebSocket subscription to the remote replica records when each
block first becomes visible there, so every accepted transaction gets
a commit latency (its 200 reply) and a visibility latency (its block
appearing on the other replica).

Built on the system's public client pieces: :class:`GatewayClient`
for HTTP and the :mod:`repro.gateway.websocket` frame parser.
"""

from __future__ import annotations

import asyncio
import json
import random
import time

from repro.gateway import websocket as ws
from repro.gateway.loadgen import GatewayClient

WS_KEY = "cGVyZmJlbmNoLXN1YnNjcmli"


class Request:
    __slots__ = ("tx_id", "due", "sent", "replied", "status", "block")

    def __init__(self, tx_id: str, due: float):
        self.tx_id = tx_id
        self.due = due
        self.sent = 0.0
        self.replied = 0.0
        self.status = 0
        self.block = None


class Subscription:
    """First-seen times of blocks on one gateway's push feed."""

    def __init__(self):
        self.seen: dict[str, float] = {}
        self.changed = asyncio.Event()
        self._reader = None
        self._writer = None
        self._task = None

    async def open(self, port: int) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", port
        )
        self._writer.write((
            "GET /v1/subscribe HTTP/1.1\r\nHost: perfbench\r\n"
            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {WS_KEY}\r\n\r\n"
        ).encode("ascii"))
        await self._writer.drain()
        head = await self._reader.readuntil(b"\r\n\r\n")
        if not head.startswith(b"HTTP/1.1 101"):
            raise ConnectionError(f"subscribe refused: {head[:40]!r}")
        self._task = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        parser = ws.FrameParser(require_mask=False)
        while True:
            data = await self._reader.read(65536)
            if not data:
                return
            now = time.perf_counter()
            for opcode, payload in parser.feed(data):
                if opcode != ws.OP_TEXT:
                    continue
                event = json.loads(payload)
                if event.get("type") == "block":
                    self.seen.setdefault(event["hash"], now)
                    self.changed.set()

    async def wait_for(self, hashes: set, timeout_s: float) -> set:
        """Wait until every hash was seen; returns those still missing."""
        deadline = time.perf_counter() + timeout_s
        while True:
            missing = {h for h in hashes if h not in self.seen}
            remaining = deadline - time.perf_counter()
            if not missing or remaining <= 0 or self._task.done():
                return missing
            self.changed.clear()
            try:
                await asyncio.wait_for(self.changed.wait(), remaining)
            except asyncio.TimeoutError:
                pass

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def arrivals(seed: int, rate: float, duration_s: float) -> list[float]:
    """Poisson arrival offsets (seconds from the start)."""
    rng = random.Random(seed)
    offsets = []
    offset = rng.expovariate(rate)
    while offset < duration_s:
        offsets.append(offset)
        offset += rng.expovariate(rate)
    return offsets


async def run_load(port: int, offsets: list[float], connections: int,
                   tag: str) -> list[Request]:
    """Send one ``POST /v1/tx`` per offset over *connections* keep-alive
    connections; each request records due/sent/replied times."""
    loop = asyncio.get_running_loop()
    clients = [GatewayClient("127.0.0.1", port) for _ in range(connections)]
    for client in clients:
        await client.connect()
    start = time.perf_counter() + 0.05
    requests = [
        Request(f"{tag}-{index}", start + offset)
        for index, offset in enumerate(offsets)
    ]
    queue: asyncio.Queue = asyncio.Queue()

    async def dispatch() -> None:
        for request in requests:
            delay = request.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait(request)
        for _ in clients:
            queue.put_nowait(None)

    async def work(client: GatewayClient) -> None:
        while True:
            request = await queue.get()
            if request is None:
                return
            request.sent = time.perf_counter()
            try:
                status, _, body = await client.request(
                    "POST", "/v1/tx",
                    body={"crdt": "ledger", "op": "append",
                          "args": [request.tx_id]},
                    headers={"X-Client-Id": request.tx_id},
                )
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                status, body = -1, {}
            request.replied = time.perf_counter()
            request.status = status
            if status == 200 and body.get("applied"):
                request.block = body.get("block")

    tasks = [loop.create_task(work(client)) for client in clients]
    tasks.append(loop.create_task(dispatch()))
    try:
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for client in clients:
            await client.close()
    return requests


def occupancy(requests: list[Request], connections: int) -> float:
    """Mean requests in flight per connection over the load window."""
    done = [r for r in requests if r.replied]
    if not done:
        return 0.0
    window = max(r.replied for r in done) - min(r.sent for r in done)
    busy = sum(r.replied - r.sent for r in done)
    return busy / (window * connections) if window > 0 else 0.0


def client_bound(rate: float, connections: int, commit_p50_ms: float) -> bool:
    """Would *connections* one-at-a-time connections cap throughput
    below the offered rate at this median latency (Little's law)?"""
    if commit_p50_ms <= 0:
        return True
    return rate > connections / (commit_p50_ms / 1000.0)
