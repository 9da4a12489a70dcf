"""One replica of the benchmark's system, as its own OS process.

Started by the benchmark process as
``python3 perfbench/replica.py '<json config>'``.
Roles:

* ``gateway`` — a :class:`~repro.gateway.GatewayNode` over one
  :class:`~repro.live.node.LiveNode` loaded from a block store, gossiping
  with its configured peers at the default interval;
* ``responder`` — a bare LiveNode that only answers sessions.

The process prints one JSON line when it is serving (its ports), then
waits for a line on standard input (or its end), stops the replica,
and prints one JSON line with its digests, peak RSS and, when traced,
its span summary.  Everything it writes stays in the run's work
directory.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

# Lateness samples of the loop-lag probe (traced runs only).
LAG_PERIOD_S = 0.005
CONNECT_TIMEOUT_S = 30.0
# A stop that races a dial, handshake or session completing can leave
# a peer-manager task cancelling forever (see README.md); the replica
# then reports the timeout and exits anyway.
STOP_GRACE_S = 10.0


async def _loop_lag(tracer) -> None:
    loop = asyncio.get_running_loop()
    while True:
        due = loop.time() + LAG_PERIOD_S
        await asyncio.sleep(LAG_PERIOD_S)
        tracer.sample("live.loop_lag_ms", (loop.time() - due) * 1000.0)


def _reject_blocks_from(user_id) -> None:
    """Fault for tests: a replica that drops every block one member
    wrote, the way a broken replica drops blocks it is sent."""
    from repro.chain.errors import SignatureInvalidError
    from repro.core.node import VegvisirNode

    receive = VegvisirNode.receive_block

    def receive_block(self, block):
        if block.user_id == user_id:
            raise SignatureInvalidError("dropped by injected fault")
        return receive(self, block)

    VegvisirNode.receive_block = receive_block


async def serve(config: dict) -> dict:
    from repro.crypto import backend as crypto_backend
    from repro.gateway import GatewayNode
    from repro.live.node import LiveNode
    from repro.live.peers import PeerSpec

    import dagseed
    from procs import peak_rss_mb

    crypto_backend.set_backend(config["crypto_backend"])
    tracer = None
    lineage: dict = {}
    if config.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer(roots=("gateway.batch.flush",))
        tracing.install(tracer, lineage)

    started = time.perf_counter()
    deployment = dagseed.Deployment()
    if config.get("fault") == "reject_gateway_blocks":
        _reject_blocks_from(deployment.key(dagseed.GATEWAY_KEY).user_id)
    peers = [
        PeerSpec(name, "127.0.0.1", port)
        for name, port in config.get("peers", {}).items()
    ]
    live = LiveNode(
        deployment.key(config["key"]), config["store"],
        name=config["name"], peers=peers, seed=config["seed"],
        **config.get("live_kwargs", {}),
    )
    gateway = None
    if config["role"] == "gateway":
        gateway = GatewayNode([live])
        await gateway.start()
    else:
        await live.start()
    # Serving means connected: stopping while a dial is in flight is
    # the race described at STOP_GRACE_S.
    deadline = time.perf_counter() + CONNECT_TIMEOUT_S
    while (len(live.peer_manager.connected_peers()) < len(peers)
           and time.perf_counter() < deadline):
        await asyncio.sleep(0.01)
    from repro.chain.verifycache import shared_cache

    cache_at_ready = shared_cache().stats()
    if tracer is not None:
        tracer.reset()
    lag_task = None
    if tracer is not None and config["role"] == "gateway":
        lag_task = asyncio.ensure_future(_loop_lag(tracer))
    print(json.dumps({
        "ready": True,
        "live_port": live.listen_port,
        "http_port": None if gateway is None else gateway.http_port,
        "blocks": len(live.node.dag),
        "setup_s": time.perf_counter() - started,
    }), flush=True)

    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.readline)

    if lag_task is not None:
        lag_task.cancel()
        await asyncio.gather(lag_task, return_exceptions=True)
    report = {
        "name": config["name"],
        "peer_bytes": sum(
            transport.bytes_sent + transport.bytes_received
            for transport in map(live.peer_manager.connection,
                                 live.peer_manager.connected_peers())
        ),
        "blocks": len(live.node.dag),
        "dag_digest": live.dag_digest(),
        "state_digest": live.state_digest().hex(),
    }
    if gateway is not None:
        status = gateway.status()["gateway"]
        report["admission"] = status["admission"]
        report["batcher"] = gateway.default_host.batcher.summary()
    try:
        await asyncio.wait_for(
            (gateway or live).stop(), STOP_GRACE_S
        )
        report["stop_timeout"] = False
    except asyncio.TimeoutError:
        report["stop_timeout"] = True
    report["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        report["verifycache"] = {
            key: shared_cache().stats()[key] - cache_at_ready[key]
            for key in ("hits", "misses")
        }
        report["trace"] = tracer.summary()
        report["lineage"] = lineage
        tracer.write_spans(
            pathlib.Path(config["work"]) / f"spans-{config['name']}.jsonl"
        )
    return report


def main() -> int:
    config = json.loads(sys.argv[1])
    report = asyncio.run(serve(config))
    print(json.dumps(report), flush=True)
    if report["stop_timeout"]:
        # Tasks that ignored cancellation would block interpreter exit.
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
