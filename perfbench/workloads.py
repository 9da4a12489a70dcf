"""The benchmark's three workloads.

Each workload function takes a :class:`Run`, builds its system from the
run's seed, measures for the run's seconds, checks the system's
outputs, and fills in the run's end-to-end metrics.  A traced run
(``run.trace``) measures the same workload twice, untraced and then
with the span wrappers of :mod:`tracer` installed, in half the seconds
each: the per-layer figures come from the second pass and the tracing
overhead from the difference.

Every workload reports the same end-to-end metrics; README.md says
what each one means on each workload.  The workload-specific figures
(commit latency, catch-up time, ...) are also kept under their own
names in ``run.report``.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import os
import pathlib
import shutil
import socket
import time
from collections import Counter
from typing import Optional

import dagseed
import layers
import loadgen
import tracer as tracing
from procs import (Replica, ReplicaError, median, peak_rss_mb, percentile,
                   pin_to_fastest_cpu, unpin)

CRYPTO_BACKEND = "cryptography"
CONNECTIONS = min(2, os.cpu_count() or 1)


class Run:
    """One invocation: inputs, counters, checks and results."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, work: pathlib.Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.attempted = 0
        self.failures: Counter = Counter()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, tuple[float, str]] = {}
        self.report: dict[str, tuple[float, str]] = {}
        self.info: dict = {}

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, reason: str, count: int = 1) -> None:
        if count:
            self.failures[reason] += count

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = (float(value), unit)

    def note(self, name: str, value: float, unit: str) -> None:
        """A workload-specific figure, reported by name."""
        self.report[name] = (float(value), unit)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _passes(run: Run) -> list[tuple[bool, float]]:
    """(traced?, seconds) for each measuring pass of the run."""
    if run.trace:
        return [(False, run.seconds / 2.0), (True, run.seconds / 2.0)]
    return [(False, run.seconds)]


# -- replicate ----------------------------------------------------------------


@dataclasses.dataclass
class ReplicateConfig:
    dag_blocks: int = 2000
    # The gateway holds each request until its batch flushes (25 ms
    # deadline), so `connections` one-at-a-time connections cap the
    # load near connections / commit p50 (~66 tx/s for two); offer at
    # most a third of that ceiling.
    rate: float = 20.0
    connections: int = CONNECTIONS
    warmup_s: float = 1.0
    visible_timeout_s: float = 10.0
    setup_repeats: int = 4
    # Fault injected into replica B (tests): see replica.py.
    fault: Optional[str] = None


def _start_pair(run: Run, config: ReplicateConfig, deployment, tag: str,
                traced: bool):
    """Seed DAG, two stores, gateway replicas A and B (B gossips with A)."""
    blocks = dagseed.build_blocks(deployment, run.seed, config.dag_blocks)
    store_a = run.work / f"a-{tag}.blocks"
    dagseed.write_store(deployment, blocks, store_a)
    store_b = run.work / f"b-{tag}.blocks"
    shutil.copyfile(store_a, store_b)
    port_a = free_port()
    common = {"role": "gateway", "trace": traced,
              "crypto_backend": CRYPTO_BACKEND, "work": str(run.work)}
    a = Replica({**common, "name": f"A-{tag}", "key": dagseed.GATEWAY_KEY,
                 "store": str(store_a), "seed": run.seed,
                 "live_kwargs": {"port": port_a}}, run.work)
    b = Replica({**common, "name": f"B-{tag}", "key": dagseed.PEER_KEY,
                 "store": str(store_b), "seed": run.seed + 1,
                 "peers": {"A": port_a}, "fault": config.fault}, run.work)
    try:
        a.wait_ready()
        b.wait_ready()
    except ReplicaError:
        a.kill()
        b.kill()
        raise
    return a, b


def _stop_pair(pair) -> tuple[dict, dict]:
    """Stop B (the dialer) before A, so A never shuts down with an
    inbound session open."""
    a, b = pair
    try:
        report_b = b.stop()
    finally:
        report_a = a.stop()
    return report_a, report_b


async def _drive(run: Run, config: ReplicateConfig, a: Replica, b: Replica,
                 seconds: float, tag: str):
    subscription = loadgen.Subscription()
    await subscription.open(b.info["http_port"])
    try:
        offsets = loadgen.arrivals(run.seed, config.rate,
                                   config.warmup_s + seconds)
        requests = await loadgen.run_load(
            a.info["http_port"], offsets, config.connections,
            f"s{run.seed}-{tag}",
        )
        accepted = {r.block for r in requests if r.block}
        missing = await subscription.wait_for(
            accepted, config.visible_timeout_s
        )
        return requests, subscription.seen, missing
    finally:
        await subscription.close()


def _replicate_pass(run: Run, config: ReplicateConfig, pair,
                    seconds: float, tag: str) -> dict:
    try:
        requests, seen, missing = asyncio.run(
            _drive(run, config, *pair, seconds, tag)
        )
    finally:
        report_a, report_b = _stop_pair(pair)

    run.attempted += len(requests)
    run.fail("refused", sum(1 for r in requests if r.status != 200))
    run.fail("not_applied",
             sum(1 for r in requests if r.status == 200 and not r.block))
    run.fail("not_visible_on_b",
             sum(1 for r in requests if r.block in missing))
    if report_a["dag_digest"] != report_b["dag_digest"]:
        run.fail("dag_digest_mismatch")
    if report_a["state_digest"] != report_b["state_digest"]:
        run.fail("state_digest_mismatch")
    _note_stop_timeouts(run, report_a, report_b)

    start = min(r.due for r in requests) + config.warmup_s
    measured = [r for r in requests if r.due >= start and r.block]
    delivered = report_b["blocks"] - (config.dag_blocks + 1)
    return {
        "requests": requests,
        "measured": measured,
        "commit": [(r.replied - r.due) * 1000.0 for r in measured],
        "visible": [(seen[r.block] - r.due) * 1000.0
                    for r in measured if r.block in seen],
        "bytes_per_block": report_b["peer_bytes"] / max(1, delivered),
        "rss": report_a["peak_rss_mb"] + report_b["peak_rss_mb"],
        "reports": (report_a, report_b),
    }


def _note_stop_timeouts(run: Run, *reports) -> None:
    timeouts = sum(1 for report in reports if report["stop_timeout"])
    if timeouts:
        run.info["stop_timeouts"] = run.info.get("stop_timeouts", 0) + timeouts


def replicate(run: Run, config: Optional[ReplicateConfig] = None) -> None:
    config = config or ReplicateConfig()
    deployment = dagseed.Deployment()
    setups = []
    for attempt in range(config.setup_repeats - 1):
        started = time.perf_counter()
        pair = _start_pair(run, config, deployment, f"setup{attempt}", False)
        setups.append(time.perf_counter() - started)
        _note_stop_timeouts(run, *_stop_pair(pair))
    results = []
    for index, (traced, seconds) in enumerate(_passes(run)):
        started = time.perf_counter()
        pair = _start_pair(run, config, deployment, f"p{index}", traced)
        if not traced:
            setups.append(time.perf_counter() - started)
        result = _replicate_pass(run, config, pair, seconds, f"p{index}")
        result["traced"] = traced
        results.append(result)

    base = results[0]
    commit, visible = base["commit"], base["visible"]
    late = [(r.sent - r.due) * 1000.0 for r in base["requests"] if r.sent]
    commit_p50 = median(commit)
    run.metric("visible_p50_ms", median(visible), "ms")
    run.metric("visible_p99_ms", percentile(visible, 99), "ms")
    run.metric("op_ms", commit_p50, "ms")
    run.metric("wire_bytes_per_block", base["bytes_per_block"], "B")
    run.metric("peak_rss_mb", base["rss"], "MB")
    run.metric("setup_s", median(setups), "s")
    run.note("commit_p50_ms", commit_p50, "ms")
    run.note("commit_p99_ms", percentile(commit, 99), "ms")
    run.note("visible_p50_ms", median(visible), "ms")
    run.note("visible_p99_ms", percentile(visible, 99), "ms")
    run.note("samples", len(commit), "count")
    run.note("loadgen.late_p99_ms", percentile(late, 99), "ms")
    run.note("loadgen.occupancy",
             loadgen.occupancy(base["requests"], config.connections),
             "ratio")
    bound = loadgen.client_bound(config.rate, config.connections, commit_p50)
    run.info.update(client_bound=bound, offered_rate_tx_s=config.rate,
                    connections=config.connections, setup_samples_s=setups)
    if bound:
        run.fail("client_bound")
    if run.trace:
        layers.replicate_layers(run, results, config)


# -- catchup ------------------------------------------------------------------


# A frontier catch-up needs one round per DAG level it descends plus
# the push round; a session past this bound is spinning (a replica whose
# clock lags the chain's timestamps does this).
ROUND_SLACK = 2
# A catch-up that needs more sessions than this did not converge.
MAX_CATCHUP_SESSIONS = 3
CONNECT_TIMEOUT_S = 10.0


@dataclasses.dataclass
class CatchupConfig:
    # A catch-up's cost grows with the square of the DAG (each round
    # walks it): at 1,000 blocks one takes under a second and a run
    # holds about twenty for fastest_steps; at 2,000, three times as
    # long and seven of them ("Fastest steps", README.md).
    dag_blocks: int = 1000
    insync_sessions: int = 40
    min_cycles: int = 3
    setup_repeats: int = 6
    # Tests: a fresh replica whose clock lags the chain, and a shorter
    # session deadline than the runtime's 30 s default.
    clock_offset_ms: int = 0
    session_timeout_s: Optional[float] = None


def _start_responder(run: Run, config: CatchupConfig, deployment,
                     tag: str, traced: bool):
    blocks = dagseed.build_blocks(deployment, run.seed, config.dag_blocks)
    store = run.work / f"r-{tag}.blocks"
    dagseed.write_store(deployment, blocks, store)
    responder = Replica({
        "role": "responder", "name": f"R-{tag}", "key": dagseed.PEER_KEY,
        "store": str(store), "seed": run.seed, "trace": traced,
        "crypto_backend": CRYPTO_BACKEND, "work": str(run.work),
    }, run.work)
    try:
        responder.wait_ready()
    except ReplicaError:
        responder.kill()
        raise
    return responder, blocks


def _session_counts(stats) -> tuple:
    return (stats.rounds, stats.total_bytes, stats.blocks_pulled,
            stats.blocks_pushed, stats.duplicate_blocks)


async def _catch_up(run: Run, config: CatchupConfig, deployment,
                    port: int, name: str, expected: dict,
                    tracer=None) -> dict:
    """One fresh replica, cold caches: catch up, then in-sync sessions."""
    from repro.chain.verifycache import shared_cache
    from repro.crypto import backend as crypto_backend
    from repro.live.node import LiveNode
    from repro.live.peers import PeerSpec

    # A reconnecting device has verified none of these blocks before.
    crypto_backend.clear_memo()
    shared_cache().clear()
    options = {}
    if config.clock_offset_ms:
        options["clock"] = lambda: (
            int(time.time() * 1000) + config.clock_offset_ms
        )
    if config.session_timeout_s is not None:
        options["session_timeout_s"] = config.session_timeout_s
    live = LiveNode(
        deployment.key(dagseed.FRESH_KEY), run.work / f"{name}.blocks",
        genesis=deployment.genesis, name=name, seed=run.seed,
        peers=[PeerSpec("R", "127.0.0.1", port)],
        # Sessions are driven by the benchmark, not the periodic loop.
        interval_s=1e9, **options,
    )
    # The catch-up's steps, in order: a response received ("r") or a
    # block persisted ("b"), each with the time it happened.
    kinds: list[str] = []
    marks: list[float] = []

    def mark(kind: str) -> None:
        marks.append(time.perf_counter())
        kinds.append(kind)

    live.block_listener = lambda block, origin: mark("b")
    result = {"sessions": [], "insync": [], "insync_ms": []}
    ancestors_before = _ancestors_calls(tracer)
    try:
        with _span(tracer, "e2e.catchup"):
            started = time.perf_counter()
            await live.start()
            deadline = started + CONNECT_TIMEOUT_S
            while not live.peer_manager.connected_peers():
                if time.perf_counter() > deadline:
                    raise ReplicaError(f"{name}: cannot reach the responder")
                await asyncio.sleep(0.001)
            transport = live.peer_manager.connection("R")
            transport.recv = _marking(transport.recv, mark)
            while (len(live.node.dag) < expected["blocks"]
                   and len(result["sessions"]) < MAX_CATCHUP_SESSIONS):
                stats = await live.antientropy.run_once("R")
                result["sessions"].append(stats)
                if stats is None or stats.interrupted:
                    break
            finished = time.perf_counter()
            del transport.recv
        live.block_listener = None
        result["catchup_ms"] = (finished - started) * 1000.0
        result["cache"] = shared_cache().stats()
        result["steps"] = ("".join(kinds) + "e", [
            (end - begin) * 1000.0
            for begin, end in zip([started] + marks, marks + [finished])
        ])
        result["digest"] = live.dag_digest()
        with _span(tracer, "e2e.insync"):
            for _ in range(config.insync_sessions):
                begun = time.perf_counter()
                stats = await live.antientropy.run_once("R")
                result["insync_ms"].append(
                    (time.perf_counter() - begun) * 1000.0
                )
                result["insync"].append(stats)
    finally:
        await live.stop()
    result["ancestors_calls"] = _ancestors_calls(tracer) - ancestors_before
    return result


def _marking(recv, mark):
    """*recv* that marks each response as a step of the catch-up."""

    async def recv_marked() -> bytes:
        payload = await recv()
        mark("r")
        return payload

    return recv_marked


def fastest_steps(step_lists: list) -> list:
    """Per step of a deterministic run, its fastest duration over the
    runs (each a list of step durations, all of one length).

    A shared host's cores can switch between a fast and a slow speed
    for seconds at a time, so a run of a few seconds mixes the two in a
    proportion that changes from run to run.  A step is short, and in
    some run of the set it fell on a fast moment: the fastest of each
    step, summed, is the run as the code performs on a steady core, as
    ``timeit`` takes the fastest repetition.
    """
    return [min(column) for column in zip(*step_lists)]


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _ancestors_calls(tracer) -> int:
    """``BlockDAG.ancestors`` calls so far in this process (traced)."""
    if tracer is None:
        return 0
    return tracer.stats.get("chain.dag.ancestors", [0])[0]


def _check_cycle(run: Run, cycle: dict, expected: dict,
                 reference: dict) -> None:
    sessions = [s for s in cycle["sessions"] if s is not None]
    run.attempted += 1
    if (cycle["digest"] != expected["digest"]
            or any(s.interrupted for s in sessions) or not sessions):
        run.fail("catchup_not_converged")
    if any(s.rounds > expected["round_bound"] for s in sessions):
        run.fail("catchup_round_bound")
    # The step sequence too: fastest_steps aligns catch-ups step by step.
    counts = (tuple(_session_counts(s) for s in sessions),
              cycle["ancestors_calls"], cycle["steps"][0])
    if reference.setdefault(("catchup", cycle["traced"]), counts) != counts:
        run.fail("catchup_counts_differ")
    for stats in cycle["insync"]:
        run.attempted += 1
        if stats is None or stats.interrupted or stats.blocks_pulled:
            run.fail("insync_session")
            continue
        if reference.setdefault("insync", _session_counts(stats)) != (
            _session_counts(stats)
        ):
            run.fail("insync_counts_differ")


def catchup(run: Run, config: Optional[CatchupConfig] = None) -> None:
    config = config or CatchupConfig()
    deployment = dagseed.Deployment()
    setups = []
    # Set-ups are pinned like catch-ups (the responder inherits the
    # core), so that setup_s, too, is read on the fastest core.
    for attempt in range(config.setup_repeats - 1):
        pin_to_fastest_cpu()
        started = time.perf_counter()
        responder, _ = _start_responder(run, config, deployment,
                                        f"setup{attempt}", False)
        setups.append(time.perf_counter() - started)
        _note_stop_timeouts(run, responder.stop())
    reference: dict = {}
    passes = []
    cpus: Counter = Counter()
    for index, (traced, seconds) in enumerate(_passes(run)):
        pin_to_fastest_cpu()
        started = time.perf_counter()
        responder, blocks = _start_responder(run, config, deployment,
                                             f"p{index}", traced)
        if not traced:
            setups.append(time.perf_counter() - started)
        expected = {
            "blocks": len(blocks) + 1,
            "digest": dagseed.dag_digest(deployment, blocks),
            "round_bound": dagseed.max_height(blocks) + ROUND_SLACK,
        }
        tracer = None
        patched: list = []
        if traced:
            tracer = tracing.Tracer(roots=("e2e.catchup", "e2e.insync"))
            patched = tracing.install(tracer)
        pass_cycles = []
        try:
            measuring = time.perf_counter()
            while (len(pass_cycles) < config.min_cycles
                   or time.perf_counter() - measuring < seconds):
                # The previous replica is garbage now; where a new one's
                # objects land in a fragmented heap was seen to change
                # the speed of its DAG walks by up to half.
                gc.collect()
                cpus[pin_to_fastest_cpu(responder.pid)[0]] += 1
                cycle = asyncio.run(_catch_up(
                    run, config, deployment, responder.info["live_port"],
                    f"fresh-p{index}-{len(pass_cycles)}", expected, tracer,
                ))
                cycle["traced"] = traced
                _check_cycle(run, cycle, expected, reference)
                pass_cycles.append(cycle)
        finally:
            tracing.uninstall(patched)
            unpin(responder.pid)
            report = responder.stop()
        if tracer is not None:
            tracer.write_spans(run.work / "spans-benchmark.jsonl")
        _note_stop_timeouts(run, report)
        if report["dag_digest"] != expected["digest"]:
            run.fail("responder_changed")
        passes.append({"traced": traced, "cycles": pass_cycles,
                       "tracer": tracer, "responder": report})

    # Catch-ups repeat step for step: their fastest steps make up the
    # catch-up the percentiles are read from.  In-sync sessions are
    # short identical units: the fastest counts.  ("Fastest steps",
    # README.md.)
    cycles = passes[0]["cycles"]
    kinds = cycles[0]["steps"][0]
    elapsed, visible = 0.0, []
    for kind, step_ms in zip(kinds, fastest_steps(
        [c["steps"][1] for c in cycles if c["steps"][0] == kinds]
    )):
        elapsed += step_ms
        if kind == "b":
            visible.append(elapsed)
    insync = [ms for cycle in cycles for ms in cycle["insync_ms"]]
    first = [s for s in cycles[0]["sessions"] if s is not None]
    catchup_bytes = sum(s.total_bytes for s in first)
    pulled = sum(s.blocks_pulled for s in first)
    run.metric("visible_p50_ms", median(visible), "ms")
    run.metric("visible_p99_ms", percentile(visible, 99), "ms")
    run.metric("op_ms", min(insync), "ms")
    run.metric("wire_bytes_per_block", catchup_bytes / max(1, pulled), "B")
    run.metric("peak_rss_mb",
               passes[0]["responder"]["peak_rss_mb"] + peak_rss_mb(),
               "MB")
    run.metric("setup_s", median(setups), "s")
    run.note("catchup_s", elapsed / 1000.0, "s")
    run.note("catchup_median_s",
             median([c["catchup_ms"] for c in cycles]) / 1000.0, "s")
    run.note("catchup_bytes", catchup_bytes, "B")
    run.note("insync_session_ms", min(insync), "ms")
    run.note("insync_session_median_ms", median(insync), "ms")
    run.note("insync_session_p99_ms", percentile(insync, 99), "ms")
    run.note("catchup_rounds", sum(s.rounds for s in first), "count")
    run.note("catchups", len(cycles), "count")
    run.info["setup_samples_s"] = setups
    run.info["cycles_per_cpu"] = dict(cpus)
    if run.trace:
        layers.catchup_layers(run, passes)


# -- sim_fleet ----------------------------------------------------------------


# Simulations of the seed per measuring pass, at least: the later ones
# check the first one's counts, and fastest_steps combines them.
MIN_SIMS = 2
# Simulated time per timed step of a simulation.
STEP_MS = 1_000
# sim_fleet's op_ms and setup_s are scaled to a core that runs the
# probe loop (procs.PROBE_LOOPS) in this many ms ("Core speed",
# README.md).
PROBE_REF_MS = 1.0


@dataclasses.dataclass
class SimConfig:
    nodes: int = 32
    # 30 s + 15 s rather than 60 s + 30 s: a run then holds eight
    # simulations for fastest_steps, not three ("Fastest steps",
    # README.md).
    duration_ms: int = 30_000
    quiescence_ms: int = 15_000
    append_interval_ms: int = 4_000
    # Fleets built before measuring; each simulation's own fleet is
    # timed too, and setup_s is the median of all of them.
    setup_repeats: int = 12


def _build_sim(run: Run, config: SimConfig):
    from repro.sim import Scenario, Simulation

    return Simulation(Scenario(
        node_count=config.nodes, duration_ms=config.duration_ms,
        append_interval_ms=config.append_interval_ms, seed=run.seed,
        crypto_backend=CRYPTO_BACKEND,
    ))


def _step_ends(config: SimConfig) -> list:
    """Simulated times at which a simulation's steps end; the workload
    stops at ``duration_ms``, which ends a step too."""
    total = config.duration_ms + config.quiescence_ms
    return sorted({*range(STEP_MS, total, STEP_MS),
                   config.duration_ms, total})


def _run_sim(sim, config: SimConfig, tracer=None) -> dict:
    """One simulation, the same run as ``sim.run()`` followed by
    ``sim.run_quiescence()``, timed in steps of STEP_MS simulated, each
    on the core that is fastest when it starts."""
    from repro.chain.verifycache import shared_cache
    from repro.crypto import backend as crypto_backend

    # Same seed, same blocks: each simulation verifies them afresh.
    crypto_backend.clear_memo()
    shared_cache().clear()
    cache_before = shared_cache().stats()
    ancestors_before = _ancestors_calls(tracer)
    steps, probes = [], []
    for end in _step_ends(config):
        probes.append(pin_to_fastest_cpu()[1])
        with _span(tracer, "e2e.sim"):
            begun = time.perf_counter()
            if not steps:
                sim.run(duration_ms=end)
            elif end <= config.duration_ms:
                sim.loop.run_until(end)
            else:
                sim.run_quiescence(end - sim.loop.now)
            steps.append((time.perf_counter() - begun) * 1000.0)
    metrics = sim.metrics
    propagation = metrics.propagation
    # Every (block, other node) first delivery, creators excluded.
    delivery_ms = [
        latency
        for block_hash in propagation.blocks()
        for latency in propagation.delivery_latencies(block_hash)
        if latency > 0
    ]
    return {
        "wall_ms": sum(steps),
        "steps": steps,
        "ref_steps": [step * PROBE_REF_MS / probe
                      for step, probe in zip(steps, probes)],
        "converged": sim.converged(),
        "coverage_ms": propagation.full_coverage_latencies(),
        "created": len(propagation.blocks()),
        "counts": {
            "blocks": sim.total_blocks(),
            "sessions": metrics.sessions_completed,
            "session_bytes": metrics.session_bytes,
            "session_messages": metrics.session_messages,
            "contacts": metrics.contacts_attempted,
            "events": sim.loop.events_run,
        },
        "delivery_ms": delivery_ms,
        "cache": layers.cache_delta(cache_before, shared_cache().stats()),
        "ancestors_calls": _ancestors_calls(tracer) - ancestors_before,
    }


def sim_fleet(run: Run, config: Optional[SimConfig] = None) -> None:
    config = config or SimConfig()
    setups = []
    passes = []

    def build():
        # Building a fleet computes only, like a simulation step, and
        # is scaled the same way.
        _, probe = pin_to_fastest_cpu()
        started = time.perf_counter()
        sim = _build_sim(run, config)
        setups.append((time.perf_counter() - started) * PROBE_REF_MS / probe)
        return sim

    for _ in range(config.setup_repeats):
        build().close()
    reference: dict = {}
    for traced, seconds in _passes(run):
        tracer = None
        patched: list = []
        results = []
        if traced:
            tracer = tracing.Tracer(roots=("e2e.sim",))
            patched = tracing.install(tracer)
        try:
            measuring = time.perf_counter()
            # A traced run's untraced pass only gives the overhead's
            # baseline: one simulation will do.
            min_sims = MIN_SIMS if traced or not run.trace else 1
            while (len(results) < min_sims
                   or time.perf_counter() - measuring < seconds):
                sim = _build_sim(run, config) if traced else build()
                gc.collect()  # as for catch-up replicas
                result = _run_sim(sim, config, tracer)
                sim.close()
                run.attempted += result["created"]
                if not result["converged"]:
                    run.fail("sim_not_converged")
                run.fail("sim_block_not_covered",
                         result["created"] - len(result["coverage_ms"]))
                counts = (result["counts"], result["ancestors_calls"])
                if reference.setdefault(traced, counts) != counts:
                    run.fail("sim_counts_differ")
                results.append(result)
        finally:
            tracing.uninstall(patched)
            unpin()
        if tracer is not None:
            tracer.write_spans(run.work / "spans-benchmark.jsonl")
        passes.append({"traced": traced, "results": results,
                       "tracer": tracer})

    results = passes[0]["results"]
    first = results[0]
    node_minutes = config.nodes * (
        config.duration_ms + config.quiescence_ms
    ) / 60_000.0
    coverage = first["coverage_ms"]
    run.metric("visible_p50_ms", median(first["delivery_ms"]), "ms")
    run.metric("visible_p99_ms", percentile(first["delivery_ms"], 99), "ms")
    run.metric("op_ms",
               sum(fastest_steps([r["ref_steps"] for r in results]))
               / node_minutes, "ms")
    run.metric("wire_bytes_per_block",
               first["counts"]["session_bytes"]
               / max(1, len(first["delivery_ms"])),
               "B")
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")
    run.metric("setup_s", median(setups), "s")
    run.note("sim_ms_per_node_min",
             sum(fastest_steps([r["steps"] for r in results]))
             / node_minutes, "ms")
    run.note("sim_coverage_p50_ms", median(coverage), "sim-ms")
    run.note("sim_median_ms_per_node_min",
             median([r["wall_ms"] for r in results]) / node_minutes, "ms")
    run.note("sims", len(results), "count")
    for name, value in first["counts"].items():
        run.note(f"sim.{name}", value, "count")
    run.info["setup_samples_s"] = setups
    if run.trace:
        layers.sim_layers(run, passes)
