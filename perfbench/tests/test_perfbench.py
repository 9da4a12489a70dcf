"""The benchmark's own tests: short workloads, its checks, its tracer.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root (they start replica processes and take about a minute).
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import dagseed
import layers
import loadgen
import procs
import run as bench
import tracer as tracing
import workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def accelerated_crypto():
    from repro.crypto import backend

    backend.set_backend(workloads.CRYPTO_BACKEND)
    yield
    backend.reset_backend()


def new_run(tmp_path, workload, seconds=1.0, trace=False, seed=3):
    return workloads.Run(workload, seed, seconds, trace, tmp_path)


def positive_metrics(run):
    assert set(run.metrics) == set(bench.E2E_METRICS)
    for name, (value, _) in run.metrics.items():
        assert value > 0, name


# -- the seed DAG -------------------------------------------------------------


def test_seed_dag_is_deterministic_and_valid():
    from repro.core.node import VegvisirNode

    deployment = dagseed.Deployment()
    first = dagseed.build_blocks(deployment, 7, 120)
    again = dagseed.build_blocks(dagseed.Deployment(), 7, 120)
    other = dagseed.build_blocks(deployment, 8, 120)
    assert [b.hash for b in first] == [b.hash for b in again]
    assert [b.hash for b in first] != [b.hash for b in other]
    node = VegvisirNode(deployment.key(dagseed.PEER_KEY), deployment.genesis)
    for block in first:
        node.receive_block(block)
    assert len(node.crdt_value(dagseed.LEDGER)) == 119
    assert len(node.dag.frontier()) > 1  # it branches
    assert dagseed.max_height(first) < len(first)


# -- workloads ----------------------------------------------------------------


SMALL_REPLICATE = dict(dag_blocks=150, setup_repeats=1, warmup_s=0.2,
                       visible_timeout_s=5.0)


def test_replicate_short(tmp_path):
    run = new_run(tmp_path, "replicate", seconds=2.0)
    workloads.replicate(run, workloads.ReplicateConfig(**SMALL_REPLICATE))
    assert run.failed == 0, run.failures
    assert run.attempted >= 20
    assert run.info["client_bound"] is False
    positive_metrics(run)
    assert run.report["commit_p50_ms"][0] == run.metrics["op_ms"][0]
    assert run.metrics["visible_p50_ms"][0] > run.metrics["op_ms"][0]


def test_client_bound_flag():
    # Two connections at a 30 ms median serve at most ~66 tx/s.
    assert not loadgen.client_bound(20.0, 2, 30.0)
    assert loadgen.client_bound(70.0, 2, 30.0)
    assert loadgen.client_bound(40.0, 1, 30.0)


def test_replicate_above_ceiling_is_flagged(tmp_path):
    run = new_run(tmp_path, "replicate", seconds=1.0)
    config = workloads.ReplicateConfig(**{**SMALL_REPLICATE, "rate": 120.0,
                                          "connections": 1})
    workloads.replicate(run, config)
    assert run.info["client_bound"] is True
    assert run.failures["client_bound"] == 1


def test_broken_replica_counts_as_failed(tmp_path):
    run = new_run(tmp_path, "replicate", seconds=1.0)
    config = workloads.ReplicateConfig(**{
        **SMALL_REPLICATE, "visible_timeout_s": 1.5,
        "fault": "reject_gateway_blocks",
    })
    workloads.replicate(run, config)
    assert run.failures["not_visible_on_b"] == run.attempted
    assert run.failures["dag_digest_mismatch"] == 1
    assert run.failures["state_digest_mismatch"] == 1


SMALL_CATCHUP = dict(dag_blocks=150, insync_sessions=5, min_cycles=2,
                     setup_repeats=1)


def test_catchup_short(tmp_path):
    run = new_run(tmp_path, "catchup", seconds=0.1)
    workloads.catchup(run, workloads.CatchupConfig(**SMALL_CATCHUP))
    assert run.failed == 0, run.failures
    assert run.attempted == 2 * (1 + 5)
    positive_metrics(run)
    assert run.report["catchups"][0] == 2
    assert run.report["catchup_bytes"][0] > 0
    assert run.metrics["visible_p99_ms"][0] >= run.metrics["visible_p50_ms"][0]


def test_fastest_steps():
    assert workloads.fastest_steps([[3.0, 1.0, 5.0], [2.0, 4.0, 6.0]]) == [
        2.0, 1.0, 5.0]
    assert workloads.fastest_steps([[1.5, 2.5]]) == [1.5, 2.5]


def test_catchup_steps_repeat(tmp_path):
    # fastest_steps lines catch-ups up step by step: every catch-up of a
    # run takes the same steps, one per response and per block.
    run = new_run(tmp_path, "catchup", seconds=0.1)
    cycles = []
    check = workloads._check_cycle

    def keep(run, cycle, *args):
        cycles.append(cycle)
        check(run, cycle, *args)

    workloads._check_cycle = keep
    try:
        workloads.catchup(run, workloads.CatchupConfig(**SMALL_CATCHUP))
    finally:
        workloads._check_cycle = check
    assert run.failed == 0, run.failures
    kinds = {cycle["steps"][0] for cycle in cycles}
    assert len(kinds) == 1
    (kinds,) = kinds
    assert kinds.count("b") == 150 and kinds.endswith("e")
    assert kinds.count("r") == run.report["catchup_rounds"][0]
    for cycle in cycles:
        assert len(cycle["steps"][1]) == len(kinds)
        assert abs(sum(cycle["steps"][1]) - cycle["catchup_ms"]) < 1e-6
    assert run.report["catchup_s"][0] * 1000.0 <= min(
        cycle["catchup_ms"] for cycle in cycles) + 1e-6


def test_catchup_with_lagging_clock_fails(tmp_path):
    # The chain's blocks look "from the future" to this replica: its
    # sessions cannot converge and must count as failures, not as slow
    # samples.
    run = new_run(tmp_path, "catchup", seconds=0.1)
    config = workloads.CatchupConfig(**{
        **SMALL_CATCHUP, "min_cycles": 1, "insync_sessions": 1,
        "clock_offset_ms": -10 * 365 * 86_400_000,
        "session_timeout_s": 2.0,
    })
    workloads.catchup(run, config)
    assert run.failures["catchup_not_converged"] == 1


SMALL_SIM = dict(nodes=6, duration_ms=12_000, quiescence_ms=10_000,
                 append_interval_ms=2_000, setup_repeats=1)


def test_sim_steps_are_the_same_run(tmp_path):
    # Timing a simulation in steps must not change what it simulates.
    config = workloads.SimConfig(**{**SMALL_SIM, "duration_ms": 12_500})
    run = new_run(tmp_path, "sim_fleet")
    whole = workloads._build_sim(run, config)
    whole.run()
    whole.run_quiescence(config.quiescence_ms)
    stepped = workloads._build_sim(run, config)
    result = workloads._run_sim(stepped, config)
    assert len(result["steps"]) == 24  # 12, then 12.5, then 10 more
    assert stepped.loop.now == whole.loop.now
    assert [n.state_digest() for n in stepped.fleet.nodes.values()] == [
        n.state_digest() for n in whole.fleet.nodes.values()]
    assert result["counts"] == {
        "blocks": whole.total_blocks(),
        "sessions": whole.metrics.sessions_completed,
        "session_bytes": whole.metrics.session_bytes,
        "session_messages": whole.metrics.session_messages,
        "contacts": whole.metrics.contacts_attempted,
        "events": whole.loop.events_run,
    }
    whole.close()
    stepped.close()
    procs.unpin()


def test_pin_to_fastest_cpu():
    cpu, probe_ms = procs.pin_to_fastest_cpu()
    try:
        assert cpu in procs.CPUS
        assert probe_ms > 0
        assert os.sched_getaffinity(0) == {cpu}
    finally:
        procs.unpin()
    assert sorted(os.sched_getaffinity(0)) == procs.CPUS


def test_sim_fleet_short_repeats_exactly(tmp_path):
    run = new_run(tmp_path, "sim_fleet", seconds=0.1)
    workloads.sim_fleet(run, workloads.SimConfig(**SMALL_SIM))
    assert run.failed == 0, run.failures
    assert run.report["sims"][0] >= 2  # and their counts agreed
    positive_metrics(run)


# -- traced runs --------------------------------------------------------------


def traced_layers(run):
    layers.finish(run)
    assert set(run.layers) == set(layers.PER_LAYER_NAMES)
    # Whether the sum lands within the tolerance is a property of full
    # runs; these are too short for their two passes to compare.
    assert run.layers["trace.layer_sum_ratio"][0] > 0
    assert run.info["layer_sum_tolerance"] == layers.SUM_TOLERANCE
    return {name: value for name, (value, _) in run.layers.items()}


def test_sim_fleet_traced(tmp_path):
    run = new_run(tmp_path, "sim_fleet", seconds=0.1, trace=True)
    workloads.sim_fleet(run, workloads.SimConfig(**SMALL_SIM))
    assert run.failed == 0, run.failures
    values = traced_layers(run)
    assert values["sim.contacts"] > 0
    assert values["chain.dag.ancestors.calls"] > 0
    assert values["reconcile.sessions"] > 0
    assert values["gateway.batch.wait_ms"] == 0
    assert values["storage.append.calls"] == 0


def test_catchup_traced(tmp_path):
    run = new_run(tmp_path, "catchup", seconds=0.1, trace=True)
    workloads.catchup(run, workloads.CatchupConfig(**SMALL_CATCHUP))
    assert run.failed == 0, run.failures
    values = traced_layers(run)
    assert values["reconcile.blocks_new"] == 150
    assert values["storage.append.calls"] >= 150
    assert values["crypto.verify.calls"] >= 150
    assert values["layer.live.self_ms"] > 0


def test_replicate_traced(tmp_path):
    run = new_run(tmp_path, "replicate", seconds=3.0, trace=True)
    workloads.replicate(run, workloads.ReplicateConfig(**SMALL_REPLICATE))
    assert run.failed == 0, run.failures
    values = traced_layers(run)
    assert values["gateway.batch.wait_ms"] > 0
    assert values["gateway.batch.size"] >= 1
    assert values["crypto.sign.calls"] > 0
    assert values["live.loop_lag_p99_ms"] > 0


# -- the tracer -----------------------------------------------------------------


def test_tracer_self_time_and_trees():
    clock = iter(range(0, 1000, 10))
    tracer = tracing.Tracer(roots=("e2e.root",))
    tracer.clock = lambda: next(clock)
    with tracer.span("e2e.root"):          # 0 .. 50
        with tracer.span("chain.a"):       # 10 .. 40
            with tracer.span("wire.b"):    # 20 .. 30
                pass
    stats = tracer.stats
    assert stats["e2e.root"] == [1, 50, 20]
    assert stats["chain.a"] == [1, 30, 20]
    assert stats["wire.b"] == [1, 10, 10]
    assert dict(tracer.trees["e2e.root"]) == {"e2e": 20, "chain": 20,
                                              "wire": 10}
    assert tracer.spans_recorded == 3
    # Set-up spans are forgotten when measuring starts; a span open
    # across the reset is recorded when it closes.
    with tracer.span("live.open"):
        tracer.reset()
        with tracer.span("chain.c"):
            pass
    assert tracer.spans_total == 1 and tracer.spans_recorded == 2
    assert set(tracer.stats) == {"live.open", "chain.c"}


def test_tracer_follows_asyncio_tasks():
    tracer = tracing.Tracer(roots=("e2e.root",))

    async def child():
        with tracer.span("live.child"):
            await asyncio.sleep(0)

    async def main():
        with tracer.span("e2e.root"):
            await asyncio.gather(asyncio.ensure_future(child()),
                                 asyncio.ensure_future(child()))
        with tracer.span("live.orphan"):
            pass

    asyncio.run(main())
    assert tracer.stats["live.child"][0] == 2
    assert tracer.trees["e2e.root"]["live"] == tracer.stats["live.child"][2]
    assert "live.orphan" in tracer.stats


def test_install_and_uninstall_restore_the_system():
    from repro import wire
    from repro.chain.dag import BlockDAG
    from repro.live.transport import StreamTransport

    before = (wire.encode, BlockDAG.ancestors, StreamTransport.recv)
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    assert wire.encode is not before[0]
    assert wire.decode(wire.encode({"a": 1})) == {"a": 1}
    assert tracer.stats["wire.encode"][0] == 1
    tracing.uninstall(patched)
    assert (wire.encode, BlockDAG.ancestors, StreamTransport.recv) == before


# -- the contract -------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(entry) for entry in layers.PER_LAYER]
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for metric in metrics:
        assert name.match(metric["name"]) and unit.match(metric["unit"])
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert set(layers.TARGETS) <= set(layers.PER_LAYER_NAMES)
    for targets in layers.TARGETS.values():
        for metric, workload in targets:
            assert metric in bench.E2E_METRICS
            assert workload in bench.WORKLOADS


def test_refuses_to_run_without_the_system(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
