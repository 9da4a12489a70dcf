"""Per-layer metrics of a traced run, and what they should move.

README.md defines every metric on every workload.  Per-layer values
are per operation: a committed transaction (replicate), a catch-up
cycle (catchup), or a simulation (sim_fleet).  ``TARGETS`` records,
before any optimisation, which end-to-end metric each layer metric
should move and on which workload.
"""

from __future__ import annotations

import loadgen
from procs import percentile
from tracer import UNATTRIBUTED, merge_summaries

# The blocking layers must sum to the untraced end-to-end figure within
# this share of it (what remains is tracing overhead and run-to-run
# variation; the traced report states both).
SUM_TOLERANCE = 0.25

LAYER_NAMES = ("gateway", "crypto", "chain", "csm", "storage", "wire",
               "reconcile", "live", "sim", "loadgen", UNATTRIBUTED)

R, C, S = "replicate", "catchup", "sim_fleet"

TARGETS = {
    "gateway.http.read_ms": [("op_ms", R)],
    "gateway.admission.refused": [("op_ms", R)],
    "gateway.batch.wait_ms": [("op_ms", R)],
    "gateway.batch.size": [("op_ms", R)],
    "gateway.batch.flush_ms": [("op_ms", R)],
    "gateway.shed": [("op_ms", R)],
    "crypto.sign.calls": [("op_ms", R)],
    "crypto.sign.ms": [("op_ms", R)],
    "crypto.verify.calls": [("visible_p99_ms", C), ("visible_p50_ms", R)],
    "crypto.verify.ms": [("visible_p99_ms", C), ("visible_p50_ms", R)],
    "chain.verifycache.hit_ratio": [("visible_p99_ms", C),
                                    ("visible_p50_ms", R)],
    "chain.validate.ms": [("visible_p99_ms", C)],
    "chain.dag.insert.calls": [("visible_p99_ms", C)],
    "chain.dag.insert.ms": [("visible_p99_ms", C)],
    "chain.dag.ancestors.calls": [("op_ms", S), ("op_ms", C),
                                  ("visible_p99_ms", R)],
    "chain.dag.ancestors.ms": [("op_ms", S), ("op_ms", C),
                               ("visible_p99_ms", R)],
    "csm.replay.calls": [("visible_p99_ms", C), ("op_ms", S)],
    "csm.replay.ms": [("visible_p99_ms", C), ("op_ms", S)],
    "csm.tx.rejected": [("visible_p99_ms", C), ("op_ms", S)],
    "storage.append.calls": [("visible_p99_ms", C), ("op_ms", R)],
    "storage.append.ms": [("visible_p99_ms", C), ("op_ms", R)],
    "wire.encode.calls": [("op_ms", S), ("visible_p99_ms", C)],
    "wire.encode.bytes": [("op_ms", S), ("visible_p99_ms", C)],
    "wire.encode.ms": [("op_ms", S), ("visible_p99_ms", C)],
    "wire.decode.ms": [("op_ms", S), ("visible_p99_ms", C)],
    "reconcile.stats_record.ms": [("op_ms", S)],
    "reconcile.sessions": [("visible_p99_ms", C), ("op_ms", C)],
    "reconcile.rounds": [("visible_p99_ms", C), ("op_ms", C)],
    "reconcile.bytes": [("wire_bytes_per_block", C),
                        ("wire_bytes_per_block", S)],
    "reconcile.blocks_new": [("visible_p99_ms", C)],
    "reconcile.useful_ratio": [("wire_bytes_per_block", C),
                               ("visible_p99_ms", C)],
    "reconcile.session.ms": [("op_ms", C), ("visible_p99_ms", C)],
    "live.session.ms": [("visible_p50_ms", R), ("visible_p99_ms", C)],
    "live.serve.ms": [("visible_p99_ms", R), ("visible_p99_ms", C)],
    "live.frame_io.ms": [("visible_p50_ms", R), ("visible_p99_ms", C)],
    "live.sessions_interrupted": [("visible_p99_ms", R)],
    "live.loop_lag_p99_ms": [("visible_p99_ms", R), ("op_ms", R)],
    "sim.contacts": [("op_ms", S)],
    "sim.contact.ms": [("op_ms", S)],
    "sim.events": [("op_ms", S)],
    # Harness health: these must stay flat, or the harness is measured.
    "loadgen.late_p99_ms": [],
    "loadgen.occupancy": [],
}

PER_LAYER = [
    ("gateway.http.read_ms", "ms", "lower"),
    ("gateway.admission.refused", "count", "lower"),
    ("gateway.batch.wait_ms", "ms", "lower"),
    ("gateway.batch.size", "count", "higher"),
    ("gateway.batch.flush_ms", "ms", "lower"),
    ("gateway.shed", "count", "lower"),
    ("crypto.sign.calls", "count", "lower"),
    ("crypto.sign.ms", "ms", "lower"),
    ("crypto.verify.calls", "count", "lower"),
    ("crypto.verify.ms", "ms", "lower"),
    ("chain.verifycache.hit_ratio", "ratio", "higher"),
    ("chain.validate.ms", "ms", "lower"),
    ("chain.dag.insert.calls", "count", "lower"),
    ("chain.dag.insert.ms", "ms", "lower"),
    ("chain.dag.ancestors.calls", "count", "lower"),
    ("chain.dag.ancestors.ms", "ms", "lower"),
    ("csm.replay.calls", "count", "lower"),
    ("csm.replay.ms", "ms", "lower"),
    ("csm.tx.rejected", "count", "lower"),
    ("storage.append.calls", "count", "lower"),
    ("storage.append.ms", "ms", "lower"),
    ("wire.encode.calls", "count", "lower"),
    ("wire.encode.bytes", "B", "lower"),
    ("wire.encode.ms", "ms", "lower"),
    ("wire.decode.ms", "ms", "lower"),
    ("reconcile.stats_record.ms", "ms", "lower"),
    ("reconcile.sessions", "count", "lower"),
    ("reconcile.rounds", "count", "lower"),
    ("reconcile.bytes", "B", "lower"),
    ("reconcile.blocks_new", "count", "higher"),
    ("reconcile.useful_ratio", "ratio", "higher"),
    ("reconcile.session.ms", "ms", "lower"),
    ("live.session.ms", "ms", "lower"),
    ("live.serve.ms", "ms", "lower"),
    ("live.frame_io.ms", "ms", "lower"),
    ("live.sessions_interrupted", "count", "lower"),
    ("live.loop_lag_p99_ms", "ms", "lower"),
    ("sim.contacts", "count", "lower"),
    ("sim.contact.ms", "ms", "lower"),
    ("sim.events", "count", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.occupancy", "ratio", "lower"),
] + [
    (f"layer.{name}.self_ms", "ms", "lower") for name in LAYER_NAMES
] + [
    ("trace.layer_sum_ratio", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]

PER_LAYER_NAMES = [name for name, _, _ in PER_LAYER]

# .calls / .ms metrics and the spans they read.
_SPANS = {
    "crypto.sign": ["crypto.sign"],
    "crypto.verify": ["crypto.verify", "crypto.verify_batch"],
    "chain.validate": ["chain.validate"],
    "chain.dag.insert": ["chain.dag.insert"],
    "chain.dag.ancestors": ["chain.dag.ancestors"],
    "csm.replay": ["csm.replay"],
    "storage.append": ["storage.append"],
    "wire.encode": ["wire.encode"],
    "wire.decode": ["wire.decode"],
    "reconcile.stats_record": ["reconcile.stats_record"],
    "live.session": ["live.session"],
    "live.serve": ["live.serve"],
    "live.frame_io": ["live.frame_io"],
    "sim.contact": ["sim.contact"],
}


def _calls(stats: dict, names) -> int:
    return sum(stats.get(name, [0, 0, 0])[0] for name in names)


def _inclusive_ms(stats: dict, names) -> float:
    """Time inside the calls; nested calls of the same group are
    counted once (verify_batch calls verify)."""
    names = list(names)
    total = stats.get(names[0], [0, 0, 0])[1]
    for name in names[1:]:
        total += stats.get(name, [0, 0, 0])[2]
    return total / 1e6


def common_layers(run, merged: dict, ops: float) -> None:
    """Per-operation calls and times from the spans and counters; the
    workload fills in what only it can measure."""
    stats, counters = merged["stats"], merged["counters"]
    for metric, names in _SPANS.items():
        plural = "sim.contacts" if metric == "sim.contact" else None
        run.layer(plural or f"{metric}.calls", _calls(stats, names) / ops,
                  "count")
        run.layer(f"{metric}.ms", _inclusive_ms(stats, names) / ops, "ms")
    run.layer("wire.encode.bytes",
              counters.get("wire.encode.bytes", 0) / ops, "B")
    run.layer("csm.tx.rejected", counters.get("csm.tx.rejected", 0) / ops,
              "count")
    for name in ("sessions", "rounds", "bytes", "blocks_new"):
        unit = "B" if name == "bytes" else "count"
        run.layer(f"reconcile.{name}",
                  counters.get(f"reconcile.{name}", 0) / ops, unit)
    sent = counters.get("reconcile.blocks_sent", 0)
    run.layer("reconcile.useful_ratio",
              counters.get("reconcile.blocks_new", 0) / sent if sent else 0,
              "ratio")
    sessions = _calls(stats, ["live.session", "sim.contact"])
    session_ms = (_inclusive_ms(stats, ["live.session"])
                  + _inclusive_ms(stats, ["sim.contact"]))
    run.layer("reconcile.session.ms",
              session_ms / sessions if sessions else 0, "ms")
    run.layer("live.sessions_interrupted",
              counters.get("live.sessions_interrupted", 0) / ops, "count")
    lag = merged["samples"].get("live.loop_lag_ms", [])
    run.layer("live.loop_lag_p99_ms", percentile(lag, 99), "ms")


def finish(run) -> None:
    """Every per-layer metric appears in every traced run: what a
    workload does not exercise reads 0."""
    for name, unit, _ in PER_LAYER:
        run.layers.setdefault(name, (0.0, unit))
    run.layers = {name: run.layers[name] for name in PER_LAYER_NAMES}


def blocking_layers(run, layers_ms: dict, ops: float, traced_e2e_ms: float,
                    untraced_e2e_ms: float) -> None:
    """Self time per layer on the blocking path, per operation, and the
    sum check against the untraced end-to-end figure."""
    for name in LAYER_NAMES:
        run.layer(f"layer.{name}.self_ms", layers_ms.get(name, 0.0) / ops,
                  "ms")
    attributed = sum(value for name, value in layers_ms.items()
                     if name != UNATTRIBUTED) / ops
    ratio = attributed / untraced_e2e_ms if untraced_e2e_ms else 0.0
    overhead = ((traced_e2e_ms - untraced_e2e_ms) / untraced_e2e_ms
                if untraced_e2e_ms else 0.0)
    run.layer("trace.layer_sum_ratio", ratio, "ratio")
    run.layer("trace.overhead_share", overhead, "ratio")
    run.info["layer_sum_within_tolerance"] = abs(ratio - 1) <= SUM_TOLERANCE
    run.info["layer_sum_tolerance"] = SUM_TOLERANCE
    run.info["blocking_path_ms"] = {
        "untraced": untraced_e2e_ms, "traced": traced_e2e_ms,
        "layers": {name: value / ops for name, value in layers_ms.items()},
    }


def _cache_ratio(stats: dict) -> float:
    lookups = stats["hits"] + stats["misses"]
    return stats["hits"] / lookups if lookups else 0.0


def cache_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in ("hits", "misses")}


def replicate_layers(run, results: list, config) -> None:
    """Per-transaction lineage on the traced pass: due -> sent (loadgen)
    -> request read (gateway.http.read) -> admission and submit spans
    -> queued in the batcher until its flush starts -> flush -> reply
    received.  The gateway owns the time inside its spans (the read
    from when the request was sent) and the batcher queue wait, which
    its size-or-deadline policy sets; the flush is split by layer from
    its span tree.  What no span covers (routing, the reply's write,
    transit and parsing in the client) is unattributed."""
    base = next(r for r in results if not r["traced"])
    traced = next(r for r in results if r["traced"])
    report_a, report_b = traced["reports"]
    merged = merge_summaries([report_a["trace"], report_b["trace"]])
    txs = [r for r in traced["measured"]
           if len(report_a["lineage"].get(r.tx_id, ())) == 7]
    ops = max(1, len(txs))
    common_layers(run, merged, ops)
    stats = merged["stats"]
    parts = {"late": 0.0, "http": 0.0, "admit": 0.0, "submit": 0.0,
             "wait": 0.0, "flush": 0.0, "gaps": 0.0}
    for r in txs:
        (read_start, parsed, admit_ns, submit_start, submit_end,
         flush_start, flush_end) = report_a["lineage"][r.tx_id]
        read_start, parsed, admit, submit_start, submit_end = (
            ns / 1e9 for ns in (read_start, parsed, admit_ns, submit_start,
                                submit_end)
        )
        flush_start, flush_end = flush_start / 1e9, flush_end / 1e9
        parts["late"] += r.sent - r.due
        parts["http"] += parsed - max(r.sent, read_start)
        parts["admit"] += admit
        parts["submit"] += submit_end - submit_start
        parts["wait"] += flush_start - submit_end
        parts["flush"] += flush_end - flush_start
        parts["gaps"] += (max(0.0, read_start - r.sent)
                          + (submit_start - parsed - admit)
                          + (r.replied - flush_end))
    per_tx = {k: v * 1000.0 / ops for k, v in parts.items()}
    run.layer("gateway.http.read_ms", per_tx["http"], "ms")
    run.layer("gateway.batch.wait_ms", per_tx["wait"], "ms")
    flushes = stats.get("gateway.batch.flush", [0, 0, 0])
    sizes = merged["samples"].get("gateway.batch.size", [])
    run.layer("gateway.batch.size", sum(sizes) / len(sizes) if sizes else 0,
              "count")
    run.layer("gateway.batch.flush_ms",
              flushes[1] / 1e6 / flushes[0] if flushes[0] else 0, "ms")
    run.layer("gateway.admission.refused",
              report_a["admission"]["refused"], "count")
    run.layer("gateway.shed", report_a["batcher"]["txs_shed"], "count")
    run.layer("chain.verifycache.hit_ratio",
              _cache_ratio(report_b["verifycache"]), "ratio")
    run.layer("live.loop_lag_p99_ms", percentile(
        report_a["trace"]["samples"].get("live.loop_lag_ms", []), 99), "ms")
    late = [(r.sent - r.due) * 1000.0 for r in traced["requests"] if r.sent]
    run.layer("loadgen.late_p99_ms", percentile(late, 99), "ms")
    run.layer("loadgen.occupancy",
              loadgen.occupancy(traced["requests"], config.connections),
              "ratio")

    # The flush tree's layers, scaled to this transaction's share: each
    # transaction waits for its whole batch's flush.
    tree = merged["trees"].get("gateway.batch.flush", {})
    tree_ms = sum(tree.values()) / 1e6
    layers_ms = {"loadgen": per_tx["late"] * ops,
                 "gateway": (per_tx["http"] + per_tx["admit"]
                             + per_tx["submit"] + per_tx["wait"]) * ops,
                 UNATTRIBUTED: per_tx["gaps"] * ops}
    for layer, ns in tree.items():
        share = (ns / 1e6) / tree_ms if tree_ms else 0.0
        layers_ms[layer] = layers_ms.get(layer, 0.0) + (
            share * per_tx["flush"] * ops
        )
    base_commit = base["commit"]
    untraced_mean = sum(base_commit) / len(base_commit) if base_commit else 0
    traced_mean = sum(per_tx.values())
    blocking_layers(run, layers_ms, ops, traced_mean, untraced_mean)
    run.layer("trace.spans", report_a["trace"]["spans_total"]
              + report_b["trace"]["spans_total"], "count")


def catchup_layers(run, passes: list) -> None:
    base = next(p for p in passes if not p["traced"])
    traced = next(p for p in passes if p["traced"])
    tracer = traced["tracer"]
    merged = merge_summaries([tracer.summary(),
                              traced["responder"]["trace"]])
    ops = len(traced["cycles"])
    common_layers(run, merged, ops)
    run.layer("chain.verifycache.hit_ratio",
              sum(_cache_ratio(c["cache"]) for c in traced["cycles"]) / ops,
              "ratio")
    layers_ms = {layer: ns / 1e6
                 for layer, ns in merged["trees"]["e2e.catchup"].items()}
    traced_ms = merged["tree_totals"]["e2e.catchup"][1] / 1e6 / ops
    untraced = [c["catchup_ms"] for c in base["cycles"]]
    blocking_layers(run, layers_ms, ops, traced_ms,
                    sum(untraced) / len(untraced))
    run.layer("trace.spans", tracer.spans_total
              + traced["responder"]["trace"]["spans_total"], "count")


def sim_layers(run, passes: list) -> None:
    base = next(p for p in passes if not p["traced"])
    traced = next(p for p in passes if p["traced"])
    tracer = traced["tracer"]
    merged = merge_summaries([tracer.summary()])
    ops = len(traced["results"])
    common_layers(run, merged, ops)
    run.layer("sim.events",
              sum(r["counts"]["events"] for r in traced["results"]) / ops,
              "count")
    run.layer("chain.verifycache.hit_ratio",
              sum(_cache_ratio(r["cache"]) for r in traced["results"]) / ops,
              "ratio")
    layers_ms = {layer: ns / 1e6
                 for layer, ns in merged["trees"]["e2e.sim"].items()}
    traced_ms = merged["tree_totals"]["e2e.sim"][1] / 1e6 / ops
    untraced = [r["wall_ms"] for r in base["results"]]
    blocking_layers(run, layers_ms, ops, traced_ms,
                    sum(untraced) / len(untraced))
    run.layer("trace.spans", tracer.spans_total, "count")
