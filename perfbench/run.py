"""Vegvisir's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload replicate --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

* ``replicate`` — the write path: open-loop Poisson submits to a
  gateway replica A while replica B gossips with A; commit and
  visibility latency.
* ``catchup`` — the partition-heal path: fresh replicas with cold
  caches catch up a 1,000-block DAG from a responder process, then run
  sessions while in sync.
* ``sim_fleet`` — the researcher's path: a 32-node simulation.

Every replica is its own OS process on loopback TCP (except the fresh
catch-up replica and the simulation, which run in this process), and
the crypto backend is ``cryptography``.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced pass
(see ``layers.py``).  Lines before it print every metric by name and
unit, the checks that failed, and the environment.  The full result,
and the spans of a traced run, are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("replicate", "catchup", "sim_fleet")
E2E_METRICS = ("visible_p50_ms", "visible_p99_ms", "op_ms",
               "wire_bytes_per_block", "peak_rss_mb", "setup_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """SHA-256 over the system's sources (the checkout may not be a git
    repository, so this identifies the code measured)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args, backend: str) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "crypto_backend": backend,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no system sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from repro.crypto import backend as crypto_backend

    import layers
    import workloads

    try:
        crypto_backend.set_backend(workloads.CRYPTO_BACKEND)
    except crypto_backend.BackendUnavailable as exc:
        print(f"error: crypto backend unavailable: {exc}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / (
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    )
    work.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(args.workload, args.seed, args.seconds,
                        bool(args.trace), work)
    started = time.perf_counter()
    try:
        getattr(workloads, args.workload)(run)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        for store in work.glob("*.blocks"):
            store.unlink()
    if run.trace:
        layers.finish(run)
        metrics = run.layers
    else:
        metrics = {name: run.metrics[name] for name in E2E_METRICS}
    finite = all(math.isfinite(value) for value, _ in metrics.values())
    correct = run.failed == 0 and finite and run.attempted > 0
    env = environment(args, crypto_backend.active().name)

    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, "
          f"{time.perf_counter() - started:.1f} s wall")
    for key, value in env.items():
        print(f"  env {key} = {value}")
    for name, (value, unit) in sorted(run.report.items()):
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_share = {run.failed / max(1, run.attempted):.6g} ratio "
          f"({run.failed} of {run.attempted})")
    for reason, count in sorted(run.failures.items()):
        print(f"  FAILED {reason}: {count}")
    for key, value in sorted(run.info.items()):
        print(f"  info {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"  metric {name} = {value:.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(work / "result.json", "w", encoding="utf-8") as handle:
        json.dump({
            **result, "environment": env, "report": run.report,
            "failures": dict(run.failures), "info": run.info,
            "targets": layers.TARGETS if run.trace else None,
        }, handle, indent=2, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
