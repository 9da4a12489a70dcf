"""Replica processes and small helpers shared by the workloads."""

from __future__ import annotations

import json
import os
import pathlib
import queue
import resource
import subprocess
import sys
import threading
import time

from repro.gateway.loadgen import percentile as _sorted_percentile

HERE = pathlib.Path(__file__).resolve().parent
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class ReplicaError(Exception):
    """A replica process failed to start, answer or stop."""


class Replica:
    """A ``replica.py`` child: start, wait until serving, stop, report."""

    def __init__(self, config: dict, work: pathlib.Path):
        self.name = config["name"]
        self._log = open(work / f"replica-{self.name}.log", "ab")
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "replica.py"), json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, cwd=str(work),
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.info: dict = {}

    def _pump(self) -> None:
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _next(self, timeout_s: float) -> dict:
        try:
            line = self._lines.get(timeout=timeout_s)
        except queue.Empty:
            raise ReplicaError(f"{self.name}: no answer in {timeout_s}s")
        if line is None:
            raise ReplicaError(f"{self.name}: exited early "
                               f"(code {self._proc.wait()})")
        return json.loads(line)

    @property
    def pid(self) -> int:
        return self._proc.pid

    def wait_ready(self) -> dict:
        self.info = self._next(READY_TIMEOUT_S)
        return self.info

    def stop(self) -> dict:
        """Ask the replica to stop; returns its final report."""
        try:
            self._proc.stdin.write(b"stop\n")
            self._proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            report = self._next(STOP_TIMEOUT_S)
        finally:
            self.kill()
        return report

    def kill(self) -> None:
        """Make sure the process has ended (idempotent)."""
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._reader.join(timeout=5)
        if self._proc.stdin and not self._proc.stdin.closed:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
        self._proc.stdout.close()
        self._log.close()


# Cores this process may run on, and loop iterations of one probe of
# a core's speed (about a millisecond).
CPUS = sorted(os.sched_getaffinity(0))
PROBE_LOOPS = 20_000


def _probe_ms() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return (time.perf_counter() - started) * 1000.0


def pin_to_fastest_cpu(*pids: int) -> tuple[int, float]:
    """Move this process's thread and the processes *pids* onto the
    core that runs a probe loop fastest now; return the core and its
    probe time in ms.

    A shared host can run one core well below the speed of another for
    minutes, and where the scheduler puts a process decides which one
    it gets.  The processes pinned here take turns (a replica and the
    responder it is in session with), so one core serves both.
    """
    speeds = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = min(_probe_ms() for _ in range(3))
    cpu = min(speeds, key=speeds.get)
    for pid in (0, *pids):
        os.sched_setaffinity(pid, {cpu})
    return cpu, speeds[cpu]


def unpin(*pids: int) -> None:
    for pid in (0, *pids):
        try:
            os.sched_setaffinity(pid, CPUS)
        except ProcessLookupError:
            pass


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) of *values*, 0.0 if empty."""
    return _sorted_percentile(sorted(values), q)


def median(values) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """This process's peak resident set size."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
