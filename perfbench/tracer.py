"""Spans around calls into the system's layers, kept in memory.

The benchmark measures every layer from outside: :func:`install`
replaces public functions of ``repro`` with wrappers that open a span
on entry and close it on exit.  A span records its name, start, end
and parent (the span open in the same task when it started), so a
layer's *self time* is its duration minus the time its child spans
cover.  Self time, inclusive time and call counts are aggregated as
spans close; the raw spans are kept (up to a cap) and written out when
the run ends.

Nothing here is imported by the system itself, and nothing is patched
until :func:`install` is called, so an untraced run executes the
unmodified code.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from array import array
from collections import defaultdict
from typing import Optional

# Raw spans kept per process; aggregation continues past the cap.
SPAN_CAP = 300_000

# Span names under "e2e." belong to the benchmark itself: their self
# time is time no wrapped layer accounts for.
UNATTRIBUTED = "e2e"


def layer_of(name: str) -> str:
    """A span's layer: the first dotted part of its name."""
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder with online self-time aggregation.

    Spans named in *roots* start a tree: every span opened beneath one
    (in the same task, or a task it started) adds its self time to that
    root's per-layer table, which is how a blocking path (one catch-up,
    one batch flush, one simulation) is split by layer.
    """

    def __init__(self, span_cap: int = SPAN_CAP, roots=()):
        self.clock = time.perf_counter_ns
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_cap = span_cap
        self._next = 0
        self._counted_from = 0
        self._id = array("q")
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._open: dict[int, list] = {}
        self._roots = frozenset(roots)
        # name -> [calls, inclusive ns, self ns]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0, 0])
        # root name -> layer -> self ns, and root name -> [count, ns]
        self.trees: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        self.tree_totals: dict[str, list] = defaultdict(lambda: [0, 0])
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)

    def open(self, name: str):
        index = self._next
        self._next += 1
        parent = self._current.get()
        token = self._current.set(index)
        parent_entry = self._open.get(parent)
        if name in self._roots:
            root = name
        else:
            root = parent_entry[4] if parent_entry is not None else None
        start = self.clock()
        self._open[index] = [name, start, parent, 0, root]
        return index, token

    def close(self, index: int, token) -> tuple[int, int]:
        end = self.clock()
        self._current.reset(token)
        name, start, parent, child_ns, root = self._open.pop(index)
        duration = end - start
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_ns
        if root is not None:
            self.trees[root][layer_of(name)] += duration - child_ns
            if root == name:
                totals = self.tree_totals[root]
                totals[0] += 1
                totals[1] += duration
        parent_entry = self._open.get(parent)
        if parent_entry is not None:
            parent_entry[3] += duration
        if len(self._id) < self._span_cap:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self._names)
                self._names.append(name)
            self._id.append(index)
            self._name.append(name_id)
            self._start.append(start)
            self._end.append(end)
            self._parent.append(parent)
        return start, end

    def reset(self) -> None:
        """Forget what closed so far (set-up work before measuring):
        aggregates, raw spans and the span count.  Span ids keep
        increasing, so spans still open stay distinct."""
        self._counted_from = self._next
        for column in (self._id, self._name, self._start, self._end,
                       self._parent):
            del column[:]
        self.stats.clear()
        self.counters.clear()
        self.samples.clear()
        self.trees.clear()
        self.tree_totals.clear()

    def span(self, name: str):
        return _Span(self, name)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    @property
    def spans_recorded(self) -> int:
        return len(self._id)

    @property
    def spans_total(self) -> int:
        return self._next - self._counted_from

    def summary(self) -> dict:
        """Aggregates only (what a replica process sends back)."""
        return {
            "stats": {name: list(entry) for name, entry in self.stats.items()},
            "trees": {root: dict(layers) for root, layers in self.trees.items()},
            "tree_totals": {root: list(v) for root, v in self.tree_totals.items()},
            "counters": dict(self.counters),
            "samples": {name: list(v) for name, v in self.samples.items()},
            "spans_total": self.spans_total,
        }

    def write_spans(self, path) -> None:
        """One JSON line per span, in closing order: name, start and end
        (``perf_counter_ns``), span id, parent id (-1: none)."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in range(len(self._id)):
                handle.write(json.dumps([
                    self._names[self._name[row]], self._start[row],
                    self._end[row], self._id[row], self._parent[row],
                ]) + "\n")


class _Span:
    __slots__ = ("_tracer", "_name", "_state")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._state = self._tracer.open(self._name)
        return self

    def __exit__(self, *exc):
        self._tracer.close(*self._state)
        return False


def merge_summaries(summaries) -> dict:
    """Sum the per-process summaries of one run."""
    stats: dict[str, list] = defaultdict(lambda: [0, 0, 0])
    counters: dict[str, float] = defaultdict(float)
    samples: dict[str, list] = defaultdict(list)
    trees: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    tree_totals: dict[str, list] = defaultdict(lambda: [0, 0])
    for summary in summaries:
        for name, entry in summary["stats"].items():
            for slot in range(3):
                stats[name][slot] += entry[slot]
        for name, value in summary["counters"].items():
            counters[name] += value
        for name, values in summary["samples"].items():
            samples[name].extend(values)
        for root, layers in summary["trees"].items():
            for layer, value in layers.items():
                trees[root][layer] += value
        for root, (count, total) in summary["tree_totals"].items():
            tree_totals[root][0] += count
            tree_totals[root][1] += total
    return {"stats": dict(stats), "counters": dict(counters),
            "samples": dict(samples), "trees": dict(trees),
            "tree_totals": dict(tree_totals)}


# -- wrapping ---------------------------------------------------------------


def wrap(owner, attribute: str, name: str, tracer: Tracer,
         after=None, patched=None) -> None:
    """Replace ``owner.attribute`` with a span-recording wrapper.

    *after(args, result, start_ns, end_ns)* runs after a successful
    call (counters taken from arguments, results or the span times).  *patched* collects ``(owner,
    attribute, original)`` so :func:`uninstall` can restore it.
    """
    original = inspect.getattr_static(owner, attribute)
    function = original
    if isinstance(original, (staticmethod, classmethod)):
        raise TypeError(f"cannot wrap {owner}.{attribute}")
    if inspect.iscoroutinefunction(function):
        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            index, token = tracer.open(name)
            try:
                result = await function(*args, **kwargs)
            finally:
                start, end = tracer.close(index, token)
            if after is not None:
                after(args, result, start, end)
            return result
    else:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index, token = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                start, end = tracer.close(index, token)
            if after is not None:
                after(args, result, start, end)
            return result
    setattr(owner, attribute, wrapper)
    if patched is not None:
        patched.append((owner, attribute, original))


def uninstall(patched) -> None:
    while patched:
        owner, attribute, original = patched.pop()
        setattr(owner, attribute, original)


class _Recv:
    """Holder for the two traced variants of ``StreamTransport.recv``."""


def _wrap_recv(tracer: Tracer, transport_class, patched: list) -> None:
    """Frame reads on an initiator's connection wait for the peer's
    reply (blocking); on an accepted connection they wait for the next
    request (idle), which belongs to no layer."""
    original = transport_class.recv
    _Recv.initiator = original
    _Recv.responder = original
    wrap(_Recv, "initiator", "live.frame_io", tracer)
    wrap(_Recv, "responder", "idle.serve_wait", tracer)

    async def recv(self):
        if "<-" in self.label:
            return await _Recv.responder(self)
        return await _Recv.initiator(self)

    transport_class.recv = recv
    patched.append((transport_class, "recv", original))


def install(tracer: Tracer, lineage: Optional[dict] = None) -> list:
    """Wrap every layer boundary the benchmark reports; returns the
    list to hand to :func:`uninstall`.

    With *lineage*, each transaction submitted to a gateway gets
    ``[read start, read end, admission ns, submit start, submit end,
    flush start, flush end]`` under its first argument, which the load
    generator makes unique.  The times are ``time.perf_counter_ns``: on
    Linux the system-wide monotonic clock, which the load generator in
    the benchmark process reads too.
    """
    from repro import wire
    from repro.chain.dag import BlockDAG
    from repro.chain.validation import BlockValidator
    from repro.crypto import backend as crypto_backend
    from repro.csm.machine import CSMachine
    from repro.gateway import server as gateway_server
    from repro.gateway.admission import AdmissionController
    from repro.gateway.batching import TxBatcher
    from repro.live import antientropy, node as live_node
    from repro.live.node import LiveNode
    from repro.live.protocol import LiveResponder
    from repro.live.transport import StreamTransport
    from repro.reconcile.stats import ReconcileStats
    from repro.sim.gossip import GossipScheduler
    from repro.storage.blockstore import BlockStore

    patched: list = []

    def on(owner, attribute, name, after=None):
        wrap(owner, attribute, name, tracer, after=after, patched=patched)

    # gateway: a request is read, admitted and submitted in one task
    request_spans = contextvars.ContextVar("perfbench_request", default=None)

    def request_read(args, request, start, end):
        request_spans.set([start, end, 0])

    def admitted(args, result, start, end):
        if not result[0]:
            tracer.count("gateway.admission.refused")
        spans = request_spans.get()
        if spans is not None:
            spans[2] += end - start

    def submitted(args, future, start, end):
        transaction = args[1]
        spans = request_spans.get()
        if lineage is not None and transaction.args and spans is not None:
            lineage[str(transaction.args[0])] = spans + [start, end]

    def flushed(args, block, start, end):
        tracer.sample("gateway.batch.size", len(block.transactions))
        for transaction in block.transactions if lineage is not None else ():
            entry = lineage.get(
                str(transaction.args[0]) if transaction.args else None
            )
            if entry is not None:
                entry += [start, end]

    on(gateway_server, "read_request", "gateway.http.read",
       after=request_read)
    on(AdmissionController, "admit", "gateway.admission", after=admitted)
    on(TxBatcher, "submit", "gateway.batch.submit", after=submitted)
    on(LiveNode, "append_transactions", "gateway.batch.flush", after=flushed)

    # crypto: the active backend's primitives
    backend_class = type(crypto_backend.active())
    on(backend_class, "sign", "crypto.sign")
    on(backend_class, "verify", "crypto.verify")
    if "verify_batch" in vars(backend_class):
        on(backend_class, "verify_batch", "crypto.verify_batch")
    else:
        on(crypto_backend.CryptoBackend, "verify_batch",
           "crypto.verify_batch")

    # chain
    on(BlockValidator, "validate", "chain.validate")
    on(BlockValidator, "preverify", "chain.preverify")
    on(BlockDAG, "add_block", "chain.dag.insert")
    on(BlockDAG, "ancestors", "chain.dag.ancestors")

    # csm
    def replayed(args, outcomes, *_):
        tracer.count("csm.tx.rejected",
                     sum(1 for outcome in outcomes if not outcome.applied))
    on(CSMachine, "replay_block", "csm.replay", after=replayed)

    # storage (fsync included)
    on(BlockStore, "append", "storage.append")

    # wire
    def encoded(args, result, *_):
        tracer.count("wire.encode.bytes", len(result))
    on(wire, "encode", "wire.encode", after=encoded)
    on(wire, "decode", "wire.decode")
    on(ReconcileStats, "record", "reconcile.stats_record")

    # reconcile: one initiator session, live or simulated
    def session_done(stats) -> None:
        tracer.count("reconcile.sessions")
        tracer.count("reconcile.rounds", stats.rounds)
        tracer.count("reconcile.bytes", stats.total_bytes)
        new = stats.blocks_pulled + stats.blocks_pushed
        tracer.count("reconcile.blocks_new", new)
        tracer.count("reconcile.blocks_sent",
                     new + stats.duplicate_blocks + stats.invalid_blocks)

    # live
    def live_session_done(args, stats, *_):
        if stats is None:
            return
        session_done(stats)
        if stats.interrupted:
            tracer.count("live.sessions_interrupted")
    on(antientropy.AntiEntropyLoop, "run_once", "live.session",
       after=live_session_done)
    # LiveNode binds serve_connection at import; patch both names.
    on(antientropy, "serve_connection", "live.serve.connection")
    on(live_node, "serve_connection", "live.serve.connection")
    on(LiveResponder, "handle", "live.serve")
    on(StreamTransport, "send", "live.frame_io")
    _wrap_recv(tracer, StreamTransport, patched)

    # sim
    on(GossipScheduler, "contact", "sim.contact",
       after=lambda args, stats, *_: session_done(stats))
    return patched
