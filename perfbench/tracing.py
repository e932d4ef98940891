"""In-memory span recorder and the call sites it wraps.

A traced run wraps public functions and methods of the ``repro``
modules with :meth:`Tracer.wrap`.  Each call records one span -- name,
start, end and the id of the span that was open when it began -- and
adds to a per-name aggregate: calls, total time, *self* time (the span's
duration minus the part its child spans cover) and, where the call site
says how, elements and bytes.  Nothing is written while the workload
runs; :meth:`Tracer.dump` writes everything at the end.

Two sets of wrappers exist:

* :func:`install_client` -- in the benchmark process: the cluster and
  service clients, the coordinator, the sync driver and the §4.9 fold.
* :func:`install_node` -- in every node process: frame decode, registry
  queue and apply, journal, snapshot, and the per-engine ingest calls.
  A node writes its aggregates to ``<trace dir>/<node id>-<pid>.json``
  each time it answers STATS, so the benchmark collects them with the
  STATS call it makes anyway; a node killed with SIGKILL keeps what it
  wrote at its last STATS.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Union

#: environment variable that carries the trace directory to node processes
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: raw spans kept per process; the aggregates keep counting past it
MAX_SPANS = 1_000_000

NameArg = Union[str, Callable[["Tracer", tuple], str]]


class Tracer:
    """Spans and per-name aggregates for one process (single-threaded)."""

    def __init__(self, role: str = "client") -> None:
        self.role = role
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        #: name -> [calls, total_ns, self_ns, elems, nbytes]
        self.agg: Dict[str, List[int]] = {}
        #: free-form counters and gauges of the call sites
        self.counters: Dict[str, float] = {}
        self._stack: List[List[Any]] = []  # [span_id, name, start, child_ns]
        self._next_id = 1
        #: every service client opened while tracing (for retry counts)
        self.clients: List[Any] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> List[Any]:
        frame = [self._next_id, name, time.perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def end(self, frame: List[Any], elems: int = 0, nbytes: int = 0) -> int:
        stop = time.perf_counter_ns()
        popped = self._stack.pop()
        assert popped is frame, "spans must nest"
        span_id, name, start, child_ns = frame
        dur = stop - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        row = self.agg.get(name)
        if row is None:
            row = self.agg[name] = [0, 0, 0, 0, 0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_ns
        row[3] += elems
        row[4] += nbytes
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (span_id, parent[0] if parent else 0, name, start, stop)
            )
        else:
            self.dropped_spans += 1
        return dur

    def add(self, counter: str, value: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def traced(
        self,
        func: Callable[..., Any],
        name: NameArg,
        *,
        elems: Optional[Callable[..., int]] = None,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """*func* wrapped to record one span per call.

        ``name`` may be a callable ``(tracer, args)`` that picks the span
        name from the open spans or the call's arguments.
        ``elems(args, kwargs, result)`` gives the element count of one
        call; ``before(args, kwargs)`` and ``after(args, kwargs, result,
        dur_ns)`` run around it, for the call sites that keep counters.
        """
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = name(tracer, args) if callable(name) else name
            if before is not None:
                before(args, kwargs)
            frame = tracer.begin(span)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                n = elems(args, kwargs, result) if elems is not None else 0
                dur = tracer.end(frame, elems=n)
                if after is not None:
                    after(args, kwargs, result, dur)

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced

    def wrap(self, owner: Any, attr: str, name: NameArg,
             **hooks: Any) -> None:
        """Replace ``owner.attr`` by :meth:`traced` of it."""
        setattr(owner, attr, self.traced(getattr(owner, attr), name,
                                         **hooks))

    # -- reading -----------------------------------------------------------

    def durations_ms(self, name: str) -> List[float]:
        return [(s[4] - s[3]) / 1e6 for s in self.spans if s[2] == name]

    def to_dict(self, *, with_spans: bool = True) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "role": self.role,
            "pid": os.getpid(),
            "agg": {
                name: {
                    "calls": row[0],
                    "total_ms": row[1] / 1e6,
                    "self_ms": row[2] / 1e6,
                    "elems": row[3],
                    "bytes": row[4],
                }
                for name, row in sorted(self.agg.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "dropped_spans": self.dropped_spans,
        }
        if with_spans:
            out["spans"] = self.spans
        return out

    def dump(self, path: str, *, with_spans: bool = True) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.to_dict(with_spans=with_spans), fh)
        os.replace(tmp, path)


def _size0(args: Any, kwargs: Any, result: Any, index: int = 1) -> int:
    """Element count of the call's values argument (positional *index*)."""
    values = args[index] if len(args) > index else kwargs.get("values")
    size = getattr(values, "size", None)
    return int(size) if size is not None else len(values)


def _nested(default: str, **by_parent: str) -> Callable[[Tracer, tuple], str]:
    """Span name chosen by the nearest enclosing span listed in
    ``by_parent`` (``{"parent span": "name to use"}``)."""
    table = {k.replace("__", "."): v for k, v in by_parent.items()}

    def pick(tracer: Tracer, args: tuple) -> str:
        for frame in reversed(tracer._stack):
            hit = table.get(frame[1])
            if hit is not None:
                return hit
        return default

    return pick


# -- the benchmark process ------------------------------------------------


def install_client(tracer: Tracer) -> None:
    """Wrap the client-side layers in this process."""
    from repro.cluster import client as cluster_client
    from repro.cluster import coordinator, sync
    from repro.core import engines, serialize
    from repro.service import client as service_client
    from repro.service import protocol

    CC = cluster_client.ClusterClient
    QC = service_client.QuantileClient

    tracer.wrap(
        QC, "__init__", "client.connect",
        after=lambda a, k, r, d: tracer.clients.append(a[0]),
    )

    tracer.wrap(CC, "ingest_nowait", "cluster_client.ingest")
    tracer.wrap(CC, "flush", "cluster_client.flush")
    tracer.wrap(CC, "drain", "cluster_client.drain")
    tracer.wrap(CC, "create", "cluster_client.create")
    tracer.wrap(CC, "query", "cluster_client.query")
    tracer.wrap(CC, "query_merged", "cluster_client.query_merged")
    tracer.wrap(CC, "fetch_merged", "cluster_client.fetch_merged")
    tracer.wrap(CC, "fetch_replicas", "cluster_client.fetch_replicas")
    tracer.wrap(CC, "fetch_raw", "cluster_client.fetch_raw")
    tracer.wrap(cluster_client, "merge_tagged", "cluster_client.merge")

    tracer.wrap(QC, "ingest_nowait", "client.ingest_nowait", elems=_size0)
    tracer.wrap(QC, "flush", "client.ack_wait")
    tracer.wrap(QC, "query", "client.query")
    tracer.wrap(
        QC, "fetch_raw",
        _nested(
            "client.fetch_raw",
            cluster_client__fetch_merged="cluster_client.fetch_leg",
            sync__sync_metric="sync.verify",
        ),
    )
    tracer.wrap(
        QC, "drain",
        _nested("client.drain", sync__sync_metric="sync.verify"),
    )
    tracer.wrap(
        QC, "ingest",
        _nested("client.ingest", sync__sync_metric="sync.tail_ingest"),
        elems=_size0,
    )
    tracer.wrap(QC, "sync_pull", "sync.syncpull")
    tracer.wrap(QC, "restore", "sync.restore")

    def framed(args: Any, kwargs: Any, result: Any, dur: int) -> None:
        tracer.add("client.wire_bytes", len(result))
        tracer.add("client.wire_elems", _size0(args, kwargs, None, 1))

    tracer.wrap(
        protocol, "encode_ingest_framed", "client.encode", after=framed
    )

    def sync_report(args: Any, kwargs: Any, result: Any, dur: int) -> None:
        if result is not None:
            tracer.add("sync.installs", result.installs)
            tracer.add("sync.tail_records", result.records)

    tracer.wrap(sync.SyncDriver, "sync_metric", "sync.sync_metric",
                after=sync_report)

    CO = coordinator.ClusterCoordinator
    tracer.wrap(CO, "start", "coordinator.start")
    tracer.wrap(CO, "restart_node", "coordinator.restart_node")
    tracer.wrap(CO, "resync_node", "coordinator.resync_node")
    tracer.wrap(CO, "kill_node", "coordinator.kill_node")

    def payload_bytes(args: Any, kwargs: Any) -> None:
        tracer.add("serialize.payload_bytes", len(args[0]))

    for key, spec in list(engines.ENGINES.items()):
        engines.ENGINES[key] = spec._replace(loads=tracer.traced(
            spec.loads, "serialize.loads", before=payload_bytes))
    tracer.wrap(serialize, "merge_serialized", "serialize.merge")


# -- node processes -------------------------------------------------------


def install_node(trace_dir: str) -> Tracer:
    """Wrap the server-side layers in this (node) process."""
    from collections import deque

    from repro.core import bank, frugal, kll
    from repro import windows
    from repro.service import journal, protocol, registry, server

    tracer = Tracer(role="node")
    state = {"serving": False, "node_id": "node"}
    QS = server.QuantileService
    REG = registry.SketchRegistry

    def node_id(args: Any, kwargs: Any, result: Any, dur: int) -> None:
        state["node_id"] = args[0].node_id or "node"

    tracer.wrap(QS, "__init__", "server.init", after=node_id)

    start = QS.start

    async def service_start(self: Any) -> None:
        frame = tracer.begin("server.start")
        try:
            await start(self)
        finally:
            tracer.end(frame)
        state["serving"] = True

    QS.start = service_start

    def dump(args: Any, kwargs: Any, result: Any, dur: int) -> None:
        tracer.dump(os.path.join(
            trace_dir, f"{state['node_id']}-{os.getpid()}.json"))

    # STATS is where the node hands its spans to the benchmark
    tracer.wrap(server.ServiceMetrics, "to_dict", "server.stats",
                after=dump)

    tracer.wrap(protocol, "decode_request", "protocol.decode")

    # queue wait: enqueue stamps, apply_shard pops (FIFO per shard)
    stamps: Dict[int, Any] = {}

    def stamp(args: Any, kwargs: Any, result: Any, dur: int) -> None:
        stamps.setdefault(result.shard, deque()).append(
            time.perf_counter_ns()
        )

    tracer.wrap(REG, "enqueue", "registry.enqueue", after=stamp)
    tracer.wrap(REG, "enqueue_at", "registry.enqueue", after=stamp)

    def apply_before(args: Any, kwargs: Any) -> None:
        self, shard = args[0], args[1]
        queued = stamps.get(shard)
        pending = self.pending_batches(shard)
        if not pending:
            return
        now = time.perf_counter_ns()
        tracer.add("registry.applies", 1)
        tracer.add("registry.applied_batches", pending)
        while queued:
            tracer.add("registry.queue_wait_ns", now - queued.popleft())
            tracer.add("registry.queued_batches", 1)

    tracer.wrap(REG, "apply_shard", "registry.apply", before=apply_before,
                elems=lambda a, k, r: int(r or 0))
    tracer.wrap(REG, "fetch_serialized", "registry.fetch_serialize")

    def query_name(tr: Tracer, args: tuple) -> str:
        entry = args[0].get(args[1])
        if entry.windowed:
            return "registry.quantiles.windowed"
        return f"registry.quantiles.{entry.engine}"

    tracer.wrap(REG, "quantiles", query_name)

    J = journal.IngestJournal
    for method in ("append_create", "append_ingest", "append_ingest_at",
                   "append_restore"):
        tracer.wrap(J, method, "journal.append")

    def scan_name(tr: Tracer, args: tuple) -> str:
        return "journal.scan_resync" if state["serving"] else "journal.scan"

    tracer.wrap(server, "read_journal", scan_name)
    tracer.wrap(server, "write_snapshot", "snapshot.write")
    tracer.wrap(server, "read_snapshot", "snapshot.read")

    tracer.wrap(bank.SketchBank, "extend_single", "paper.extend",
                elems=lambda a, k, r: _size0(a, k, r, 2))
    tracer.wrap(kll.KLLSketch, "extend", "kll.extend", elems=_size0)
    tracer.wrap(
        frugal.FrugalBank, "extend_pairs", "frugal.extend",
        elems=lambda a, k, r: sum(int(v.size) for _, v in a[1]),
    )

    tracer.wrap(windows.WindowedSketch, "extend_at", "windows.extend",
                elems=_size0)
    return tracer
