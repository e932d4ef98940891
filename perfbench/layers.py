"""Per-layer metrics of a traced run, and its trace report.

The per-layer figures come from three sources: the client tracer's spans
(:func:`perfbench.tracing.install_client`), the node tracers' dumps
(:func:`perfbench.tracing.install_node`, one file per node process), and
the counters the nodes already export through STATS.  Each figure names
the layer module it measures; README.md maps it to the end-to-end metric
and workload it should move.  A layer that does not run on a workload
reports 0.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from typing import Any, Dict, List, Tuple

import numpy as np

#: name -> (unit, better); the order is the order of the report
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "client.ingest_call_us": ("us", "lower"),
    "client.ack_wait_s": ("s", "lower"),
    "client.wire_bytes_per_elem": ("bytes/elem", "lower"),
    "client.retries": ("count", "lower"),
    "cluster_client.fetch_leg_ms": ("ms", "lower"),
    "cluster_client.fetch_leg_p90_ms": ("ms", "lower"),
    "cluster_client.merge_ms": ("ms", "lower"),
    "cluster_client.replica_writes_per_batch": ("count", "lower"),
    "protocol.decode_us": ("us", "lower"),
    "server.frames_per_read": ("count", "higher"),
    "server.query_op_ms": ("ms", "lower"),
    "server.backpressure_flushes": ("count", "lower"),
    "registry.apply_ms": ("ms", "lower"),
    "registry.batches_per_apply": ("count", "higher"),
    "registry.queue_wait_ms": ("ms", "lower"),
    "registry.fetch_serialize_us": ("us", "lower"),
    "registry.dedup_hits": ("count", "lower"),
    "journal.append_us_per_record": ("us", "lower"),
    "journal.records": ("count", "lower"),
    "journal.scan_s": ("s", "lower"),
    "journal.scans_during_resync": ("count", "lower"),
    "snapshot.write_ms": ("ms", "lower"),
    "snapshot.read_ms": ("ms", "lower"),
    "paper.ns_per_elem": ("ns/elem", "lower"),
    "paper.collapses": ("count", "lower"),
    "paper.output_us": ("us", "lower"),
    "kll.ns_per_elem": ("ns/elem", "lower"),
    "kll.compactions": ("count", "lower"),
    "frugal.ns_per_elem": ("ns/elem", "lower"),
    "windows.ns_per_elem": ("ns/elem", "lower"),
    "windows.live_buckets": ("count", "lower"),
    "serialize.loads_us": ("us", "lower"),
    "serialize.payload_bytes": ("bytes", "lower"),
    "serialize.merge_ms": ("ms", "lower"),
    "sync.syncpull_ms": ("ms", "lower"),
    "sync.restore_ms": ("ms", "lower"),
    "sync.verify_ms": ("ms", "lower"),
    "sync.installs": ("count", "lower"),
    "sync.tail_records": ("count", "lower"),
    "coordinator.spawn_s": ("s", "lower"),
    "trace.uncovered_share": ("fraction", "lower"),
    "trace.overhead_share": ("fraction", "lower"),
}


class _Agg:
    """Summed per-name aggregates of one or more tracer dumps."""

    def __init__(self, dumps: List[Dict[str, Any]]) -> None:
        self.agg: Dict[str, Dict[str, float]] = {}
        self.counters: Dict[str, float] = {}
        for dump in dumps:
            for name, row in dump["agg"].items():
                into = self.agg.setdefault(
                    name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0,
                           "elems": 0, "bytes": 0})
                for key in into:
                    into[key] += row[key]
            for name, value in dump["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value

    def calls(self, name: str) -> int:
        return int(self.agg.get(name, {}).get("calls", 0))

    def total_ms(self, name: str) -> float:
        return float(self.agg.get(name, {}).get("total_ms", 0.0))

    def self_ms(self, name: str) -> float:
        return float(self.agg.get(name, {}).get("self_ms", 0.0))

    def mean_ms(self, name: str) -> float:
        calls = self.calls(name)
        return self.total_ms(name) / calls if calls else 0.0

    def ns_per_elem(self, name: str) -> float:
        elems = self.agg.get(name, {}).get("elems", 0)
        return self.total_ms(name) * 1e6 / elems if elems else 0.0

    def counter(self, name: str) -> float:
        return float(self.counters.get(name, 0))


def read_node_dumps(trace_dir: str) -> List[Dict[str, Any]]:
    """Every node process's last dump, one per process."""
    dumps = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.json"))):
        with open(path) as fh:
            dumps.append(json.load(fh))
    return dumps


def _incarnations(bench: Any) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """``(first, last)`` STATS of every node process, keyed by node and
    start time; ``first`` is the one it answered once serving."""
    first: Dict[Tuple[str, float], Dict[str, Any]] = {}
    last: Dict[Tuple[str, float], Dict[str, Any]] = {}
    for stats in bench.node_stats:
        key = (stats["_node"], stats["started_at_unix"])
        first.setdefault(key, stats)
        last[key] = stats
    return [(first[k], last[k]) for k in last]


def _get(stats: Dict[str, Any], path: Tuple[str, ...]) -> float:
    v: Any = stats
    for key in path:
        v = v.get(key, {}) if isinstance(v, dict) else {}
    return float(v) if isinstance(v, (int, float)) else 0.0


def _live(bench: Any, *path: str) -> float:
    """A STATS counter summed over node processes, counting only what
    each did after it started serving (start-up replay left out)."""
    return sum(_get(last, path) - _get(first, path)
               for first, last in _incarnations(bench))


def _phase_times(bench: Any) -> float:
    return sum(bench.phase_s.values())


def per_layer(
    tracer: Any, node_dumps: List[Dict[str, Any]], bench: Any, plain: Any
) -> Dict[str, Tuple[float, str]]:
    """Every :data:`PER_LAYER` metric as ``name -> (value, unit)``."""
    c = _Agg([tracer.to_dict(with_spans=False)])
    n = _Agg(node_dumps)
    ingest_calls = c.calls("client.ingest_nowait")
    legs = tracer.durations_ms("cluster_client.fetch_leg")
    reads = _live(bench, "coalescing", "reads")
    # each node process's own QUERY p50, over those that served many
    query_p50 = [
        last["obs"]["op_latency_ms"]["QUERY"]["p50"]
        for _first, last in _incarnations(bench)
        if last["obs"]["op_latency_ms"].get("QUERY", {}).get("n", 0) >= 100
    ]
    applies = n.counter("registry.applies")
    queued = n.counter("registry.queued_batches")
    starts = tracer.durations_ms("coordinator.start")
    phase_spans = [k for k in c.agg if k.startswith("phase.")]
    phase_total = sum(c.total_ms(k) for k in phase_spans)
    plain_t = _phase_times(plain)
    values = {
        "client.ingest_call_us": (
            (c.self_ms("client.ingest_nowait") + c.total_ms("client.encode"))
            * 1e3 / ingest_calls if ingest_calls else 0.0
        ),
        "client.ack_wait_s": (
            c.total_ms("client.ack_wait") + c.total_ms("client.drain")
        ) / 1e3,
        "client.wire_bytes_per_elem": (
            c.counter("client.wire_bytes") / c.counter("client.wire_elems")
            if c.counter("client.wire_elems") else 0.0
        ),
        "client.retries": float(
            sum(q.retries_total for q in tracer.clients)),
        "cluster_client.fetch_leg_ms": (
            float(np.mean(legs)) if legs else 0.0),
        "cluster_client.fetch_leg_p90_ms": (
            float(np.percentile(legs, 90)) if legs else 0.0),
        "cluster_client.merge_ms": c.mean_ms("cluster_client.merge"),
        "cluster_client.replica_writes_per_batch": (
            ingest_calls / c.calls("cluster_client.ingest")
            if c.calls("cluster_client.ingest") else 0.0
        ),
        "protocol.decode_us": n.mean_ms("protocol.decode") * 1e3,
        "server.frames_per_read": (
            _live(bench, "coalescing", "frames") / reads if reads else 0.0),
        "server.query_op_ms": (
            float(statistics.median(query_p50)) if query_p50 else 0.0),
        "server.backpressure_flushes": _live(
            bench, "resilience", "backpressure_flushes"),
        "registry.apply_ms": (
            n.total_ms("registry.apply") / applies if applies else 0.0),
        "registry.batches_per_apply": (
            n.counter("registry.applied_batches") / applies
            if applies else 0.0
        ),
        "registry.queue_wait_ms": (
            n.counter("registry.queue_wait_ns") / queued / 1e6
            if queued else 0.0
        ),
        "registry.fetch_serialize_us": (
            n.mean_ms("registry.fetch_serialize") * 1e3),
        "registry.dedup_hits": _live(bench, "resilience", "dedup_hits"),
        "journal.append_us_per_record": n.mean_ms("journal.append") * 1e3,
        "journal.records": float(n.calls("journal.append")),
        "journal.scan_s": n.mean_ms("journal.scan") / 1e3,
        "journal.scans_during_resync": float(
            n.calls("journal.scan_resync")),
        "snapshot.write_ms": n.mean_ms("snapshot.write"),
        "snapshot.read_ms": n.mean_ms("snapshot.read"),
        "paper.ns_per_elem": n.ns_per_elem("paper.extend"),
        "paper.collapses": _live(bench, "obs", "counters", "core.collapse"),
        "paper.output_us": n.mean_ms("registry.quantiles.paper") * 1e3,
        "kll.ns_per_elem": n.ns_per_elem("kll.extend"),
        "kll.compactions": _live(
            bench, "obs", "counters", "engine.compactions"),
        "frugal.ns_per_elem": n.ns_per_elem("frugal.extend"),
        "windows.ns_per_elem": n.ns_per_elem("windows.extend"),
        "windows.live_buckets": float(
            bench.extra.get("windows_live_buckets", 0)),
        "serialize.loads_us": c.mean_ms("serialize.loads") * 1e3,
        "serialize.payload_bytes": (
            c.counter("serialize.payload_bytes") / c.calls("serialize.loads")
            if c.calls("serialize.loads") else 0.0
        ),
        "serialize.merge_ms": c.mean_ms("serialize.merge"),
        "sync.syncpull_ms": c.mean_ms("sync.syncpull"),
        "sync.restore_ms": c.mean_ms("sync.restore"),
        "sync.verify_ms": (
            c.total_ms("sync.verify") / c.calls("sync.sync_metric")
            if c.calls("sync.sync_metric") else 0.0
        ),
        "sync.installs": c.counter("sync.installs"),
        "sync.tail_records": c.counter("sync.tail_records"),
        "coordinator.spawn_s": (
            float(statistics.median(starts)) / 1e3 if starts else 0.0),
        "trace.uncovered_share": (
            sum(c.self_ms(k) for k in phase_spans) / phase_total
            if phase_total else 0.0
        ),
        "trace.overhead_share": (
            (_phase_times(bench) - plain_t) / plain_t if plain_t else 0.0),
    }
    return {name: (float(values[name]), unit)
            for name, (unit, _better) in PER_LAYER.items()}


def report(
    args: Any,
    tracer: Any,
    node_dumps: List[Dict[str, Any]],
    bench: Any,
    plain: Any,
    layer_values: Dict[str, Tuple[float, str]],
) -> Dict[str, Any]:
    """Everything a traced run writes: spans, self times, uncovered time,
    overhead and both passes' end-to-end figures."""
    client = tracer.to_dict(with_spans=True)
    phases = {
        k: {"total_ms": v["total_ms"], "uncovered_ms": v["self_ms"]}
        for k, v in client["agg"].items() if k.startswith("phase.")
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "per_layer": {k: {"value": v, "unit": u}
                      for k, (v, u) in layer_values.items()},
        "phases": phases,
        "end_to_end": {
            "untraced": plain.values,
            "traced": bench.values,
            "overhead": {
                k: (bench.values[k] / plain.values[k] - 1.0)
                if plain.values.get(k) else None
                for k in plain.values
            },
        },
        "phase_s": {"untraced": plain.phase_s, "traced": bench.phase_s},
        "client": client,
        "nodes": node_dumps,
    }
