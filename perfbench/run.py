"""Run one workload of the quantile-service benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload firehose --seed 1 --seconds 10 --trace 0

Starts real node processes, drives the workload, checks every answer
against an exact numpy reference and prints, as the last line of
standard output, one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice with the same seed -- untraced, then traced -- reports the
per-layer metrics and writes the spans, per-layer self times, the
uncovered time and the tracing overhead to ``perfbench/out/``.
``--small`` shrinks every workload to a few seconds (the benchmark's
own tests use it).  A line ``run-record: {...}`` before the result gives
the run's environment and counts.  Any failed check exits non-zero
without printing a result.

Spawned node processes re-import this file as ``__mp_main__``; in a
traced run that is where their spans are installed (see the bottom).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _p in (os.path.join(ROOT, "src"), ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from perfbench.tracing import TRACE_DIR_ENV  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ingest_elems_per_s": "elem/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "fanin_p50_ms": "ms",
    "recovery_s": "s",
    "state_bytes": "bytes",
    "journal_bytes_per_elem": "bytes/elem",
    "node_peak_rss_mb": "MB",
    "rank_err": "fraction",
}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("firehose", "fleet", "fanin"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10,
                    help="work units of about one second each (default 10)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="one unit of every workload, fewer fleet metrics")
    return ap.parse_args(argv)


def _run_once(args: argparse.Namespace, data_root: str,
              tracer: Any = None, trace_dir: Optional[str] = None):
    from perfbench import workloads

    units = 1 if args.small else max(1, args.seconds)
    bench = workloads.Bench(
        args.workload, args.seed, units, data_root, small=args.small,
        tracer=tracer,
    )
    if trace_dir is not None:
        os.environ[TRACE_DIR_ENV] = trace_dir
    try:
        workloads.WORKLOADS[args.workload](bench)
    finally:
        os.environ.pop(TRACE_DIR_ENV, None)
        bench.close()
    bench.values["node_peak_rss_mb"] = bench.peak_rss_kb / 1024.0
    bench.values["rank_err"] = bench.ref.max_rank_err
    return bench


def _run_record(args: argparse.Namespace, bench: Any,
                start: Dict[str, Any], extra: Dict[str, Any]
                ) -> Dict[str, Any]:
    import numpy as np

    from repro.obs import hooks as obs_hooks

    nodes_obs: Dict[str, bool] = {}
    for stats in bench.node_stats:
        nodes_obs[stats["_node"]] = bool(stats["obs"]["enabled"])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "units": bench.units,
        "small": args.small,
        "trace": args.trace,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "round_trip_cpus": bench.round_trip_cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fsync": "flush (fsync=False)",
        **start,
        "obs_enabled": {"client": obs_hooks.is_enabled(), **nodes_obs},
        "phase_s": {k: round(v, 4) for k, v in bench.phase_s.items()},
        "answers_checked": bench.ref.checked,
        **bench.extra,
        **extra,
    }


def _emit(correct: bool, attempted: int, failed: int,
          metrics: Dict[str, Any]) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def _stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait for each to end.

    The workloads stop their node processes; any still alive on a path
    out through an error is killed here.  Spawning the nodes also starts
    multiprocessing's resource-tracker process, which left alone outlives
    this process for a moment, until it notices the closed pipe; closing
    our end of the pipe once no node holds it ends it."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    tracker = resource_tracker._resource_tracker
    pid, fd = tracker._pid, tracker._fd
    if pid is None:
        return
    tracker._pid = tracker._fd = None
    if fd is not None:
        os.close(fd)
    deadline = time.monotonic() + timeout
    while os.waitpid(pid, os.WNOHANG)[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def _terminate(signum: int, frame: Any) -> None:
    # unwind through the finally blocks, which stop every node process
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    from perfbench.reference import CheckFailed

    start = {
        "effective_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }
    data_root = os.path.join(
        HERE, ".run", f"{args.workload}-{os.getpid()}"
    )
    shutil.rmtree(data_root, ignore_errors=True)
    os.makedirs(data_root)
    try:
        if args.trace:
            result = _traced(args, data_root, start)
        else:
            bench = _run_once(args, data_root)
            print("run-record: " + json.dumps(
                _run_record(args, bench, start, {})))
            result = (bench.attempted, bench.failed, {
                name: {"value": bench.values[name], "unit": unit}
                for name, unit in END_TO_END.items()
            })
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        _stop_children()
        shutil.rmtree(data_root, ignore_errors=True)
    _emit(True, *result)
    return 0


def _traced(args: argparse.Namespace, data_root: str,
            start: Dict[str, Any]):
    from perfbench import layers, tracing

    plain = _run_once(args, os.path.join(data_root, "plain"))
    tracer = tracing.Tracer(role="client")
    tracing.install_client(tracer)
    trace_dir = os.path.join(data_root, "trace")
    os.makedirs(trace_dir)
    bench = _run_once(args, os.path.join(data_root, "traced"), tracer,
                      trace_dir)
    nodes = layers.read_node_dumps(trace_dir)
    per_layer = layers.per_layer(tracer, nodes, bench, plain)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    report = layers.report(args, tracer, nodes, bench, plain, per_layer)
    with open(path, "w") as fh:
        json.dump(report, fh)
    print("run-record: " + json.dumps(_run_record(
        args, bench, start, {"trace_file": os.path.relpath(path, ROOT)})))
    if bench.attempted != plain.attempted or bench.failed != plain.failed:
        raise RuntimeError("traced and untraced passes ran different work")
    return bench.attempted, bench.failed, {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in per_layer.items()
    }


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__" and os.environ.get(TRACE_DIR_ENV):
    # a node process of a traced run (spawn re-imports the main script)
    from perfbench.tracing import install_node

    install_node(os.environ[TRACE_DIR_ENV])
