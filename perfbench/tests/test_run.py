"""The benchmark command end to end, in its small-size mode.

Each test starts real node processes; together they take about half a
minute on two CPUs.  Run with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")

sys.path.insert(0, ROOT)

from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("run-record: ")
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["firehose", "fleet", "fanin"])
def test_small_run_checks_and_reports_every_metric(workload):
    res = _result(_run("--workload", workload, "--seed", "3", "--seconds",
                       "10", "--trace", "0", "--small"))
    assert res["correct"] is True
    assert set(res["metrics"]) == set(END_TO_END)
    for name, metric in res["metrics"].items():
        assert metric["unit"] == END_TO_END[name]
        assert metric["value"] > 0, name
    assert res["attempted"] > 0
    if workload == "fanin":
        # the adaptive fan-ins (10 in the small mode), all refused
        assert res["failed"] == 10
    else:
        assert res["failed"] == 0


def test_other_seed_same_sizes_and_rank_errors():
    a = _result(_run("--workload", "fleet", "--seed", "5", "--small"))
    b = _result(_run("--workload", "fleet", "--seed", "6", "--small"))
    for name in ("state_bytes", "journal_bytes_per_elem", "rank_err"):
        assert a["metrics"][name] == b["metrics"][name]
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])


def test_traced_small_run_reports_every_layer():
    res = _result(_run("--workload", "fanin", "--seed", "3", "--trace", "1",
                       "--small"))
    assert set(res["metrics"]) == set(PER_LAYER)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    # layers this workload runs
    for name in ("client.ingest_call_us", "cluster_client.fetch_leg_ms",
                 "registry.apply_ms", "journal.append_us_per_record",
                 "paper.ns_per_elem", "kll.ns_per_elem", "sync.syncpull_ms",
                 "journal.scans_during_resync", "coordinator.spawn_s"):
        assert m[name] > 0, name
    # two replicas per batch, one while node-1 is down
    assert 1.0 < m["cluster_client.replica_writes_per_batch"] < 2.0
    assert 0 < m["trace.uncovered_share"] < 1
    trace = os.path.join(ROOT, "perfbench", "out", "trace-fanin-seed3.json")
    with open(trace) as fh:
        report = json.load(fh)
    assert report["client"]["spans"]
    assert report["nodes"]
    assert set(report["end_to_end"]["overhead"]) == set(END_TO_END)


def test_fails_without_the_program(tmp_path):
    """Only the benchmark's own files: exit non-zero, print no result."""
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".run", "out",
                                                  "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "firehose", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout



def _sleep() -> None:
    import time
    time.sleep(60)


def test_stop_children_ends_nodes_and_resource_tracker():
    """What run.py does on every path out: a node still alive is killed,
    and the resource tracker that spawning it started has ended."""
    import multiprocessing
    from multiprocessing import resource_tracker

    from perfbench.run import _stop_children

    proc = multiprocessing.get_context("spawn").Process(target=_sleep)
    proc.start()
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None
    _stop_children()
    assert not proc.is_alive()
    with pytest.raises(ChildProcessError):
        os.waitpid(tracker, os.WNOHANG)  # already reaped
