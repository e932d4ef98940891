"""The three workloads: firehose, fleet and fanin.

Each workload starts real node processes through
:class:`repro.cluster.ClusterCoordinator`, talks to them only through the
coordinator's :class:`~repro.cluster.client.ClusterClient`, and runs a
fixed sequence of operations whose size is set by ``units`` (one unit is
about one second of steady work on a 2-CPU machine).  The loop is
closed: ingest is pipelined with ``ingest_nowait`` up to the client's
unacked window, every read waits for its reply.  No timer runs inside
the nodes (no snapshot timer, no WATCH scheduler); snapshots are taken
by explicit SNAPSHOT requests at fixed points, and windowed metrics are
stamped by a :class:`~perfbench.inputs.StepClock` handed to every node.

The machines this runs on are shared, and their speed drifts over
seconds.  So every timed phase is cut into many short segments spread
over the run -- ingest segments each ending in a DRAIN, read blocks
between them, several kill/restart cycles -- and every figure is a
median over them, which a slow second moves little.

Every answer is kept with the stream position it saw and checked after
the timed phases against the exact numpy reference
(:mod:`perfbench.reference`).
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import ClusterCoordinator
from repro.core.engines import loads_any
from repro.core.errors import ConfigurationError

from . import inputs
from .inputs import CHECK_PHIS, FRUGAL_PHIS, QUERY_PHIS, StepClock
from .reference import CheckFailed, Reference, check_identical, live_window

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3

EPS = 0.01

#: stream function of a workload: (metric name, stream position) -> the
#: exact values a read at that position must reflect
StreamFn = Callable[[str, int], np.ndarray]


def _median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs))


def _pct(xs: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(xs), q))


#: consecutive blocks a run's latency samples are cut into
BLOCKS = 8


def _best_block(xs: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of the quickest of :data:`BLOCKS`
    consecutive blocks of ``xs``.  A busy neighbour on the shared
    machine only ever slows a block down, so the quickest block is the
    one it disturbed least: on a noisy VM the quartile spread of the
    median over five seeds fell from 0.24 (whole run) to 0.07."""
    size = max(1, len(xs) // BLOCKS)
    return min(_pct(xs[i:i + size], q)
               for i in range(0, len(xs) - size + 1, size))


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def _node_pids() -> List[int]:
    """Pids of this process's spawned node children."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            if ppid != me:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmd = fh.read()
        except (OSError, ValueError, IndexError):
            continue
        if b"spawn_main" in cmd:
            pids.append(int(entry))
    return pids


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Bench:
    """State of one run: timings, counts, answers and the live cluster."""

    def __init__(
        self,
        workload: str,
        seed: int,
        units: int,
        data_root: str,
        *,
        small: bool = False,
        tracer: Any = None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.units = units
        self.small = small
        self.data_root = data_root
        self.tracer = tracer
        self.ref = Reference()
        self.attempted = 0
        self.failed = 0
        self.values: Dict[str, float] = {}
        #: wall time of each timed phase (summed over its segments)
        self.phase_s: Dict[str, float] = {}
        #: figures reported in the run record only
        self.extra: Dict[str, float] = {}
        self.node_stats: List[Dict[str, Any]] = []
        self.peak_rss_kb = 0
        self.coord: Optional[ClusterCoordinator] = None
        self.client: Any = None
        self.data_dir = ""
        #: (names, phis, values, bound, n, position, label)
        self.answers: List[tuple] = []
        #: (name, values, position) of uncertified (frugal) answers
        self.estimates: List[tuple] = []
        self.ingest_rates: List[float] = []
        self.query_lat: List[float] = []
        self.fanin_lat: List[float] = []
        self.recoveries: List[float] = []
        #: the CPUs that blocks of round trips take turns on (one_cpu)
        cpus = sorted(os.sched_getaffinity(0))
        self.round_trip_cpus: List[int] = cpus if len(cpus) > 1 else []
        self._round_trip_blocks = 0

    # -- cluster lifecycle -------------------------------------------------

    def setup(
        self, nodes: int, replication: int, create: Callable[[Any], None]
    ) -> None:
        """Start the cluster and create every metric, ``SETUPS`` times.

        Each set-up runs on a fresh data directory; all but the last are
        torn down again.  ``setup_s`` is their median.
        """
        times = []
        for i in range(SETUPS):
            data_dir = os.path.join(self.data_root, f"cluster{i}")
            ph = self.begin("phase.setup")
            t0 = time.perf_counter()
            coord = ClusterCoordinator(
                nodes=nodes,
                replication=replication,
                data_dir=data_dir,
                snapshot_interval_s=None,
                watch_interval_s=None,
                clock=StepClock(),
                fsync=False,
            )
            self.coord = coord
            coord.start()
            self.client = coord.client()
            with self.one_cpu():  # CREATEs are round trips too
                create(self.client)
            times.append(time.perf_counter() - t0)
            self.end(ph)
            if i < SETUPS - 1:
                self.collect_rss()
                self.close()
                shutil.rmtree(data_dir, ignore_errors=True)
        self.data_dir = data_dir
        self.collect_stats("start")
        self.values["setup_s"] = _median(times)
        self.phase_s["setup"] = sum(times)

    def nodes_bytes(self) -> int:
        """Bytes under every node's data directory."""
        assert self.coord is not None
        return sum(_dir_bytes(os.path.join(self.data_dir, n))
                   for n in self.coord.node_ids)

    @contextlib.contextmanager
    def one_cpu(self):
        """Run the client and every node on one CPU for a block of
        round trips.  A round trip runs one process at a time, so it
        loses nothing, and another process on the machine then takes the
        other CPU instead of preempting the round trip: with a bursty
        competitor, QUERY p99s were 0.5-1.0 ms on one CPU against
        1.6-2.0 ms with the client and the node on two.  Successive
        blocks take turns on the CPUs, because one CPU can run a quarter
        slower than the other for a while."""
        if not self.round_trip_cpus:
            yield
            return
        cpus = self.round_trip_cpus
        cpu = cpus[self._round_trip_blocks % len(cpus)]
        self._round_trip_blocks += 1
        pids = [0] + _node_pids()
        before = {pid: os.sched_getaffinity(pid) for pid in pids}
        for pid in pids:
            os.sched_setaffinity(pid, {cpu})
        try:
            yield
        finally:
            for pid, cpus in before.items():
                try:
                    os.sched_setaffinity(pid, cpus)
                except ProcessLookupError:  # pragma: no cover - died
                    pass

    def collect_rss(self) -> None:
        for pid in _node_pids():
            self.peak_rss_kb = max(self.peak_rss_kb, _peak_rss_kb(pid))

    def collect_stats(self, label: str) -> None:
        """STATS of every live node (in traced runs each node also
        writes its spans when it answers).  Every node process answers
        one labelled ``start`` once it serves, so the per-layer counts
        can leave out its start-up replay."""
        self.collect_rss()
        for node_id in sorted(self.client.live_nodes):
            stats = self.client.node_client(node_id).stats()
            stats["_label"] = label
            stats["_node"] = node_id
            self.node_stats.append(stats)

    def close(self) -> None:
        try:
            if self.client is not None:
                self.client.close()
        finally:
            self.client = None
            if self.coord is not None:
                self.coord.stop(graceful=False)
                self.coord = None

    # -- trace phases ------------------------------------------------------

    def begin(self, name: str) -> Any:
        """Open a root span (traced runs): its self time is the part of
        the phase that no layer span covers."""
        return self.tracer.begin(name) if self.tracer is not None else None

    def end(self, frame: Any) -> None:
        if frame is not None:
            self.tracer.end(frame)

    def add_phase(self, name: str, seconds: float) -> None:
        self.phase_s[name] = self.phase_s.get(name, 0.0) + seconds

    # -- timed operations --------------------------------------------------

    def ingest_segment(self, batches: Any) -> int:
        """Send ``(name, values)`` batches pipelined, then DRAIN; one
        ingest rate sample.  Returns the elements sent."""
        ph = self.begin("phase.ingest")
        t0 = time.perf_counter()
        sent = 0
        for name, vals in batches:
            self.client.ingest_nowait(name, vals)
            sent += vals.size
            self.attempted += 1
        self.client.flush()
        self.client.drain()
        dt = time.perf_counter() - t0
        self.end(ph)
        self.add_phase("ingest", dt)
        self.ingest_rates.append(sent / dt)
        return sent

    def query(self, name: str, position: int, *,
              frugal: bool = False) -> None:
        t0 = time.perf_counter()
        values, bound, n = self.client.query(name, QUERY_PHIS)
        self.query_lat.append(time.perf_counter() - t0)
        self.attempted += 1
        if frugal:
            self.estimates.append((name, tuple(values), position))
        else:
            self.answers.append(((name,), QUERY_PHIS, tuple(values),
                                 float(bound), int(n), position, "QUERY"))

    def fanin(self, names: Sequence[str], position: int,
              lat: Optional[List[float]] = None) -> None:
        t0 = time.perf_counter()
        values, bound, n = self.client.query_merged(names, QUERY_PHIS)
        (self.fanin_lat if lat is None else lat).append(
            time.perf_counter() - t0)
        self.attempted += 1
        self.answers.append((tuple(names), QUERY_PHIS, tuple(values),
                             float(bound), int(n), position, "fan-in"))

    def read_block(self, queries: Sequence[Callable[[], None]],
                   fanins: Sequence[Callable[[], None]]) -> None:
        """QUERYs, then fan-ins, all on one CPU (a fan-in is a sequence
        of FETCH round trips and a merge in the client).  QUERYs go first
        because one right behind a fan-in takes about 1.6 times as long:
        at one fan-in per 50 QUERYs the p99 sat on exactly those."""
        ph = self.begin("phase.read")
        t0 = time.perf_counter()
        with self.one_cpu():
            for read in [*queries, *fanins]:
                read()
        self.add_phase("read", time.perf_counter() - t0)
        self.end(ph)

    def kill(self, node_id: str) -> None:
        """SIGKILL one node's process, after a last STATS of every node
        (which also reads their peak RSS)."""
        assert self.coord is not None
        self.collect_stats("kill")
        self.coord.kill_node(node_id)

    def restart(self, node_id: str, *, resync: bool) -> None:
        """Restart a killed node; one recovery sample.

        ``resync=False`` (single-node workloads: there is no donor) times
        until the node answers from its own journal and snapshot, and
        routes to it again by hand; ``resync=True`` times until the node
        is ``up`` after its resync.
        """
        assert self.coord is not None
        if self.client is not None:
            self.client.close()
            self.client = None
        ph = self.begin("phase.recovery")
        t0 = time.perf_counter()
        self.coord.restart_node(node_id, resync=resync)
        self.client = self.coord.client()
        if not resync:
            self.client.mark_up(node_id)
            self.client.node_client(node_id).ping()
        elapsed = time.perf_counter() - t0
        self.end(ph)
        self.add_phase("recovery", elapsed)
        self.recoveries.append(elapsed)
        self.collect_stats("start")

    def snapshot(self) -> int:
        """Explicit SNAPSHOT on every node; returns the node directories'
        bytes afterwards (snapshots + rotated journals)."""
        for node_id in sorted(self.client.live_nodes):
            self.client.node_client(node_id).snapshot()
        return self.nodes_bytes()

    # -- checks ------------------------------------------------------------

    def check_answers(self, stream: StreamFn) -> None:
        """Check every kept answer against the stream prefixes it saw."""
        seen = set()
        for names, phis, values, bound, n, pos, label in self.answers:
            key = (names, values, bound, n, pos)
            if key in seen:
                continue
            seen.add(key)
            self.ref.check_prefix(
                [stream(nm, pos) for nm in names], phis, values, bound, n,
                f"{names[0]}{'+' if len(names) > 1 else ''} {label} "
                f"at position {pos}")
        for name, values, pos in self.estimates:
            self.ref.check_prefix_range(
                stream(name, pos), values, f"{name} frugal at {pos}")
        self.answers = []
        self.estimates = []

    def check_counts(self, names: Sequence[str], where: str,
                     want: Callable[[str], int]) -> None:
        """LIST on every live node: each of *names* holds ``want(name)``
        elements -- every element sent, exactly once."""
        for node_id in sorted(self.client.live_nodes):
            listed = self.client.node_client(node_id).list_metrics()
            reported = {m["name"]: int(m["n"]) for m in listed}
            for name in names:
                if reported.get(name) != want(name):
                    raise CheckFailed(
                        f"{name} ({where}, {node_id}): n="
                        f"{reported.get(name)}, but {want(name)} elements "
                        f"were sent (each exactly once)"
                    )

    def fetch_all(self, names: Sequence[str]) -> Dict[str, bytes]:
        return {name: self.client.fetch_raw(name) for name in names}

    def check_fetch_equal(self, before: Dict[str, bytes],
                          where: str) -> None:
        """After a restart, FETCH returns the bytes fetched before it."""
        after = self.fetch_all(list(before))
        for name, payload in before.items():
            check_identical(name, [payload, after[name]], f" ({where})")

    def check_final(self, names: Sequence[str], where: str) -> None:
        """Untimed: every metric answers a 20-quantile QUERY within its
        certified bound over its whole reference stream."""
        for name in names:
            values, bound, n = self.client.query(name, CHECK_PHIS)
            self.ref.check_certified([name], CHECK_PHIS, values, bound, n,
                                     f" ({where})")

    def finish(self) -> None:
        # the fastest segment, for the same reason as _best_block
        self.values["ingest_elems_per_s"] = max(self.ingest_rates)
        self.values["query_p50_ms"] = _best_block(self.query_lat, 50) * 1e3
        self.values["query_p90_ms"] = _pct(self.query_lat, 90) * 1e3
        self.values["fanin_p50_ms"] = _best_block(self.fanin_lat, 50) * 1e3
        self.extra["ingest_median_elems_per_s"] = _median(self.ingest_rates)
        self.extra["query_median_ms"] = _median(self.query_lat) * 1e3
        self.extra["query_p99_ms"] = _pct(self.query_lat, 99) * 1e3
        self.values["recovery_s"] = _median(self.recoveries)
        self.extra["query_samples"] = len(self.query_lat)
        self.extra["fanin_samples"] = len(self.fanin_lat)
        self.extra["ingest_segments"] = len(self.ingest_rates)
        self.extra["recovery_samples"] = len(self.recoveries)


# -- firehose -----------------------------------------------------------------


def firehose(b: Bench) -> None:
    """1 node, 8 paper fixed-N metrics, 4096-value batches, journaled.

    ``units`` rounds of: one ingest segment ending in DRAIN, then a read
    block of QUERYs and fan-ins over all 8 metrics.  Then ``restarts``
    times: SIGKILL and a restart that replays the whole journal (every
    restart replays the same journal, so their median is a median of
    like samples).  At the end one SNAPSHOT and one more restart, which
    reads the snapshot.
    """
    inp = inputs.Firehose(units=b.units, seed=b.seed)
    names = inp.names
    for i, name in enumerate(names):
        b.ref.add(name, inp.values[i])

    def create(client: Any) -> None:
        for name in names:
            client.create(name, eps=EPS, n=inp.per_metric)

    b.setup(1, 1, create)

    per_round = inp.per_metric // b.units
    sent = 0
    for r in range(b.units):
        hi = (r + 1) * per_round
        sent += b.ingest_segment(inp.batches(r * per_round, hi))
        b.read_block(
            [lambda nm=names[j % len(names)], p=hi: b.query(nm, p)
             for j in range(inp.queries_per_unit)],
            [lambda p=hi: b.fanin(names, p)] * inp.fanins_per_unit,
        )
    b.values["journal_bytes_per_elem"] = b.nodes_bytes() / sent

    before = b.fetch_all(names)
    for i in range(inp.restarts):
        b.kill("node-0")
        b.restart("node-0", resync=False)
        b.check_fetch_equal(before, f"journal restart {i + 1}")
        b.check_counts(names, f"journal restart {i + 1}", b.ref.count)
    b.check_answers(lambda nm, pos: inp.values[names.index(nm), :pos])
    b.check_final(names, "after ingest")

    b.values["state_bytes"] = float(b.snapshot())
    before = b.fetch_all(names)
    b.kill("node-0")
    b.restart("node-0", resync=False)
    b.recoveries.pop()  # a snapshot restart, not a journal replay
    b.check_fetch_equal(before, "snapshot restart")
    b.check_final(names, "after snapshot restart")
    b.collect_stats("end")
    b.finish()


# -- fleet --------------------------------------------------------------------


def fleet(b: Bench) -> None:
    """1 node, ~2000 metrics of four kinds, Zipf popularity, 64-value
    batches, with QUERYs and fan-ins waiting behind the writes.

    The batches go out in ``units`` segments, each ending in a DRAIN.
    After every even segment the node takes a SNAPSHOT; after every odd
    one it is SIGKILLed and restarted, so each restart reads a snapshot
    and replays one segment of journal.
    """
    if b.small:
        inp = inputs.Fleet(units=b.units, seed=b.seed, n_metrics=200,
                           batches_per_unit=1000, fanin_group=4)
    else:
        inp = inputs.Fleet(units=b.units, seed=b.seed)
    counts = inp.counts()
    stamps = inp.window_stamps()
    n_buckets = int(round(inp.window_s / inp.slide_s))
    index = {name: i for i, name in enumerate(inp.names)}
    windowed = np.cumsum([inp.kinds[i] == "window" for i in inp.schedule])

    def stream(name: str, k: int) -> np.ndarray:
        """Values of *name* a read right after batch *k* must see."""
        i = index[name]
        if inp.kinds[i] == "window":
            seen = [(t, b_) for t, b_ in stamps.get(i, []) if b_ <= k]
            live = live_window(seen, inp.slide_s, n_buckets)
            return inp.values[live].ravel()
        return inp.values[np.flatnonzero(inp.schedule[: k + 1] == i)].ravel()

    last = len(inp.schedule) - 1
    written = [inp.names[i] for i in range(inp.n_metrics) if counts[i]]
    for name in written:
        b.ref.add(name, stream(name, last))
    group = [inp.names[i] for i in inp.group]

    def create(client: Any) -> None:
        for i, name in enumerate(inp.names):
            kind = inp.kinds[i]
            if kind == "paper":
                client.create(name, eps=EPS, n=inp.design_n)
            elif kind == "window":
                client.create(name, eps=EPS, window=inp.window_s,
                              slide=inp.slide_s)
            else:
                client.create(name, eps=EPS, engine=kind)

    b.setup(1, 1, create)

    per_seg = len(inp.schedule) // b.units
    journal_bytes = 0
    base = 0  # node directory bytes after the last snapshot
    for s in range(b.units):
        ph = b.begin("phase.ingest")
        t0 = time.perf_counter()
        for k in range(s * per_seg, (s + 1) * per_seg):
            i = int(inp.schedule[k])
            name = inp.names[i]
            b.client.ingest_nowait(name, inp.values[k])
            b.attempted += 1
            if k % inp.query_every == inp.query_every - 1:
                b.query(name, k, frugal=inp.kinds[i] == "frugal")
            if k % inp.fanin_every == inp.fanin_every - 1:
                b.fanin(group, k)
        b.client.flush()
        b.client.drain()
        dt = time.perf_counter() - t0
        b.end(ph)
        b.add_phase("ingest", dt)
        b.ingest_rates.append(per_seg * inp.batch / dt)
        k_end = (s + 1) * per_seg - 1
        if s % 2 == 0 and s != b.units - 1:
            # journal bytes appended since the previous snapshot
            journal_bytes += b.nodes_bytes() - base
            base = b.snapshot()
            continue
        if s == b.units - 1:
            journal_bytes += b.nodes_bytes() - base
            b.values["journal_bytes_per_elem"] = (
                journal_bytes / ((k_end + 1) * inp.batch))
        sent_to = set(inp.schedule[: k_end + 1].tolist())
        seen = [n for n in written if index[n] in sent_to]
        before = b.fetch_all(seen)
        b.kill("node-0")
        # the restarted node's clock resumes after the windowed batches
        # the killed one stamped
        b.coord.service_kwargs["clock"] = StepClock(int(windowed[k_end]))
        b.restart("node-0", resync=False)
        b.check_fetch_equal(before, f"restart after segment {s}")
        b.check_counts(seen, f"restart after segment {s}",
                       lambda nm, k=k_end: stream(nm, k).size)
    b.check_answers(stream)
    # live buckets over every windowed metric, from the final payloads
    b.extra["windows_live_buckets"] = sum(
        len(loads_any(before[n])._live()) for n in written
        if inp.kinds[index[n]] == "window")

    certified = [n for n in written if inp.kinds[index[n]] != "frugal"]
    frugal = [n for n in written if inp.kinds[index[n]] == "frugal"]
    b.check_final(certified, "after ingest")
    for name in frugal:
        b.ref.check_within_range(
            name, b.client.query(name, FRUGAL_PHIS)[0], " (after ingest)")
    values, bound, n = b.client.query_merged(group, CHECK_PHIS)
    b.ref.check_certified(group, CHECK_PHIS, values, bound, n,
                          " (fan-in after ingest)")
    b.values["state_bytes"] = float(b.snapshot())
    b.collect_stats("end")
    b.finish()


# -- fanin --------------------------------------------------------------------


def fanin(b: Bench) -> None:
    """2 nodes, R=2, through the cluster client: a paper group and a KLL
    group, 4096-value replicated batches.

    ``cycles`` times: live ingest segments (both nodes up), each followed
    by read rounds; then kill node-1, keep writing to node-0, restart
    node-1 with its resync (timed until it is ``up``), check the
    replicas, read.  Then an adaptive group is created and filled, and a
    block of adaptive fan-ins runs, each of which fails.
    """
    if b.small:
        inp = inputs.Fanin(units=b.units, seed=b.seed, cycles=2,
                           queries_per_round=10, adaptive_fanins=10)
    else:
        inp = inputs.Fanin(units=b.units, seed=b.seed)
    groups = inp.paper + inp.kll
    for name in groups + inp.adaptive:
        b.ref.add(name, inp.values[name])

    def create(client: Any) -> None:
        for name in inp.paper:
            client.create(name, eps=EPS, n=inp.per_metric)
        for name in inp.kll:
            client.create(name, eps=EPS, engine="kll")

    b.setup(2, 2, create)
    victim = "node-1"
    kll_lat: List[float] = []

    def rounds(n_rounds: int, pos: int) -> None:
        """Read rounds: QUERYs on the paper group, one fan-in per group."""
        fanins: List[Callable[[], None]] = []
        for _ in range(n_rounds):
            fanins.append(lambda: b.fanin(inp.paper, pos))
            fanins.append(lambda: b.fanin(inp.kll, pos, kll_lat))
        b.read_block(
            [lambda nm=inp.paper[j % len(inp.paper)]: b.query(nm, pos)
             for j in range(n_rounds * inp.queries_per_round)],
            fanins,
        )

    pos = 0  # batches sent per metric
    for c in range(inp.cycles):
        for _ in range(inp.segments):
            b.ingest_segment(inp.phase(groups, pos, inp.live_batches))
            pos += inp.live_batches
            rounds(inp.segment_rounds, pos * inp.batch)
        if c == 0:
            b.values["journal_bytes_per_elem"] = (
                b.nodes_bytes() / (pos * inp.batch * len(groups)))
        b.kill(victim)
        # the survivor keeps taking writes while the victim is down
        b.coord.poll()
        b.client.mark_down(victim)
        for name, vals in inp.phase(groups, pos, inp.down_batches):
            b.client.ingest_nowait(name, vals)
            b.attempted += 1
        pos += inp.down_batches
        b.client.flush()
        b.client.drain()
        b.restart(victim, resync=True)
        for name in groups:
            payloads = [p for _, p in b.client.fetch_replicas(name)]
            check_identical(name, payloads, f" (replicas, resync {c + 1})")
        sent = pos * inp.batch
        b.check_counts(groups, f"resync {c + 1}", lambda _nm: sent)
        rounds(inp.cycle_rounds, sent)
    b.check_answers(lambda nm, p: inp.values[nm][:p])

    # the adaptive group exists only after the last resync: a node that
    # holds an adaptive replica cannot be resynced (no exchange format)
    for name in inp.adaptive:
        b.client.create(name, eps=EPS, kind="adaptive")
    for name, vals in inp.phase(inp.adaptive, 0, inp.adaptive_batches):
        b.client.ingest_nowait(name, vals)
        b.attempted += 1
    b.client.flush()
    b.client.drain()
    for _ in range(inp.adaptive_fanins):
        b.attempted += 1
        try:
            b.client.query_merged(inp.adaptive, QUERY_PHIS)
        except ConfigurationError:
            b.failed += 1
        else:
            raise CheckFailed(
                "an adaptive fan-in answered: the fault the benchmark "
                "counts as known is gone -- update the README and the count"
            )
    b.check_final(groups + inp.adaptive, "after resync")
    b.values["state_bytes"] = float(b.snapshot())
    b.collect_stats("end")
    b.extra["fanin_kll_p50_ms"] = _median(kll_lat) * 1e3
    b.finish()


WORKLOADS: Dict[str, Callable[[Bench], None]] = {
    "firehose": firehose,
    "fleet": fleet,
    "fanin": fanin,
}
