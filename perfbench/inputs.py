"""Deterministic inputs of the three workloads.

Everything a workload sends is generated here from ``--seed`` before the
first node starts; the nodes only ever see the generated batches.  The
*shape* of each workload -- which metric every batch goes to, the batch
sizes, the event-time stamps -- depends only on the workload size, never
on the seed, so the durable sizes (journal and snapshot bytes) repeat
exactly from seed to seed.

The seed draws the values; the shape seed fixes their *order*.  Each
stream is a fresh log-normal sample (like request latencies in
milliseconds: heavily skewed, distinct float64 values), sorted and then
laid out along one fixed permutation.  Every engine the answers are
checked for (paper, KLL, windows) decides by rank alone, so the answers'
rank errors -- and ``rank_err`` -- repeat exactly from seed to seed,
while the values themselves differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

#: seed of the fixed workload shapes (fleet popularity and schedule)
SHAPE_SEED = 20260707

#: the quantiles every timed single-metric QUERY asks for
QUERY_PHIS = (0.5, 0.9, 0.99)

#: the quantiles of the untimed per-metric answer check after each phase
CHECK_PHIS = tuple(round(0.05 * i, 2) for i in range(1, 20)) + (0.99,)

#: quantiles tracked by the frugal engine (its bank fractions)
FRUGAL_PHIS = (0.5, 0.99)


class StepClock:
    """Event-time source for windowed metrics, handed to every node.

    Call *k* in a process returns ``t0 + k * step``.  The server calls
    its clock once per windowed INGEST, so on a node that receives a
    fixed sequence of windowed batches the stamps -- and with them the
    bucket placement -- repeat exactly from run to run.  Picklable, so
    it crosses into the spawned node processes.
    """

    def __init__(self, calls: int = 0, t0: float = 1_700_000_000.0,
                 step: float = 0.01) -> None:
        self.t0 = float(t0)
        self.step = float(step)
        #: calls made so far: a restarted node resumes where the killed
        #: one stopped
        self.calls = int(calls)

    def __call__(self) -> float:
        t = self.t0 + self.calls * self.step
        self.calls += 1
        return t


def _values(seed: int, key: int, shape: Tuple[int, ...]) -> np.ndarray:
    """A seed-drawn log-normal sample laid out in a fixed rank order.

    ``key`` names the group of streams, so every workload and group gets
    its own order and its own sample; the rows of one call keep a fixed
    order among each other too.
    """
    size = int(np.prod(shape))
    sample = np.random.default_rng([seed, key]).lognormal(3.0, 1.0, size)
    sample.sort()
    order = np.random.default_rng([SHAPE_SEED, key]).permutation(size)
    return sample[order].reshape(shape)


# -- firehose ---------------------------------------------------------------


@dataclass
class Firehose:
    """8 paper fixed-N metrics, 4096-value batches, round-robin."""

    units: int
    seed: int
    n_metrics: int = 8
    batch: int = 4096
    batches_per_unit: int = 40
    queries_per_unit: int = 2000
    fanins_per_unit: int = 20
    restarts: int = 5
    names: List[str] = field(init=False)
    values: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.names = [f"fh/m{i}" for i in range(self.n_metrics)]
        n = self.batches_per_unit * self.units * self.batch
        self.values = _values(self.seed, 1, (self.n_metrics, n))

    @property
    def per_metric(self) -> int:
        return int(self.values.shape[1])

    def batches(self, lo: int, hi: int):
        """``(name, values)`` covering elements ``lo..hi`` of every
        metric, round-robin over the metrics, in send order."""
        for off in range(lo, hi, self.batch):
            for m, name in enumerate(self.names):
                yield name, self.values[m, off : off + self.batch]


# -- fleet ------------------------------------------------------------------

FLEET_KINDS = ("paper", "paper", "kll", "frugal", "window")


@dataclass
class Fleet:
    """~2000 metrics of four kinds, Zipf popularity, 64-value batches.

    Metric *i* has kind ``FLEET_KINDS[i % 5]``: 40% paper fixed-N, 20%
    KLL, 20% frugal, 20% sliding windows (paper engine, 60 s window
    sliding by 15 s).  Popularity follows Zipf(1.1) over a fixed
    permutation of the metrics, so every kind has hot and cold members.
    One QUERY follows every ``query_every`` batches, on the metric the
    last batch went to; one fan-in over the ``fanin_group`` hottest
    paper metrics follows every ``fanin_every`` batches.
    """

    units: int
    seed: int
    n_metrics: int = 2000
    batch: int = 64
    batches_per_unit: int = 5000
    query_every: int = 50
    fanin_every: int = 250
    fanin_group: int = 16
    restarts: int = 5
    zipf_s: float = 1.1
    window_s: float = 60.0
    slide_s: float = 15.0
    names: List[str] = field(init=False)
    kinds: List[str] = field(init=False)
    schedule: np.ndarray = field(init=False)
    values: np.ndarray = field(init=False)
    group: List[int] = field(init=False)

    def __post_init__(self) -> None:
        self.names = [f"fl/{i:04d}" for i in range(self.n_metrics)]
        self.kinds = [FLEET_KINDS[i % 5] for i in range(self.n_metrics)]
        shape_rng = np.random.default_rng(SHAPE_SEED)
        order = shape_rng.permutation(self.n_metrics)
        weights = 1.0 / np.arange(1, self.n_metrics + 1) ** self.zipf_s
        weights /= weights.sum()
        n_batches = self.batches_per_unit * self.units
        ranks = shape_rng.choice(self.n_metrics, size=n_batches, p=weights)
        self.schedule = order[ranks]
        self.values = _values(self.seed, 2, (n_batches, self.batch))
        counts = self.counts()
        hot = np.argsort(-counts, kind="stable")
        self.group = [int(i) for i in hot if self.kinds[i] == "paper"][
            : self.fanin_group
        ]

    def counts(self) -> np.ndarray:
        return np.bincount(self.schedule, minlength=self.n_metrics) * self.batch

    @property
    def design_n(self) -> int:
        """Declared stream length of every paper metric: the largest
        paper metric's count (one common N gives one common buffer size
        k, which the §4.9 fan-in needs)."""
        counts = self.counts()
        return max(int(counts[i]) for i in range(self.n_metrics)
                   if self.kinds[i] == "paper")

    def stream(self, i: int) -> np.ndarray:
        return self.values[self.schedule == i].ravel()

    def window_stamps(self) -> Dict[int, List[Tuple[float, int]]]:
        """``metric -> [(event time, batch index)]`` of windowed batches.

        The node's :class:`StepClock` is called once per windowed INGEST
        in arrival order; replaying that order here gives every stamp.
        """
        clock = StepClock()
        out: Dict[int, List[Tuple[float, int]]] = {}
        for b, i in enumerate(self.schedule):
            if self.kinds[i] == "window":
                out.setdefault(int(i), []).append((clock(), b))
        return out


# -- fanin ------------------------------------------------------------------


@dataclass
class Fanin:
    """2 nodes, R=2: a paper group, a KLL group, a late adaptive group.

    ``cycles`` times: ``segments`` live ingest segments of
    ``live_batches`` batches per metric, each followed by
    ``segment_rounds`` read rounds; then one node is killed, every metric
    receives ``down_batches`` more batches, and the node is restarted and
    resynced, followed by ``cycle_rounds`` read rounds.  A read round is
    ``queries_per_round`` QUERYs on the paper group and one fan-in per
    group.  Afterwards the adaptive metrics receive ``adaptive_batches``
    batches each and ``adaptive_fanins`` fan-ins over them are attempted.
    """

    units: int
    seed: int
    group_size: int = 8
    adaptive_size: int = 4
    batch: int = 4096
    cycles: int = 5
    live_batches: int = 4
    down_batches: int = 2
    segment_rounds: int = 5
    cycle_rounds: int = 10
    queries_per_round: int = 200
    adaptive_batches: int = 10
    adaptive_fanins: int = 100
    paper: List[str] = field(init=False)
    kll: List[str] = field(init=False)
    adaptive: List[str] = field(init=False)
    values: Dict[str, np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        self.paper = [f"fan/p{i}" for i in range(self.group_size)]
        self.kll = [f"fan/k{i}" for i in range(self.group_size)]
        self.adaptive = [f"fan/a{i}" for i in range(self.adaptive_size)]
        # one sample per group, so the order *across* a group's streams
        # (what a fan-in merges) is fixed too
        self.values = {}
        for key, names, n in (
            (3, self.paper + self.kll, self.per_metric),
            (4, self.adaptive, self.adaptive_batches * self.batch),
        ):
            rows = _values(self.seed, key, (len(names), n))
            self.values.update(zip(names, rows))

    @property
    def segments(self) -> int:
        """Live ingest segments per cycle (``units`` spread over cycles)."""
        return max(1, self.units // self.cycles)

    @property
    def per_metric(self) -> int:
        per_cycle = self.segments * self.live_batches + self.down_batches
        return self.cycles * per_cycle * self.batch

    def phase(self, names: List[str], start: int, n_batches: int):
        """Round-robin ``(name, values)`` of batches ``start..`` of each."""
        for b in range(start, start + n_batches):
            lo = b * self.batch
            for name in names:
                yield name, self.values[name][lo : lo + self.batch]
