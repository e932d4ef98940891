"""The exact reference the benchmark checks every answer against.

Built with numpy from the generated inputs alone -- nothing here imports
``repro`` -- so a fault in the program cannot also hide in its checker.
Each check raises :class:`CheckFailed` with a message naming the metric;
the benchmark turns the first one into a non-zero exit.

Rank convention: a returned value ``v`` occupies every rank in
``[#(x < v), #(x <= v)]`` of the exact sorted stream; its error for the
fraction ``phi`` is the distance from ``phi * n`` to that interval (0 when
the interval contains it).  A certified engine must keep that error at or
below the bound the node returned, plus one element for the rounding of
``phi * n``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


class CheckFailed(AssertionError):
    """An answer of the program disagrees with the exact reference."""


class Reference:
    """Sorted exact streams by metric name, plus the worst error seen."""

    def __init__(self) -> None:
        self._sorted: Dict[str, np.ndarray] = {}
        self._unions: Dict[tuple, np.ndarray] = {}
        #: largest |rank error| / n over every checked certified answer
        self.max_rank_err = 0.0
        self.checked = 0

    def add(self, name: str, stream: np.ndarray) -> None:
        """Register the exact stream (all values, any order) of *name*."""
        self._sorted[name] = np.sort(np.asarray(stream, dtype=np.float64))

    def sorted(self, name: str) -> np.ndarray:
        return self._sorted[name]

    def count(self, name: str) -> int:
        return int(self._sorted[name].size)

    def union(self, names: Sequence[str]) -> np.ndarray:
        key = tuple(names)
        merged = self._unions.get(key)
        if merged is None:
            merged = np.sort(np.concatenate([self._sorted[n] for n in key]))
            self._unions[key] = merged
        return merged

    # -- checks -------------------------------------------------------------

    def check_count(self, name: str, n: int, where: str = "") -> None:
        want = self.count(name)
        if int(n) != want:
            raise CheckFailed(
                f"{name}{where}: n={n}, but {want} elements were sent "
                f"(each exactly once)"
            )

    def check_counts(self, reported: Dict[str, int], where: str = "") -> None:
        """Every registered metric reported, each with its exact count."""
        missing = sorted(set(self._sorted) - set(reported))
        if missing:
            raise CheckFailed(f"{where}: metrics missing: {missing[:5]}")
        for name in self._sorted:
            self.check_count(name, reported[name], where)

    def check_certified(
        self,
        names: Sequence[str],
        phis: Sequence[float],
        values: Sequence[float],
        bound: float,
        n: int,
        where: str = "",
    ) -> float:
        """Rank errors of a certified answer over the union of *names*.

        Checks the answer's ``n`` against the reference and each value's
        rank error against *bound*; returns the worst error as a fraction
        of ``n``.
        """
        data = self.union(names) if len(names) > 1 else self.sorted(names[0])
        label = ",".join(names) if len(names) <= 2 else f"{names[0]}+{len(names) - 1}"
        if int(n) != data.size:
            raise CheckFailed(
                f"{label}{where}: n={n}, expected {data.size}"
            )
        if len(values) != len(phis):
            raise CheckFailed(
                f"{label}{where}: {len(values)} values for {len(phis)} phis"
            )
        worst = 0
        for phi, v in zip(phis, values):
            err = rank_error(data, phi, float(v))
            if err > bound + 1.0:
                raise CheckFailed(
                    f"{label}{where}: phi={phi} answered {v!r} with rank "
                    f"error {err:.1f} > certified bound {bound:.1f}"
                )
            worst = max(worst, err)
        frac = worst / data.size
        self.max_rank_err = max(self.max_rank_err, frac)
        self.checked += len(values)
        return frac

    def check_prefix(
        self,
        parts: Sequence[np.ndarray],
        phis: Sequence[float],
        values: Sequence[float],
        bound: float,
        n: int,
        label: str,
    ) -> float:
        """:meth:`check_certified` against the union of unsorted streams
        (the prefixes an answer saw), counting ranks instead of sorting."""
        size = sum(int(p.size) for p in parts)
        if int(n) != size:
            raise CheckFailed(f"{label}: n={n}, expected {size}")
        worst = 0.0
        for phi, v in zip(phis, values):
            lo = sum(int(np.count_nonzero(p < v)) for p in parts)
            hi = lo + sum(int(np.count_nonzero(p == v)) for p in parts)
            target = phi * size
            err = max(lo - target, target - hi, 0.0)
            if err > bound + 1.0:
                raise CheckFailed(
                    f"{label}: phi={phi} answered {v!r} with rank error "
                    f"{err:.1f} > certified bound {bound:.1f}"
                )
            worst = max(worst, err)
        frac = worst / size
        self.max_rank_err = max(self.max_rank_err, frac)
        self.checked += len(values)
        return frac

    def check_prefix_range(
        self, data: np.ndarray, values: Iterable[float], label: str
    ) -> None:
        """:meth:`check_within_range` against an unsorted stream (the
        prefix an estimate saw)."""
        lo, hi = float(data.min()), float(data.max())
        for v in values:
            if not lo <= float(v) <= hi:
                raise CheckFailed(
                    f"{label}: estimate {v!r} outside the stream's range "
                    f"[{lo!r}, {hi!r}]"
                )
        self.checked += 1

    def check_within_range(
        self, name: str, values: Iterable[float], where: str = ""
    ) -> None:
        """Uncertified estimates (frugal) must lie inside [min, max]."""
        data = self.sorted(name)
        lo, hi = float(data[0]), float(data[-1])
        for v in values:
            if not lo <= float(v) <= hi:
                raise CheckFailed(
                    f"{name}{where}: estimate {v!r} outside the stream's "
                    f"range [{lo!r}, {hi!r}]"
                )
        self.checked += 1


def rank_error(sorted_data: np.ndarray, phi: float, value: float) -> float:
    """Distance from ``phi * n`` to the rank interval of *value*."""
    lo = int(np.searchsorted(sorted_data, value, side="left"))
    hi = int(np.searchsorted(sorted_data, value, side="right"))
    target = phi * sorted_data.size
    if target < lo:
        return lo - target
    if target > hi:
        return target - hi
    return 0.0


def check_identical(
    name: str, payloads: Sequence[bytes], where: str = ""
) -> None:
    """Replica (or before/after) payloads must be byte-identical."""
    if len(payloads) < 2:
        raise CheckFailed(f"{name}{where}: only {len(payloads)} payload(s)")
    first = payloads[0]
    for other in payloads[1:]:
        if other != first:
            raise CheckFailed(
                f"{name}{where}: payloads differ "
                f"({len(first)} vs {len(other)} bytes)"
            )


def live_window(
    stamps: Sequence[Tuple[float, int]], slide_s: float, n_buckets: int
) -> List[int]:
    """Batch indices inside a sliding window's live buckets.

    A batch stamped ``t`` lands in bucket ``floor(t / slide)``; the live
    buckets are the ``n_buckets`` newest indices up to the newest ever
    written, and a batch older than that span is dropped on arrival.
    """
    live: List[Tuple[int, int]] = []
    top: Optional[int] = None
    for t, b in stamps:
        idx = int(math.floor(t / slide_s))
        if top is not None and idx <= top - n_buckets:
            continue  # dropped on arrival
        top = idx if top is None else max(top, idx)
        live.append((idx, b))
    if top is None:
        return []
    return [b for idx, b in live if idx > top - n_buckets]
