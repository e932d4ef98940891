"""The reference checker fails on each fault it exists to catch.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))

from perfbench.reference import (  # noqa: E402
    CheckFailed,
    Reference,
    check_identical,
    live_window,
    rank_error,
)

BATCH = 512
PHIS = (0.1, 0.5, 0.9, 0.99)


@pytest.fixture
def batches():
    rng = np.random.default_rng(7)
    return [rng.lognormal(3.0, 1.0, BATCH) for _ in range(20)]


def _exact(stream, phis):
    """Answers of a perfect summary: the element of rank ceil(phi * n)."""
    data = np.sort(stream)
    return [float(data[max(int(np.ceil(p * data.size)) - 1, 0)])
            for p in phis]


def _ref(batches):
    ref = Reference()
    ref.add("m", np.concatenate(batches))
    return ref


def test_exact_answers_pass(batches):
    ref = _ref(batches)
    stream = np.concatenate(batches)
    frac = ref.check_certified(["m"], PHIS, _exact(stream, PHIS), 0.0,
                               stream.size)
    assert frac <= 1.0 / stream.size
    ref.check_count("m", stream.size)


def test_dropped_batch_fails(batches):
    ref = _ref(batches)
    served = np.concatenate(batches[:5] + batches[6:])
    with pytest.raises(CheckFailed, match="elements were sent"):
        ref.check_count("m", served.size)
    with pytest.raises(CheckFailed, match="n="):
        ref.check_certified(["m"], PHIS, _exact(served, PHIS), 1e9,
                            served.size)


def test_duplicated_batch_fails(batches):
    ref = _ref(batches)
    served = np.concatenate(batches + [batches[3]])
    with pytest.raises(CheckFailed, match="elements were sent"):
        ref.check_count("m", served.size)
    with pytest.raises(CheckFailed, match="n="):
        ref.check_prefix([served], PHIS, _exact(served, PHIS), 1e9,
                         np.concatenate(batches).size, "m")


def test_quantile_shifted_past_bound_fails(batches):
    ref = _ref(batches)
    stream = np.concatenate(batches)
    data = np.sort(stream)
    bound = 0.01 * data.size
    target = int(0.5 * data.size)
    inside = float(data[target + int(bound) - 2])
    outside = float(data[target + int(bound) + 3])
    ref.check_certified(["m"], [0.5], [inside], bound, data.size)
    with pytest.raises(CheckFailed, match="certified bound"):
        ref.check_certified(["m"], [0.5], [outside], bound, data.size)
    with pytest.raises(CheckFailed, match="certified bound"):
        ref.check_prefix([stream], [0.5], [outside], bound, data.size, "m")
    # the same value split over two streams (a fan-in) counts the same
    with pytest.raises(CheckFailed, match="certified bound"):
        ref.check_prefix([stream[:3000], stream[3000:]], [0.5], [outside],
                         bound, data.size, "m")
    ref.check_prefix([stream[:3000], stream[3000:]], [0.5], [inside],
                     bound, data.size, "m")
    assert rank_error(data, 0.5, outside) > bound + 1


def test_fanin_uses_the_union(batches):
    ref = Reference()
    ref.add("a", np.concatenate(batches[:10]))
    ref.add("b", np.concatenate(batches[10:]))
    union = np.concatenate(batches)
    ref.check_certified(["a", "b"], PHIS, _exact(union, PHIS), 0.0,
                        union.size)
    with pytest.raises(CheckFailed, match="n="):
        ref.check_certified(["a", "b"], PHIS, _exact(union, PHIS), 0.0,
                            ref.count("a"))


def test_replicas_that_differ_fail():
    check_identical("m", [b"KLLSKT01abc", b"KLLSKT01abc"])
    with pytest.raises(CheckFailed, match="differ"):
        check_identical("m", [b"KLLSKT01abc", b"KLLSKT01abd"])
    with pytest.raises(CheckFailed, match="payload"):
        check_identical("m", [b"only one"])


def test_uncertified_estimate_outside_range_fails(batches):
    ref = _ref(batches)
    stream = np.concatenate(batches)
    ref.check_within_range("m", [float(np.median(stream))])
    with pytest.raises(CheckFailed, match="outside"):
        ref.check_within_range("m", [float(stream.max()) * 2])
    with pytest.raises(CheckFailed, match="outside"):
        ref.check_prefix_range(stream, [float(stream.min()) / 2], "m")


def test_live_window_keeps_the_newest_buckets():
    # slide 10 s, 3 buckets: stamps in buckets 0, 1, 2, 3, 4 -> 2, 3, 4 live
    stamps = [(0.5, 0), (12.0, 1), (25.0, 2), (31.0, 3), (44.0, 4)]
    assert live_window(stamps, 10.0, 3) == [2, 3, 4]
    # a late batch for an expired bucket is dropped, a late one for a
    # live bucket is kept
    late = stamps + [(5.0, 5), (33.0, 6)]
    assert live_window(late, 10.0, 3) == [2, 3, 4, 6]
    assert live_window([], 10.0, 3) == []
