"""The benchmark's own arithmetic: percentiles, failure accounting,
digests, span self-time and the reference kernel.

Nothing here depends on the ``repro`` package, so ``test_perfbench.py``
can pin it without running a simulation.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported as a tail only when at least this many
#: samples lie strictly beyond it.
MIN_BEYOND = 10
#: The highest percentile :func:`resolved_tail` considers.
TAIL_CAP = 99


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``%
    of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def beyond(samples: Sequence[float], value: float) -> int:
    """How many samples are strictly greater than ``value``."""
    return sum(1 for s in samples if s > value)


@dataclass(frozen=True)
class Tail:
    """The highest resolved percentile of a sample set."""

    p: int
    value: float
    beyond: int
    n: int


def resolved_tail(samples: Sequence[float]) -> Optional[Tail]:
    """The highest integer percentile (50..:data:`TAIL_CAP`) with at
    least :data:`MIN_BEYOND` samples strictly beyond it, or None when
    even the median has fewer."""
    for p in range(TAIL_CAP, 49, -1):
        value = percentile(samples, p) if samples else 0.0
        count = beyond(samples, value) if samples else 0
        if count >= MIN_BEYOND:
            return Tail(p, value, count, len(samples))
    return None


# -- host speed ----------------------------------------------------------------


class _Event:
    __slots__ = ("node", "kind")

    def __init__(self, node: int, kind: str) -> None:
        self.node, self.kind = node, kind


def _event_loop(events: int) -> int:
    """A heap of timestamped events over slotted objects, with a dict of
    per-node counts."""
    queue: List[Tuple[float, int, _Event]] = [
        (i * 0.5, i, _Event(i % 8, "start")) for i in range(64)
    ]
    heapq.heapify(queue)
    counts: Dict[int, int] = {}
    seq = 64
    for _ in range(events):
        at, _, event = heapq.heappop(queue)
        counts[event.node] = counts.get(event.node, 0) + 1
        seq += 1
        nxt = _Event((event.node * 5 + 3) % 8, event.kind)
        heapq.heappush(queue, (at + 1.0 + (seq % 7) * 0.1, seq, nxt))
    return sum(node * count for node, count in counts.items()) + seq


def _counting(steps: int) -> int:
    """Plain bytecode: a loop updating a dict."""
    table: Dict[int, int] = {}
    for i in range(steps):
        key = i % 997
        table[key] = table.get(key, 0) + i
    return sum(table.values()) % 1000003


def _json_round_trip(rounds: int) -> int:
    """Build, render and parse small nested records, as a ledger does;
    each round's record is about 0.2 MB, so the kernel adds little to the
    process's peak RSS."""
    total = 0
    for r in range(rounds):
        data = {f"k{i}": {"v": [i, i * 0.5, f"s{r}"], "m": {"x": i}} for i in range(500)}
        total += len(json.loads(json.dumps(data, sort_keys=True)))
    return total


def reference_kernel() -> int:
    """Fixed work that shares no code with the program, made of the kinds
    of Python the simulator spends its time on: an event loop over a
    heap, a dict-heavy bytecode loop and a JSON round trip, each about a
    third of the time (about 50 ms in all on the 2-core machine the
    benchmark was sized on).  A mix follows the host's speed more closely
    than any one part.  Returns a checksum of the work done, the same on
    every host."""
    return _event_loop(20000) + _counting(120000) + _json_round_trip(6)


#: Host time of one reference-kernel run on the reference host, the one
#: reference seconds are measured on (about the median on the 2-core
#: machine the benchmark was sized on).
REFERENCE_KERNEL_S = 0.05
#: How strongly the program's host time follows the kernel's.  Over 72
#: runs of the four workloads, log simulated events/s against log kernel
#: time had slopes from -0.49 to -0.70, and over 60 set-up probes log
#: set-up time against log kernel time had slopes of 0.36 to 0.39: the
#: program slows about half as much as the kernel when the host slows.
#: A full correction (exponent 1) over-corrects and adds the kernel's
#: own noise.
HOST_ELASTICITY = 0.5


def reference_seconds(seconds: float, kernel: float) -> float:
    """Host ``seconds`` rescaled to a host on which one reference-kernel
    run takes :data:`REFERENCE_KERNEL_S`, given the kernel's time
    ``kernel`` measured at the same moment."""
    return seconds * (REFERENCE_KERNEL_S / kernel) ** HOST_ELASTICITY


def reference_rate(windows: Iterable[Tuple[float, float, float]]) -> float:
    """Work per reference second over ``(work, host seconds, kernel
    seconds)`` windows, each window's seconds rescaled by the kernel time
    measured around it (:func:`reference_seconds`)."""
    rows = list(windows)
    return sum(work for work, _, _ in rows) / sum(
        reference_seconds(seconds, kernel) for _, seconds, kernel in rows
    )


#: Kernel runs per measurement of the host's speed.  The first run after
#: a large simulation reads up to a third slower than the next ones (its
#: caches are cold), so the median of three is taken.
KERNEL_RUNS = 3


def kernel_seconds() -> float:
    """Host time of one reference-kernel run (the median of
    :data:`KERNEL_RUNS`), with the cyclic GC held off so the caller's
    heap does not leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(KERNEL_RUNS):
            start = perf_counter()
            reference_kernel()
            times.append(perf_counter() - start)
        return sorted(times)[KERNEL_RUNS // 2]
    finally:
        if enabled:
            gc.enable()


# -- failure accounting --------------------------------------------------------


@dataclass
class PassData:
    """What one pass over a workload's inputs attempted, how it went and
    what it measured."""

    ops: int
    failed: int
    digest: str
    wall: float = 0.0
    #: Logical tree tasks evaluated (reissued copies and replicas not counted).
    tasks: int = 0
    sims: int = 0
    extras: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: ``(logical tasks, host seconds, reference-kernel seconds)`` of
    #: each measurement window of the pass.
    windows: List[Tuple[int, float, float]] = field(default_factory=list)


def account(passes: Iterable[PassData], reference: Optional[str]) -> Tuple[int, int]:
    """``(attempted, failed)`` over passes.

    An operation fails on its own (stall, exception, oracle mismatch).
    A pass whose digest differs from ``reference`` fails as a whole:
    every one of its operations counts as failed, because the simulated
    statistics it produced are not the pinned ones.
    """
    attempted = failed = 0
    for outcome in passes:
        attempted += outcome.ops
        if reference is not None and outcome.digest != reference:
            failed += outcome.ops
        else:
            failed += min(outcome.failed, outcome.ops)
    return attempted, failed


def failed_ratio(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


# -- digests -------------------------------------------------------------------


def canonical(payload: Any) -> str:
    """Key-sorted compact JSON: the same bytes in every process."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)


def fold(items: Iterable[Any]) -> str:
    """One sha256 over the canonical JSON of each item, in order."""
    h = hashlib.sha256()
    for item in items:
        h.update(canonical(item).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


# -- spans ---------------------------------------------------------------------

#: ``(span id, parent id, iteration, layer, start, end, tag)``; the
#: parent id is -1 for a top-level span.
Span = Tuple[int, int, int, str, float, float, Any]


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of intervals (overlaps counted once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def intersection_length(
    a: Iterable[Tuple[float, float]], b: Iterable[Tuple[float, float]]
) -> float:
    """Length covered by both interval sets."""
    a_list, b_list = list(a), list(b)
    return union_length(a_list) + union_length(b_list) - union_length(a_list + b_list)


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval, and overlapping
    children count once.
    """
    bounds = {s[0]: (s[4], s[5]) for s in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, parent, _, _, start, end, _ in spans:
        if parent in bounds:
            lo, hi = bounds[parent]
            clipped = (max(start, lo), min(end, hi))
            if clipped[1] > clipped[0]:
                children.setdefault(parent, []).append(clipped)
    return {
        sid: (end - start) - union_length(children.get(sid, ()))
        for sid, _, _, _, start, end, _ in spans
    }


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per layer."""
    out: Dict[str, float] = {}
    selfs = self_times(spans)
    for span in spans:
        out[span[3]] = out.get(span[3], 0.0) + selfs[span[0]]
    return out
