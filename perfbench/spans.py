"""Timing and tracing of the benchmark's calls into dycknum.

Every call into a layer is timed from outside. An operation's latency is
the time spent inside its calls, so the benchmark's own bookkeeping
between calls does not count. With tracing on, each call and each
operation is also kept as a span in memory until the run ends.

On a shared machine other tenants slow this CPU down by up to about 2x,
switching within milliseconds, and the share of slowed time drifts from
one run to the next. So the recorder also times a fixed loop of the kind
dycknum runs (binary strings of a big integer, walked per character), but
sharing no code with it, before an operation and after each of its
calls. The loop's time at the 1st percentile of the run is the machine's
uncontended speed; its time around an operation's calls, weighted by
their durations, says how contended the CPU was during the operation.

Memory stays the same however many operations a run completes, so that
a faster program does not show a larger peak RSS: per-operation and
calibration samples live in arrays allocated up front, kept whole up to
their capacity and as a uniform reservoir beyond.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Any, NamedTuple

LAYERS = ("core", "sequence", "bfile", "cli")
CAPACITY = 1 << 17
CALIBRATION_SAMPLES = 1 << 16
CALIBRATION_NUMBER = 0x9E3779B97F4A7C15F39CC0605CEDC834


class Span(NamedTuple):
    op: int  # operation id, 1-based
    name: str  # "op" for the operation itself, else "<layer>.<function>"
    tag: Any  # input width for core calls, range index for sweep calls
    start: float
    end: float


class Raised(NamedTuple):
    """An exception a call raised, reduced to what the checks compare."""

    type: str
    detail: Any  # the planted-violation attribute, when the exception has one
    message: str


def outcome(value: Any) -> Any:
    """The value itself, or a comparable Raised record for an exception."""
    if not isinstance(value, Exception):
        return value
    detail = getattr(value, "suffix", None)
    message = str(value.args[0])[:200] if value.args else ""
    return Raised(type(value).__name__, detail, message)


def calibration_loop() -> int:
    """The fixed work whose time tells how contended the CPU is."""
    level = 0
    for i in range(12):
        for bit in bin(CALIBRATION_NUMBER ^ i)[:1:-1][:24]:
            level += 1 if bit == "1" else -1
    return level


class Reservoir:
    """Up to `capacity` samples in an array allocated up front; beyond, a uniform sample."""

    def __init__(self, capacity: int):
        self.values = array("d", bytes(8 * capacity))
        self.seen = 0
        self._pick = random.Random(0)

    def slot(self) -> int | None:
        """Where the next sample goes, or None when it is left out."""
        self.seen += 1
        capacity = len(self.values)
        if self.seen <= capacity:
            return self.seen - 1
        slot = self._pick.randrange(self.seen)
        return slot if slot < capacity else None

    def kept(self) -> array:
        return self.values[: min(self.seen, len(self.values))]


class Recorder:
    def __init__(self, trace: bool):
        self.ops = 0
        self.terms = 0
        self.busy = 0.0  # sum of operation latencies
        self.spans: list[Span] | None = [] if trace else None
        self._relative_busy = 0.0  # sum of latency / calibration time
        self._calibration_sum = 0.0
        self._loops = Reservoir(CALIBRATION_SAMPLES)  # every calibration loop
        self._op_calibration = Reservoir(CAPACITY)  # per operation
        self._op_latency = array("d", bytes(8 * CAPACITY))  # the same operations

    def _calibrate(self) -> float:
        t0 = perf_counter()
        calibration_loop()
        took = perf_counter() - t0
        slot = self._loops.slot()
        if slot is not None:
            self._loops.values[slot] = took
        return took

    def begin(self) -> int:
        """Start the next operation; returns its id."""
        self._op_busy = 0.0
        self._op_weighted = 0.0
        self._start = perf_counter()
        self._last = self._calibrate()
        return self.ops + 1

    def call(self, name: str, tag: Any, fn, *args):
        """fn(*args), timed; an exception it raises is returned, not raised."""
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # refusals are outcomes; the checks judge them
            out = exc
        t1 = perf_counter()
        after = self._calibrate()
        self._op_busy += t1 - t0
        self._op_weighted += (t1 - t0) * (self._last + after) / 2
        self._last = after
        if self.spans is not None:
            self.spans.append(Span(self.ops + 1, name, tag, t0, t1))
        return out

    def end(self, terms: int) -> None:
        """Close the operation, which handled `terms` Dyck numbers."""
        latency = self._op_busy
        calibration = self._op_weighted / latency if latency else self._last
        if self.spans is not None:
            self.spans.append(Span(self.ops + 1, "op", None, self._start, perf_counter()))
        slot = self._op_calibration.slot()
        if slot is not None:
            self._op_latency[slot] = latency
            self._op_calibration.values[slot] = calibration
        self.ops += 1
        self.terms += terms
        self.busy += latency
        self._relative_busy += latency / calibration
        self._calibration_sum += calibration

    def release(self) -> None:
        """Free the per-operation and calibration samples; spans stay."""
        self._loops = self._op_calibration = self._op_latency = None

    def uncontended_loop(self) -> float:
        """The calibration loop's time at the 1st percentile of the run."""
        return percentile(self._loops.kept(), 1)

    @property
    def contention(self) -> float:
        """How much slower than uncontended the calibration loop ran, on average."""
        return self._calibration_sum / self.ops / self.uncontended_loop()

    def uncontended_busy(self) -> float:
        """The sum of latencies, each scaled to uncontended speed."""
        return self._relative_busy * self.uncontended_loop()

    def latencies(self, uncontended: bool) -> list[float]:
        """Sampled latencies, raw or divided by how contended the CPU was."""
        n = min(self.ops, CAPACITY)
        if not uncontended:
            return self._op_latency[:n].tolist()
        best = self.uncontended_loop()
        calibration = self._op_calibration.values
        return [t * best / c for t, c in zip(self._op_latency[:n], calibration[:n])]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of an unsorted list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def layer_of(name: str) -> str:
    return "bench" if name == "op" else name.split(".", 1)[0]


def layer_summary(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Span count, busy time and self time per layer.

    A call span's parent is its operation's span. Self time is a span's
    duration minus the time its child spans cover; from outside, calls do
    not nest, so a layer's self time equals its busy time and the
    operation spans' self time is the benchmark's own bookkeeping.
    """
    children = defaultdict(float)
    for span in spans:
        if span.name != "op":
            children[span.op] += span.end - span.start
    summary = {
        layer: {"count": 0, "busy_s": 0.0, "self_s": 0.0} for layer in (*LAYERS, "bench")
    }
    for span in spans:
        entry = summary[layer_of(span.name)]
        duration = span.end - span.start
        entry["count"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - (children[span.op] if span.name == "op" else 0.0)
    return summary


def write_spans(path, spans: list[Span], stamp: dict) -> None:
    """One JSON line for the stamp, then one per span with ids and parents."""
    roots = {s.op: i for i, s in enumerate(spans, start=1) if s.name == "op"}
    origin = spans[0].start if spans else 0.0
    with open(path, "w") as out:
        out.write(json.dumps({"stamp": stamp}) + "\n")
        for i, s in enumerate(spans, start=1):
            record = {
                "id": i,
                "parent": None if s.name == "op" else roots.get(s.op),
                "op": s.op,
                "name": s.name,
                "tag": s.tag,
                "start": round(s.start - origin, 9),
                "end": round(s.end - origin, 9),
            }
            out.write(json.dumps(record) + "\n")
