"""Benchmark-owned stages, run by all three runtimes.

Every stage keeps a :class:`Probe`: the monotonic time of ``setup()``,
this process's CPU time from the stage's first item to its ``flush()``,
and the process's peak RSS.  On the networked runtime the stages live in
worker processes, so ``result()`` is the only way back to the benchmark:
it returns the probe's report, plus the worker's span aggregates when the
stage property ``perfbench-trace`` is ``"1"`` (the stage then installs
the layer wrappers of :mod:`perfbench.spans` in its own process).

Payload formats, written by the generators in :mod:`perfbench.workloads`:

* ``net-*``: one int, ``seq << STAMP_BITS | stamp_us``, where ``stamp_us``
  is microseconds of CLOCK_MONOTONIC since the run's epoch (the stage
  property ``perfbench-epoch-ns``).  CLOCK_MONOTONIC is system-wide, so
  the sink's clock and the generator's agree across processes.
* ``threaded-keyed``: a ``(key, seq, stamp_ns)`` tuple with a per-key
  ``seq``.
"""

from __future__ import annotations

import os
import resource
import time
from array import array
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.count_samps import JoinStage, SourceFilterStage
from repro.core.api import StageContext, StreamProcessor
from repro.simnet.hosts import CpuCostModel

from perfbench import spans

STAMP_BITS = 34
STAMP_MASK = (1 << STAMP_BITS) - 1
#: Latency percentiles are taken per slice of arrival time this long.
SLICE_NS = 250_000_000
#: Latency quantiles kept per slice: p50 and p99.
SLICE_QUANTILES = (0.50, 0.99)


def percentile(sorted_values: Any, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    rank = min(n - 1, max(0, int(round(q * (n - 1)))))
    return float(sorted_values[rank])


class Probe:
    """Per-stage timing and resource record, reported through ``result()``."""

    def __init__(self, context: StageContext, processor: StreamProcessor) -> None:
        self.stage = context.stage_name
        self.setup_ns = time.monotonic_ns()
        self.cpu_first: Optional[float] = None
        self.cpu_last: Optional[float] = None
        self.tracer: Optional[spans.Tracer] = None
        if context.properties.get("perfbench-trace") == "1":
            self.tracer = spans.install()
            self.tracer.patch_method(type(context), "emit", "emit")
            processor.on_item = self.tracer.span(  # type: ignore[method-assign]
                f"on_item:{self.stage}", processor.on_item
            )

    def first(self) -> None:
        self.cpu_first = time.process_time()

    def finish(self) -> None:
        self.cpu_last = time.process_time()

    def report(self) -> Dict[str, Any]:
        cpu = 0.0
        if self.cpu_first is not None and self.cpu_last is not None:
            cpu = self.cpu_last - self.cpu_first
        out: Dict[str, Any] = {
            "pid": os.getpid(),
            "setup_ns": self.setup_ns,
            "cpu_s": cpu,
            "cpu_last": self.cpu_last,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if self.tracer is not None:
            out["spans_agg"] = self.tracer.aggregates()
            out["spans"] = self.tracer.spans()
        return out


class Relay(StreamProcessor):
    """Forwards every item unchanged (one ``emit`` per item)."""

    cost_model = CpuCostModel()

    def __init__(self) -> None:
        self.probe: Optional[Probe] = None

    def setup(self, context: StageContext) -> None:
        self.probe = Probe(context, self)

    def on_item(self, payload: Any, context: StageContext) -> None:
        probe = self.probe
        if probe is not None and probe.cpu_first is None:
            probe.first()
        context.emit(payload, size=8.0)

    def flush(self, context: StageContext) -> None:
        assert self.probe is not None
        self.probe.finish()

    def result(self) -> Dict[str, Any]:
        assert self.probe is not None
        return self.probe.report()


def latency_slices(arrivals: Any, latencies: Any,
                   slice_ns: int = SLICE_NS) -> List[Tuple[float, ...]]:
    """:data:`SLICE_QUANTILES` in ms of the latencies arriving in each time slice.

    Arrival times must not decrease.  The last slice is partial and is
    dropped unless it is the only one.
    """
    if not len(arrivals):
        return []
    start = arrivals[0]
    groups: Dict[int, List[int]] = {}
    for at, latency in zip(arrivals, latencies):
        groups.setdefault((at - start) // slice_ns, []).append(latency)
    keys = sorted(groups)
    if len(keys) > 1:
        keys.pop()
    out = []
    for key in keys:
        values = sorted(groups[key])
        out.append(tuple(percentile(values, q) / 1e6 for q in SLICE_QUANTILES))
    return out


class _CheckingSink(StreamProcessor):
    """Records each arrival and its source-to-sink latency, and counts
    the items that pass the subclass's order check."""

    cost_model = CpuCostModel()

    def __init__(self) -> None:
        self.probe: Optional[Probe] = None
        self.in_order = 0
        self.arrivals_ns = array("q")
        self.latency_ns = array("q")

    def setup(self, context: StageContext) -> None:
        self.probe = Probe(context, self)

    def flush(self, context: StageContext) -> None:
        assert self.probe is not None
        self.probe.finish()

    def result(self) -> Dict[str, Any]:
        assert self.probe is not None
        out = self.probe.report()
        out.update(
            delivered=len(self.arrivals_ns),
            ok=self.in_order,
            last_ns=self.arrivals_ns[-1] if self.arrivals_ns else 0,
            slices=latency_slices(self.arrivals_ns, self.latency_ns),
        )
        return out


class FifoSink(_CheckingSink):
    """Checks that int payloads arrive exactly once and in order.

    An item counts as correct when its ``seq`` is above every ``seq``
    before it, so a duplicate or a reordered item is not counted and a
    lost one is missing from the count.
    """

    def __init__(self) -> None:
        super().__init__()
        self.epoch_ns = 0
        self.last_seq = -1

    def setup(self, context: StageContext) -> None:
        super().setup(context)
        self.epoch_ns = int(context.properties["perfbench-epoch-ns"])

    def on_item(self, payload: Any, context: StageContext) -> None:
        now = time.monotonic_ns()
        if not self.arrivals_ns:
            assert self.probe is not None
            self.probe.first()
        self.arrivals_ns.append(now)
        self.latency_ns.append(now - self.epoch_ns - (payload & STAMP_MASK) * 1000)
        seq = payload >> STAMP_BITS
        if seq > self.last_seq:
            self.in_order += 1
            self.last_seq = seq


class KeyedSink(_CheckingSink):
    """Checks per-key order of ``(key, seq, stamp_ns)`` payloads.

    As in :class:`FifoSink`, an item counts as correct when its ``seq``
    is above every earlier ``seq`` of its key: losses, duplicates and
    reorderings within a key all leave items uncounted.
    """

    def __init__(self) -> None:
        super().__init__()
        self.last_seq: Dict[Any, int] = {}

    def on_item(self, payload: Any, context: StageContext) -> None:
        now = time.monotonic_ns()
        if not self.arrivals_ns:
            assert self.probe is not None
            self.probe.first()
        key, seq, stamp = payload
        self.arrivals_ns.append(now)
        self.latency_ns.append(now - stamp)
        if seq > self.last_seq.get(key, -1):
            self.in_order += 1
            self.last_seq[key] = seq


class CountFilter(SourceFilterStage):
    """The count-samps filter, probed (its stage code is unchanged)."""

    def setup(self, context: StageContext) -> None:
        super().setup(context)
        self.probe = Probe(context, self)


class CountJoin(JoinStage):
    """The count-samps join, recording when each summary arrived.

    ``arrivals`` holds ``(source stage, items_seen, monotonic ns)`` per
    summary; with the generator's pull times it gives the wall-clock
    source-to-sink latency of every item (see ``perfbench.workloads``).
    """

    def __init__(self) -> None:
        super().__init__()
        self.arrivals: List[tuple] = []

    def setup(self, context: StageContext) -> None:
        super().setup(context)
        self.probe = Probe(context, self)

    def on_item(self, payload: Any, context: StageContext) -> None:
        self.arrivals.append(
            (payload["source"], payload["items_seen"], time.monotonic_ns())
        )
        super().on_item(payload, context)

    def flush(self, context: StageContext) -> None:
        self.probe.finish()

    def result(self) -> Dict[str, Any]:  # type: ignore[override]
        out = self.probe.report()
        out.update(topk=self.current_topk(), arrivals=self.arrivals)
        return out
