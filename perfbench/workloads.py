"""The four benchmark workloads, driven through the runtimes' public API.

Each workload builds its inputs from the seed, then runs *rounds*: one
round constructs a runtime, binds the benchmark's generator with
``bind_source(..., rate=None)``, calls ``run()`` and checks the output.
A :class:`Round` holds what one round measured.  A round does a fixed
amount of work, so rounds of two commits are comparable; the amount is
sized from ``--seconds`` with the workload's :attr:`Workload.NOMINAL_RATE`,
its rate on a 2-core x86 host.  A round of 0 items binds an empty
generator: it times construction up to the runtime's first pull and
nothing else, which gives ``setup_s`` more samples.

Timestamps are ``time.monotonic_ns()`` (CLOCK_MONOTONIC, shared by every
process of the host); CPU is ``time.process_time()`` of each process
over its part of the data window.
"""

from __future__ import annotations

import bisect
import itertools
import random
import resource
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.apps.count_samps import build_distributed_config
from repro.core.batching import BatchPolicy
from repro.core.runtime_sim import SimulatedRuntime, SourceBinding
from repro.core.runtime_threads import ThreadedRuntime
from repro.grid.config import AppConfig, StageConfig, StreamConfig
from repro.grid.deployer import Deployer
from repro.grid.launcher import Launcher
from repro.grid.registry import ServiceRegistry
from repro.grid.repository import CodeRepository
from repro.grid.resources import ResourceRequirement
from repro.net.coordinator import NetworkedRuntime
from repro.simnet.engine import Environment
from repro.simnet.topology import Network

from perfbench import spans
from perfbench.stages import (
    STAMP_BITS,
    CountFilter,
    CountJoin,
    latency_slices,
    percentile,
)

BATCH = BatchPolicy(max_items=32, max_delay=0.02)
CREDIT_WINDOW = 64
PACED_RATE = 4000.0
RUN_TIMEOUT = 120.0


class Feed:
    """The generator's record of one round: pulls, CPU window, lateness."""

    def __init__(self) -> None:
        self.first_ns: Optional[int] = None
        self.cpu_first = 0.0
        self.cpu_last = 0.0
        self.count = 0
        self.lag_ns = array("q")

    def start(self) -> int:
        now = time.monotonic_ns()
        if self.first_ns is None:
            self.first_ns = now
            self.cpu_first = time.process_time()
        return now

    def stop(self, count: int) -> None:
        self.count += count
        self.cpu_last = time.process_time()


def saturating_ints(feed: Feed, epoch_ns: int, count: int) -> Iterator[int]:
    """Closed loop: stamps each int with its pull time, as fast as pulled."""
    clock = time.monotonic_ns
    feed.start()
    for seq in range(count):
        yield seq << STAMP_BITS | (clock() - epoch_ns) // 1000
    feed.stop(count)


def paced_ints(feed: Feed, epoch_ns: int, count: int, rate: float) -> Iterator[int]:
    """Open loop: item ``i`` is due at ``start + i / rate`` and stamped so.

    The generator sleeps only when it is ahead of schedule; a stall makes
    later items late, and that lateness is both recorded and part of
    their latency.
    """
    clock = time.monotonic_ns
    start = feed.start()
    gap = 1e9 / rate
    lag = feed.lag_ns
    for seq in range(count):
        due = start + int(seq * gap)
        now = clock()
        if now < due:
            time.sleep((due - now) / 1e9)
            now = clock()
        lag.append(now - due)
        yield seq << STAMP_BITS | (due - epoch_ns) // 1000
    feed.stop(count)


def keyed_tuples(feed: Feed, keys: Sequence[int], count: int) -> Iterator[tuple]:
    """Closed loop over Zipf keys: ``(key, per-key seq, pull time ns)``."""
    clock = time.monotonic_ns
    feed.start()
    seqs = [0] * (max(keys) + 1)
    n = len(keys)
    for i in range(count):
        key = keys[i % n]
        seq = seqs[key]
        seqs[key] = seq + 1
        yield (key, seq, clock())
    feed.stop(count)


def recorded(values: Sequence[int], pulls: array, feed: Feed) -> Iterator[int]:
    """Yields ``values``, writing each one's pull time into ``pulls``."""
    clock = time.monotonic_ns
    feed.start()
    for i, value in enumerate(values):
        pulls[i] = clock()
        yield value
    feed.stop(len(values))


def zipf_values(rng: random.Random, n: int, universe: int, skew: float) -> List[int]:
    """``n`` draws of a Zipf(``skew``) law over a shuffled ``range(universe)``."""
    cdf = list(itertools.accumulate(1.0 / rank ** skew for rank in range(1, universe + 1)))
    total = cdf[-1]
    ranked = list(range(universe))
    rng.shuffle(ranked)
    return [ranked[bisect.bisect_left(cdf, rng.random() * total)] for _ in range(n)]


def topk_accuracy(reported: Sequence[Tuple[Any, float]], exact: Counter, k: int) -> float:
    """Recall of the true top-k times one minus the mean relative count error.

    This is the paper's blended top-10 accuracy, computed here from the
    benchmark's own exact counts rather than with the program's helper.
    """
    truth = sorted(exact.items(), key=lambda vc: (-vc[1], repr(vc[0])))[:k]
    top = dict(sorted(reported, key=lambda vc: (-vc[1], repr(vc[0])))[:k])
    hits = [(value, count) for value, count in truth if value in top]
    if not hits:
        return 0.0
    error = statistics.fmean(min(1.0, abs(top[v] - c) / c) for v, c in hits)
    return len(hits) / len(truth) * (1.0 - error)


def own_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Round:
    """What one round measured."""

    attempted: int = 0
    ok: int = 0
    delivered: int = 0
    window_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    rss_kb: int = 0
    #: ``(p50, p99)`` latency in ms per 0.25 s slice of sink arrivals.
    slices: List[Tuple[float, ...]] = field(default_factory=list)
    accuracy: float = 1.0
    #: Per-process CPU seconds and span aggregates (traced rounds).
    procs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Layer quantities read from RunResult.metrics and the stages.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Raw spans of every process (traced rounds).
    spans: List[List[Any]] = field(default_factory=list)
    #: Values that must repeat exactly for one seed (the sim).
    fingerprint: Tuple[Any, ...] = ()

    @property
    def items_per_s(self) -> float:
        return self.delivered / self.window_s if self.window_s > 0 else 0.0

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def _sum(registry: Any, prefix: str, suffix: str) -> float:
    return sum(
        registry.value(name)
        for name in registry.names(prefix)
        if name.endswith(suffix)
    )


def _batching(registry: Any) -> Dict[str, float]:
    batches = _sum(registry, "batch.", ".batches")
    return {
        "batches": batches,
        "batched_items": _sum(registry, "batch.", ".batched_items"),
        "age_flushes": _sum(registry, "batch.", ".age_flushes"),
    }


def _traced_procs(round_: Round, bench_cpu: float, tracer: Optional[spans.Tracer],
                  reports: Sequence[Dict[str, Any]], names: Dict[int, str]) -> None:
    """File each process's CPU and span aggregates under its process name."""
    round_.procs["bench"] = {
        "cpu_s": bench_cpu,
        "agg": tracer.aggregates() if tracer is not None else [],
    }
    if tracer is not None:
        round_.spans.extend(["bench", *s] for s in tracer.spans())
    for report in reports:
        proc = names.get(report["pid"])
        if proc is None or proc == "bench":
            continue
        entry = round_.procs.setdefault(proc, {"cpu_s": 0.0, "agg": []})
        entry["cpu_s"] += report["cpu_s"]
        if report.get("spans_agg") and not entry["agg"]:
            entry["agg"] = report["spans_agg"]
            round_.spans.extend([proc, *s] for s in report.get("spans", []))


class Workload:
    """One named workload: inputs from a seed, fixed-work rounds, warm-up."""

    name = ""
    #: Items per second on a 2-core x86 host; sizes a round from seconds.
    NOMINAL_RATE = 10_000.0
    #: Measured rounds ``--seconds`` is split over.
    ROUNDS = 3
    #: Extra set-up-only rounds, for more ``setup_s`` samples.
    SETUP_REPS = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.epoch_ns = time.monotonic_ns()

    def plan(self, seconds: float) -> Tuple[int, int]:
        """``(rounds, items per round)`` that take about ``seconds``."""
        return self.ROUNDS, max(1, int(self.NOMINAL_RATE * seconds / self.ROUNDS))

    def round(self, items: int, traced: bool = False) -> Round:
        """Run ``items`` items through a fresh runtime (0: set-up only)."""
        raise NotImplementedError

    def warmup(self) -> None:
        """One short discarded round: imports, page cache, lazy set-up."""
        self.round(int(self.NOMINAL_RATE * 0.3))


class NetPipeline(Workload):
    """Coordinator source -> relay (worker-0) -> sink (worker-1)."""

    def __init__(self, seed: int, name: str, batched: bool, rate: Optional[float],
                 sink: str = "py://perfbench.stages:FifoSink") -> None:
        super().__init__(seed)
        self.name = name
        self.batch = BATCH if batched else None
        self.rate = rate
        self.sink = sink
        self.NOMINAL_RATE = rate or 50_000.0

    def _config(self, traced: bool) -> AppConfig:
        props = {"perfbench-epoch-ns": str(self.epoch_ns)}
        if traced:
            props["perfbench-trace"] = "1"
        stages = [
            StageConfig(name, code, properties=dict(props),
                        requirement=ResourceRequirement(placement_hint=worker))
            for name, code, worker in (
                ("relay", "py://perfbench.stages:Relay", "worker-0"),
                ("sink", self.sink, "worker-1"),
            )
        ]
        return AppConfig(name=f"perfbench-{self.name}", stages=stages,
                         streams=[StreamConfig("wire", "relay", "sink")])

    def round(self, items: int, traced: bool = False) -> Round:
        feed = Feed()
        if self.rate is None:
            payloads = saturating_ints(feed, self.epoch_ns, items)
        else:
            payloads = paced_ints(feed, self.epoch_ns, items, self.rate)
        config = self._config(traced)
        tracer = spans.install() if traced else None
        try:
            constructed = time.monotonic_ns()
            runtime = NetworkedRuntime(config, workers=2, credit_window=CREDIT_WINDOW,
                                       batch=self.batch)
            runtime.bind_source("src", "relay", payloads, item_size=8.0)
            run_called = time.monotonic_ns()
            result = runtime.run(timeout=RUN_TIMEOUT)
            bench_cpu = feed.cpu_last - feed.cpu_first
            relay, sink = result.final_value("relay"), result.final_value("sink")
            r = Round(attempted=feed.count, ok=sink["ok"], delivered=sink["delivered"])
            assert feed.first_ns is not None
            r.setup_s = (feed.first_ns - constructed) / 1e9
            if not items:
                return r
            r.window_s = (sink["last_ns"] - feed.first_ns) / 1e9
            r.cpu_s = bench_cpu + relay["cpu_s"] + sink["cpu_s"]
            r.rss_kb = max(own_rss_kb(), relay["rss_kb"], sink["rss_kb"])
            r.slices = sink["slices"]
            r.accuracy = r.ok / r.attempted
            metrics = result.metrics
            r.layer.update(_batching(metrics))
            setups = [relay["setup_ns"], sink["setup_ns"]]
            r.layer.update(
                spawn_to_setup_s=(min(setups) - run_called) / 1e9,
                setup_to_first_item_s=(feed.first_ns - max(setups)) / 1e9,
                frames=_sum(metrics, "net.", ".frames"),
                bytes=_sum(metrics, "net.", ".bytes"),
                credit_stalls=_sum(metrics, "net.", ".credit_stalls"),
                credit_wait_s=_sum(metrics, "net.", ".credit_wait_seconds"),
                channels=float(sum(1 for n in metrics.names("net.")
                                   if n.endswith(".credit_wait_seconds"))),
                in_flight_peak=max(
                    [metrics.value(n) for n in metrics.names("net.")
                     if n.endswith(".in_flight_peak")] or [0.0]
                ),
                source_lag_p99_ms=percentile(sorted(feed.lag_ns), 0.99) / 1e6,
            )
            names = {relay["pid"]: "worker-0", sink["pid"]: "worker-1"}
            _traced_procs(r, bench_cpu, tracer, [relay, sink], names)
            return r
        finally:
            if traced:
                spans.uninstall()


class ThreadedKeyed(Workload):
    """Zipf keys -> relay sharded into 2 replicas -> sink, batched edges."""

    name = "threaded-keyed"
    NOMINAL_RATE = 45_000.0
    ROUNDS = 5
    SETUP_REPS = 20
    KEYS = 4096
    UNIVERSE = 1000
    SKEW = 1.2

    def __init__(self, seed: int, sink: str = "py://perfbench.stages:KeyedSink") -> None:
        super().__init__(seed)
        self.sink = sink
        rng = random.Random(seed)
        self.keys = zipf_values(rng, self.KEYS, self.UNIVERSE, self.SKEW)

    def _config(self, traced: bool) -> AppConfig:
        props = {"perfbench-trace": "1"} if traced else {}
        return AppConfig(
            name="perfbench-threaded-keyed",
            stages=[
                StageConfig("relay", "py://perfbench.stages:Relay",
                            properties={"replicas": "2", "shard-by": "index:0", **props}),
                StageConfig("sink", self.sink, properties=dict(props)),
            ],
            streams=[StreamConfig("wire", "relay", "sink")],
        )

    def round(self, items: int, traced: bool = False) -> Round:
        feed = Feed()
        config = self._config(traced)
        tracer = spans.install() if traced else None
        try:
            constructed = time.monotonic_ns()
            runtime = ThreadedRuntime.from_config(config, adaptation_enabled=True,
                                                  batch=BATCH)
            runtime.bind_source("src", "relay", keyed_tuples(feed, self.keys, items))
            result = runtime.run(timeout=RUN_TIMEOUT)
            sink = result.final_value("sink")
            r = Round(attempted=feed.count, ok=sink["ok"], delivered=sink["delivered"])
            assert feed.first_ns is not None
            r.setup_s = (feed.first_ns - constructed) / 1e9
            if not items:
                return r
            r.window_s = (sink["last_ns"] - feed.first_ns) / 1e9
            r.cpu_s = sink["cpu_last"] - feed.cpu_first
            r.rss_kb = own_rss_kb()
            r.slices = sink["slices"]
            r.accuracy = r.ok / r.attempted
            metrics = result.metrics
            r.layer.update(_batching(metrics))
            shard = [metrics.value(n) for n in metrics.names("shard.")
                     if n.endswith(".items")]
            queues: Dict[str, List[float]] = {}
            for name in metrics.names("stage."):
                if name.endswith(".queue_len"):
                    stage = name[len("stage."):-len(".queue_len")]
                    queues.setdefault(stage.split("#")[0], []).extend(
                        metrics.get(name).values)
            r.layer.update(
                shard_skew=max(shard) / statistics.fmean(shard) if shard else 0.0,
                **{f"queue_mean.{role}": statistics.fmean(v) if v else 0.0
                   for role, v in queues.items()},
            )
            _traced_procs(r, r.cpu_s, tracer, [], {})
            return r
        finally:
            if traced:
                spans.uninstall()


class SimCountSamps(Workload):
    """The paper's Fig 6/7 job: 4 Zipf sources, 10 KB/s star, adaptive k."""

    name = "sim-countsamps"
    NOMINAL_RATE = 23_000.0
    SETUP_REPS = 20
    SOURCES = 4
    ITEMS = 25_000
    UNIVERSE = 2000
    SKEW = 1.3
    BANDWIDTH = 10_000.0
    SOURCE_RATE = 2000.0
    TOP_N = 10

    def __init__(self, seed: int, items: int = ITEMS) -> None:
        super().__init__(seed)
        self.items = items
        self.inputs = [
            zipf_values(random.Random(seed * 1000 + i), items, self.UNIVERSE, self.SKEW)
            for i in range(self.SOURCES)
        ]
        self.exact: Counter = Counter()
        for values in self.inputs:
            self.exact.update(values)

    def plan(self, seconds: float) -> Tuple[int, int]:
        """The whole job per round, repeated while it fits (at least twice)."""
        job = self.SOURCES * self.items
        return max(2, round(self.NOMINAL_RATE * seconds / job)), self.items

    def warmup(self) -> None:
        self.round(min(self.items, 2000))

    def round(self, items: int, traced: bool = False) -> Round:
        """The job on the first ``items`` items of every source."""
        inputs = [v[:items] for v in self.inputs]
        feed = Feed()
        tracer = spans.install() if traced else None
        try:
            constructed = time.monotonic_ns()
            hosts = [f"source-{i}" for i in range(self.SOURCES)]
            env = Environment()
            network = Network.star(env, "central", hosts, bandwidth=self.BANDWIDTH)
            registry = ServiceRegistry()
            registry.register_network(network)
            repository = CodeRepository()
            repository.publish("repo://count-samps/filter", CountFilter)
            repository.publish("repo://count-samps/join", CountJoin)
            config = build_distributed_config(
                self.SOURCES, hosts, sample_size=100.0, sample_size_min=10.0,
                sample_size_max=240.0, batch=500, top_n=self.TOP_N, seed=self.seed,
            )
            if traced:
                for stage in config.stages:
                    stage.properties["perfbench-trace"] = "1"
            launch_start = time.monotonic_ns()
            deployment = Launcher(Deployer(registry, repository)).launch(config)
            launch_s = (time.monotonic_ns() - launch_start) / 1e9
            runtime = SimulatedRuntime(env, network, deployment, adaptation_enabled=True)
            pulls = [array("q", bytes(8 * len(v))) for v in inputs]
            for i, values in enumerate(inputs):
                runtime.bind_source(SourceBinding(
                    f"stream-{i}", f"filter-{i}", recorded(values, pulls[i], feed),
                    rate=self.SOURCE_RATE, item_size=8.0,
                ))
            run_start = time.monotonic_ns()
            result = runtime.run()
            run_s = (time.monotonic_ns() - run_start) / 1e9
            join = result.final_value("join")
            attempted = sum(len(v) for v in inputs)
            assert feed.first_ns is not None
            r = Round(attempted=attempted, setup_s=(feed.first_ns - constructed) / 1e9)
            if not items:
                return r
            # An item's latency runs from its pull to the arrival of the
            # first summary whose items_seen covers it.
            covered: Dict[str, int] = {}
            arrivals, latencies = array("q"), array("q")
            for source, seen, at in join["arrivals"]:
                i = int(source.rsplit("-", 1)[1])
                for j in range(covered.get(source, 0), min(seen, len(inputs[i]))):
                    arrivals.append(at)
                    latencies.append(at - pulls[i][j])
                covered[source] = max(covered.get(source, 0), seen)
            # A source's items count once a summary covering them reached
            # the join; items its filter saw beyond its own are duplicates
            # and fail as many.
            for i, values in enumerate(inputs):
                seen = result.final_value(f"filter-{i}")["items_seen"]
                r.ok += max(0, min(covered.get(f"filter-{i}", 0), len(values))
                            - max(0, seen - len(values)))
            r.delivered = attempted
            r.window_s = run_s
            r.cpu_s = join["cpu_last"] - feed.cpu_first
            r.rss_kb = own_rss_kb()
            r.slices = latency_slices(arrivals, latencies)
            exact = Counter(itertools.chain(*inputs)) if items < self.items else self.exact
            r.accuracy = topk_accuracy(join["topk"], exact, self.TOP_N)
            metrics = result.metrics
            final_k = [
                result.stage(f"filter-{i}").parameter_history["sample-size"].last()[1]
                for i in range(self.SOURCES)
            ]
            r.layer.update(
                launch_s=launch_s,
                sim_time_s=result.execution_time,
                link_messages=_sum(metrics, "link.", ".messages"),
                final_k=statistics.fmean(final_k),
                summary_bytes=result.stage("join").bytes_in,
            )
            r.fingerprint = (r.accuracy, result.execution_time, tuple(final_k))
            _traced_procs(r, r.cpu_s, tracer, [], {})
            return r
        finally:
            if traced:
                spans.uninstall()


WORKLOADS = {
    "sim-countsamps": lambda seed: SimCountSamps(seed),
    "net-saturate": lambda seed: NetPipeline(seed, "net-saturate", batched=True, rate=None),
    "net-paced": lambda seed: NetPipeline(seed, "net-paced", batched=False, rate=PACED_RATE),
    "threaded-keyed": lambda seed: ThreadedKeyed(seed),
}
