"""Real-thread runtime with token-bucket throttled links.

The paper ran GATES stages as JVM threads over delay-injected cluster
links; this runtime is the Python equivalent, demonstrating the same
middleware (processors, adjustment parameters, the Section 4 adaptation
algorithm) under genuine concurrency and wall-clock time.

Compared to :class:`~repro.core.runtime_sim.SimulatedRuntime` it is
programmatic (stages and edges are added directly rather than via a
Deployment) and inherently noisy — exactly the "impact of the thread
scheduler" the paper observed.  The benchmark harness therefore uses the
simulated runtime; this one backs the threaded example and its
timing-tolerant tests.

Processing cost is modeled by sleeping ``cost * time_scale`` seconds per
item (``time_scale`` defaults to 1.0; tests shrink it).

Fault tolerance (``resilience=``) covers the subset that makes sense
without a simulated fabric: poison-item quarantine under the configured
``error_policy`` (skip / dead-letter) and periodic stage checkpointing
to a :class:`~repro.resilience.checkpoint.CheckpointStore` — threads do
not crash-stop like simulated hosts, so live failover and replay remain
:class:`~repro.core.runtime_sim.SimulatedRuntime` features (see
docs/fault_tolerance.md).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.adaptation.policy import AdaptationPolicy
from repro.core.api import StreamProcessor
from repro.core.batching import BatchPolicy
from repro.core.items import EndOfStream, Item
from repro.core.results import RunResult
from repro.core.ingress import Ingress, SourceBinding, check_source, resolve_source
from repro.core.sharding import (
    ShardGroup,
    ShardScaler,
    expand_shards,
    export_keyed_state,
    extract_key,
    groups_of,
    import_keyed_state,
)
from repro.core.stagecore import OutEdge, StageCore, queue_capacity
from repro.obs.registry import Counter, MetricsRegistry
from repro.obs.tracing import TraceCollector, publish_traces
from repro.resilience.checkpoint import CheckpointStore, MemoryCheckpointStore
from repro.resilience.policy import DeadLetterQueue, ResilienceConfig
from repro.simnet.links import TokenBucket

__all__ = ["ThreadedRuntime", "ThreadedRuntimeError"]


class ThreadedRuntimeError(Exception):
    """Raised for invalid threaded-runtime configuration or timeouts."""


class _MonitoredQueue:
    """Bounded thread-safe FIFO satisfying the estimator's QueueLike protocol.

    ``put`` blocks while the queue holds ``capacity`` items, so a slow
    consumer exerts real backpressure on its producers — the Section-4
    queue-length signal stays meaningful instead of saturating on an
    unbounded deque.  ``force_put`` bypasses the bound for control
    messages that must never deadlock (the error-path end-of-stream),
    and ``close`` releases any blocked producers when the consumer dies.
    """

    def __init__(self, capacity: int, window: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self._recent: deque = deque([0], maxlen=window)

    def put(self, item: Any) -> bool:
        """Append one item, blocking while the queue is at capacity.

        Returns whether the producer had to wait for space.
        """
        waited = False
        with self._lock:
            while len(self._items) >= self.capacity and not self._closed:
                waited = True
                self._not_full.wait()
            if self._closed:
                return waited
            self._items.append(item)
            self._recent.append(len(self._items))
            self._not_empty.notify()
        return waited

    def put_many(self, items: List[Any]) -> None:
        """Append a batch under one lock acquisition, respecting capacity.

        Blocks whenever the queue is full, appending as many items as fit
        per wakeup — the capacity bound holds exactly, the per-item lock
        and notify round-trips are amortized over the batch.
        """
        with self._lock:
            index = 0
            while index < len(items):
                while len(self._items) >= self.capacity and not self._closed:
                    self._not_full.wait()
                if self._closed:
                    return
                while index < len(items) and len(self._items) < self.capacity:
                    self._items.append(items[index])
                    index += 1
                self._recent.append(len(self._items))
                self._not_empty.notify()

    def force_put(self, item: Any) -> None:
        """Append regardless of capacity; never blocks.

        Reserved for control messages a dying producer must deliver (its
        end-of-stream) — blocking there could deadlock against a consumer
        that will never drain.
        """
        with self._lock:
            if self._closed:
                return
            self._items.append(item)
            self._recent.append(len(self._items))
            self._not_empty.notify()

    def close(self) -> None:
        """Mark the consumer gone: wake and release every blocked producer.

        Subsequent puts are dropped silently — there is nobody left to
        process them, and blocking a healthy upstream stage on a dead
        downstream queue would turn one stage failure into a run-wide
        deadlock.
        """
        with self._lock:
            self._closed = True
            self._not_full.notify_all()

    def get(self, timeout: Optional[float] = None) -> Any:
        return self.get_many(1, timeout)[0]

    def get_many(self, max_items: int, timeout: Optional[float] = None) -> List[Any]:
        """Block for the first item (up to ``timeout`` seconds; None =
        forever), then drain up to ``max_items`` without further waiting."""
        with self._lock:
            deadline = None if timeout is None else time.monotonic() + timeout
            while not self._items:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError("queue get timed out")
                self._not_empty.wait(remaining)
            taken = []
            while self._items and len(taken) < max_items:
                taken.append(self._items.popleft())
            self._recent.append(len(self._items))
            self._not_full.notify(len(taken))
            return taken

    @property
    def current_length(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def recent_average(self) -> float:
        with self._lock:
            return sum(self._recent) / len(self._recent)


@dataclass
class _ThreadEdge:
    dst: "_ThreadStage"
    bucket: Optional[TokenBucket]
    name: Optional[str] = None


@dataclass
class _ThreadStage:
    name: str
    queue: _MonitoredQueue
    core: StageCore
    out_edges: List[_ThreadEdge] = field(default_factory=list)
    #: ``shard.{stage}.items`` counter handle (replica stages only).
    shard_items: Optional[Counter] = None
    #: Items routed to this stage through a shard group (reserved under
    #: the group's lock) vs items its worker finished with (written by
    #: the worker thread only).  The autoscaler drains a group by waiting
    #: for the two to meet.
    delivered: int = 0
    consumed: int = 0
    #: Serializes the Section-4 monitor tick (which adjusts parameters)
    #: against the checkpointer's parameter snapshot.
    param_lock: threading.Lock = field(default_factory=threading.Lock)
    #: Serializes arrival-rate observations (several producer threads
    #: feed one queue; the estimator requires non-decreasing times).
    rate_lock: threading.Lock = field(default_factory=threading.Lock)
    #: Serializes processor mutation (on_item/flush in the worker) against
    #: the checkpointer thread's snapshot(), keeping checkpoints
    #: item-consistent.
    state_lock: threading.Lock = field(default_factory=threading.Lock)
    done: threading.Event = field(default_factory=threading.Event)
    error: Optional[BaseException] = None


@dataclass
class _GroupState:
    """Runtime state of one shard group (threaded runtime).

    ``lock`` serializes routing decisions against scale transitions: a
    producer holds it while it picks an item's owner and reserves the
    delivery, the autoscaler holds it for a whole rebalance, so no item
    is partitioned with a stale active count while keyed state is in
    flight.
    """

    group: ShardGroup
    members: List[_ThreadStage]
    lock: threading.Lock = field(default_factory=threading.Lock)

    def select(self, payload: Any, slot: Optional[int] = None) -> int:
        """Pick the owning replica (unless ``slot`` names one) and
        reserve the delivery to it.

        The reservation (``delivered``) is taken under the routing lock
        together with the owner decision; the hand-off itself happens
        after the lock is released.  A rebalance therefore waits for
        every reserved item to be delivered and consumed before it
        moves keyed state, and a throttled or full replica stalls only
        the producer, never the routing lock.
        """
        group = self.group
        with self.lock:
            if slot is None:
                slot = group.partitioner.select(extract_key(payload, group.shard_by), group.active)
            self.members[slot].delivered += 1
        return slot


def _daemon(target: Callable[..., None], *args: Any) -> threading.Thread:
    return threading.Thread(target=target, args=args, daemon=True)


def _sleep_until_due(due: float, gaps: Iterator[float]) -> float:
    """Advance a source's schedule by one gap and sleep until then.

    Each payload is taken one gap after the previous one, as in the
    simulator; a feeder behind its schedule does not sleep, so
    oversleeping and handoff cost do not add up.
    """
    due += next(gaps)
    wait = due - time.monotonic()
    if wait > 0:
        time.sleep(wait)
    return due


class ThreadedRuntime:
    """Programmatic pipeline executed on real threads.

    Example::

        rt = ThreadedRuntime(time_scale=0.01)
        rt.add_stage("sampler", SamplerProcessor())
        rt.add_stage("sink", SinkProcessor())
        rt.connect("sampler", "sink", bandwidth=10_000)
        rt.bind_source("gen", "sampler", payloads, rate=200.0)
        result = rt.run(timeout=30.0)
    """

    def __init__(
        self,
        policy: Optional[AdaptationPolicy] = None,
        time_scale: float = 1.0,
        adaptation_enabled: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        trace_every: Optional[int] = None,
        resilience: Optional[ResilienceConfig] = None,
        checkpoints: Optional[CheckpointStore] = None,
        batch: Optional[BatchPolicy] = None,
    ) -> None:
        """``metrics``/``trace_every``/``resilience`` mirror
        :class:`~repro.core.runtime_sim.SimulatedRuntime`: both runtimes
        publish the same ``stage.*`` / ``adapt.*`` metric families, and
        both quarantine poison items and checkpoint on a cadence when
        ``resilience`` is given (failover/replay are simulation-only).

        ``batch`` enables the micro-batched emission fast path for every
        stage (``batch-max-items`` / ``batch-max-delay`` stage properties
        override it per stage); ``max_delay`` is in scaled seconds, like
        processing cost.  See docs/performance.md.
        """
        if time_scale <= 0:
            raise ThreadedRuntimeError(f"time_scale must be > 0, got {time_scale}")
        self.policy = policy or AdaptationPolicy()
        self.time_scale = time_scale
        self.adaptation_enabled = adaptation_enabled
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer: Optional[TraceCollector] = (
            TraceCollector(trace_every) if trace_every is not None else None
        )
        self.batch = batch
        self.resilience = resilience
        self.checkpoints: Optional[CheckpointStore] = None
        self.dead_letters: Optional[DeadLetterQueue] = None
        if resilience is not None:
            self.checkpoints = (
                checkpoints if checkpoints is not None else MemoryCheckpointStore()
            )
            self.dead_letters = DeadLetterQueue(resilience.dead_letter_limit)
        elif checkpoints is not None:
            raise ThreadedRuntimeError("checkpoints= requires resilience= as well")
        self._stages: Dict[str, _ThreadStage] = {}
        self._sources: List[SourceBinding] = []
        self._groups: Dict[str, _GroupState] = {}
        self._start_time = 0.0
        self._started = False
        #: Completed planned moves (MigrationReport), in commit order.
        self.migrations: List[Any] = []
        #: Per-stage lock serializing migrate_stage() calls: a second
        #: request while one is in flight queues at the lock, never
        #: interleaves.
        self._migration_locks: Dict[str, threading.Lock] = {}

    def elapsed(self) -> float:
        """Wall-clock seconds since :meth:`run` started."""
        return time.monotonic() - self._start_time

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_config(
        cls,
        config: "AppConfig",  # noqa: F821 - imported lazily below
        repository: Optional[Any] = None,
        *,
        verify: bool = True,
        **kwargs: Any,
    ) -> "ThreadedRuntime":
        """Build a runtime with stages and streams from an AppConfig.

        Resolves each stage's code URL through ``repository`` (default:
        the built-in application repository), instantiates the
        processors, and wires the declared streams.  Sources still need
        :meth:`bind_source`; ``kwargs`` pass through to the constructor.

        ``verify=True`` (the default) runs the static verifier
        (:mod:`repro.analysis.verifier`) first and refuses configurations
        with error-severity findings — the threaded runtime's pre-deploy
        gate; pass ``verify=False`` to skip it.
        """
        if repository is None:
            from repro.net.worker import default_repository

            repository = default_repository()
        if verify:
            from repro.analysis.verifier import verify_config

            report = verify_config(config, repository=repository)
            if not report.ok:
                raise ThreadedRuntimeError(
                    f"configuration {config.name!r} failed verification "
                    f"({report.summary_line()}):\n{report.render_text()}"
                )
        config.validate()
        config = expand_shards(config)
        runtime = cls(**kwargs)
        for stage in config.stages:
            factory = repository.fetch(stage.code_url)
            runtime.add_stage(stage.name, factory(), properties=stage.properties)
        for stream in config.streams:
            runtime.connect(stream.src, stream.dst, name=stream.name)
        return runtime

    def add_stage(
        self,
        name: str,
        processor: StreamProcessor,
        properties: Optional[Dict[str, str]] = None,
    ) -> None:
        """Register a stage; its properties set the queue capacity C."""
        if self._started:
            raise ThreadedRuntimeError("cannot add stages after run()")
        if name in self._stages:
            raise ThreadedRuntimeError(f"duplicate stage {name!r}")
        if not isinstance(processor, StreamProcessor):
            raise ThreadedRuntimeError(f"{name}: processor must be a StreamProcessor")
        properties = dict(properties or {})
        queue = _MonitoredQueue(queue_capacity(properties), self.policy.window)
        core = StageCore(
            name, properties, queue, self.policy, self.metrics,
            clock=self.elapsed, error=ThreadedRuntimeError, batch=self.batch,
            time_scale=self.time_scale, resilience=self.resilience,
            dead_letters=self.dead_letters,
        )
        # The processor is set up at run() start, once the edges exist.
        core.processor = processor
        self._stages[name] = _ThreadStage(name=name, queue=queue, core=core)

    def connect(
        self,
        src: str,
        dst: str,
        bandwidth: Optional[float] = None,
        name: Optional[str] = None,
    ) -> None:
        """Wire src -> dst, optionally through a token-bucket limited link.

        ``bandwidth`` is bytes/second of *scaled* time (i.e. the effective
        rate is bandwidth / time_scale in wall seconds).  ``name`` makes
        the edge addressable by ``context.emit(..., stream=name)``.
        """
        if self._started:
            raise ThreadedRuntimeError("cannot connect stages after run()")
        try:
            source, target = self._stages[src], self._stages[dst]
        except KeyError as exc:
            raise ThreadedRuntimeError(f"unknown stage {exc}") from None
        bucket = None
        if bandwidth is not None:
            if bandwidth <= 0:
                raise ThreadedRuntimeError(f"bandwidth must be > 0, got {bandwidth}")
            # Burst of ~10 ms of tokens: enough to amortize per-message
            # overhead, small enough that short transfers still see the
            # configured rate (a 1 s burst would let whole test workloads
            # through unthrottled).
            bucket = TokenBucket(
                rate=bandwidth, burst=max(1.0, bandwidth * 0.01), clock=time.monotonic
            )
        source.out_edges.append(_ThreadEdge(dst=target, bucket=bucket, name=name))
        target.core.upstream.append(source.core)
        target.core.eos.expect()

    def bind_source(
        self,
        name: str,
        target: str,
        payloads: Iterable[Any],
        rate: Optional[float] = None,
        item_size: float | Callable[[Any], float] = 8.0,
        arrivals: Optional[Any] = None,
    ) -> None:
        """Attach an external stream (rate in items per *scaled* second).

        ``arrivals`` (an :class:`~repro.streams.arrivals.ArrivalProcess`)
        overrides ``rate`` with per-item gaps, as in the simulated runtime.

        ``target`` may also name a shard group (the declared name of a
        stage expanded into replicas): the feeder then routes each item
        to its key's owning replica and delivers one end-of-stream
        sentinel per replica slot.
        """
        if self._started:
            raise ThreadedRuntimeError("cannot bind sources after run()")
        binding = SourceBinding(name, target, payloads, rate, item_size, arrivals)
        stages = {name: stage.core.properties for name, stage in self._stages.items()}
        check_source(binding, stages, ThreadedRuntimeError)
        self._sources.append(binding)

    # -- execution ----------------------------------------------------------------

    def run(self, timeout: float = 120.0) -> RunResult:
        """Run all threads to completion (or raise on ``timeout``)."""
        if self._started:
            raise ThreadedRuntimeError("run() may only be called once")
        self._build_shards()
        groups = {name: (state.group.members, state.select) for name, state in self._groups.items()}
        ingresses = [resolve_source(source, self._stages, groups) for source in self._sources]
        for ingress in ingresses:
            for stage in ingress.targets:
                stage.core.eos.expect()
        for stage in self._stages.values():
            stage.core.require_input()
        self._started = True
        self._start_time = time.monotonic()
        result = RunResult(app_name="threaded-app")

        for stage in self._stages.values():
            stage.core.setup(stage.core.processor)

        threads: List[threading.Thread] = []
        stop_monitors = threading.Event()
        for stage in self._stages.values():
            threads.append(_daemon(self._worker, stage))
            if self.adaptation_enabled:
                _daemon(self._monitor, stage, stop_monitors).start()
            if (
                self.resilience is not None
                and self.resilience.checkpoint_interval is not None
            ):
                _daemon(self._checkpointer, stage, stop_monitors).start()
        for state in self._groups.values():
            if state.group.policy.elastic:
                _daemon(self._autoscaler, state, stop_monitors).start()
        threads.extend(_daemon(self._feeder, ingress) for ingress in ingresses)
        for thread in threads:
            thread.start()

        deadline = time.monotonic() + timeout
        for stage in self._stages.values():
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not stage.done.wait(remaining):
                stop_monitors.set()
                raise ThreadedRuntimeError(
                    f"stage {stage.name!r} did not finish within {timeout}s"
                )
        stop_monitors.set()

        errors = [s.error for s in self._stages.values() if s.error is not None]
        if errors:
            raise errors[0]

        result.execution_time = self.elapsed()
        self.metrics.gauge("run.execution_time").set(result.execution_time)
        for group_name, state in self._groups.items():
            self.metrics.gauge(f"shard.{group_name}.replicas").set(float(state.group.active))
        if self.tracer is not None:
            result.traces = self.tracer.traces
            publish_traces(self.metrics, result.traces)
        for stage in self._stages.values():
            result.stages[stage.name] = stage.core.stats(self.elapsed(), "local-thread")
        result.metrics = self.metrics
        return result

    # -- thread bodies -----------------------------------------------------------

    def _observe_arrival(self, stage: _ThreadStage, count: int = 1) -> None:
        """Record ``count`` arrivals; the lock keeps observation times monotone.

        Several producer threads (feeders, upstream workers) may feed one
        queue; reading the clock *inside* the lock guarantees the
        estimator sees non-decreasing times.  A batched handoff is one
        observation with ``count=n`` — the estimator's burst semantics,
        not ``n`` zero-gap observations.
        """
        with stage.rate_lock:
            stage.core.arrivals.observe(self.elapsed(), count=count)

    def _feeder(self, ingress: Ingress[_ThreadStage]) -> None:
        """Feed one source on a running schedule (see :func:`_sleep_until_due`);
        a handoff that waited for queue space restarts it.  An unpaced
        source into one batching stage hands items over in chunks of its
        batch size (one lock round-trip and rate observation per chunk).
        """
        source = ingress.binding
        targets, owner, size_of = ingress.targets, ingress.owner, ingress.size_of
        gaps = ingress.gaps(self.time_scale)
        tracer = self.tracer
        stage = targets[0]
        batch = stage.core.batch
        chunking = batch is not None and gaps is None and owner is None
        chunk_limit = batch.max_items if batch is not None else 1
        chunk: List[Item] = []
        due = time.monotonic()
        for payload in source.payloads:
            if owner is not None:
                stage = targets[owner(payload)]
            item = Item(
                payload=payload, size=size_of(payload), origin=source.name,
                created_at=self.elapsed(),
            )
            if tracer is not None:
                item.trace = tracer.maybe_trace(source.name, item.created_at)
                if item.trace is not None:
                    self.metrics.counter("run.traced_items").inc()
                    item.hop = item.trace.begin_hop(stage.name, self.elapsed())
            if chunking:
                chunk.append(item)
                if len(chunk) >= chunk_limit:
                    stage.queue.put_many(chunk)
                    self._observe_arrival(stage, count=len(chunk))
                    chunk = []
                continue
            if stage.queue.put(item):
                due = time.monotonic()
            self._observe_arrival(stage)
            if owner is not None and stage.shard_items is not None:
                stage.shard_items.inc()
            if gaps is not None:
                due = _sleep_until_due(due, gaps)
        if chunk:
            stage.queue.put_many(chunk)
            self._observe_arrival(stage, count=len(chunk))
        for stage in targets:
            stage.queue.put(EndOfStream(origin=source.name))

    def _worker(self, stage: _ThreadStage) -> None:
        core = stage.core
        batch = core.batch
        batching = batch is not None and bool(stage.out_edges)
        # Chunked input drain applies to every stage under a batch policy
        # (sinks included — they have no output buffers but still benefit
        # from amortized queue locking and aggregated accounting).
        chunk = batch.max_items if batch is not None else 1
        local: deque = deque()
        try:
            while True:
                if not local:
                    try:
                        drained = stage.queue.get_many(chunk, timeout=core.flush_timeout())
                        local.extend(drained)
                        core.arrived(drained)
                    except TimeoutError:
                        # No input before the oldest batch's age bound:
                        # flush whatever is due and keep waiting.
                        self._flush_due(stage)
                        continue
                message = local.popleft()
                if isinstance(message, EndOfStream):
                    with stage.state_lock:
                        if not core.end_of_stream():
                            continue
                    self._transmit_pending(stage)
                    for index in range(len(stage.out_edges)):
                        self._flush_edge(stage, index)
                    for edge in stage.out_edges:
                        edge.dst.queue.put(EndOfStream(origin=stage.name))
                    return
                cost = core.take(message)
                if cost:
                    time.sleep(cost)
                    core.worked(message, cost)
                with stage.state_lock:
                    poison = core.process(message)
                stage.consumed += 1
                if poison is not None:
                    continue
                hop = message.hop
                if batching:
                    # Transmission happens at flush time; _flush_edge
                    # shares the measured wait across the batch's parent
                    # hops instead of this blanket attribution.  Untraced
                    # emissions are handed over once per drained chunk —
                    # traced items transmit immediately so hop attribution
                    # stays per parent item.  Age flushes are likewise
                    # checked once per chunk; the drain spans
                    # microseconds, far inside any sane max_delay.
                    if message.trace is not None:
                        self._transmit_pending(stage, trace=message.trace, hop=hop)
                    if not local:
                        self._transmit_pending(stage)
                        self._flush_due(stage)
                elif hop is not None:
                    tx_start = self.elapsed()
                    self._transmit_pending(stage, trace=message.trace, hop=hop)
                    hop.tx_t += self.elapsed() - tx_start
                else:
                    self._transmit_pending(stage, trace=message.trace, hop=hop)
        except BaseException as exc:  # noqa: BLE001 - surfaced by run()
            stage.error = exc
            # Release every neighbour promptly: producers blocked on our
            # bounded queue are woken (close), and downstream stages get
            # our end-of-stream so run() surfaces this error instead of
            # timing out.  force_put: a full downstream queue must not
            # block a dying stage.
            stage.queue.close()
            for edge in stage.out_edges:
                edge.dst.queue.force_put(EndOfStream(origin=stage.name))
        finally:
            stage.done.set()

    def _transmit_pending(self, stage: _ThreadStage, trace=None, hop=None) -> None:
        """Route the stage's emissions.

        Buffered edges accumulate (stamped ``created_at=now``: time spent
        waiting in the buffer is real latency, accounted downstream) and
        ship when full.  Unbuffered edges — every edge without a batch
        policy, and shard-family edges always, since a buffered item
        routed with a pre-rebalance active count would land on a stale
        owner after the handoff — ship per item.
        """
        core = stage.core
        if not core.pending:
            return
        for index, payload, size in core.drain(self.elapsed(), trace, hop):
            self._send(stage, index, payload, size, trace)
        for index in core.take_full():
            self._flush_edge(stage, index)

    def _send(
        self, stage: _ThreadStage, index: int, payload: Any, size: float, trace=None
    ) -> None:
        """Hand one emission to an edge's destination queue.

        A throttled edge first sleeps out its token-bucket charge, so
        the item arrives once its transmission time has passed.
        Emissions share the parent item's trace; the hop opens before
        the put because the downstream worker may dequeue immediately.
        """
        edge = stage.out_edges[index]
        if edge.bucket is not None:
            wait = edge.bucket.consume(size)
            if wait > 0:
                time.sleep(wait * self.time_scale)
        item = Item(
            payload=payload, size=size, origin=stage.name,
            created_at=self.elapsed(), trace=trace,
        )
        if trace is not None:
            item.hop = trace.begin_hop(edge.dst.name, self.elapsed())
        edge.dst.queue.put(item)
        self._observe_arrival(edge.dst)

    # -- micro-batch flushing ----------------------------------------------

    def _flush_due(self, stage: _ThreadStage) -> None:
        for index in stage.core.due():
            self._flush_edge(stage, index, age=True)

    def _flush_edge(self, stage: _ThreadStage, index: int, age: bool = False) -> None:
        """Ship one edge's accumulated batch downstream.

        One token-bucket charge and one (amortized) queue handoff for the
        whole batch; the measured transmission wait is shared equally
        across the batch's traced parent hops.
        """
        entries = stage.core.take_batch(index, age)
        if not entries:
            return
        edge = stage.out_edges[index]
        count = len(entries)
        tx_wall = 0.0
        if edge.bucket is not None:
            wait = edge.bucket.consume(sum(entry[1] for entry in entries))
            if wait > 0:
                tx_wall = wait * self.time_scale
                time.sleep(tx_wall)
        share = tx_wall / count
        now = self.elapsed()
        items: List[Item] = []
        for payload, size, created, trace, parent_hop in entries:
            if parent_hop is not None and share > 0:
                parent_hop.tx_t += share
            item = Item(
                payload=payload, size=size, origin=stage.name, created_at=created, trace=trace
            )
            if trace is not None:
                item.hop = trace.begin_hop(edge.dst.name, now)
            items.append(item)
        edge.dst.queue.put_many(items)
        self._observe_arrival(edge.dst, count=count)

    # -- sharding and elastic scaling ---------------------------------------

    def _build_shards(self) -> None:
        """Discover shard groups and wire every stage's routing table.

        Runs once at :meth:`run` start: reconstructs the groups from the
        expanded stages' properties, binds the ``shard.{stage}.items``
        counters, and hands each stage's out-edges to its core.  Edges
        into a shard group get no batch buffer: they route per item
        under the group's lock (see :meth:`_GroupState.select`).
        """
        groups = groups_of({name: s.core.properties for name, s in self._stages.items()})
        self._groups = {
            name: _GroupState(group, [self._stages[m] for m in group.members])
            for name, group in groups.items()
        }
        member_slot: Dict[str, Tuple[str, int]] = {}
        for group_name, state in self._groups.items():
            for index, member in enumerate(state.members):
                member_slot[member.name] = (group_name, index)
                member.shard_items = self.metrics.counter(f"shard.{member.name}.items")
        families = {
            name: (len(state.members), state.select)
            for name, state in self._groups.items()
        }
        for stage in self._stages.values():
            edges = []
            for edge in stage.out_edges:
                group, slot = member_slot.get(edge.dst.name, (None, 0))
                edges.append(
                    OutEdge(edge.name, edge.dst.name, group, slot, buffered=group is None)
                )
            stage.core.wire(edges, families)

    def _autoscaler(self, state: _GroupState, stop: threading.Event) -> None:
        """Per-group control loop: occupancy samples in, rebalances out.

        Samples mean queue occupancy across the group's active replicas
        on the adaptation cadence (the Section-4 queue-length signal,
        normalized by capacity), feeds it to a :class:`ShardScaler`, and
        executes the transitions it decides.  Every transition is
        recorded in the ``scale.*`` metric family.
        """
        group_name = state.group.name
        members = state.members
        scaler = ShardScaler(state.group.policy, state.group.active)
        replicas_series = self.metrics.series(f"scale.{group_name}.replicas")
        scale_ups = self.metrics.counter(f"scale.{group_name}.scale_ups")
        scale_downs = self.metrics.counter(f"scale.{group_name}.scale_downs")
        rebalance_seconds = self.metrics.histogram(
            f"scale.{group_name}.rebalance_seconds"
        )
        interval = self.policy.sample_interval * self.time_scale
        replicas_series.record(self.elapsed(), float(state.group.active))
        while not stop.is_set():
            if stop.wait(interval):
                return
            if all(member.done.is_set() for member in members):
                return
            active_members = members[: state.group.active]
            occupancy = sum(
                min(1.0, m.queue.current_length / m.queue.capacity)
                for m in active_members
            ) / len(active_members)
            previous = state.group.active
            target = scaler.observe(occupancy)
            if target is None or target == previous:
                continue
            started = time.monotonic()
            if self._rebalance(state, members, target):
                rebalance_seconds.observe(time.monotonic() - started)
                (scale_ups if target > previous else scale_downs).inc()
                replicas_series.record(self.elapsed(), float(state.group.active))
            else:
                # Transition aborted (a member finished or died mid-drain);
                # resync the scaler with reality.
                scaler.active = state.group.active

    def _rebalance(
        self, state: _GroupState, members: List[_ThreadStage], target: int
    ) -> bool:
        """Move the group to ``target`` active replicas with state handoff.

        Protocol: take the routing lock (producers can no longer route to
        the group), wait until every previously-active member has
        processed everything already delivered, export each member's
        keyed state (under its state lock, serializing against on_item
        and the checkpointer), repartition the merged state by the new
        active count, import, then publish the new count and release.

        Returns False — leaving the active count untouched — when a
        member terminates or errors while draining.
        """
        group = state.group
        with state.lock:
            previous = group.active
            while any(m.delivered > m.consumed for m in members[:previous]):
                if any(m.done.is_set() for m in members):
                    return False
                # The routing lock *is* the drain barrier here: producers
                # must stay parked while already-delivered items drain, so
                # this poll deliberately sleeps under the lock.
                time.sleep(0.001)  # repro: noqa[GA601]
            merged: Dict[Any, Any] = {}
            exported = False
            for member in members[:previous]:
                with member.state_lock:
                    keyed = export_keyed_state(member.core.processor)
                if keyed is not None:
                    exported = True
                    merged.update(keyed)
            if exported:
                buckets: List[Dict[Any, Any]] = [{} for _ in range(target)]
                for key, value in merged.items():
                    buckets[group.partitioner.select(key, target)][key] = value
                for index in range(target):
                    member = members[index]
                    with member.state_lock:
                        import_keyed_state(member.core.processor, buckets[index])
            group.active = target
        return True

    def _checkpointer(self, stage: _ThreadStage, stop: threading.Event) -> None:
        """Snapshot ``stage`` every ``checkpoint_interval`` scaled seconds.

        The threaded runtime has no replay buffer (threads do not
        crash-stop), so checkpoints carry empty cursors — they exist for
        durability (e.g. a :class:`JsonlCheckpointStore` a later process
        resumes from), not live failover.
        """
        assert self.resilience is not None
        assert self.resilience.checkpoint_interval is not None
        interval = self.resilience.checkpoint_interval * self.time_scale
        while not stop.is_set() and not stage.done.is_set():
            if stop.wait(interval):
                return
            if stage.done.is_set():
                return
            self._checkpoint_stage(stage)

    def _checkpoint_stage(self, stage: _ThreadStage) -> None:
        assert self.checkpoints is not None
        core = stage.core
        with stage.state_lock:
            processor_state = core.processor.snapshot()
        with stage.param_lock:
            checkpoint = core.checkpoint(processor_state)
        self.checkpoints.save(checkpoint)
        self.metrics.counter(f"recovery.{stage.name}.checkpoints").inc()

    def migrate_stage(self, stage_name: str, factory: Optional[Callable[[], StreamProcessor]] = None):
        """Swap a running stage's processor live, preserving its state.

        The threaded runtime has no placement fabric, so its "move" is
        the processor half of a migration: snapshot the live processor
        at an item boundary (under ``state_lock``, exactly like the
        checkpointer), instantiate a replacement (``factory`` or the
        same class), re-run ``setup()`` with parameter re-declaration
        bound to the live adjustment parameters, ``restore()`` the
        snapshot into it, and swap — while the worker thread is parked
        at the lock.  Concurrent calls for the same stage queue at a
        per-stage lock; no two moves interleave.

        Returns the :class:`~repro.resilience.migration.MigrationReport`
        (hosts are ``"local"``; the pause is wall-clock scaled seconds).
        """
        from repro.resilience.migration import MigrationReport

        stage = self._stages.get(stage_name)
        if stage is None:
            raise ThreadedRuntimeError(f"unknown stage {stage_name!r}")
        lock = self._migration_locks.setdefault(stage_name, threading.Lock())
        with lock:
            requested_at = self.elapsed()
            t0 = time.monotonic()
            core = stage.core
            with stage.state_lock:
                if stage.done.is_set():
                    raise ThreadedRuntimeError(
                        f"stage {stage_name!r} already finished; nothing to migrate"
                    )
                state = core.processor.snapshot()
                replacement = (factory or type(core.processor))()
                if not isinstance(replacement, StreamProcessor):
                    raise ThreadedRuntimeError(
                        f"stage {stage_name!r}: replacement is not a "
                        f"StreamProcessor (got {type(replacement).__name__})"
                    )
                core.setup(replacement, restoring=True)
                if state is not None:
                    replacement.restore(state)
            pause = (time.monotonic() - t0) / self.time_scale
            self.metrics.counter(f"migration.{stage_name}.moves").inc()
            self.metrics.histogram(f"migration.{stage_name}.pause_seconds").observe(pause)
            report = MigrationReport(
                stage=stage_name,
                from_host="local",
                to_host="local",
                trigger="manual",
                requested_at=requested_at,
                completed_at=self.elapsed(),
                pause_seconds=pause,
                items_replayed=0,
                duplicates=0,
                planned=True,
            )
            self.migrations.append(report)
            return report

    def _monitor(self, stage: _ThreadStage, stop: threading.Event) -> None:
        interval = self.policy.sample_interval * self.time_scale
        while not stop.is_set() and not stage.done.is_set():
            if stop.wait(interval):
                return
            with stage.param_lock:
                stage.core.tick(self.elapsed())
