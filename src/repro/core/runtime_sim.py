"""Deterministic discrete-event runtime for deployed GATES applications.

This module ties everything together: it takes a
:class:`~repro.grid.deployer.Deployment` (stages already placed on hosts by
the grid substrate), wires the configured streams over the network's links,
instantiates the user processors inside their service instances, and runs
the pipeline plus the self-adaptation machinery as simulation processes.

Per stage, three kinds of processes run:

* the **worker** — pulls items from the stage's input queue, charges the
  host CPU for each item, invokes the user's
  :class:`~repro.core.api.StreamProcessor`, and transmits emissions over
  the (bandwidth-limited) links to downstream queues.  Sender-side
  blocking on a saturated link is what backs data up into the stage's own
  queue — the mechanism behind the network-constraint adaptation of
  Figure 9.
* the **monitor** — on the adaptation cadence, feeds the stage's
  :class:`~repro.core.adaptation.LoadEstimator`, forwards any over-/
  under-load exception to the *upstream* stages' exception counters, and
  every ``adjust_every`` samples runs the stage's
  :class:`~repro.core.adaptation.ParameterController` s.
* **source feeders** — external stream arrivals (instruments,
  simulations) bound to first-layer stages at a configurable rate.

Downstream queue occupancy beyond capacity C is allowed (``force_put``):
the paper's model *observes* saturation (that is the signal adaptation
responds to) rather than hard-failing; lengths are clamped to C inside
the load factors.

Fault tolerance (opt-in via ``resilience=``; see docs/fault_tolerance.md)
adds three more per-stage mechanisms:

* a **checkpointer** snapshots the stage (processor state, adjustment
  parameters, adaptation state, replay cursors) on a cadence — never
  mid-item, so checkpoints are always item-consistent;
* every queue insertion is recorded in a bounded per-channel **replay
  buffer**; the worker acknowledges a message only after fully
  processing it, and :meth:`SimulatedRuntime.failover_stage` rebuilds a
  crashed stage from its last checkpoint and re-delivers everything
  unacknowledged (at-least-once: duplicates are counted, not hidden);
* transmission faults on lossy links are **retried** with exponential
  backoff, and poison items are skipped or quarantined to a dead-letter
  queue under the configured error policy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.adaptation.policy import AdaptationPolicy
from repro.core.api import StreamProcessor
from repro.core.batching import BatchPolicy
from repro.core.ingress import Ingress, SourceBinding, check_source, resolve_source
from repro.core.items import EndOfStream, Item
from repro.core.results import RunResult
from repro.core.sharding import (
    SHARD_GROUP_PROPERTY,
    SHARD_INDEX_PROPERTY,
    ShardGroup,
    groups_of,
)
from repro.core.stagecore import OutEdge, StageCore, owner_select, queue_capacity
from repro.grid.config import StreamConfig
from repro.grid.deployer import Deployment
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import ItemTrace, TraceCollector, publish_traces
from repro.resilience.checkpoint import (
    CheckpointStore,
    MemoryCheckpointStore,
    StageCheckpoint,
)
from repro.resilience.policy import DeadLetterQueue, ResilienceConfig
from repro.resilience.replay import ReplayBuffers
from repro.simnet.engine import Environment, Event, SimulationError
from repro.simnet.hosts import HostFailedError
from repro.simnet.links import Link, TransmissionError
from repro.simnet.resources import BoundedQueue
from repro.simnet.topology import Network

__all__ = ["RuntimeError_", "SimulatedRuntime", "SourceBinding"]


class RuntimeError_(Exception):
    """Raised for invalid runtime configuration (name avoids the builtin)."""


@dataclass
class _Edge:
    """One wired stream: src stage -> (link or colocated) -> dst stage."""

    stream: StreamConfig
    dst: "_StageRuntime"
    #: Bottleneck link along the routed path (None when colocated).
    link: Optional[Link]
    #: Total propagation latency of the remaining hops.
    extra_latency: float = 0.0


class _BatchEnvelope:
    """Several Items shipped over a link as one transmission.

    The envelope pays one token-bucket charge for the summed size (the
    batched fast path's saving); :meth:`SimulatedRuntime._land` unpacks
    it so the destination still sees individual items — per-item replay
    recording, hop opening, and queue occupancy are unchanged.
    """

    __slots__ = ("items", "size", "origin")

    def __init__(self, items: List[Item], origin: str) -> None:
        self.items = items
        self.size = sum(item.size for item in items)
        self.origin = origin


@dataclass
class _StageRuntime:
    """Internal per-stage driver state around the stage's :class:`StageCore`."""

    name: str
    host_name: str
    queue: BoundedQueue
    core: StageCore
    out_edges: List[_Edge] = field(default_factory=list)
    done: bool = False
    # -- fault-tolerance state (used only with resilience enabled) --------
    #: Channel (message origin) -> sequence number of the last fully
    #: processed delivery.  Deliveries are per-channel FIFO, so the
    #: worker's increment-per-message stays aligned with the insertion
    #: sequence numbers the replay buffer assigns.
    cursors: Dict[str, int] = field(default_factory=dict)
    #: Incarnation counter; bumped per failover so superseded workers
    #: notice and exit instead of corrupting the restored state.
    generation: int = 0
    #: When the stage went down (None while healthy).
    down_since: Optional[float] = None
    #: True while the worker is between dequeue and acknowledgment; the
    #: checkpointer defers to keep checkpoints item-consistent.
    in_flight: bool = False
    checkpoint_due: bool = False
    #: True while a planned migration is draining/switching this stage;
    #: the recovery watch and failure detector must not treat the
    #: hand-off as an outage (see docs/migration.md).
    migrating: bool = False
    #: Worker generations superseded by a *planned* switch whose pending
    #: ``get`` may already hold an item: on resume they must give the
    #: item back (nothing replays on the planned path).  Entries are
    #: consumed by the superseded worker within the switch's timestep.
    requeue_generations: set = field(default_factory=set)

    @property
    def batched(self) -> bool:
        """Whether emissions accumulate in per-edge batch buffers."""
        return self.core.batch is not None and bool(self.out_edges)


class SimulatedRuntime:
    """Executes a deployment on the simulated grid fabric.

    Typical use::

        runtime = SimulatedRuntime(env, network, deployment)
        runtime.bind_source(SourceBinding("s0", "filter-0", payloads, rate=100.0))
        result = runtime.run()

    ``run`` drives the environment until every stage has flushed (or
    ``max_sim_time`` elapses) and returns a
    :class:`~repro.core.results.RunResult`.

    Passing ``resilience=ResilienceConfig(...)`` arms the fault-tolerance
    machinery (checkpointing, replay-based failover, transmission retry,
    poison-item quarantine); without it the runtime keeps the original
    fail-stop behaviour — any fault aborts the run.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        deployment: Deployment,
        policy: Optional[AdaptationPolicy] = None,
        adaptation_enabled: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        trace_every: Optional[int] = None,
        resilience: Optional[ResilienceConfig] = None,
        checkpoints: Optional[CheckpointStore] = None,
        batch: Optional[BatchPolicy] = None,
    ) -> None:
        """``metrics`` shares a registry (e.g. with a MonitoringService);
        ``trace_every=N`` hop-traces every N-th source arrival (None
        disables tracing; 1 traces everything).  ``checkpoints`` selects
        the checkpoint store (defaults to an in-memory one when
        ``resilience`` is given).  ``batch`` enables the micro-batched
        emission fast path for every stage (``batch-max-items`` /
        ``batch-max-delay`` stage properties override it per stage);
        ``max_delay`` is in simulated seconds.  See docs/performance.md.
        """
        self.env = env
        self.network = network
        self.deployment = deployment
        self.policy = policy or AdaptationPolicy()
        self.adaptation_enabled = adaptation_enabled
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer: Optional[TraceCollector] = (
            TraceCollector(trace_every) if trace_every is not None else None
        )
        self.batch = batch
        self.resilience = resilience
        self.checkpoints: Optional[CheckpointStore] = None
        self.replay: Optional[ReplayBuffers] = None
        self.dead_letters: Optional[DeadLetterQueue] = None
        self._retry_rng: Optional[random.Random] = None
        if resilience is not None:
            self.checkpoints = (
                checkpoints if checkpoints is not None else MemoryCheckpointStore()
            )
            self.replay = ReplayBuffers(resilience.replay_limit)
            self.dead_letters = DeadLetterQueue(resilience.dead_letter_limit)
            self._retry_rng = random.Random(resilience.seed)
        elif checkpoints is not None:
            raise RuntimeError_("checkpoints= requires resilience= as well")
        self._bindings: List[SourceBinding] = []
        self._ingresses: List[Ingress[_StageRuntime]] = []
        self._stages: Dict[str, _StageRuntime] = {}
        #: Shard groups reconstructed from the expanded config's replica
        #: markers (see repro.core.sharding); static here — the
        #: simulated runtime runs the declared active count unchanged.
        self._groups: Dict[str, ShardGroup] = {}
        self._shard_counters: Dict[str, Any] = {}
        self._stage_done: Dict[str, Event] = {}
        self._result: Optional[RunResult] = None
        self._built = False
        #: Completed planned moves, in commit order.
        self.migrations: List[Any] = []
        #: Per-stage FIFO of pending migration requests; a drainer
        #: process per stage serializes them (double triggers queue).
        self._migration_queues: Dict[str, List[Tuple[Any, Optional[str], str]]] = {}
        self._migration_drainers: set = set()

    # -- setup -------------------------------------------------------------

    def bind_source(self, binding: SourceBinding) -> None:
        """Attach an external stream to a stage (before :meth:`run`).

        ``target_stage`` may also name a shard *group* (the declared
        name of a stage expanded into replicas): the feeder then routes
        each arrival to the replica owning its key and delivers the
        end-of-stream sentinel to every replica slot.
        """
        if self._built:
            raise RuntimeError_("cannot bind sources after run()")
        stages = {stage.name: stage.properties for stage in self.deployment.config.stages}
        check_source(binding, stages, RuntimeError_)
        self._bindings.append(binding)

    def _build(self) -> None:
        config = self.deployment.config
        processors: Dict[str, StreamProcessor] = {}
        for stage_cfg in config.stages:
            host_name = self.deployment.host_of(stage_cfg.name)
            properties = {
                k: str(v)
                for k, v in self.deployment.instance_of(stage_cfg.name).properties.items()
            }
            queue = BoundedQueue(
                self.env, capacity=queue_capacity(properties), window=self.policy.window
            )
            processors[stage_cfg.name] = self._instantiate(stage_cfg.name)
            core = StageCore(
                stage_cfg.name, properties, queue, self.policy, self.metrics,
                clock=lambda: self.env.now, error=RuntimeError_, batch=self.batch,
                resilience=self.resilience, dead_letters=self.dead_letters,
            )
            stage = _StageRuntime(
                name=stage_cfg.name, host_name=host_name, queue=queue, core=core
            )
            if self.replay is not None:
                # Record every insertion at insertion time (including
                # blocked puts admitted later), so a failover's purge can
                # never outrun the replay record.
                queue.on_insert = (
                    lambda message, _stage=stage: self._record_delivery(_stage, message)
                )
            self._stages[stage_cfg.name] = stage

        # Reconstruct shard groups from the expanded config's markers.
        self._groups = groups_of(
            {name: stage.core.properties for name, stage in self._stages.items()}
        )
        for group in self._groups.values():
            for member in group.members:
                self._shard_counters[member] = self.metrics.counter(
                    f"shard.{member}.items"
                )

        # Wire edges over the network.
        for stream in config.streams:
            src = self._stages[stream.src]
            dst = self._stages[stream.dst]
            edge = _Edge(stream=stream, dst=dst, link=None)
            self._wire_edge(edge, src)
            src.out_edges.append(edge)
            dst.core.upstream.append(src.core)
            dst.core.eos.expect()
        families = {
            name: (len(group.members), owner_select(group.owner))
            for name, group in self._groups.items()
        }
        for stage in self._stages.values():
            edges = []
            for edge in stage.out_edges:
                dst = edge.dst.core.properties
                group, slot = dst.get(SHARD_GROUP_PROPERTY), int(dst.get(SHARD_INDEX_PROPERTY, 0))
                edges.append(OutEdge(edge.stream.name, edge.dst.name, group, slot, buffered=True))
            stage.core.wire(edges, families)

        # Account for external source bindings (a group target expects
        # one end-of-stream per replica slot — the feeder sends to all).
        groups = {name: (group.members, group.owner) for name, group in self._groups.items()}
        for binding in self._bindings:
            ingress = resolve_source(binding, self._stages, groups)
            for stage in ingress.targets:
                stage.core.eos.expect()
            self._ingresses.append(ingress)

        # Every stage must have at least one input, or it can never end.
        for stage in self._stages.values():
            stage.core.require_input()
        self._built = True

        # Call setup() on every processor (parameters get declared here).
        for stage in self._stages.values():
            stage.core.setup(processors[stage.name])

    def _instantiate(self, stage_name: str) -> StreamProcessor:
        """A fresh processor from the stage's (current) service instance."""
        processor = self.deployment.instance_of(stage_name).instantiate_processor()
        if not isinstance(processor, StreamProcessor):
            raise RuntimeError_(
                f"stage {stage_name!r} code is not a StreamProcessor "
                f"(got {type(processor).__name__})"
            )
        return processor

    def _wire_edge(self, edge: _Edge, src: _StageRuntime) -> None:
        """(Re)bind an edge to the current src/dst host placement."""
        src_host = src.host_name
        dst_host = edge.dst.host_name
        if src_host == dst_host:
            edge.link = None
            edge.extra_latency = 0.0
            return
        links = self.network.route(src_host, dst_host)
        bottleneck = min(links, key=lambda l: l.bandwidth)
        edge.extra_latency = sum(l.latency for l in links if l is not bottleneck)
        # The runtime tracks its own deliveries (it must attribute
        # each message to its edge); leaving inbox collection on
        # would let unrelated cross-traffic interleave and would
        # leak memory on long runs.
        bottleneck.collect_inbox = False
        bottleneck.bind_metrics(self.metrics)
        edge.link = bottleneck

    # -- execution -----------------------------------------------------------

    def run(self, max_sim_time: float = 1e7, stop_at: Optional[float] = None) -> RunResult:
        """Execute to completion and collect results.

        ``stop_at`` ends the run gracefully at that simulation time even
        if the pipeline has not drained — the mode for continuous-stream
        experiments (Figures 8/9) where the interesting output is the
        parameter trajectory, not a final answer.  Without it, the run
        ends when every stage has flushed, and exceeding ``max_sim_time``
        raises (a wedged pipeline is a bug, not a result).
        """
        if self._built:
            raise RuntimeError_("run() may only be called once")
        self._build()

        result = RunResult(app_name=self.deployment.config.name)
        self._result = result
        start = self.env.now

        for stage in self._stages.values():
            self._stage_done[stage.name] = self.env.event()
            self._spawn_worker(stage)
            if self.adaptation_enabled:
                self.env.process(self._monitor(stage, result), name=f"monitor:{stage.name}")
            if self.resilience is not None:
                if self.resilience.checkpoint_interval is not None:
                    self.env.process(
                        self._checkpointer(stage), name=f"checkpoint:{stage.name}"
                    )
                self.env.process(
                    self._recovery_watch(stage), name=f"recovery:{stage.name}"
                )
        for ingress in self._ingresses:
            self.env.process(self._feeder(ingress), name=f"feeder:{ingress.binding.name}")

        finished = self.env.all_of(list(self._stage_done.values()))
        guard: Dict[str, bool] = {}

        def _done(event) -> None:
            guard["done"] = True

        finished.add_callback(_done)
        horizon = stop_at if stop_at is not None else max_sim_time
        while self.env.peek() <= horizon and "done" not in guard:
            if self.env.peek() == math.inf:
                break
            self.env.step()
        if "done" not in guard and stop_at is None:
            raise SimulationError(
                f"run exceeded max_sim_time={max_sim_time} "
                f"(now={self.env.now}); pipeline likely wedged"
            )

        result.execution_time = self.env.now - start
        self.metrics.gauge("run.execution_time").set(result.execution_time)
        for group_name, group in self._groups.items():
            self.metrics.gauge(f"shard.{group_name}.replicas").set(
                float(group.active)
            )
        if self.tracer is not None:
            result.traces = self.tracer.traces
            publish_traces(self.metrics, result.traces)
        for stage in self._stages.values():
            result.stages[stage.name] = stage.core.stats(self.env.now, stage.host_name)
        result.metrics = self.metrics
        return result

    # -- processes ------------------------------------------------------------

    def _feeder(self, ingress: Ingress[_StageRuntime]) -> Generator:
        binding = ingress.binding
        targets, owner = ingress.targets, ingress.owner
        gaps = ingress.gaps()
        for payload in binding.payloads:
            if gaps is not None:
                gap = next(gaps)
                if gap:
                    yield self.env.timeout(gap)
            stage = targets[owner(payload)] if owner is not None else targets[0]
            item = Item(
                payload=payload,
                size=ingress.size_of(payload),
                origin=binding.name,
                created_at=self.env.now,
            )
            if self.tracer is not None:
                item.trace = self.tracer.maybe_trace(binding.name, self.env.now)
                if item.trace is not None:
                    self.metrics.counter("run.traced_items").inc()
                    # Open the hop before the put: completing a blocking
                    # put may resume the waiting worker first, which must
                    # already see item.hop.
                    item.hop = item.trace.begin_hop(stage.name, self.env.now)
            if binding.drop_when_full:
                if stage.queue.is_full:
                    stage.core.metrics.items_dropped.inc()
                    if item.hop is not None:
                        item.trace.hops.remove(item.hop)
                        item.hop = None
                    continue
                stage.queue.force_put(item)
            else:
                # A blocking put waits for queue space; that back-pressure
                # wait counts as queue time (the hop is already open), and
                # the next gap starts once it returns.
                yield stage.queue.put(item)
            stage.core.arrivals.observe(self.env.now)
            if owner is not None:
                self._shard_counters[stage.name].inc()
        for stage in targets:
            yield stage.queue.put(EndOfStream(origin=binding.name))

    def _spawn_worker(self, stage: _StageRuntime) -> None:
        self.env.process(
            self._worker(stage, stage.generation),
            name=f"worker:{stage.name}:g{stage.generation}",
        )
        if stage.batched:
            self.env.process(
                self._batch_flusher(stage, stage.generation),
                name=f"batch-flush:{stage.name}:g{stage.generation}",
            )

    def _worker(self, stage: _StageRuntime, generation: int) -> Generator:
        host = self.network.host(stage.host_name)
        core = stage.core
        resilient = self.resilience is not None
        while True:
            if resilient and stage.generation != generation:
                # Superseded before pulling anything (e.g. spawned by a
                # planned switch that was itself immediately superseded
                # by a queued second move): exit without touching the
                # queue, or this stale worker would race the live one.
                return
            if resilient and stage.migrating:
                # A planned migration is draining this stage: pause at
                # the item boundary (never mid-item) instead of pulling
                # the next message.  The drainer checkpoints here and
                # bumps the generation; this worker is then superseded.
                yield self.env.timeout(self.MIGRATE_DRAIN_POLL)
                continue
            message = yield stage.queue.get()
            if resilient and stage.generation != generation:
                if generation in stage.requeue_generations:
                    # Superseded by a planned switch with this message
                    # already dequeued: give it back at the head — the
                    # planned path has no replay to re-deliver it.
                    stage.requeue_generations.discard(generation)
                    stage.queue.requeue(message)
                return  # superseded by a failover or planned switch
            if resilient and host.failed:
                # Dequeued but unprocessed: the cursor stays put, so the
                # replay buffer re-delivers this message after recovery.
                self._note_stage_down(stage)
                return
            stage.in_flight = True
            if isinstance(message, EndOfStream):
                complete = core.end_of_stream()
                self._advance_cursor(stage, message)
                if not complete:
                    self._item_finished(stage)
                    continue
                yield from self._transmit_pending(stage)
                for index in range(len(stage.out_edges)):
                    yield from self._flush_edge_batch(stage, index)
                for edge in stage.out_edges:
                    yield from self._send_one(
                        stage, edge, EndOfStream(origin=edge.stream.name), control=True
                    )
                if resilient and stage.generation != generation:
                    return
                stage.done = True
                stage.in_flight = False
                self._result.events.log(self.env.now, "stage-finished", stage=stage.name)
                self._stage_done[stage.name].succeed()
                return
            assert isinstance(message, Item)
            core.arrived((message,))  # one message per get: the whole chunk
            cost = core.take(message)
            try:
                if cost is not None:
                    duration = yield host.execute(core.processor.cost_model, seconds=cost)
                    core.worked(message, duration)
            except HostFailedError:
                if not resilient:
                    raise
                self._note_stage_down(stage)
                return
            if resilient and stage.generation != generation:
                return
            poison = core.process(message)
            if poison is not None:
                self._log_quarantine(stage, poison, "processing")
                self._advance_cursor(stage, message)
                self._item_finished(stage)
                continue
            hop = message.hop
            tx_start = self.env.now
            yield from self._transmit_pending(stage, trace=message.trace, hop=hop)
            if hop is not None and not stage.batched:
                # Batched stages attribute transmission inside
                # _flush_edge_batch, shared across the batch's parents.
                hop.tx_t += self.env.now - tx_start
            if resilient and stage.generation != generation:
                return
            self._advance_cursor(stage, message)
            self._item_finished(stage)

    def _transmit_pending(
        self,
        stage: _StageRuntime,
        trace: Optional[ItemTrace] = None,
        hop=None,
    ) -> Generator:
        """Route the stage's emissions: unbuffered edges transmit one
        item each (blocking the sender); buffered edges ship when full
        (the flusher process enforces the ``max_delay`` age bound)."""
        core = stage.core
        for index, payload, size in core.drain(self.env.now, trace, hop):
            edge = stage.out_edges[index]
            item = Item(
                payload=payload,
                size=size,
                origin=edge.stream.name,
                created_at=self.env.now,
                trace=trace,
            )
            yield from self._send_one(stage, edge, item)
        for index in core.take_full():
            yield from self._flush_edge_batch(stage, index)

    def _flush_edge_batch(
        self, stage: _StageRuntime, index: int, age: bool = False
    ) -> Generator:
        """Ship one edge's accumulated batch: one transmission, n items.

        The sender blocks once for the summed size; the measured
        transmission time is shared equally across the batch's traced
        parent hops.  Colocated edges skip the link but still amortize
        the handoff into one rate observation.
        """
        entries = stage.core.take_batch(index, age)
        if not entries:
            return
        edge = stage.out_edges[index]
        count = len(entries)
        origin = edge.stream.name
        items = [
            Item(payload=payload, size=size, origin=origin, created_at=created, trace=trace)
            for payload, size, created, trace, _ in entries
        ]
        tx_start = self.env.now
        yield from self._send_one(stage, edge, _BatchEnvelope(items, edge.stream.name))
        elapsed = self.env.now - tx_start
        if elapsed > 0:
            share = elapsed / count
            for *_, parent_hop in entries:
                if parent_hop is not None:
                    parent_hop.tx_t += share

    def _batch_flusher(self, stage: _StageRuntime, generation: int) -> Generator:
        """Enforce the age bound: every ``max_delay``, flush every
        non-empty buffer, so no batched item ever waits longer than
        ``max_delay`` for stragglers."""
        assert stage.core.batch is not None
        interval = stage.core.batch.max_delay
        if interval <= 0:
            return
        while not stage.done:
            yield self.env.timeout(interval)
            if stage.done or stage.generation != generation:
                return
            if stage.down_since is not None:
                continue
            for index in range(len(stage.out_edges)):
                yield from self._flush_edge_batch(stage, index, age=True)

    def _send_one(self, stage: _StageRuntime, edge: _Edge, message, control: bool = False) -> Generator:
        """Transmit one message over an edge (blocking the sender for TX).

        With resilience enabled, a :class:`TransmissionError` (transient
        link loss) is retried up to ``max_retries`` times with
        exponential backoff plus jitter.  Exhausted retries on a *data*
        item follow the error policy (quarantine under skip/dead-letter);
        on a *control* end-of-stream marker they always raise — dropping
        it would wedge the downstream stage forever.
        """
        size = message.size if not control else 1.0
        if edge.link is None:
            self._land(edge.dst, message)
            return
        attempt = 0
        while True:
            try:
                yield edge.link.send(message, size)
            except TransmissionError as exc:
                if self.resilience is None:
                    raise
                if attempt >= self.resilience.max_retries:
                    if control or self.resilience.error_policy == "fail":
                        raise
                    items = message.items if isinstance(message, _BatchEnvelope) else [message]
                    for item in items:
                        if stage.core.quarantine(item.payload, exc, "transmission"):
                            self._log_quarantine(stage, exc, "transmission")
                    return
                self.metrics.counter(f"fault.{stage.name}.retries").inc()
                delay = self.resilience.retry_delay(attempt, self._retry_rng)
                attempt += 1
                if delay:
                    yield self.env.timeout(delay)
                continue
            break
        self.env.process(
            self._deliver(edge, message), name=f"deliver:{edge.stream.name}"
        )

    def _deliver(self, edge: _Edge, message) -> Generator:
        # Wait out the propagation delay (bottleneck + remaining hops);
        # transmission time was already paid inside link.send().
        delay = edge.link.latency + edge.extra_latency
        if delay:
            yield self.env.timeout(delay)
        self._land(edge.dst, message)

    def _land(self, dst: _StageRuntime, message) -> None:
        """Enqueue a message at its destination, opening traced hops.

        A batch envelope is unpacked: per-item hop opening, replay
        recording (queue.on_insert fires per force_put) and queue
        occupancy are identical to one-at-a-time delivery, with one
        arrival observation for the whole batch.
        """
        items = message.items if isinstance(message, _BatchEnvelope) else [message]
        for item in items:
            if isinstance(item, Item) and item.trace is not None:
                item.hop = item.trace.begin_hop(dst.name, self.env.now)
            dst.queue.force_put(item)
        if isinstance(items[0], Item):
            dst.core.arrivals.observe(self.env.now, count=len(items))

    def _monitor(self, stage: _StageRuntime, result: RunResult) -> Generator:
        core = stage.core
        while not stage.done:
            yield self.env.timeout(self.policy.sample_interval)
            if stage.done:
                return
            if stage.down_since is not None:
                continue  # a dead stage reports no load
            now = self.env.now
            exception, adjusted = core.tick(now)
            if exception is not None:
                result.events.log(
                    now,
                    "load-exception",
                    stage=stage.name,
                    exception_kind=exception.kind.value,
                    score=exception.score,
                )
            for parameter, value in adjusted:
                result.events.log(
                    now,
                    "parameter-adjusted",
                    stage=stage.name,
                    parameter=parameter,
                    value=value,
                )

    # -- fault tolerance -------------------------------------------------------

    def _record_delivery(self, stage: _StageRuntime, message: Any) -> None:
        assert self.replay is not None
        self.replay.append(stage.name, message.origin, message)

    def _advance_cursor(self, stage: _StageRuntime, message: Any) -> None:
        """Acknowledge one fully processed message (at-least-once)."""
        if self.resilience is None:
            return
        origin = message.origin
        stage.cursors[origin] = stage.cursors.get(origin, 0) + 1

    def _item_finished(self, stage: _StageRuntime) -> None:
        """Between-items point: safe to take a deferred checkpoint."""
        stage.in_flight = False
        if stage.checkpoint_due:
            stage.checkpoint_due = False
            self._checkpoint_stage(stage)

    def _checkpointer(self, stage: _StageRuntime) -> Generator:
        assert self.resilience is not None
        interval = self.resilience.checkpoint_interval
        while not stage.done:
            yield self.env.timeout(interval)
            if stage.done:
                return
            if stage.down_since is not None:
                continue
            if self.network.host(stage.host_name).failed:
                continue
            if stage.in_flight:
                # Mid-item state is not a consistent cut; the worker takes
                # the checkpoint as soon as it finishes the current item.
                stage.checkpoint_due = True
                continue
            self._checkpoint_stage(stage)

    def _checkpoint_stage(self, stage: _StageRuntime) -> StageCheckpoint:
        """Snapshot the stage and trim its acknowledged replay history."""
        assert self.checkpoints is not None and self.replay is not None
        core = stage.core
        checkpoint = core.checkpoint(
            core.processor.snapshot(), stage.generation, stage.cursors
        )
        self.checkpoints.save(checkpoint)
        for channel, cursor in checkpoint.cursors.items():
            self.replay.trim(stage.name, channel, cursor)
        self.metrics.counter(f"recovery.{stage.name}.checkpoints").inc()
        return checkpoint

    def _note_stage_down(self, stage: _StageRuntime) -> None:
        if stage.down_since is not None:
            return
        stage.down_since = self.env.now
        if self._result is not None:
            self._result.events.log(
                self.env.now, "stage-down", stage=stage.name, host=stage.host_name
            )

    def _recovery_watch(self, stage: _StageRuntime) -> Generator:
        """In-place restart when a failed host recovers before failover.

        Also notices hosts that fail while the stage's worker is idle
        (blocked in ``get()``) — the worker only observes the failure on
        its next dequeue or CPU charge, but the outage clock should start
        at the crash.
        """
        assert self.resilience is not None
        poll = self.resilience.recovery_poll
        while not stage.done:
            yield self.env.timeout(poll)
            if stage.done:
                return
            if stage.migrating:
                # A planned migration owns the stage's lifecycle until it
                # commits; its drainer handles a mid-move crash itself.
                continue
            host_failed = self.network.host(stage.host_name).failed
            if stage.down_since is None:
                if host_failed:
                    self._note_stage_down(stage)
                continue
            if not host_failed:
                # Either the host recovered in place, or a Redeployer
                # moved the stage's placement; both restore the same way.
                self.failover_stage(stage.name)

    def failover_stage(self, stage_name: str, down_since: Optional[float] = None) -> None:
        """Restore a crashed stage from its last checkpoint and replay.

        Call after the deployment's placement for ``stage_name`` points
        at a healthy host again — either the Redeployer moved it (live
        failover) or its original host recovered (in-place restart).
        ``down_since`` optionally back-dates the outage start (e.g. to
        the host's last heartbeat) for the recovery-latency histogram.
        """
        stage = self._stages.get(stage_name)
        if stage is None:
            raise RuntimeError_(f"unknown stage {stage_name!r}")
        if self.resilience is None:
            raise RuntimeError_("failover_stage requires resilience= on the runtime")
        if stage.done:
            return
        if down_since is not None and (
            stage.down_since is None or down_since < stage.down_since
        ):
            stage.down_since = down_since
        self._note_stage_down(stage)
        self._restore_stage(stage)

    def _restore_stage(self, stage: _StageRuntime) -> Tuple[int, int]:
        """Failover restore: checkpoint, then replay everything
        unacknowledged.  Returns ``(replayed, duplicates)``."""
        assert self.replay is not None and self.checkpoints is not None
        down_since = stage.down_since if stage.down_since is not None else self.env.now
        stage.generation += 1
        new_host = self.deployment.host_of(stage.name)
        if new_host != stage.host_name:
            stage.host_name = new_host
            self._rewire_stage(stage)

        # The crashed worker's queue content is lost with the host; its
        # pending get must not swallow the first replayed message.
        stage.queue.discard_getters()
        stage.queue.purge()
        live_cursors = dict(stage.cursors)

        checkpoint = self._reinstantiate_from_checkpoint(stage)

        # Re-deliver everything unacknowledged, per channel, in order.
        # The insertion hook is suspended so replayed entries keep their
        # original sequence numbers instead of being re-recorded.
        replayed = duplicates = dropped_total = 0
        saved_hook, stage.queue.on_insert = stage.queue.on_insert, None
        try:
            for channel in self.replay.channels(stage.name):
                cursor = stage.cursors.get(channel, 0)
                dropped, entries = self.replay.replay_from(stage.name, channel, cursor)
                if dropped:
                    # Evicted entries can never be processed; align the
                    # cursor with the oldest retained sequence number.
                    dropped_total += dropped
                    stage.cursors[channel] = cursor + dropped
                for seq, message in entries:
                    if isinstance(message, Item):
                        message.hop = None
                        if seq <= live_cursors.get(channel, 0):
                            duplicates += 1
                    replayed += 1
                    stage.queue.force_put(message)
        finally:
            stage.queue.on_insert = saved_hook
        # Producers blocked on the previously full queue resume (their
        # items enter *after* the replayed backlog, preserving FIFO).
        stage.queue.admit_waiting()

        stage.down_since = None
        stage.in_flight = False
        stage.checkpoint_due = False
        latency = self.env.now - down_since
        self.metrics.counter(f"fault.{stage.name}.failovers").inc()
        self.metrics.histogram(f"recovery.{stage.name}.latency").observe(latency)
        if replayed:
            self.metrics.counter(f"recovery.{stage.name}.items_replayed").inc(replayed)
        if duplicates:
            self.metrics.counter(f"recovery.{stage.name}.duplicates").inc(duplicates)
        if dropped_total:
            self.metrics.counter(f"recovery.{stage.name}.replay_dropped").inc(dropped_total)
        if self._result is not None:
            self._result.events.log(
                self.env.now,
                "stage-recovered",
                stage=stage.name,
                host=stage.host_name,
                replayed=replayed,
                duplicates=duplicates,
                dropped=dropped_total,
                outage=latency,
                checkpoint_time=checkpoint.time if checkpoint is not None else None,
            )
        self._spawn_worker(stage)
        return replayed, duplicates

    def _reinstantiate_from_checkpoint(self, stage: _StageRuntime):
        """Fresh processor from the stage's (possibly new) service
        instance, restored from the latest checkpoint.

        Shared by crash failover and planned migration: both replace the
        processor object wholesale and rebuild its state from the
        checkpoint store; only the surrounding queue/replay treatment
        differs.  Without a checkpoint the stage restarts from scratch
        (replay re-delivers every end-of-stream).  Returns the
        checkpoint used (None if none existed).
        """
        assert self.checkpoints is not None
        processor = self._instantiate(stage.name)
        checkpoint = self.checkpoints.latest(stage.name)
        stage.core.setup(
            processor,
            checkpoint or StageCheckpoint(stage=stage.name, time=self.env.now),
            restoring=True,
        )
        stage.cursors = dict(checkpoint.cursors) if checkpoint is not None else {}
        return checkpoint

    def _rewire_stage(self, stage: _StageRuntime) -> None:
        """Re-route every edge touching a stage after its host changed."""
        for edge in stage.out_edges:
            self._wire_edge(edge, stage)
        for up_core in stage.core.upstream:
            up = self._stages[up_core.name]
            for edge in up.out_edges:
                if edge.dst is stage:
                    self._wire_edge(edge, up)

    # -- planned migration -----------------------------------------------------

    #: Drain poll while waiting for the in-flight item at a migration's
    #: pause point (simulated seconds).
    MIGRATE_DRAIN_POLL = 0.01

    def scale_stage(self, group_name: str, active: int) -> None:
        """Change a shard group's active replica count mid-run.

        The simulated counterpart of the threaded autoscaler's
        transitions: items emitted after the call are partitioned over
        the new count (slots are pre-provisioned to the group's ceiling
        by ``expand_shards``, so scaling up needs no new workers).
        Items already queued at a replica stay there — per-key order is
        preserved because routing only ever changes *between* items.
        Logged as a ``shard-scaled`` event so recorded runs capture the
        decision.
        """
        group = self._groups.get(group_name)
        if group is None:
            raise RuntimeError_(f"unknown shard group {group_name!r}")
        if not 1 <= active <= len(group.members):
            raise RuntimeError_(
                f"group {group_name!r}: active must be in "
                f"[1, {len(group.members)}], got {active}"
            )
        previous = group.active
        if active == previous:
            return
        group.active = active
        self.metrics.gauge(f"shard.{group_name}.replicas").set(float(active))
        if self._result is not None:
            self._result.events.log(
                self.env.now,
                "shard-scaled",
                group=group_name,
                previous=previous,
                active=active,
            )

    def is_migrating(self, stage_name: str) -> bool:
        """Whether a planned migration of ``stage_name`` is in flight."""
        stage = self._stages.get(stage_name)
        return stage is not None and stage.migrating

    def migrating_stages(self) -> frozenset:
        """Names of stages currently under planned migration."""
        return frozenset(
            name for name, stage in self._stages.items() if stage.migrating
        )

    def migrate_stage(
        self,
        stage_name: str,
        migrator=None,
        target_host: Optional[str] = None,
        trigger: str = "manual",
    ) -> None:
        """Request a planned, non-destructive move of a healthy stage.

        The request is asynchronous: a per-stage drainer process drains
        the stage to an item boundary, checkpoints it, asks ``migrator``
        (a :class:`repro.resilience.migration.Migrator`) to secure the
        replacement service instance on ``target_host`` (or a
        Matchmaker-selected host), and switches the channels over.  A
        second request while one is in flight is queued behind it, never
        interleaved.  Completed moves append a ``MigrationReport`` to
        :attr:`migrations`.

        Requires ``resilience=`` (the pause point is a checkpoint).  If
        the source host dies mid-move, the switch degrades to the
        ordinary failover restore (checkpoint + replay) and the report
        carries ``planned=False``.
        """
        if self.resilience is None:
            raise RuntimeError_("migrate_stage requires resilience= on the runtime")
        if migrator is None:
            raise RuntimeError_(
                "migrate_stage requires a migrator= "
                "(repro.resilience.migration.Migrator)"
            )
        stage = self._stages.get(stage_name)
        if stage is None:
            raise RuntimeError_(f"unknown stage {stage_name!r}")
        queue = self._migration_queues.setdefault(stage_name, [])
        queue.append((migrator, target_host, trigger))
        if stage_name not in self._migration_drainers:
            self._migration_drainers.add(stage_name)
            self.env.process(
                self._migration_drainer(stage), name=f"migrate:{stage_name}"
            )

    def _migration_drainer(self, stage: _StageRuntime) -> Generator:
        queue = self._migration_queues[stage.name]
        try:
            while queue:
                migrator, target_host, trigger = queue.pop(0)
                yield from self._migrate_once(stage, migrator, target_host, trigger)
        finally:
            self._migration_drainers.discard(stage.name)

    def _migrate_once(
        self,
        stage: _StageRuntime,
        migrator,
        target_host: Optional[str],
        trigger: str,
    ) -> Generator:
        from repro.resilience.migration import MigrationReport

        if stage.done:
            return
        requested_at = self.env.now
        stage.migrating = True
        try:
            # Drain to an item boundary: the pause clock starts when the
            # request lands, because upstream output is still flowing —
            # only this stage's consumption pauses at the boundary.
            while stage.in_flight and stage.down_since is None and not stage.done:
                yield self.env.timeout(self.MIGRATE_DRAIN_POLL)
            if stage.done:
                return
            crashed = (
                stage.down_since is not None
                or self.network.host(stage.host_name).failed
            )
            if not crashed:
                # Item-consistent snapshot at the pause point; the
                # replay buffer trims to it, so nothing needs replaying
                # on the planned path below.
                self._checkpoint_stage(stage)
            old_host, new_host = migrator.place(stage.name, target_host)
            replayed = duplicates = 0
            if crashed:
                # The source host died mid-plan: the queue content is
                # gone with it, so fall through to the ordinary failover
                # restore (checkpoint + replay, at-least-once).
                replayed, duplicates = self._restore_stage(stage)
            else:
                self._switch_stage(stage)
            pause = self.env.now - requested_at
            self.metrics.counter(f"migration.{stage.name}.moves").inc()
            self.metrics.histogram(f"migration.{stage.name}.pause_seconds").observe(pause)
            if replayed:
                self.metrics.counter(
                    f"migration.{stage.name}.items_replayed"
                ).inc(replayed)
            if duplicates:
                self.metrics.counter(
                    f"migration.{stage.name}.duplicates"
                ).inc(duplicates)
            report = MigrationReport(
                stage=stage.name,
                from_host=old_host,
                to_host=new_host,
                trigger=trigger,
                requested_at=requested_at,
                completed_at=self.env.now,
                pause_seconds=pause,
                items_replayed=replayed,
                duplicates=duplicates,
                planned=not crashed,
            )
            self.migrations.append(report)
            if self._result is not None:
                self._result.events.log(
                    self.env.now,
                    "stage-migrated",
                    stage=stage.name,
                    from_host=old_host,
                    to_host=new_host,
                    trigger=trigger,
                    pause=pause,
                    planned=not crashed,
                )
        finally:
            stage.migrating = False

    def _switch_stage(self, stage: _StageRuntime) -> None:
        """The loss-free channel switch-over of a planned move.

        Unlike :meth:`_restore_stage`, the queue's backlog survives in
        place (nothing was lost, so nothing is purged or replayed): the
        superseded worker's pending ``get`` is discarded, the fresh
        processor restores from the checkpoint just taken at the pause
        point, and a new worker generation resumes consuming the same
        queue — zero loss, zero duplicates.
        """
        stage.requeue_generations.add(stage.generation)
        stage.generation += 1
        new_host = self.deployment.host_of(stage.name)
        if new_host != stage.host_name:
            stage.host_name = new_host
            self._rewire_stage(stage)
        stage.queue.discard_getters()
        self._reinstantiate_from_checkpoint(stage)
        stage.queue.admit_waiting()
        stage.in_flight = False
        stage.checkpoint_due = False
        self._spawn_worker(stage)

    def _log_quarantine(self, stage: _StageRuntime, exc: BaseException, reason: str) -> None:
        """Log one quarantined item as an ``item-quarantined`` event."""
        if self._result is not None:
            self._result.events.log(
                self.env.now,
                "item-quarantined",
                stage=stage.name,
                reason=reason,
                error=repr(exc),
            )
