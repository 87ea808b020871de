"""The sans-IO GATES stage: the one implementation behind every runtime.

GATES defines one stage abstraction (Section 3.3): a
:class:`~repro.core.api.StreamProcessor` that declares adjustment
parameters (``specifyPara``), reads suggestions (``getSuggestedValue``)
and emits items, watched by a per-stage Section-4 load monitor.
:class:`StageCore` is that stage with no I/O in it: the processor's
context, routing over solo edges and shard families, draining emissions
into per-edge batch buffers, the monitor tick, the ``setup()`` /
restoring re-``setup()`` sequence, checkpoint assembly and quarantine.

So is the item step: input accounting and cost, ``on_item`` under the
poison-item rule, and end-of-stream completion.

Each runtime is a driver around it and supplies only waiting and
handoff: a clock, an input queue (sampled by the estimator), the wait
for an item's modeled cost, a send primitive for what
:meth:`StageCore.drain` yields and :meth:`StageCore.take_batch` returns,
and a scheduler calling :meth:`StageCore.tick`.  Which edges get a batch
buffer is the driver's decision, passed to :meth:`StageCore.wire`, and
so is how it stamps the items it builds from a flushed batch.  Locks,
timers, sockets and simulation processes stay in the drivers; nothing
here blocks, and time comes only from the driver's clock.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.adaptation.controller import ParameterController
from repro.core.adaptation.load import LoadEstimator, QueueLike
from repro.core.adaptation.policy import AdaptationPolicy
from repro.core.adaptation.protocol import ExceptionCounter, LoadException
from repro.core.api import (
    AdjustmentParameter,
    ProcessorError,
    StageContext,
    StreamProcessor,
)
from repro.core.batching import BatchBuffer, BatchPolicy, batch_policy_from_properties
from repro.core.items import Item
from repro.core.results import StageStats
from repro.core.sharding import logical_stream
from repro.core.termination import EosTracker
from repro.metrics.rates import RateEstimator
from repro.obs.registry import BatchMetrics, Counter, MetricsRegistry, StageMetrics
from repro.resilience.checkpoint import StageCheckpoint
from repro.resilience.policy import DeadLetter, DeadLetterQueue, ResilienceConfig
from repro.simnet.hosts import CpuCostModel

__all__ = [
    "DEFAULT_QUEUE_CAPACITY",
    "Entry",
    "OutEdge",
    "QUEUE_CAPACITY_PROPERTY",
    "RouteUnit",
    "Select",
    "StageCore",
    "owner_select",
    "queue_capacity",
]

#: Stage property setting the input-queue capacity C that Section 4's
#: load factors and thresholds scale with (docs/adaptation.md).
QUEUE_CAPACITY_PROPERTY = "queue-capacity"

#: Capacity C of a stage that does not set :data:`QUEUE_CAPACITY_PROPERTY`.
DEFAULT_QUEUE_CAPACITY = 200

#: A shard family's slot choice for one emission, given the payload and
#: the explicitly addressed slot (``None`` unless it named ``"t#1"``).
Select = Callable[[Any, Optional[int]], int]

#: A buffered emission: ``(payload, size, created_at, trace, parent_hop)``;
#: ``created_at`` is the drain's clock, the rest pass through from it.
Entry = Tuple[Any, float, float, Any, Any]


def queue_capacity(properties: Mapping[str, str]) -> int:
    """The input-queue capacity C a stage's properties ask for."""
    return int(properties.get(QUEUE_CAPACITY_PROPERTY, DEFAULT_QUEUE_CAPACITY))


class OutEdge(NamedTuple):
    """One out-edge of a stage, as its driver describes it."""

    #: Stream name; ``None`` (an unnamed edge) is reached by broadcast only.
    stream: Optional[str]
    dst: str
    #: The destination's shard group and slot, if it is a replica.
    group: Optional[str] = None
    slot: int = 0
    #: Whether emissions accumulate in a batch buffer (under a batch
    #: policy) instead of going out at once.
    buffered: bool = False


class RouteUnit(NamedTuple):
    """One routing decision per emission: a solo edge or a shard family.

    A family's ``edges[slot]`` reaches replica ``slot`` and ``select``
    picks one slot per emission.  ``accepts`` holds the stream names
    addressing the unit (declared and per-replica); ``named`` maps a
    per-replica name to its slot, overriding the partitioner.
    """

    accepts: FrozenSet[str]
    edges: List[int]
    #: Keyed by ``Optional[str]`` so a broadcast looks up ``None``.
    named: Dict[Optional[str], int]
    select: Optional[Select]


def owner_select(owner: Callable[[Any], int]) -> Select:
    """A :data:`Select` picking the key owner unless a slot was named."""

    def select(payload: Any, slot: Optional[int]) -> int:
        return owner(payload) if slot is None else slot

    return select


def _solo(stream: Optional[str], index: int) -> RouteUnit:
    names: FrozenSet[str] = frozenset() if stream is None else frozenset(
        {stream, logical_stream(stream)}
    )
    return RouteUnit(names, [index], {}, None)


class StageCore(StageContext):
    """One stage's middleware state and decisions; also its processor's context.

    A driver constructs it around the stage's queue and its own clock,
    :meth:`wire` s the out-edges, :meth:`setup` s the processor, and
    then per item calls :meth:`take`, waits, :meth:`process`, consumes
    :meth:`drain` and flushes :meth:`take_full`.  ``error`` builds the
    driver's exception for runtime misuse; ``time_scale`` converts the
    batch ``max_delay`` and the cost model's seconds into clock units.
    """

    def __init__(
        self,
        name: str,
        properties: Dict[str, str],
        queue: QueueLike,
        policy: AdaptationPolicy,
        registry: MetricsRegistry,
        clock: Callable[[], float],
        error: Callable[[str], Exception],
        batch: Optional[BatchPolicy] = None,
        time_scale: float = 1.0,
        resilience: Optional[ResilienceConfig] = None,
        dead_letters: Optional[DeadLetterQueue] = None,
    ) -> None:
        self.name = name
        self._properties = properties
        self.queue = queue
        self.policy = policy
        self.registry = registry
        self.clock = clock
        self.error = error
        self.time_scale = time_scale
        self.resilience = resilience
        self.dead_letters = dead_letters
        try:
            effective = batch_policy_from_properties(properties, batch)
        except ValueError as exc:
            raise error(f"stage {name!r}: {exc}") from None
        #: Effective batch policy in clock units (None = one at a time).
        self.batch: Optional[BatchPolicy] = None
        if effective is not None and effective.enabled:
            self.batch = BatchPolicy(effective.max_items, effective.max_delay * time_scale)
        self.metrics = StageMetrics(registry, name)
        self.estimator = LoadEstimator(name, queue, policy)
        registry.series(f"adapt.{name}.d_tilde", self.estimator.history)
        self.processor: Optional[StreamProcessor] = None
        self.parameters: Dict[str, AdjustmentParameter] = {}
        self.controllers: Dict[str, ParameterController] = {}
        self.exceptions = ExceptionCounter()
        self.eos = EosTracker()
        #: Input arrivals, observed by the driver as items land in the queue.
        self.arrivals = RateEstimator()
        #: In-process upstream stages, told of load exceptions directly.
        self.upstream: List[StageCore] = []
        #: ``(payload, size, stream)`` emissions of the current hook call.
        self.pending: List[Tuple[Any, float, Optional[str]]] = []
        self.units: List[RouteUnit] = []
        #: Per out-edge: its batch buffer, or None (sent at once).
        self.buffers: List[Optional[BatchBuffer[Entry]]] = []
        self.batch_metrics: Optional[BatchMetrics] = None
        #: ``shard.<replica>.items`` counter per edge into a shard group.
        self._shard_items: Dict[int, Counter] = {}
        self._streams: FrozenSet[str] = frozenset()
        self._full: List[int] = []
        self._samples = 0
        self._in_setup = False
        self._restoring = False
        #: The processor's cost model if it is free and the work amount
        #: is the default one (every item then costs exactly 0).
        self._free_model: Optional[CpuCostModel] = None
        self._flushed = False

    # -- StageContext --------------------------------------------------------

    def specify_parameter(
        self,
        name: str,
        initial: float,
        minimum: float,
        maximum: float,
        increment: float,
        direction: int,
    ) -> AdjustmentParameter:
        """Declare an adjustment parameter (``specifyPara``); see StageContext.

        In a restoring re-``setup()`` a re-declared name binds to the
        live parameter, whose value, history and controller survive.
        """
        if not self._in_setup:
            raise ProcessorError(f"{self.name}: specify_parameter must be called in setup()")
        if name in self.parameters:
            if self._restoring:
                return self.parameters[name]
            raise ProcessorError(f"{self.name}: parameter {name!r} declared twice")
        param = AdjustmentParameter(name, initial, minimum, maximum, increment, direction)
        param.set_value(initial, self.now)
        self.parameters[name] = param
        self.controllers[name] = ParameterController(param, self.policy)
        return param

    def get_suggested_value(self, name: str) -> float:
        """Current suggestion for a declared parameter (``getSuggestedValue``)."""
        try:
            return self.parameters[name].value
        except KeyError:
            raise ProcessorError(f"{self.name}: unknown parameter {name!r}") from None

    def emit(self, payload: Any, size: float = 8.0, stream: Optional[str] = None) -> None:
        """Queue one emission for the driver to ship after the hook returns.

        ``stream`` may be a declared name (also once sharding split it
        into per-replica edges) or one concrete per-replica name.
        """
        if size < 0:
            raise ProcessorError(f"emit size must be >= 0, got {size}")
        if stream is not None and stream not in self._streams:
            raise ProcessorError(
                f"{self.name}: emit to unknown stream {stream!r} "
                f"(have {sorted(self._streams)})"
            )
        self.pending.append((payload, float(size), stream))

    @property
    def now(self) -> float:
        """The driver's clock."""
        return self.clock()

    @property
    def stage_name(self) -> str:
        """The stage name."""
        return self.name

    @property
    def properties(self) -> Dict[str, str]:
        """The stage's configuration properties."""
        return self._properties

    def arrived(self, messages: Iterable[Any]) -> None:
        """Count the data items of a drained input chunk as ``items_in``/``bytes_in``
        when the stage is batched (an unbatched one counts in :meth:`take`)."""
        if self.batch is None:
            return
        count, nbytes = 0, 0.0
        for message in messages:
            if isinstance(message, Item):
                count += 1
                nbytes += message.size
        if count:
            self.metrics.items_in.inc(count)
            self.metrics.bytes_in.inc(nbytes)

    def stats(self, now: float, host_name: str) -> StageStats:
        """The stage's end-of-run view, with its decayed arrival rate."""
        assert self.processor is not None
        self.metrics.arrival_rate.set(self.arrivals.decayed_rate(now))
        return StageStats.from_registry(
            self.registry, self.name, host_name=host_name,
            final_value=self.processor.result(),
        )

    # -- lifecycle -----------------------------------------------------------

    def setup(
        self,
        processor: StreamProcessor,
        checkpoint: Optional[StageCheckpoint] = None,
        restoring: bool = False,
    ) -> None:
        """Run ``processor.setup()`` and make it the stage's processor.

        ``restoring`` marks a re-``setup()`` replacing a live or crashed
        instance (parameters re-bind); a first setup publishes the
        ``adapt.<stage>.param.<name>`` series.  ``checkpoint`` is then
        overlaid: parameter values, estimator and exception state when
        present, ``processor.restore()`` and the end-of-stream count.
        Raises ``error(...)`` if ``setup()`` emitted: emissions belong in
        ``on_item()``/``flush()``.
        """
        held, self.pending = self.pending, []
        self._in_setup, self._restoring = True, restoring
        try:
            processor.setup(self)
        finally:
            self._in_setup = self._restoring = False
        emitted, self.pending = self.pending, held
        if emitted:
            raise self.error(
                f"stage {self.name!r} emitted during setup(); emissions "
                "are only allowed from on_item()/flush()"
            )
        if not restoring:
            for pname, param in self.parameters.items():
                self.registry.series(f"adapt.{self.name}.param.{pname}", param.history)
        if checkpoint is not None:
            now = self.now
            for pname, value in checkpoint.parameters.items():
                if pname in self.parameters:
                    self.parameters[pname].set_value(float(value), now)
            if checkpoint.estimator is not None:
                self.estimator.restore(checkpoint.estimator)
            if checkpoint.exceptions:
                self.exceptions.restore(checkpoint.exceptions)
            if checkpoint.processor_state is not None:
                processor.restore(checkpoint.processor_state)
            self.eos.restore(checkpoint.eos_seen)
        self.processor = processor
        self._flushed = False
        model = processor.cost_model
        free = isinstance(model, CpuCostModel) and model.is_free
        default_work = type(processor).work_amount is StreamProcessor.work_amount
        self._free_model = model if free and default_work else None

    # -- the item step -------------------------------------------------------

    def take(self, message: Item) -> Optional[float]:
        """Take one input item; returns its cost in clock units.

        Counts the item when the stage is unbatched (a batched stage
        counts the drained chunks in :meth:`arrived`) and stamps the
        hop's dequeue time.  The cost is the processor's current cost
        model applied to the work amount: None for a zero work amount.
        The driver waits it out and reports the time with :meth:`worked`.
        """
        if self.batch is None:
            self.metrics.items_in.inc()
            self.metrics.bytes_in.inc(message.size)
        hop = message.hop
        if hop is not None:
            hop.dequeue_t = self.clock()
        processor = self.processor
        assert processor is not None
        if processor.cost_model is self._free_model:
            return 0.0
        items, nbytes = processor.work_amount(message.payload, message.size)
        if not (items or nbytes):
            return None
        return processor.cost_model.cost(items, nbytes) * self.time_scale

    def worked(self, message: Item, seconds: float) -> None:
        """Account ``seconds`` of processing spent on ``message``."""
        self.metrics.busy_seconds.inc(seconds)
        hop = message.hop
        if hop is not None:
            hop.process_t += seconds

    def process(self, message: Item) -> Optional[Exception]:
        """Run ``on_item``; observes the latency and returns None.

        If it raises and the error policy quarantines the item, only the
        emissions it left in :attr:`pending` are dropped and the
        exception is returned for the driver to log; otherwise it
        propagates.
        """
        processor = self.processor
        assert processor is not None
        mark = len(self.pending)
        try:
            processor.on_item(message.payload, self)
        except Exception as exc:
            if not self.quarantine(message.payload, exc, "processing"):
                raise
            del self.pending[mark:]
            return exc
        self.metrics.latency.observe(self.clock() - message.created_at)
        return None

    def require_input(self) -> None:
        """Refuse a stage without inputs (it could never end) with ``error``."""
        if not self.eos.expected:
            raise self.error(
                f"stage {self.name!r} has no input streams or source bindings "
                "and would never terminate"
            )

    def end_of_stream(self) -> bool:
        """Count one end-of-stream marker; True if it completes the input.

        The processor is then flushed and its deterministic context
        finalized, once per processor; the driver ships what is left.
        """
        if not self.eos.observe() or self._flushed:
            return False
        processor = self.processor
        assert processor is not None
        self._flushed = True
        processor.flush(self)
        self.det.finalize_stage(processor)
        return True

    # -- routing -------------------------------------------------------------

    def wire(
        self,
        edges: Sequence[OutEdge],
        families: Mapping[str, Tuple[int, Select]],
    ) -> None:
        """Build the routing table and batch buffers over ``edges``.

        Edges into one shard group under one declared stream form a
        family unit (given the group's slot count and :data:`Select` in
        ``families``), placed at its first edge; a partial family falls
        back to solo units.  Positions in ``edges`` are the edge indices
        used by every other method.
        """
        members: Dict[Tuple[str, str], Dict[int, int]] = {}
        order: List[Tuple[Optional[Tuple[str, str]], int]] = []
        for index, edge in enumerate(edges):
            if edge.group is None or edge.stream is None:
                order.append((None, index))
                continue
            self._shard_items[index] = self.registry.counter(f"shard.{edge.dst}.items")
            key = (logical_stream(edge.stream), edge.group)
            if key not in members:
                order.append((key, index))
                members[key] = {}
            members[key][edge.slot] = index
        units: List[RouteUnit] = []
        for key, index in order:
            if key is None:
                units.append(_solo(edges[index].stream, index))
                continue
            slots, select = families[key[1]]
            mapping = members[key]
            if set(mapping) != set(range(slots)):
                units.extend(_solo(edges[i].stream, i) for i in sorted(mapping.values()))
                continue
            family = [mapping[slot] for slot in range(slots)]
            named: Dict[Optional[str], int] = {edges[i].stream: s for s, i in enumerate(family)}
            accepts = frozenset(str(name) for name in named) | {key[0]}
            units.append(RouteUnit(accepts, family, named, select))
        self.units = units
        self._streams = frozenset(name for unit in units for name in unit.accepts)
        policy = self.batch
        self.buffers = [
            BatchBuffer(policy) if policy is not None and edge.buffered else None
            for edge in edges
        ]
        if any(buffer is not None for buffer in self.buffers):
            self.batch_metrics = BatchMetrics(self.registry, self.name)

    def drain(
        self, now: float, trace: Any = None, hop: Any = None
    ) -> Iterator[Tuple[int, Any, float]]:
        """Route every pending emission, yielding ``(edge, payload, size)``
        for each edge without a buffer.

        Buffered emissions become :data:`Entry` tuples (``trace`` and
        ``hop`` pass through) and a buffer reaching ``max_items`` is queued
        for :meth:`take_full`.  Yielding lazily keeps routing interleaved
        with a blocking send.
        """
        pending = self.pending
        if not pending:
            return
        self.pending = []
        units = self.units
        buffers = self.buffers
        full = self._full
        nbytes = 0.0
        for payload, size, stream in pending:
            nbytes += size
            for unit in units:
                if stream is not None and stream not in unit.accepts:
                    continue
                select = unit.select
                if select is None:
                    index = unit.edges[0]
                else:
                    index = unit.edges[select(payload, unit.named.get(stream))]
                    self._shard_items[index].inc()
                buffer = buffers[index]
                if buffer is None:
                    yield index, payload, size
                elif buffer.add((payload, size, now, trace, hop), now) and index not in full:
                    full.append(index)
        self.metrics.items_out.inc(len(pending))
        self.metrics.bytes_out.inc(nbytes)

    def take_full(self) -> List[int]:
        """Edges whose buffers filled during :meth:`drain`, in fill order."""
        full = self._full
        if full:
            self._full = []
        return full

    def take_batch(self, index: int, age: bool = False) -> List[Entry]:
        """Empty one edge's buffer for shipping, counting ``batch.*``.

        ``age`` marks a flush forced by the age bound.  Returns the
        entries in order (empty if nothing waited or unbuffered).
        """
        buffer = self.buffers[index]
        entries = buffer.drain() if buffer is not None else []
        if entries:
            metrics = self.batch_metrics
            assert metrics is not None
            metrics.batches.inc()
            metrics.items.inc(len(entries))
            metrics.flush_size.observe(float(len(entries)))
            if age:
                metrics.age_flushes.inc()
        return entries

    def flush_timeout(self) -> Optional[float]:
        """Clock time until the oldest buffered entry must age-flush
        (never negative); None when every buffer is empty."""
        first = min((b.first_at for b in self.buffers if b is not None and b.entries), default=None)
        if first is None or self.batch is None:
            return None
        return max(0.0, first + self.batch.max_delay - self.clock())

    def due(self) -> List[int]:
        """Edges whose buffers the age bound forces out now."""
        now = self.clock()
        return [i for i, b in enumerate(self.buffers) if b is not None and b.due(now)]

    # -- Section 4 monitor ---------------------------------------------------

    def receive(self, exception: LoadException) -> None:
        """Count one load exception reported by a downstream stage."""
        self.exceptions.report(exception)
        self.metrics.exceptions_received.inc()

    def tick(self, now: float) -> Tuple[Optional[LoadException], List[Tuple[str, float]]]:
        """One Section-4 monitor sample.

        Records the queue length, feeds the estimator, delivers an
        exception to the in-process :attr:`upstream` stages, and every
        ``adjust_every`` samples runs the controllers on the drained
        (T1, T2) counts.  Returns the exception reported (None if none,
        or exceptions are disabled) and the ``(parameter, value)``
        adjustments made.
        """
        self.metrics.queue_len.record(now, self.queue.current_length)
        exception = self.estimator.sample(now)
        if exception is not None and self.policy.exceptions_enabled:
            self.metrics.exceptions_reported.inc()
            for upstream in self.upstream:
                upstream.receive(exception)
        else:
            exception = None
        self._samples += 1
        adjusted: List[Tuple[str, float]] = []
        if self._samples % self.policy.adjust_every == 0 and self.controllers:
            t1, t2 = self.exceptions.drain()
            score = self.estimator.normalized_score
            for pname, controller in self.controllers.items():
                adjusted.append((pname, controller.adjust(score, t1, t2, now)))
        return exception, adjusted

    # -- resilience ----------------------------------------------------------

    def checkpoint(
        self,
        processor_state: Any,
        generation: int = 0,
        cursors: Optional[Dict[str, int]] = None,
    ) -> StageCheckpoint:
        """The stage's checkpoint around a processor snapshot the driver
        took at an item boundary, stamped with the clock."""
        return StageCheckpoint(
            stage=self.name,
            time=self.now,
            generation=generation,
            processor_state=processor_state,
            parameters={pname: p.value for pname, p in self.parameters.items()},
            estimator=self.estimator.snapshot(),
            exceptions=self.exceptions.snapshot(),
            cursors=dict(cursors or {}),
            eos_seen=self.eos.snapshot(),
        )

    def quarantine(self, payload: Any, exc: BaseException, reason: str) -> bool:
        """Absorb one poison item under the resilience error policy.

        Returns False when the error must propagate (no resilience, or
        ``error_policy="fail"``); otherwise counts the item, retains it
        under ``dead-letter`` (``reason``: processing or transmission)
        and returns True.
        """
        resilience = self.resilience
        if resilience is None or resilience.error_policy == "fail":
            return False
        self.registry.counter(f"fault.{self.name}.quarantined").inc()
        if resilience.error_policy == "dead-letter":
            assert self.dead_letters is not None
            self.dead_letters.add(
                DeadLetter(self.name, payload, self.now, repr(exc), reason)
            )
        return True
