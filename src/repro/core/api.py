"""Developer-facing stage API.

This module mirrors Section 3.3 of the paper.  An application developer
writes one :class:`StreamProcessor` per stage; the middleware supplies a
:class:`StageContext` giving the processor access to:

* ``specify_parameter(...)`` — the paper's
  ``specifyPara(init_value, max_value, min_value, increment, direction)``;
* ``get_suggested_value(name)`` — the paper's ``getSuggestedValue()``,
  returning the value the self-adaptation algorithm currently suggests;
* ``emit(payload, size)`` — write to the stage's output stream(s);
* ``now`` and per-stage properties from the XML configuration.

The paper's Java API passes explicit ``InputBuffer``/``OutputBuffer``
objects to a ``work`` loop; here the runtime owns the loop and calls
:meth:`StreamProcessor.on_item` per input item — the inversion makes the
processing cost of each item explicit and chargeable to the simulated
host CPU, which is what the evaluation varies.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional

from repro.simnet.hosts import CpuCostModel
from repro.simnet.trace import TimeSeries

__all__ = ["AdjustmentParameter", "ProcessorError", "StageContext", "StreamProcessor"]


class ProcessorError(Exception):
    """Raised for stage API misuse."""


class AdjustmentParameter:
    """A tunable parameter exposed to the self-adaptation algorithm.

    Attributes mirror ``specifyPara``:

    * ``initial`` — starting value;
    * ``minimum`` / ``maximum`` — acceptable range;
    * ``increment`` — quantum of change (suggestions are multiples of it);
    * ``direction`` — +1 if increasing the value increases the processing
      rate, -1 if it decreases it (the paper's sampler passes -1: raising
      the sampling rate slows processing and raises accuracy).

    The middleware owns :attr:`value`; the application reads it via
    :meth:`StageContext.get_suggested_value`.  Every change is recorded in
    :attr:`history`, which is exactly the series plotted in Figures 8/9.
    """

    def __init__(
        self,
        name: str,
        initial: float,
        minimum: float,
        maximum: float,
        increment: float,
        direction: int,
    ) -> None:
        if minimum > maximum:
            raise ProcessorError(f"{name}: min {minimum} > max {maximum}")
        if not (minimum <= initial <= maximum):
            raise ProcessorError(
                f"{name}: initial {initial} outside [{minimum}, {maximum}]"
            )
        if increment <= 0:
            raise ProcessorError(f"{name}: increment must be > 0, got {increment}")
        if direction not in (-1, 1):
            raise ProcessorError(f"{name}: direction must be +1 or -1, got {direction}")
        self.name = name
        self.initial = float(initial)
        self.minimum = float(minimum)
        self.maximum = float(maximum)
        self.increment = float(increment)
        self.direction = int(direction)
        self._value = float(initial)
        self.history = TimeSeries(name)

    @property
    def value(self) -> float:
        """Current suggested value."""
        return self._value

    def set_value(self, value: float, time: float) -> float:
        """Clamp ``value`` into range, store it, record history."""
        clamped = min(self.maximum, max(self.minimum, value))
        self._value = clamped
        self.history.record(time, clamped)
        return clamped

    def quantize(self, delta: float) -> float:
        """Round a raw delta to a whole number of increments."""
        steps = round(delta / self.increment)
        return steps * self.increment

    @property
    def span(self) -> float:
        """Width of the acceptable range."""
        return self.maximum - self.minimum

    def __repr__(self) -> str:
        return (
            f"AdjustmentParameter({self.name!r}, value={self._value}, "
            f"range=[{self.minimum}, {self.maximum}], dir={self.direction})"
        )


class StageContext(abc.ABC):
    """Runtime services available to a :class:`StreamProcessor`.

    The one runtime implementation is :class:`repro.core.stagecore.StageCore`,
    shared by all three runtimes; tests use :class:`RecordingContext`.
    """

    @abc.abstractmethod
    def specify_parameter(
        self,
        name: str,
        initial: float,
        minimum: float,
        maximum: float,
        increment: float,
        direction: int,
    ) -> AdjustmentParameter:
        """Expose an adjustment parameter (paper: ``specifyPara``).

        Must be called during :meth:`StreamProcessor.setup`; declaring
        the same name twice is an error.
        """

    @abc.abstractmethod
    def get_suggested_value(self, name: str) -> float:
        """Current middleware-suggested value (paper: ``getSuggestedValue``)."""

    @abc.abstractmethod
    def emit(self, payload: Any, size: float = 8.0, stream: Optional[str] = None) -> None:
        """Write one item downstream.

        With ``stream=None`` (the default) the item goes to *every*
        outgoing stream of this stage; naming a configured stream routes
        it to that stream only (splitter stages).
        """

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current time (simulation or wall clock)."""

    @property
    @abc.abstractmethod
    def stage_name(self) -> str:
        """Name of the stage this processor runs as."""

    @property
    @abc.abstractmethod
    def properties(self) -> Dict[str, str]:
        """Configuration properties uploaded with the stage code."""

    @property
    def det(self) -> Any:
        """The stage's :class:`~repro.ledger.DeterministicContext`.

        Lazily built from the ``ledger-mode`` / ``ledger-dir`` /
        ``ledger-path`` stage properties, so it works identically on all
        three runtimes (including out-of-process networked workers).
        With no ledger properties set it is a zero-overhead passthrough;
        replayable stages route every wall-clock read, random draw, and
        suggested-value read through it.
        """
        cached = self.__dict__.get("_det")
        if cached is None:
            from repro.ledger.context import deterministic_context_for

            cached = deterministic_context_for(
                self.stage_name, self.properties, fallback_now=lambda: self.now
            )
            self.__dict__["_det"] = cached
        return cached


class StreamProcessor(abc.ABC):
    """Base class for user stage code (paper: ``StreamProcessor``).

    Lifecycle (driven by the runtime):

    1. :meth:`setup` — once, before any data; declare adjustment
       parameters here.
    2. :meth:`on_item` — once per input item, in arrival order.
    3. :meth:`flush` — once, after every input stream has ended.

    Output is produced by calling ``context.emit(...)`` from :meth:`on_item`
    or :meth:`flush`; every runtime rejects an emission from :meth:`setup`.

    Cost model: :attr:`cost_model` prices each ``on_item`` call on the
    host CPU (per-item + per-byte, the latter being the paper's
    "ms/byte" knob); override :meth:`work_amount` for non-linear stages.
    """

    #: Default CPU cost per on_item call; stages override or mutate.
    cost_model: CpuCostModel = CpuCostModel(per_item=1e-6)

    def setup(self, context: StageContext) -> None:
        """Called once before processing; default does nothing."""

    @abc.abstractmethod
    def on_item(self, payload: Any, context: StageContext) -> None:
        """Handle one input item."""

    def flush(self, context: StageContext) -> None:
        """Called once after all inputs ended; default does nothing."""

    def work_amount(self, payload: Any, size: float) -> tuple[float, float]:
        """(items, bytes) charged against :attr:`cost_model` per item."""
        return 1.0, size

    def result(self) -> Optional[Any]:
        """Final value reported for this stage after the run (sinks).

        The runtime collects these into the
        :class:`~repro.core.results.RunResult`; default None.
        """
        return None

    def snapshot(self) -> Optional[Any]:
        """Serializable copy of the processor's mutable state, or None.

        Called by the runtime on the checkpoint cadence (see
        :class:`repro.resilience.ResilienceConfig`).  The default — None
        — declares the processor stateless: after a failover it restarts
        fresh and correctness relies on input replay alone.  Stateful
        processors return plain JSON-representable data (lists, dicts,
        numbers, strings) so the JSONL checkpoint store round-trips it.
        """
        return None

    def restore(self, state: Any) -> None:
        """Rebuild mutable state from a :meth:`snapshot` value.

        Called on a *freshly constructed* instance during failover,
        after :meth:`setup`.  Must accept the JSON round-trip of whatever
        :meth:`snapshot` returned (tuples become lists, dict keys become
        strings).  The default ignores the state (stateless processor).
        """


class RecordingContext(StageContext):
    """Minimal in-memory context for unit-testing processors.

    Collects emissions into :attr:`emitted`; parameters are honoured but
    never adapted (the suggested value stays at whatever tests set).
    """

    def __init__(self, stage_name: str = "stage", properties: Optional[Dict[str, str]] = None) -> None:
        self._stage_name = stage_name
        self._properties = dict(properties or {})
        self._time = 0.0
        self.parameters: Dict[str, AdjustmentParameter] = {}
        self.emitted: List[tuple[Any, float]] = []
        #: Stream routing of each emission (None = broadcast), parallel
        #: to :attr:`emitted`.
        self.routes: List[Optional[str]] = []

    def specify_parameter(
        self,
        name: str,
        initial: float,
        minimum: float,
        maximum: float,
        increment: float,
        direction: int,
    ) -> AdjustmentParameter:
        """Record a declared adjustment parameter (see :class:`StageContext`)."""
        if name in self.parameters:
            raise ProcessorError(f"parameter {name!r} declared twice")
        param = AdjustmentParameter(name, initial, minimum, maximum, increment, direction)
        self.parameters[name] = param
        return param

    def get_suggested_value(self, name: str) -> float:
        """Current value of a declared parameter."""
        try:
            return self.parameters[name].value
        except KeyError:
            raise ProcessorError(f"unknown parameter {name!r}") from None

    def emit(self, payload: Any, size: float = 8.0, stream: Optional[str] = None) -> None:
        """Record an emission in :attr:`emitted` / :attr:`routes`."""
        self.emitted.append((payload, size))
        self.routes.append(stream)

    def advance(self, dt: float) -> None:
        """Move the fake clock forward."""
        self._time += dt

    @property
    def now(self) -> float:
        """The fake clock (advanced only by :meth:`advance`)."""
        return self._time

    @property
    def stage_name(self) -> str:
        """Name the context was constructed with."""
        return self._stage_name

    @property
    def properties(self) -> Dict[str, str]:
        """Configuration properties the context was constructed with."""
        return self._properties
