"""Continuous query access to running applications.

The count-samps problem statement wants the answer available "at any given
point in the stream" (Section 5.1) — not only after the run.  This module
provides that client path:

* :class:`Queryable` — mixin/protocol for stage processors that can
  answer a query mid-stream (``JoinStage.current_topk`` already does;
  any processor exposing ``current_answer()`` qualifies).
* :class:`ContinuousQuery` — a simulation process that polls a queryable
  stage on a cadence and records the answer (and optionally a quality
  score against a known truth) as time series.  The result is the
  accuracy-over-time trajectory — how quickly the distributed summaries
  converge on the true answer as data accumulates.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.core.runtime_sim import SimulatedRuntime
from repro.simnet.trace import TimeSeries

__all__ = ["ContinuousQuery", "Queryable"]


class Queryable:
    """Protocol marker: processors answering queries mid-stream.

    A processor is queryable if it implements ``current_answer()``; the
    shipped :class:`~repro.apps.count_samps.JoinStage` is adapted via its
    ``current_topk`` method automatically.
    """

    def current_answer(self) -> Any:  # pragma: no cover - protocol default
        """The processor's best current answer to its standing query."""
        raise NotImplementedError


def _resolve_query_fn(processor: Any) -> Callable[[], Any]:
    if hasattr(processor, "current_answer"):
        return processor.current_answer
    if hasattr(processor, "current_topk"):
        return processor.current_topk
    raise TypeError(
        f"{type(processor).__name__} is not queryable "
        "(needs current_answer() or current_topk())"
    )


class ContinuousQuery:
    """Polls a stage's live answer while the application runs.

    Parameters
    ----------
    runtime:
        The (not yet run) :class:`SimulatedRuntime`.
    stage_name:
        Stage whose processor is polled.
    interval:
        Simulated seconds between polls.
    score:
        Optional callable mapping an answer to a quality score in [0, 1]
        (e.g. top-k accuracy against known ground truth); scores land in
        :attr:`quality`.

    Call :meth:`attach` before ``runtime.run()``; afterwards,
    :attr:`answers` holds (time, answer) pairs and :attr:`quality` the
    scored trajectory.
    """

    def __init__(
        self,
        runtime: SimulatedRuntime,
        stage_name: str,
        interval: float = 1.0,
        score: Optional[Callable[[Any], float]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.runtime = runtime
        self.stage_name = stage_name
        self.interval = float(interval)
        self.score = score
        self.answers: List[Tuple[float, Any]] = []
        self.quality = TimeSeries(f"{stage_name}.quality")
        self._attached = False

    def attach(self) -> None:
        """Arm the polling process (idempotent is an error: call once)."""
        if self._attached:
            raise RuntimeError("continuous query already attached")
        # Stage existence check against the configuration.
        self.runtime.deployment.config.stage(self.stage_name)
        self._attached = True
        self.runtime.env.process(self._poll(), name=f"query:{self.stage_name}")

    def _poll(self) -> Generator:
        # The runtime builds stages lazily inside run(); wait one tick so
        # the registry of stage runtimes exists.
        yield self.runtime.env.timeout(self.interval)
        while True:
            stage = self.runtime._stages.get(self.stage_name)
            if stage is None:
                # run() not started yet or stage vanished; try again.
                yield self.runtime.env.timeout(self.interval)
                continue
            answer = _resolve_query_fn(stage.core.processor)()
            now = self.runtime.env.now
            self.answers.append((now, answer))
            if self.score is not None:
                self.quality.record(now, float(self.score(answer)))
            if stage.done:
                return
            yield self.runtime.env.timeout(self.interval)

    def latest(self) -> Any:
        """Most recent polled answer."""
        if not self.answers:
            raise RuntimeError("no answers polled yet")
        return self.answers[-1][1]

    def time_to_quality(self, threshold: float) -> Optional[float]:
        """Earliest time the quality score reached ``threshold``."""
        for time, value in self.quality:
            if value >= threshold:
                return time
        return None
