"""Shared end-of-stream bookkeeping for every runtime.

GATES pipelines terminate cooperatively: each source appends an
:class:`~repro.core.items.EndOfStream` sentinel, and a stage finishes
once it has consumed one sentinel per input (stream edges plus external
source bindings), flushed, and forwarded its own sentinel downstream.

The counting itself is identical in the simulated, threaded, and
networked runtimes, so it lives here once.  The tracker is deliberately
tiny: the stage core flushes and the runtimes propagate; the tracker
only answers "how many sentinels am I waiting for, and has the last one
arrived?".

Sharded upstreams (see :mod:`repro.core.sharding`) fan one logical
stream out into one edge per replica; each edge registers its own
expectation, so replica-group termination needs no special case.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EosTracker"]


@dataclass
class EosTracker:
    """Counts ``EndOfStream`` sentinels against the number expected.

    ``expected`` is fixed while the pipeline is wired (one :meth:`expect`
    per inbound stream edge or source binding); ``seen`` advances as the
    stage consumes sentinels.  ``observe()`` returns ``True`` exactly
    when the sentinel that completes the input set arrives — the caller
    then flushes and propagates its own sentinel.

    ``seen`` is part of a stage's durable state: checkpoints persist it
    (see :class:`repro.resilience.checkpoint.StageCheckpoint`) and
    failover restores it via :meth:`restore`, so an at-least-once replay
    recounts exactly the sentinels that were not yet acknowledged.
    """

    expected: int = 0
    seen: int = 0

    def expect(self, n: int = 1) -> None:
        """Register ``n`` more inputs whose sentinels must arrive.

        Arguments:
            n: Number of additional inputs (>= 0); one per inbound
                stream edge or source binding.
        """
        if n < 0:
            raise ValueError("cannot expect a negative number of inputs")
        self.expected += n

    def observe(self) -> bool:
        """Consume one sentinel; ``True`` if the input set is complete.

        Tolerant of over-delivery (at-least-once replay may re-deliver a
        sentinel already counted before a crash): extra sentinels keep
        returning ``True`` rather than raising, matching the historical
        behaviour of both runtimes.

        Returns:
            ``True`` exactly from the sentinel completing the input set
            onward; ``False`` while sentinels are still outstanding.
        """
        self.seen += 1
        return self.seen >= self.expected

    # -- checkpoint support ------------------------------------------------
    def snapshot(self) -> int:
        """Durable form of the progress counter.

        Returns:
            ``seen`` — the only part of the tracker that is stage
            progress rather than wiring (``expected`` is re-derived when
            the pipeline is rewired after a failover).
        """
        return self.seen

    def restore(self, seen: int) -> None:
        """Reset progress from a checkpoint.

        Arguments:
            seen: The checkpointed :meth:`snapshot` value (``expected``
                is rewiring's job).
        """
        self.seen = int(seen)
