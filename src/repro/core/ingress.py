"""Source ingress: one external stream bound to a first-layer stage.

GATES tunes each stage to keep up with its arrival rate (Section 4), so
how a source reaches its stage is part of the stage contract, defined
here once for every runtime: the ``bind_source`` check, the binding
resolved against the driver's stages, and the inter-arrival gaps.  The
drivers keep the waiting and the handoff; nothing here reads a clock.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any, Callable, Generic, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, TypeVar,
)

from repro.core.sharding import SHARD_GROUP_PROPERTY

__all__ = ["Ingress", "SourceBinding", "check_source", "resolve_source"]

T = TypeVar("T")


@dataclass
class SourceBinding:
    """An external data stream feeding a first-layer stage.

    Parameters
    ----------
    name:
        Diagnostic name; also the ``origin`` tag on injected items.
    target_stage:
        Name of the stage receiving the stream, or of a shard group
        (each payload then goes to the replica owning its key).
    payloads:
        Iterable of payload objects (consumed once).
    rate:
        Arrival rate in items/second, or ``None`` to deliver as fast as
        the pipeline accepts (the finite-workload mode of the Figure 5/6
        experiments).  Ignored when ``arrivals`` is given.
    item_size:
        Bytes per item, or a callable payload -> bytes.
    arrivals:
        Optional :class:`~repro.streams.arrivals.ArrivalProcess` supplying
        inter-arrival gaps (Poisson, bursty ON/OFF ...); overrides
        ``rate``.
    drop_when_full:
        If True, arrivals finding the stage queue at capacity are
        *dropped* (counted in the stage's ``items_dropped``) instead of
        back-pressuring the source — real instruments do not pause; "it
        is often not feasible to store all data" (Section 1).  Honoured
        by the simulated runtime.
    """

    name: str
    target_stage: str
    payloads: Iterable[Any]
    rate: Optional[float] = None
    item_size: float | Callable[[Any], float] = 8.0
    arrivals: Optional[Any] = None
    drop_when_full: bool = False

    def size_of(self, payload: Any) -> float:
        """Bytes to account for ``payload`` on the wire."""
        if callable(self.item_size):
            return float(self.item_size(payload))
        return float(self.item_size)


def check_source(
    binding: SourceBinding,
    stages: Mapping[str, Mapping[str, Any]],
    error: Callable[[str], Exception],
) -> None:
    """Raise ``error(message)`` unless the rate (when given) is positive
    and the target is a stage or a shard group; ``stages`` maps each
    stage name to its properties."""
    if binding.rate is not None and binding.rate <= 0:
        raise error(f"source {binding.name!r}: rate must be > 0, got {binding.rate}")
    target = binding.target_stage
    if target not in stages and not any(
        properties.get(SHARD_GROUP_PROPERTY) == target for properties in stages.values()
    ):
        raise error(f"source {binding.name!r}: unknown stage {target!r}")


@dataclass(frozen=True)
class Ingress(Generic[T]):
    """A source binding resolved against a driver's stages.

    ``targets`` is the target stage, or every replica of the target
    group in slot order; each gets the source's end-of-stream marker.
    ``owner`` picks a payload's index in ``targets`` (None for a stage).
    """

    binding: SourceBinding
    targets: List[T]
    owner: Optional[Callable[[Any], int]]
    size_of: Callable[[Any], float]

    def gaps(self, time_scale: float = 1.0) -> Optional[Iterator[float]]:
        """The gap before each item, from the arrival process or else the
        rate, times ``time_scale``; None for an unpaced source."""
        binding = self.binding
        if binding.arrivals is not None:
            return (gap * time_scale for gap in binding.arrivals.gaps())
        if binding.rate is not None:
            return itertools.repeat((1.0 / binding.rate) * time_scale)
        return None


def resolve_source(
    binding: SourceBinding,
    stages: Mapping[str, T],
    groups: Mapping[str, Tuple[Sequence[str], Callable[[Any], int]]],
) -> Ingress[T]:
    """Resolve a checked binding once per run.

    ``stages`` maps names to the driver's stage objects and ``groups``
    maps each shard group to its member names in slot order and its
    key-owner function; a stage name wins over a group name.
    """
    target = binding.target_stage
    if target in stages:
        return Ingress(binding, [stages[target]], None, binding.size_of)
    members, owner = groups[target]
    return Ingress(binding, [stages[member] for member in members], owner, binding.size_of)
