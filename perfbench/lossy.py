"""Sinks that lose one item, so the self-test can prove the checks fail."""

from __future__ import annotations

from typing import Any

from repro.core.api import StageContext

from perfbench.stages import FifoSink, KeyedSink

#: The arrival (1-based) each lossy sink drops.
DROP_AT = 11


class DroppingSink(FifoSink):
    """A :class:`FifoSink` that never sees its 11th arrival."""

    def __init__(self) -> None:
        super().__init__()
        self.arrivals = 0

    def on_item(self, payload: Any, context: StageContext) -> None:
        self.arrivals += 1
        if self.arrivals != DROP_AT:
            super().on_item(payload, context)


class DroppingKeyedSink(KeyedSink):
    """A :class:`KeyedSink` that never sees its 11th arrival."""

    def __init__(self) -> None:
        super().__init__()
        self.arrivals = 0

    def on_item(self, payload: Any, context: StageContext) -> None:
        self.arrivals += 1
        if self.arrivals != DROP_AT:
            super().on_item(payload, context)
