"""In-memory span recorder for the traced benchmark run.

The benchmark never edits the program: it replaces public functions and
methods of the ``repro`` layers with thin wrappers for the length of a
traced round and puts the originals back afterwards.  Each wrapper
records a span (name, start, end, parent).  Spans nest per thread, so a
span's *self* time is its duration minus the time its child spans cover.

Aggregates are kept per ``(name, parent)`` for the whole round; raw
spans are kept only up to a cap and written out at the end.  Coroutine
methods (``OutChannel.send``) are timed from call to completion, which
includes the awaits, so they are leaves that claim no self time: the
event loop runs other tasks while they wait.

The patching is process-wide, because the layers are classes and module
functions of the process.  :func:`install` therefore returns the one
active :class:`Tracer` of the process, which worker-side stages share.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Raw spans kept per process and written out at the end of the run.
SPAN_KEEP = 5000

#: The public functions and methods each layer is timed at:
#: (module, owner class or None for a module function, attribute, span name).
LAYER_CALLS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.grid.launcher", "Launcher", "launch", "grid.launch"),
    ("repro.simnet.engine", "Environment", "step", "simnet.step"),
    ("repro.simnet.engine", "Environment", "process", "simnet.process"),
    ("repro.core.adaptation.load", "LoadEstimator", "sample", "adapt.sample"),
    ("repro.streams.sketches.counting_samples", "CountingSamples", "update",
     "sketch.update"),
    ("repro.net.protocol", None, "encode_payload_into", "proto.encode"),
    ("repro.net.protocol", None, "encode_payload_batch_into", "proto.encode"),
    ("repro.net.protocol", None, "finish_frame", "proto.encode"),
    ("repro.net.protocol", "FrameDecoder", "feed", "proto.decode"),
    ("repro.net.protocol", None, "decode_payload", "proto.decode"),
    ("repro.net.protocol", None, "decode_payload_batch", "proto.decode"),
    ("repro.net.channels", "OutChannel", "send", "chan.send"),
    ("repro.net.channels", "OutChannel", "send_batch", "chan.send"),
    ("repro.obs.registry", "Counter", "inc", "obs.inc"),
)

#: Modules that import the patched module functions by name.
CONSUMERS = ("repro.net.channels", "repro.net.worker", "repro.net.coordinator")

# One aggregate cell: [calls, total ns, self ns].
Cell = List[int]


class _ThreadState:
    __slots__ = ("names", "child", "agg", "spans")

    def __init__(self) -> None:
        self.names: List[str] = []
        self.child: List[int] = []
        self.agg: Dict[Tuple[str, Optional[str]], Cell] = {}
        self.spans: List[Tuple[str, int, int, Optional[str]]] = []


class Tracer:
    """Wraps layer entry points and aggregates the spans they record."""

    def __init__(self, keep: int = SPAN_KEEP) -> None:
        self._keep = keep
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so that every call records a span called ``name``."""
        if inspect.iscoroutinefunction(fn):
            return self._async_span(name, fn)
        state_of = self._state
        keep = self._keep
        clock = time.perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            names, child = state.names, state.child
            parent = names[-1] if names else None
            names.append(name)
            child.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                names.pop()
                duration = end - start
                covered = child.pop()
                cell = state.agg.get((name, parent))
                if cell is None:
                    cell = state.agg[(name, parent)] = [0, 0, 0]
                cell[0] += 1
                cell[1] += duration
                cell[2] += duration - covered
                if child:
                    child[-1] += duration
                if len(state.spans) < keep:
                    state.spans.append((name, start, end, parent))

        wrapper.perfbench_span = True  # type: ignore[attr-defined]
        return wrapper

    def _async_span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        state_of = self._state
        keep = self._keep
        clock = time.perf_counter_ns

        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                state = state_of()
                cell = state.agg.get((name, None))
                if cell is None:
                    cell = state.agg[(name, None)] = [0, 0, 0]
                cell[0] += 1
                cell[1] += end - start
                if len(state.spans) < keep:
                    state.spans.append((name, start, end, None))

        wrapper.perfbench_span = True  # type: ignore[attr-defined]
        return wrapper

    def patch_method(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = owner.__dict__[attr]
        if getattr(original, "perfbench_span", False):
            return  # already timed (two stages of one process)
        setattr(owner, attr, self.span(name, original))
        self._patched.append((owner, attr, original))

    def patch_function(self, module: str, attr: str, name: str) -> None:
        """Replace a module function everywhere ``repro`` imported it by name."""
        original = getattr(sys.modules[module], attr)
        wrapped = self.span(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patched.append((mod, key, original))

    def install_layers(self) -> None:
        """Time every entry point of :data:`LAYER_CALLS`."""
        # Import every module that binds these names before patching, so
        # no module picks up a wrapper by import and keeps it afterwards.
        for module in CONSUMERS:
            importlib.import_module(module)
        for module, owner, attr, name in LAYER_CALLS:
            mod = importlib.import_module(module)
            if owner is None:
                self.patch_function(module, attr, name)
            else:
                self.patch_method(getattr(mod, owner), attr, name)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def aggregates(self) -> List[List[Any]]:
        """``[name, parent, calls, total_ns, self_ns]`` over all threads."""
        merged: Dict[Tuple[str, Optional[str]], Cell] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, cell in list(state.agg.items()):
                into = merged.setdefault(key, [0, 0, 0])
                for i in range(3):
                    into[i] += cell[i]
        return [[k[0], k[1], *v] for k, v in sorted(merged.items(), key=str)]

    def spans(self) -> List[List[Any]]:
        """The raw spans kept, as ``[name, start_ns, end_ns, parent]``."""
        with self._lock:
            states = list(self._states)
        out: List[List[Any]] = []
        for state in states:
            out.extend(list(s) for s in state.spans)
        return out[: self._keep]


_ACTIVE: Optional[Tracer] = None


def install() -> Tracer:
    """The process's tracer, installing the layer wrappers on first use."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = Tracer()
        _ACTIVE.install_layers()
    return _ACTIVE


def active() -> Optional[Tracer]:
    """The installed tracer, or None when this process is not traced."""
    return _ACTIVE


def uninstall() -> None:
    """Remove the process's wrappers (the benchmark process between rounds)."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.uninstall()
        _ACTIVE = None
