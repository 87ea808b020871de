"""The one reader of application configuration documents.

GATES deploys an application from one XML document (Section 3.2): the
Launcher parses it, then the Deployer places its stages.  Every consumer
reads that document here — :meth:`repro.grid.config.AppConfig.from_xml`
for the runtimes and the verifier behind ``repro check`` — so a document
means the same thing to both:

* it is built directly on :mod:`xml.parsers.expat`, so every element
  carries its source line;
* shape defects (missing attributes, unparseable or non-finite numbers,
  unknown elements) become :class:`ShapeError` values and the offending
  element is skipped — parsing always continues, so the verifier can
  show every defect at once while ``from_xml`` raises on the first;
* the result is a :class:`RawApp`: the unvalidated document model.
  Unlike :class:`~repro.grid.config.AppConfig`, a ``RawApp`` may hold
  cycles, out-of-range parameters or dangling stream endpoints; the
  verifier reports those, ``AppConfig.validate`` refuses them.

``RawApp.from_config`` converts an already-built (hence already
shape-valid) ``AppConfig`` so the runtimes can verify programmatic
configurations through the identical passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple
from xml.parsers import expat

from repro.grid.resources import ResourceRequirement

if TYPE_CHECKING:
    from repro.grid.config import AppConfig

__all__ = [
    "RawApp",
    "RawParameter",
    "RawRequirement",
    "RawStage",
    "RawStream",
    "ShapeError",
    "parse_document",
]


class ShapeError(NamedTuple):
    """One shape defect, located in the document when the line is known."""

    message: str
    line: Optional[int] = None
    column: Optional[int] = None


@dataclass
class RawParameter:
    """An adjustment-parameter declaration, numbers parsed best-effort.

    Unparseable numeric attributes land as ``nan`` (already reported as
    a shape error); ``ok`` is False in that case so the semantic passes
    skip range analysis instead of comparing against ``nan``.
    """

    name: str
    init: float = math.nan
    minimum: float = math.nan
    maximum: float = math.nan
    increment: float = math.nan
    direction: float = math.nan
    line: Optional[int] = None
    ok: bool = True


@dataclass
class RawRequirement:
    """A stage's resource requirement, shape-checked only."""

    min_cores: int = 1
    min_memory_mb: float = 0.0
    min_speed_factor: float = 0.0
    placement_hint: Optional[str] = None
    min_bandwidth_to: Dict[str, float] = field(default_factory=dict)
    line: Optional[int] = None

    def resolve(self) -> ResourceRequirement:
        """The range-checked requirement; ``ValueError`` if out of range."""
        return ResourceRequirement(
            min_cores=self.min_cores,
            min_memory_mb=self.min_memory_mb,
            min_speed_factor=self.min_speed_factor,
            placement_hint=self.placement_hint,
            min_bandwidth_to=dict(self.min_bandwidth_to),
        )


@dataclass
class RawStage:
    """One ``<stage>`` element."""

    name: str
    code_url: str
    requirement: RawRequirement = field(default_factory=RawRequirement)
    parameters: List[RawParameter] = field(default_factory=list)
    properties: Dict[str, str] = field(default_factory=dict)
    line: Optional[int] = None


@dataclass
class RawStream:
    """One ``<stream>`` element."""

    name: str
    src: str
    dst: str
    item_size: float = 8.0
    line: Optional[int] = None


@dataclass
class RawApp:
    """The tolerant document model the verifier passes consume."""

    name: str
    stages: List[RawStage] = field(default_factory=list)
    streams: List[RawStream] = field(default_factory=list)
    file: Optional[str] = None
    #: Source text split into lines (for rustc-style excerpts), if parsed.
    source_lines: Optional[List[str]] = None

    def stage_named(self, name: str) -> Optional[RawStage]:
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    def excerpt(self, line: Optional[int]) -> Optional[str]:
        """The source line at 1-based ``line``, if the text is available."""
        if self.source_lines is None or line is None:
            return None
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1]
        return None

    @classmethod
    def from_config(cls, config: "AppConfig") -> "RawApp":
        """Mirror an in-memory AppConfig (no file, no line numbers)."""
        stages = [
            RawStage(
                name=stage.name,
                code_url=stage.code_url,
                requirement=RawRequirement(
                    min_cores=stage.requirement.min_cores,
                    min_memory_mb=stage.requirement.min_memory_mb,
                    min_speed_factor=stage.requirement.min_speed_factor,
                    placement_hint=stage.requirement.placement_hint,
                    min_bandwidth_to=dict(stage.requirement.min_bandwidth_to),
                ),
                parameters=[
                    RawParameter(
                        name=param.name,
                        init=param.init,
                        minimum=param.minimum,
                        maximum=param.maximum,
                        increment=param.increment,
                        direction=float(param.direction),
                    )
                    for param in stage.parameters
                ],
                properties=dict(stage.properties),
            )
            for stage in config.stages
        ]
        streams = [
            RawStream(
                name=stream.name,
                src=stream.src,
                dst=stream.dst,
                item_size=stream.item_size,
            )
            for stream in config.streams
        ]
        return cls(name=config.name, stages=stages, streams=streams)


class _DocumentBuilder:
    """Expat handler assembling a RawApp and collecting shape errors."""

    def __init__(self, filename: Optional[str]) -> None:
        self.filename = filename
        self.errors: List[ShapeError] = []
        self.app: Optional[RawApp] = None
        self._parser = expat.ParserCreate()
        self._parser.StartElementHandler = self._start
        self._parser.EndElementHandler = self._end
        self._stage: Optional[RawStage] = None
        self._requirement: Optional[RawRequirement] = None
        self._depth_skip = 0
        #: The open element that takes no children (stream, parameter,
        #: property, bandwidth), if any.
        self._leaf: Optional[str] = None

    # -- error helpers --------------------------------------------------------

    def _line(self) -> int:
        return self._parser.CurrentLineNumber

    def _error(self, message: str) -> None:
        self.errors.append(ShapeError(message, self._line()))

    def _number(
        self, tag: str, attrs: Dict[str, str], key: str, default: float
    ) -> Tuple[float, bool]:
        """Parse a finite float attribute; shape error + nan on failure.

        ``nan`` and ``inf`` are refused too, so ``nan`` in the model
        always marks a value that was already reported.
        """
        text = attrs.get(key)
        if text is None:
            return default, True
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            self._error(f"<{tag}> attribute {key}={text!r} is not a number")
            return math.nan, False
        return value, True

    def _integer(
        self, tag: str, attrs: Dict[str, str], key: str, default: int
    ) -> Optional[int]:
        """Parse an integer attribute; shape error + None on failure."""
        text = attrs.get(key)
        if text is None:
            return default
        try:
            return int(text)
        except ValueError:
            self._error(f"<{tag}> attribute {key}={text!r} is not an integer")
            return None

    # -- expat handlers -------------------------------------------------------

    def _start(self, tag: str, attrs: Dict[str, str]) -> None:
        if self._depth_skip:
            self._depth_skip += 1
            return
        if self._leaf is not None:
            self._error(f"unexpected element <{tag}> under <{self._leaf}>")
            self._depth_skip = 1
            return
        if self.app is None:
            if tag != "application":
                self._error(f"expected <application> root, got <{tag}>")
                self.app = RawApp(name="", file=self.filename)
                return
            name = attrs.get("name", "")
            if not name:
                self._error("<application> missing 'name' attribute")
            self.app = RawApp(name=name, file=self.filename)
            return
        if self._stage is not None:
            self._start_stage_child(tag, attrs)
            return
        if tag == "stage":
            name, code = attrs.get("name"), attrs.get("code")
            if not name or not code:
                self._error("<stage> requires 'name' and 'code' attributes")
                self._depth_skip = 1
                return
            self._stage = RawStage(name=name, code_url=code, line=self._line())
        elif tag == "stream":
            name, src, dst = attrs.get("name"), attrs.get("from"), attrs.get("to")
            if not name or not src or not dst:
                self._error("<stream> requires 'name', 'from' and 'to' attributes")
                self._depth_skip = 1
                return
            size, _ = self._number("stream", attrs, "item-size", 8.0)
            if not math.isnan(size) and size <= 0:
                self._error(
                    f"stream {name!r}: item-size must be > 0, got {size}"
                )
            self.app.streams.append(
                RawStream(name=name, src=src, dst=dst, item_size=size,
                          line=self._line())
            )
            self._leaf = tag
        else:
            self._error(f"unexpected element <{tag}> under <application>")
            self._depth_skip = 1

    def _start_stage_child(self, tag: str, attrs: Dict[str, str]) -> None:
        stage = self._stage
        assert stage is not None
        if self._requirement is not None:
            if tag == "bandwidth":
                peer = attrs.get("to", "")
                value, _ = self._number("bandwidth", attrs, "min", 0.0)
                if peer:
                    self._requirement.min_bandwidth_to[peer] = value
                else:
                    self._error("<bandwidth> missing 'to' attribute")
                self._leaf = tag
            else:
                self._error(f"unexpected element <{tag}> under <requirement>")
                self._depth_skip = 1
            return
        if tag == "requirement":
            cores = self._integer("requirement", attrs, "min-cores", 1)
            memory, _ = self._number("requirement", attrs, "min-memory-mb", 0.0)
            speed, _ = self._number("requirement", attrs, "min-speed-factor", 0.0)
            self._requirement = RawRequirement(
                min_cores=1 if cores is None else cores,
                min_memory_mb=memory,
                min_speed_factor=speed,
                placement_hint=attrs.get("placement"),
                line=self._line(),
            )
        elif tag == "parameter":
            name = attrs.get("name", "")
            if not name:
                self._error("<parameter> missing 'name' attribute")
            param = RawParameter(name=name, line=self._line())
            ok = bool(name)
            for key, attr in (
                ("init", "init"), ("minimum", "min"), ("maximum", "max"),
                ("increment", "increment"), ("direction", "direction"),
            ):
                if attr not in attrs:
                    self._error(f"<parameter> {name!r} missing {attr!r} attribute")
                    ok = False
                    continue
                if attr == "direction":
                    # An integer, +1 or -1, as in ParameterConfig.
                    direction = self._integer("parameter", attrs, attr, 0)
                    parsed = direction is not None
                    value = math.nan if direction is None else float(direction)
                else:
                    value, parsed = self._number("parameter", attrs, attr, math.nan)
                setattr(param, key, value)
                ok = ok and parsed
            param.ok = ok
            stage.parameters.append(param)
            self._leaf = tag
        elif tag == "property":
            key = attrs.get("key")
            if not key:
                self._error(f"<property> in stage {stage.name!r} missing key")
            else:
                stage.properties[key] = attrs.get("value", "")
            self._leaf = tag
        else:
            self._error(
                f"unexpected element <{tag}> in stage {stage.name!r}"
            )
            self._depth_skip = 1

    def _end(self, tag: str) -> None:
        if self._depth_skip:
            self._depth_skip -= 1
            return
        if tag == self._leaf:
            self._leaf = None
        elif tag == "requirement" and self._requirement is not None:
            assert self._stage is not None
            self._stage.requirement = self._requirement
            self._requirement = None
        elif tag == "stage" and self._stage is not None:
            assert self.app is not None
            self.app.stages.append(self._stage)
            self._stage = None

    # -- driver ---------------------------------------------------------------

    def parse(self, text: str) -> Tuple[Optional[RawApp], List[ShapeError]]:
        try:
            self._parser.Parse(text, True)
        except expat.ExpatError as exc:
            self.errors.append(ShapeError(
                f"malformed XML: {expat.errors.messages[exc.code]}",
                exc.lineno, exc.offset,
            ))
            if self.app is None:
                return None, self.errors
        if self.app is None:
            self.errors.append(
                ShapeError("document contains no <application> element")
            )
            return None, self.errors
        self.app.source_lines = text.splitlines()
        return self.app, self.errors


def parse_document(
    text: str, filename: Optional[str] = None
) -> Tuple[Optional[RawApp], List[ShapeError]]:
    """Read a configuration document, collecting every shape error.

    Returns ``(app, errors)``; ``app`` is None only when the text is so
    broken that no ``<application>`` element could be recovered, and
    then ``errors`` is not empty.  ``filename`` is recorded on the app.
    """
    return _DocumentBuilder(filename).parse(text)
