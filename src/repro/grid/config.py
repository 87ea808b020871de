"""XML application configuration.

The application developer "writes an XML file, specifying the configuration
information of an application.  Such information includes the number of
stages and where the stages' codes are" (Section 3.2).  This module defines
the typed model (:class:`AppConfig`, :class:`StageConfig`,
:class:`StreamConfig`, :class:`ParameterConfig`); documents are read by
:mod:`repro.grid.xmlparse` and written with the stdlib :mod:`xml.etree`.

Example document::

    <application name="count-samps">
      <stage name="filter-0" code="repo://count-samps/filter">
        <requirement min-cores="1" placement="near:source-0"/>
        <parameter name="sample-size" init="100" min="10" max="240"
                   increment="10" direction="-1"/>
        <property key="top-k" value="10"/>
      </stage>
      <stage name="join" code="repo://count-samps/join"/>
      <stream name="s0" from="filter-0" to="join" item-size="8.0"/>
    </application>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Dict, List

import networkx as nx

from repro.grid.resources import ResourceRequirement
from repro.grid.xmlparse import parse_document

__all__ = ["AppConfig", "ConfigError", "ParameterConfig", "StageConfig", "StreamConfig"]


class ConfigError(Exception):
    """Raised for malformed or inconsistent configurations."""


@dataclass(frozen=True)
class ParameterConfig:
    """Declarative form of an adjustment parameter (Section 3.3).

    ``direction`` mirrors the last argument of ``specifyPara``: +1 means
    increasing the value *increases* the processing rate (and typically
    lowers accuracy); -1 means increasing the value *decreases* the
    processing rate (more data retained, more accurate).
    """

    name: str
    init: float
    minimum: float
    maximum: float
    increment: float
    direction: int

    def __post_init__(self) -> None:
        if self.minimum > self.maximum:
            raise ConfigError(
                f"parameter {self.name!r}: min {self.minimum} > max {self.maximum}"
            )
        if not (self.minimum <= self.init <= self.maximum):
            raise ConfigError(
                f"parameter {self.name!r}: init {self.init} outside "
                f"[{self.minimum}, {self.maximum}]"
            )
        if self.increment <= 0:
            raise ConfigError(
                f"parameter {self.name!r}: increment must be > 0, got {self.increment}"
            )
        if self.direction not in (-1, 1):
            raise ConfigError(
                f"parameter {self.name!r}: direction must be +1 or -1, "
                f"got {self.direction}"
            )


@dataclass
class StageConfig:
    """One pipeline stage: code location, resources, parameters, properties."""

    name: str
    code_url: str
    requirement: ResourceRequirement = field(default_factory=ResourceRequirement)
    parameters: List[ParameterConfig] = field(default_factory=list)
    properties: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class StreamConfig:
    """A directed stream between two stages.

    ``item_size`` is the bytes-per-item used for link transmission-time
    accounting (the paper's integer streams use 4-8 byte items).
    """

    name: str
    src: str
    dst: str
    item_size: float = 8.0

    def __post_init__(self) -> None:
        if self.item_size <= 0:
            raise ConfigError(
                f"stream {self.name!r}: item-size must be > 0, got {self.item_size}"
            )
        if self.src == self.dst:
            raise ConfigError(f"stream {self.name!r}: src == dst ({self.src!r})")


@dataclass
class AppConfig:
    """A complete application description."""

    name: str
    stages: List[StageConfig] = field(default_factory=list)
    streams: List[StreamConfig] = field(default_factory=list)

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise :class:`ConfigError` if broken.

        Invariants: non-empty name, at least one stage, unique stage and
        stream names, streams reference declared stages, and the stage
        graph is acyclic (GATES applications are pipelines/DAGs).
        """
        if not self.name:
            raise ConfigError("application name must be non-empty")
        if not self.stages:
            raise ConfigError(f"application {self.name!r} declares no stages")
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate stage names in {self.name!r}")
        stream_names = [s.name for s in self.streams]
        if len(set(stream_names)) != len(stream_names):
            raise ConfigError(f"duplicate stream names in {self.name!r}")
        known = set(names)
        for stream in self.streams:
            for endpoint in (stream.src, stream.dst):
                if endpoint not in known:
                    raise ConfigError(
                        f"stream {stream.name!r} references unknown stage "
                        f"{endpoint!r}"
                    )
        graph = self.stage_graph()
        if not nx.is_directed_acyclic_graph(graph):
            cycle = nx.find_cycle(graph)
            raise ConfigError(f"stage graph has a cycle: {cycle}")

    def stage_graph(self) -> "nx.DiGraph":
        """The stage DAG (nodes = stage names, edges = streams)."""
        graph = nx.DiGraph()
        graph.add_nodes_from(s.name for s in self.stages)
        for stream in self.streams:
            graph.add_edge(stream.src, stream.dst, stream=stream)
        return graph

    def stage(self, name: str) -> StageConfig:
        """Look up a stage by name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise ConfigError(f"no stage {name!r} in application {self.name!r}")

    def topological_stages(self) -> List[StageConfig]:
        """Stages in dependency order (sources first)."""
        order = list(nx.topological_sort(self.stage_graph()))
        return [self.stage(n) for n in order]

    def upstream_of(self, name: str) -> List[str]:
        """Names of stages feeding ``name``."""
        return sorted(self.stage_graph().predecessors(name))

    def downstream_of(self, name: str) -> List[str]:
        """Names of stages fed by ``name``."""
        return sorted(self.stage_graph().successors(name))

    # -- XML serialization ---------------------------------------------------

    def to_xml(self) -> str:
        """Serialize to the configuration document format."""
        root = ET.Element("application", name=self.name)
        for stage in self.stages:
            el = ET.SubElement(root, "stage", name=stage.name, code=stage.code_url)
            req = stage.requirement
            attrs: Dict[str, str] = {}
            if req.min_cores != 1:
                attrs["min-cores"] = str(req.min_cores)
            if req.min_memory_mb:
                attrs["min-memory-mb"] = repr(req.min_memory_mb)
            if req.min_speed_factor:
                attrs["min-speed-factor"] = repr(req.min_speed_factor)
            if req.placement_hint:
                attrs["placement"] = req.placement_hint
            if attrs or req.min_bandwidth_to:
                req_el = ET.SubElement(el, "requirement", attrs)
                for peer, bw in sorted(req.min_bandwidth_to.items()):
                    ET.SubElement(
                        req_el, "bandwidth", {"to": peer, "min": repr(bw)}
                    )
            for param in stage.parameters:
                ET.SubElement(
                    el,
                    "parameter",
                    name=param.name,
                    init=repr(param.init),
                    min=repr(param.minimum),
                    max=repr(param.maximum),
                    increment=repr(param.increment),
                    direction=str(param.direction),
                )
            for key, value in sorted(stage.properties.items()):
                ET.SubElement(el, "property", key=key, value=value)
        for stream in self.streams:
            ET.SubElement(
                root,
                "stream",
                {
                    "name": stream.name,
                    "from": stream.src,
                    "to": stream.dst,
                    "item-size": repr(stream.item_size),
                },
            )
        ET.indent(root)
        return ET.tostring(root, encoding="unicode")

    @classmethod
    def from_xml(cls, document: str) -> "AppConfig":
        """Read and validate a configuration document.

        The document goes through the one reader,
        :func:`repro.grid.xmlparse.parse_document`, which ``repro check``
        uses too; its first shape error, an invalid requirement or a
        broken invariant raises :class:`ConfigError`.
        """
        app, errors = parse_document(document)
        if errors or app is None:
            raise ConfigError(errors[0].message)
        stages: List[StageConfig] = []
        for raw in app.stages:
            try:
                requirement = raw.requirement.resolve()
            except ValueError as exc:
                raise ConfigError(
                    f"stage {raw.name!r}: invalid requirement: {exc}"
                ) from exc
            parameters = [
                ParameterConfig(p.name, p.init, p.minimum, p.maximum,
                                p.increment, int(p.direction))
                for p in raw.parameters
            ]
            stages.append(StageConfig(raw.name, raw.code_url, requirement,
                                      parameters, dict(raw.properties)))
        config = cls(app.name, stages, [
            StreamConfig(s.name, s.src, s.dst, s.item_size) for s in app.streams
        ])
        config.validate()
        return config
