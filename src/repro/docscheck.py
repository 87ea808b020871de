"""One checker for the catalog tables in ``docs/``.

Several pages document a code catalog in a markdown table whose first
column is a backticked name: metric templates, ledger record types,
diagnostic codes, sharding knobs and migration knobs.  Each page is one
:class:`Pin` in :data:`PINS`.  :meth:`Pin.check` diffs the page's table
against the catalog in both directions and, where the catalog carries a
value (metric kind, record rank, code kind), compares the second column
too.  The tier-1 docs tests assert every pin reports no problem, so the
reference pages cannot drift from the code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.analysis.codes import CODES
from repro.analysis.docscheck import render_catalog_table
from repro.core import sharding
from repro.ledger.records import RECORD_TYPES
from repro.obs.names import METRICS
from repro.resilience import migration

__all__ = ["DOCS_DIR", "PINS", "Pin"]

#: ``docs/`` in a source checkout.
DOCS_DIR = Path(__file__).resolve().parents[2] / "docs"


@dataclass(frozen=True)
class Pin:
    """One docs page kept in lockstep with one code catalog.

    ``catalog`` maps each name to the value the page's second column
    must hold, or to None when only the name is pinned; ``pattern``
    matches the backticked first-column names of the page's table.
    The options: ``ignore`` lists names the table may document without
    them being counted, ``mentions`` strings the page must contain
    somewhere, and ``embeds`` a generated table the page must contain
    verbatim.
    """

    page: str
    catalog_name: str
    catalog: Mapping[str, Optional[str]]
    pattern: str
    ignore: FrozenSet[str] = frozenset()
    mentions: Tuple[str, ...] = ()
    embeds: Optional[str] = None

    @property
    def path(self) -> Path:
        """The page in this checkout's ``docs/``."""
        return DOCS_DIR / self.page

    def rows(self, text: str) -> Dict[str, str]:
        """``{name: second column}`` of every table row naming an entry."""
        row = re.compile(
            rf"^\|\s*`(?P<name>{self.pattern})`\s*\|\s*(?P<value>[^|]*?)\s*\|"
        )
        rows: Dict[str, str] = {}
        for line in text.splitlines():
            match = row.match(line.strip())
            if match and match.group("name") not in self.ignore:
                rows[match.group("name")] = match.group("value")
        return rows

    def check(self, path: Optional[Path] = None) -> List[str]:
        """Problems keeping the page and the catalog apart (empty = in sync).

        ``path`` replaces :attr:`path`, to check another copy of the page.
        """
        path = path if path is not None else self.path
        if not path.exists():
            return [f"docs file missing: {path}"]
        text = path.read_text(encoding="utf-8")
        rows = self.rows(text)
        problems: List[str] = []
        for name, value in sorted(self.catalog.items()):
            if name not in rows:
                problems.append(
                    f"{name!r} from {self.catalog_name} is not documented "
                    f"in {path.name}"
                )
            elif value is not None and rows[name] != value:
                problems.append(
                    f"{name!r}: catalog says {value}, docs say {rows[name]}"
                )
        for name in sorted(rows.keys() - self.catalog.keys()):
            problems.append(
                f"{path.name} documents {name!r}, which is not in "
                f"{self.catalog_name}"
            )
        for mention in self.mentions:
            if mention not in text:
                problems.append(f"{path.name} does not mention {mention!r}")
        if self.embeds is not None and self.embeds not in text:
            problems.append(
                f"{path.name} does not embed the table generated from "
                f"{self.catalog_name} verbatim"
            )
        return problems


#: Every pinned page, by file name.
PINS: Dict[str, Pin] = {
    pin.page: pin
    for pin in (
        Pin(
            "observability.md", "repro.obs.names.METRICS",
            {spec.template: spec.kind for spec in METRICS},
            r"[a-z0-9_{}>-]*\.[a-z0-9_.{}>-]+",
        ),
        Pin(
            "replay.md", "repro.ledger.records.RECORD_TYPES",
            {info.name: str(info.rank) for info in RECORD_TYPES},
            r"[A-Z]+",
        ),
        Pin(
            "static_analysis.md", "repro.analysis.codes.CODES",
            {code: info.kind for code, info in CODES.items()},
            r"GA\d{3}",
            embeds=render_catalog_table(),
        ),
        Pin(
            "sharding.md", "repro.core.sharding.KNOBS",
            dict.fromkeys(sharding.KNOBS),
            r"[a-z][a-z0-9-]*",
            # Markers the expansion writes, not knobs a user sets.
            ignore=frozenset(
                {sharding.SHARD_GROUP_PROPERTY, sharding.SHARD_INDEX_PROPERTY}
            ),
        ),
        Pin(
            "migration.md", "repro.resilience.migration.KNOBS",
            dict.fromkeys(migration.KNOBS),
            r"[a-z][a-z0-9_]*",
            mentions=tuple(
                spec.template for spec in METRICS
                if spec.template.startswith("migration.")
            ),
        ),
    )
}
