"""The generated diagnostic-code table of ``docs/static_analysis.md``.

The page documents every diagnostic code — GA1xx through GA6xx — in
**one** consolidated markdown table that is not hand-written but
generated from the authoritative catalog
(:data:`repro.analysis.codes.CODES`) by :func:`render_catalog_table`;
``python -m repro.analysis.docscheck`` prints it for pasting.
:mod:`repro.docscheck` requires the page to embed it verbatim and diffs
its rows against the catalog.
"""

from __future__ import annotations

from repro.analysis.codes import CODES

__all__ = ["render_catalog_table"]


def render_catalog_table() -> str:
    """The consolidated catalog table, generated from :data:`CODES`.

    ``docs/static_analysis.md`` must embed this output verbatim; when a
    code is added or reworded, regenerate with
    ``python -m repro.analysis.docscheck`` and paste.
    """
    lines = [
        "| Code | Kind | Severity | Invariant |",
        "|---|---|---|---|",
    ]
    for code in sorted(CODES):
        info = CODES[code]
        lines.append(
            f"| `{code}` | {info.kind} | {info.severity.value} "
            f"| {info.title} |"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(render_catalog_table())
