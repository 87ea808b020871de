"""docs/static_analysis.md and the code catalog must not drift."""

from repro.analysis.docscheck import render_catalog_table
from repro.docscheck import PINS

PIN = PINS["static_analysis.md"]


def test_docs_file_exists():
    assert PIN.path.exists()


def test_docs_and_catalog_agree():
    assert PIN.check() == []


def test_missing_docs_file_is_one_problem(tmp_path):
    problems = PIN.check(tmp_path / "ghost.md")
    assert problems and "missing" in problems[0]


def test_drift_is_detected_both_ways(tmp_path):
    page = tmp_path / "static_analysis.md"
    rows = PIN.rows(PIN.path.read_text(encoding="utf-8"))
    # drop one real code, add one stale code, change one kind
    rows.pop("GA101")
    rows["GA102"] = "lint"
    lines = [f"| `{code}` | {kind} | x | x |" for code, kind in rows.items()]
    lines.append("| `GA999` | config | x | x |")
    page.write_text("\n".join(lines), encoding="utf-8")
    problems = PIN.check(page)
    assert any("GA101" in p and "not documented" in p for p in problems)
    assert any("GA999" in p and "not in repro.analysis.codes.CODES" in p
               for p in problems)
    assert "'GA102': catalog says config, docs say lint" in problems
    # the hand-written rows are not the generated table
    assert any("verbatim" in p for p in problems)
    assert render_catalog_table() in PIN.path.read_text(encoding="utf-8")
