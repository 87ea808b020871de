"""Docs-consistency: docs/observability.md must match the catalog.

This is the tier-1 gate for satellite (f): every metric in the docs
exists in the registry catalog and vice versa.
"""

from pathlib import Path

from repro.docscheck import PINS
from repro.obs.names import METRICS

PIN = PINS["observability.md"]


class TestDocsInSync:
    def test_no_problems(self):
        assert PIN.check() == []

    def test_docs_file_exists(self):
        assert PIN.path.exists()

    def test_parser_finds_all_templates(self):
        documented = PIN.rows(PIN.path.read_text(encoding="utf-8"))
        assert len(documented) == len(METRICS)


class TestDriftDetection:
    def make_docs(self, tmp_path, rows):
        path = tmp_path / "observability.md"
        table = "\n".join(
            f"| `{template}` | {kind} | u | sim | p | d |"
            for template, kind in rows
        )
        path.write_text(f"# Obs\n\n| metric | kind |\n|---|---|\n{table}\n",
                        encoding="utf-8")
        return path

    def test_missing_row_detected(self, tmp_path):
        rows = [(s.template, s.kind) for s in METRICS[1:]]
        problems = PIN.check(self.make_docs(tmp_path, rows))
        assert any(METRICS[0].template in p and "not documented" in p
                   for p in problems)

    def test_stale_row_detected(self, tmp_path):
        rows = [(s.template, s.kind) for s in METRICS]
        rows.append(("stage.{stage}.removed_metric", "counter"))
        problems = PIN.check(self.make_docs(tmp_path, rows))
        assert any("removed_metric" in p and "not in repro.obs.names.METRICS" in p
                   for p in problems)

    def test_kind_mismatch_detected(self, tmp_path):
        rows = [(s.template, s.kind) for s in METRICS[1:]]
        rows.append((METRICS[0].template, "gauge" if METRICS[0].kind != "gauge"
                     else "counter"))
        problems = PIN.check(self.make_docs(tmp_path, rows))
        assert any("catalog says" in p for p in problems)

    def test_missing_file_reported(self, tmp_path):
        problems = PIN.check(Path(tmp_path / "nope.md"))
        assert problems and "missing" in problems[0]
