"""docs/migration.md, the policy knob catalog and the metric family
must not drift."""

import dataclasses

from repro.docscheck import PINS
from repro.obs.names import METRICS
from repro.resilience.migration import KNOBS, MigrationPolicy

PIN = PINS["migration.md"]


def test_docs_file_exists():
    assert PIN.path.exists()


def test_docs_knobs_and_metrics_agree():
    assert PIN.check() == []


def test_knob_catalog_is_the_policy_dataclass():
    fields = {f.name for f in dataclasses.fields(MigrationPolicy)}
    assert set(KNOBS) == fields


def test_every_knob_has_a_table_row():
    documented = set(PIN.rows(PIN.path.read_text(encoding="utf-8")))
    assert set(KNOBS) <= documented


def test_missing_docs_file_is_one_problem(tmp_path):
    problems = PIN.check(tmp_path / "ghost.md")
    assert problems and "missing" in problems[0]


def test_drift_is_detected_both_ways(tmp_path):
    page = tmp_path / "migration.md"
    knobs = [k for k in KNOBS if k != "cooldown"] + ["teleport_speed"]
    rows = [f"| `{knob}` | x |" for knob in knobs]
    rows += [
        spec.template
        for spec in METRICS
        if spec.template.startswith("migration.")
    ]
    page.write_text("\n".join(rows), encoding="utf-8")
    problems = PIN.check(page)
    assert any("cooldown" in p and "not documented" in p for p in problems)
    assert any("teleport_speed" in p for p in problems)


def test_missing_metric_template_is_detected(tmp_path):
    page = tmp_path / "migration.md"
    page.write_text(
        "\n".join(f"| `{knob}` | x |" for knob in KNOBS), encoding="utf-8"
    )
    problems = PIN.check(page)
    assert any("migration.{stage}.pause_seconds" in p for p in problems)
