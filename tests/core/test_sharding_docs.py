"""docs/sharding.md and the sharding knob catalog must not drift."""

from repro.core.sharding import KNOBS, SHARD_GROUP_PROPERTY, SHARD_INDEX_PROPERTY
from repro.docscheck import PINS

PIN = PINS["sharding.md"]


def test_docs_file_exists():
    assert PIN.path.exists()


def test_docs_and_knob_catalog_agree():
    assert PIN.check() == []


def test_every_knob_has_a_table_row():
    documented = set(PIN.rows(PIN.path.read_text(encoding="utf-8")))
    assert set(KNOBS) <= documented


def test_missing_docs_file_is_one_problem(tmp_path):
    problems = PIN.check(tmp_path / "ghost.md")
    assert problems and "missing" in problems[0]


def test_drift_is_detected_both_ways(tmp_path):
    page = tmp_path / "sharding.md"
    # The expansion's markers may be documented without being knobs.
    knobs = [k for k in KNOBS if k != "replicas"] + [
        "shard-flavor", SHARD_GROUP_PROPERTY, SHARD_INDEX_PROPERTY,
    ]
    page.write_text(
        "\n".join(f"| `{knob}` | x |" for knob in knobs), encoding="utf-8"
    )
    problems = PIN.check(page)
    assert any("replicas" in p and "not documented" in p for p in problems)
    assert any("shard-flavor" in p for p in problems)
    assert len(problems) == 2
