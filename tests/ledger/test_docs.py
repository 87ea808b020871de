"""docs/replay.md and the record-type catalog cannot drift."""

from repro.docscheck import PINS

PIN = PINS["replay.md"]


def test_docs_in_sync_with_catalog():
    assert PIN.check() == []


def test_docs_file_exists():
    assert PIN.path.exists()


def test_missing_file_is_one_problem(tmp_path):
    problems = PIN.check(tmp_path / "nope.md")
    assert problems == [f"docs file missing: {tmp_path / 'nope.md'}"]


def test_stale_row_and_rank_mismatch_reported(tmp_path):
    path = tmp_path / "replay.md"
    rows = PIN.rows(PIN.path.read_text(encoding="utf-8"))
    lines = [f"| `{name}` | {rank} | x |" for name, rank in rows.items()]
    lines.append("| `GHOST` | 99 | a removed type |")
    lines[0] = lines[0].replace("| 0 |", "| 42 |", 1)
    path.write_text("\n".join(lines), encoding="utf-8")
    problems = PIN.check(path)
    assert any("GHOST" in p for p in problems)
    assert "'META': catalog says 0, docs say 42" in problems
