"""The library's size budget (ROADMAP item 8)."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "npshare"
MAX_SRC_LINES = 3_400


def test_library_stays_within_its_line_budget():
    """``cat src/npshare/*.py | wc -l``: newline characters over every module."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    lines = sum(path.read_bytes().count(b"\n") for path in modules)
    assert lines <= MAX_SRC_LINES, f"src/npshare holds {lines} lines, over {MAX_SRC_LINES}"
