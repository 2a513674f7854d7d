"""The package surface: ``lifi_noma.__all__`` against the README's list."""

import re
from pathlib import Path

import lifi_noma

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_lower_level_names() -> set[str]:
    text = README.read_text(encoding="utf-8")
    start = text.index("Lower-level pieces are importable directly")
    bullets = text[start:].split("\n\n")[1]  # the list after the lead-in
    assert bullets.startswith("* ")
    return set(re.findall(r"`(\w+)`", bullets))


def test_all_resolves_without_duplicates_and_matches_the_readme():
    names = lifi_noma.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(lifi_noma, name)] == []
    exported = set(names) - {"__version__"}
    listed = readme_lower_level_names()
    assert listed == exported, sorted(listed ^ exported)
