"""The documented surface: ``lifi_noma.__all__`` and the scenario keys
against the README's list and key table, and the scalar modules' independence
from the engine."""

import ast
import re
from pathlib import Path

import pytest

import lifi_noma
from lifi_noma import cli

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(lifi_noma.__file__).resolve().parent


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


def readme_scenario_keys() -> set[str]:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Scenario files"):]
    table = section[section.index("| key |"):].split("\n\n")[0]
    rows = table.splitlines()[2:]  # after the header and its rule
    return {key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])}


def test_readme_key_table_lists_exactly_the_scenario_keys():
    listed = readme_scenario_keys()
    assert listed == set(cli._KEYS), sorted(listed ^ set(cli._KEYS))


@pytest.mark.parametrize("module", ["allocation", "pairing", "metrics", "channel"])
def test_the_scalar_forms_import_nothing_from_the_engine(module):
    # the closed forms are the engine's test oracle, so they must not call the array code
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert imported.isdisjoint({"simulation", "streams", "workers", "cli"}), imported
