"""The shipped scenarios against their recorded CSVs (tests/data/golden/).

The recorded files are the CLI's output for each scenario in
``scenarios/``; the desk campaign was run with ``--trials 300``. The
served-only campaign (``ee_served_only``, finite caps on both links) guards
the served-only EE, which no other scenario reports. A refactor of
the engine must reproduce them: text fields exactly, floats within a
relative 1e-12. That leaves room for last-bit differences between NumPy
and libm builds on other machines, and for the engine's array gains,
which are not bit-equal to the libm gains the files were recorded with
(the means move by at most 2.5e-15 relative here).
"""

import csv
import math
from pathlib import Path

import pytest

from lifi_noma import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

FLOAT_COLUMNS = {"sweep_value", "mean_ee", "mean_total_power", "mean_uop_dl", "mean_uop_ul"}
REL = 1e-12

RUNS = [
    ("campaign", "campaign_16users", ["--trials", "300"]),
    ("campaign", "campaign_served_only", []),
    ("uop-sweep", "uop_downlink", []),
    ("uop-sweep", "uop_uplink", []),
    ("sweep-two-user", "two_user_sweep", []),
    ("sweep-two-user", "two_user_vertical", []),
]


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def same_field(column: str, got: str, want: str) -> bool:
    if got == want:
        return True
    if column not in FLOAT_COLUMNS or not got or not want:
        return False
    return math.isclose(float(got), float(want), rel_tol=REL, abs_tol=0.0)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command, name, extra", RUNS, ids=[r[1] for r in RUNS])
def test_shipped_scenario_reproduces_its_golden_csv(tmp_path, command, name, extra, workers):
    out = tmp_path / f"{name}.csv"
    argv = [command, "--scenario", str(ROOT / "scenarios" / f"{name}.cfg"),
            "--out", str(out), "--workers", str(workers), *extra]
    assert cli.main(argv) == 0
    got, want = read_rows(out), read_rows(GOLDEN / f"{name}.csv")
    assert len(got) == len(want)
    for row, (got_row, want_row) in enumerate(zip(got, want)):
        assert list(got_row) == list(want_row)
        for column, value in want_row.items():
            assert same_field(column, got_row[column], value), (row, column)
