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
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from lifi_noma import cli
from lifi_noma.simulation import _base_caps, _chunk_values

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


def relative_gaps(config, rows) -> list[float]:
    """Per CSV mean, its relative gap to the exact mean of the same per-trial values."""
    values = _chunk_values(config, range(config.trials), *_base_caps(config))
    assert values.shape == (config.trials, 4 * len(rows))
    gaps = []
    for row, columns in zip(rows, values.T.reshape(len(rows), 4, -1).tolist()):
        for name, column in zip(("mean_ee", "mean_total_power", "mean_uop_dl", "mean_uop_ul"),
                                columns):
            got = float(row[name])
            if math.inf in column:  # an infinite column stays infinite in both
                assert got == math.inf, (row["strategy"], row["pairing"], name)
                continue
            exact = sum(map(Fraction, column)) / len(column)
            assert exact or got == 0.0, (row["strategy"], row["pairing"], name)
            gaps.append(float(abs(Fraction(got) - exact) / exact) if exact else 0.0)
    return gaps


# The desk, and the desk with users out of FOV (r / l > tan 70 degrees), whose
# infeasible pairs make the total power's mean infinite.
@pytest.mark.parametrize("r_max", [3.0, 6.0], ids=["desk", "out-of-fov"])
def test_campaign_means_are_within_the_golden_tolerance_of_the_exact_means(tmp_path, r_max):
    config = replace(cli.load_scenario(ROOT / "scenarios" / "campaign_16users.cfg"),
                     trials=500, r_max=r_max)
    rows = read_rows(cli.run("campaign", config, tmp_path / "desk.csv"))
    assert [(r["strategy"], r["pairing"]) for r in rows] == [
        (s.value, p) for p in config.pairings for s in config.strategies]
    assert max(relative_gaps(config, rows)) <= REL
