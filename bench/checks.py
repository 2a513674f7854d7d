"""Output checks on the CSVs that timed calls write.

Columns are looked up by name, so columns added later do not break a
check. Each function returns ``(name, passed, detail)`` tuples; every tuple
is one attempted check in the benchmark's ``error_rate``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Declared tolerance against the recorded reference. Means of EE and power
# may drift by float reordering in a rewritten engine; outage fractions are
# ratios of integer counts and must match.
REFERENCE_REL_TOL = 1e-6
REFERENCE_ABS_TOL_UOP = 1e-12

# Acceptance criterion 1: the two-user golden point at r_far = 1.5 m.
GOLDEN_SWEEP_VALUE = 1.5
GOLDEN_EE = {"opa": 458.1, "ngdpa": 276.3}
GOLDEN_REL_TOL = 0.005

MEANS = ("mean_ee", "mean_total_power", "mean_uop_dl", "mean_uop_ul")


def parse_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _row_key(row: dict[str, str]) -> str:
    return "|".join((row["strategy"], row["pairing"], row["sweep_value"]))


def _number(text: str) -> float:
    # the CLI writes non-finite values as empty fields
    return float(text) if text else math.nan


def check_call(rows, *, strategies, pairings, caps, trials, seed):
    """Seed-independent checks on one campaign or UOP-sweep CSV."""
    expected = sorted(
        f"{s}|{p}|{'' if cap is None else repr(float(cap))}"
        for s in strategies for p in pairings for cap in caps
    )
    got = sorted(_row_key(r) for r in rows)
    checks = [("rows", got == expected, f"expected {len(expected)} rows, got {len(got)}")]
    if not rows:
        return checks
    values = [{m: _number(r[m]) for m in MEANS} for r in rows]
    # every workload keeps all users inside the field of view (at most
    # atan(3 / 1.5) = 63.4 of 70 degrees), so every mean must be finite
    finite = all(math.isfinite(v[m]) for v in values for m in MEANS)
    checks.append(("finite", finite, "every mean is finite"))
    in_range = all(0.0 <= v[m] <= 1.0 for v in values for m in ("mean_uop_dl", "mean_uop_ul"))
    checks.append(("uop_range", in_range, "UOP within [0, 1]"))
    echo = all(r["trials"] == str(trials) and r["seed"] == str(seed) for r in rows)
    checks.append(("echo", echo, "trials and seed columns match the config"))
    if len(strategies) > 1:
        best: dict[tuple[str, str], tuple[float, str]] = {}
        for row, v in zip(rows, values):
            group = (row["pairing"], row["sweep_value"])
            if group not in best or v["mean_ee"] > best[group][0]:
                best[group] = (v["mean_ee"], row["strategy"])
        losers = sorted(g for g, (_, s) in best.items() if s != "opa")
        checks.append(("opa_best", not losers, f"OPA not highest mean_ee in {losers}"))
    return checks


def reference_means(rows) -> dict[str, dict[str, float | None]]:
    return {
        _row_key(r): {m: (float(r[m]) if r[m] else None) for m in MEANS} for r in rows
    }


def check_reference(rows, expected: dict) -> list:
    got = reference_means(rows)
    bad = []
    for key, means in expected.items():
        for name, want in means.items():
            have = got.get(key, {}).get(name)
            if want is None or have is None:
                ok = want is None and have is None
            elif name.startswith("mean_uop"):
                ok = abs(have - want) <= REFERENCE_ABS_TOL_UOP
            else:
                ok = math.isclose(have, want, rel_tol=REFERENCE_REL_TOL)
            if not ok:
                bad.append(f"{key} {name}: {have} != {want}")
    return [("reference", not bad, "; ".join(bad[:5]) or "means match the reference")]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def check_golden(text: str) -> list:
    rows = [r for r in parse_rows(text) if r["sweep_value"] and
            math.isclose(float(r["sweep_value"]), GOLDEN_SWEEP_VALUE)]
    ee = {r["strategy"]: _number(r["mean_ee"]) for r in rows}
    bad = [
        f"{s} EE {ee.get(s)} vs {want}" for s, want in GOLDEN_EE.items()
        if not (s in ee and abs(ee[s] - want) <= GOLDEN_REL_TOL * want)
    ]
    return [("two_user_golden", not bad, "; ".join(bad) or "golden point within 0.5%")]
