"""README's deterministic figures, recomputed from README's own seeds and trials
and found in its text at the precision it prints them.

The best pairing is ``tests/test_pairing.py``'s exact ``optimal_total``; the
package has no optimal pairing of its own.
"""

import math
import statistics
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lifi_noma import ScenarioConfig, Strategy, evaluate_population, run_campaign, sample_users
from lifi_noma.cli import load_scenario
from test_pairing import optimal_total, trial_population

ROOT = Path(__file__).resolve().parents[1]
# README's prose wraps lines at will: its words, one space apart
README = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())


def pairing_config(num_users: int, trials: int, qos_set) -> ScenarioConfig:
    return ScenarioConfig(num_users=num_users, trials=trials, seed=42, qos_set=qos_set,
                          strategies=(Strategy.OPA,), pairings=("channel", "qos", "adaptive"))


def test_the_mean_of_ratios_against_the_ratio_of_means():
    config = replace(load_scenario(ROOT / "scenarios" / "campaign_16users.cfg"), trials=2000)
    cells = run_campaign(config).cells
    # every user's two rates: EE's sum rate when all are counted
    mean_rate = statistics.fmean(sum(u.qos.downlink + u.qos.uplink for u in sample_users(config, t))
                                 for t in range(config.trials))
    (ee, ratio), (ee_qos, ratio_qos) = ((cells[key].mean_ee, mean_rate / cells[key].mean_total_power)
                                        for key in (("opa", "adaptive"), ("ngdpa", "qos")))
    assert (f"`opa/adaptive` reports {ee:.3g} where the ratio of means is {ratio:.3g}, and "
            f"`ngdpa/qos` {ee_qos:.3g} where the ratio of means is {ratio_qos:.3g}.") in README


@pytest.mark.parametrize("num_users", [8, 16])
def test_the_pairing_headroom_table(num_users):
    config = pairing_config(num_users, 200, (1.0, 2.0, 3.0, 4.0))
    cells = run_campaign(config).cells
    best_ee, power_over_best = [], []
    for trial in range(config.trials):
        users = sample_users(config, trial)
        best = optimal_total(*trial_population(config, users))
        adaptive = evaluate_population(config, users)[("opa", "adaptive")]
        best_ee.append(adaptive.sum_rate / best)
        power_over_best.append(adaptive.total_power / best)
    columns = [cells[("opa", pairing)].mean_ee for pairing in config.pairings]
    columns.append(statistics.fmean(best_ee))
    median, tail = np.percentile(power_over_best, [50, 90]).tolist()
    assert (f"| {num_users} | " + " | ".join(f"{ee:.2f}" for ee in columns)
            + f" | {median:.2f}×, {tail:.2f}× |") in README


def test_with_one_rate_channel_pairing_is_the_best_pairing():
    worst, medians = 0.0, []
    for num_users in (8, 16):
        config = pairing_config(num_users, 100, (1.0,))
        qos_over_best = []
        for trial in range(config.trials):
            users = sample_users(config, trial)
            best = optimal_total(*trial_population(config, users))
            cells = evaluate_population(config, users)
            worst = max(worst, abs(cells[("opa", "channel")].total_power - best) / best)
            qos_over_best.append(cells[("opa", "qos")].total_power / best)
        medians.append(statistics.median(qos_over_best))
    bound = math.ceil(worst * 1e16)  # the worst relative gap, rounded up to one digit
    assert (f"channel pairing is the best pairing in every trial, within {bound}e-16 relative, "
            f"and QoS pairing needs a median {medians[0]:.2f}× and {medians[1]:.2f}× its power."
            ) in README
