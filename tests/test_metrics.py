"""Energy efficiency (computed by the engine) and the scalar outage
counting, including the greedy/tail-sum equivalence of the downlink
procedure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifi_noma import (
    LinkOutage,
    QosRates,
    ScenarioConfig,
    UserNode,
    UserPosition,
    downlink_uop,
    evaluate_population,
    uplink_uop,
)
from lifi_noma.metrics import downlink_outage_mask, uplink_outage_mask

GOLDEN_TOTAL = 0.008731757006398698
GOLDEN_EE = 458.0979517717648


def greedy_downlink_k_out(powers, cap) -> int:
    # shed the highest-power users until the remaining demand fits the cap
    remaining = sorted(float(p) for p in powers)
    shed = 0
    while remaining and sum(remaining) > cap:
        remaining.pop()
        shed += 1
    return shed


def opa_cell(positions, qos):
    """The OPA cell of one channel-paired population, every user at ``qos``."""
    users = [UserNode(UserPosition(*p), qos) for p in positions]
    config = ScenarioConfig(num_users=len(users), trials=1, pairings=("channel",))
    return evaluate_population(config, users)[("opa", "channel")]


class TestEnergyEfficiency:
    # target sum rate over total power, as the engine accounts it
    def test_golden_point(self):
        cell = opa_cell([(2.5, 0.0), (2.5, 1.5)], QosRates(1.0, 1.0))
        assert cell.sum_rate == 4.0
        assert cell.total_power == pytest.approx(GOLDEN_TOTAL, rel=1e-12)
        assert cell.ee == pytest.approx(GOLDEN_EE, rel=1e-12)

    def test_zero_rate_zero_eta(self):
        assert opa_cell([(2.5, 0.0), (2.5, 1.5)], QosRates(0.0, 0.0)).ee == 0.0

    def test_infinite_power_zero_eta(self):
        # 3 m off axis at 1 m height is outside the 70-degree FOV
        cell = opa_cell([(2.5, 0.0), (1.0, 3.0)], QosRates(1.0, 1.0))
        assert cell.total_power == math.inf
        assert cell.ee == 0.0


class TestDownlinkOutage:
    def test_hand_example(self):
        # descending tails of [3, 1] are [4, 1]; only the first exceeds 3.5
        assert downlink_uop([3.0, 1.0], 3.5) == LinkOutage(1, 0.5)

    def test_cap_above_total_demand(self):
        assert downlink_uop([3.0, 1.0], 4.0).k_out == 0

    def test_cap_below_every_single_power(self):
        assert downlink_uop([3.0, 1.0], 0.5) == LinkOutage(2, 1.0)

    def test_empty_population(self):
        assert downlink_uop([], 1.0) == LinkOutage(0, 0.0)

    def test_infeasible_users_always_count(self):
        assert downlink_uop([math.inf, 1.0], 10.0) == LinkOutage(1, 0.5)
        assert downlink_uop([math.inf, 1.0], math.inf) == LinkOutage(1, 0.5)

    def test_uncapped_feasible_population(self):
        assert downlink_uop([3.0, 1.0], math.inf).k_out == 0

    @given(st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=40),
           st.floats(1e-3, 50.0))
    @settings(max_examples=300)
    def test_tail_sum_matches_greedy_exclusion(self, powers, cap):
        assert downlink_uop(powers, cap).k_out == greedy_downlink_k_out(powers, cap)

    @given(st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=40),
           st.floats(1e-3, 50.0), st.floats(1.0, 4.0))
    @settings(max_examples=200)
    def test_raising_the_cap_never_raises_outage(self, powers, cap, factor):
        assert downlink_uop(powers, cap * factor).uop <= downlink_uop(powers, cap).uop


class TestUplinkOutage:
    def test_split_population(self):
        cap = 2.0
        assert uplink_uop([2.0 * cap, cap / 2.0], cap) == LinkOutage(1, 0.5)

    def test_all_within_cap(self):
        assert uplink_uop([0.5, 1.0, 1.5], 1.5).k_out == 0

    def test_boundary_power_is_served(self):
        # the comparison is strict: exactly-at-cap users stay in service
        assert uplink_uop([2.0], 2.0).k_out == 0

    def test_infeasible_users_always_count(self):
        assert uplink_uop([math.inf], math.inf) == LinkOutage(1, 1.0)

    @given(st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=40),
           st.floats(1e-3, 50.0), st.floats(1.0, 4.0))
    @settings(max_examples=200)
    def test_raising_the_cap_never_raises_outage(self, powers, cap, factor):
        assert uplink_uop(powers, cap * factor).uop <= uplink_uop(powers, cap).uop


class TestOutageMasks:
    @given(st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=30),
           st.floats(1e-3, 40.0))
    @settings(max_examples=200)
    def test_downlink_mask_agrees_with_count(self, powers, cap):
        mask = downlink_outage_mask(powers, cap)
        assert int(mask.sum()) == downlink_uop(powers, cap).k_out
        # the shed users are exactly the heaviest ones
        if mask.any() and not mask.all():
            values = np.asarray(powers)
            assert values[mask].min() >= values[~mask].max()

    def test_downlink_mask_picks_heaviest(self):
        mask = downlink_outage_mask([1.0, 5.0, 2.0], 3.5)
        assert list(mask) == [False, True, False]

    def test_uplink_mask(self):
        mask = uplink_outage_mask([0.5, 3.0, math.inf], 2.0)
        assert list(mask) == [False, True, True]
