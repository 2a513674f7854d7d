"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Criteria summary:
  1. two-user golden point reproduces EE 458.1 (optimal) / 276.3 (NGDPA)
     within 0.5% in under a second;
  2. two-user sweep shape: OMA/GRPA/optimal strictly decreasing, NGDPA
     peaking at a 1.5 m separation;
  3. orthogonal access never undercuts the NOMA optimum on 1e5 random
     instances with every rate >= 1/2 (30 s budget);
  4. the chosen decoding orders are never strictly beaten across all four
     priority assignments on 1e4 random pairs (10 s budget);
  5. optimal powers achieve exactly the requested rates (closure within
     1e-9) on 1e4 random instances;
  6. adaptive pairing equals the cheaper of its two candidate pairings
     bit-exactly on 1e4 random populations, and collapses to the channel
     pairing under uniform QoS;
  7. desk-scale campaign (1000 trials, 16 users, QoS {1,2,3,4}) orders the
     strategies OPA > NGDPA > GRPA > OMA in mean EE, shows non-increasing
     downlink outage in the cap with the optimum lowest everywhere, and
     keeps uplink outage ordered optimum <= NGDPA <= {GRPA, OMA} (2 min
     budget);
  8. campaigns with the same seed are byte-identical across worker counts.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from lifi_noma import (
    OpticalFrontEnd,
    QosRates,
    ScenarioConfig,
    UserPair,
    UserPosition,
    adaptive_pairing,
    channel_gain,
    oma_allocation,
    opa_set,
    pair_by_channel,
    pair_by_qos,
    run_campaign,
    run_uop_sweep,
    two_user_sweep,
)
from lifi_noma.allocation import (
    downlink_achievable_rates,
    downlink_power_requirements,
    uplink_achievable_rates,
    uplink_power_requirements,
)
from lifi_noma.pairing import opa_total_power
from lifi_noma.cli import main

PZ = 2e-15
RATE_GRID = np.arange(0.5, 4.01, 0.5)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def random_geometry_gains(rng: np.random.Generator, count: int) -> np.ndarray:
    front_end = OpticalFrontEnd()
    heights = rng.uniform(1.5, 2.5, count)
    radii = rng.uniform(0.0, 3.0, count)
    return np.array([
        channel_gain(UserPosition(l, r), front_end) for l, r in zip(heights, radii)
    ])


def test_criterion_1_golden_two_user_point():
    with criterion(1, "golden point EE 458.1 (OPA) and 276.3 (NGDPA) within 0.5%"):
        start = time.perf_counter()
        points = two_user_sweep(ScenarioConfig(num_users=2, trials=1, sweep_values=(1.5,)))
        cells = {key[0]: cell for key, cell in points[0].cells.items()}
        elapsed = time.perf_counter() - start
        assert abs(cells["opa"].mean_ee - 458.1) / 458.1 <= 0.005
        assert abs(cells["ngdpa"].mean_ee - 276.3) / 276.3 <= 0.005
        assert elapsed < 1.0


def test_criterion_2_two_user_sweep_shape():
    with criterion(2, "sweep shape: OMA/GRPA/OPA strictly decreasing, NGDPA peak at 1.5 m"):
        start = time.perf_counter()
        points = two_user_sweep(ScenarioConfig(num_users=2, trials=1))
        values = [p.sweep_value for p in points]
        assert values == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        for strategy in ("oma", "grpa", "opa"):
            curve = [p.cells[(strategy, "none")].mean_ee for p in points]
            assert all(a > b for a, b in zip(curve, curve[1:]))
        ngdpa = [p.cells[("ngdpa", "none")].mean_ee for p in points]
        assert ngdpa.index(max(ngdpa)) == values.index(1.5)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


def test_criterion_3_orthogonal_never_undercuts_the_optimum():
    with criterion(3, "OMA total >= NOMA optimum total on 1e5 random instances"):
        rng = np.random.default_rng(31)
        count = 100_000
        start = time.perf_counter()
        gains = random_geometry_gains(rng, 2 * count).reshape(count, 2)
        gains.sort(axis=1)
        rates = rng.choice(RATE_GRID, size=(count, 4))
        for (h_far, h_near), (rd_f, rd_n, ru_f, ru_n) in zip(gains, rates):
            pair = UserPair(0, 1, h_far, h_near)
            qos_far = QosRates(rd_f, ru_f)
            qos_near = QosRates(rd_n, ru_n)
            noma = opa_set(pair, qos_far, qos_near, PZ).total
            oma = oma_allocation(pair, qos_far, qos_near, PZ).total
            assert oma - noma >= -1e-12 * oma
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0


def _priority_total_dl(h_far, h_near, r_far, r_near, far_first):
    if far_first:
        return sum(downlink_power_requirements(h_far, h_near, r_far, r_near, PZ))
    return sum(downlink_power_requirements(h_near, h_far, r_near, r_far, PZ))


def _priority_total_ul(h_far, h_near, r_far, r_near, far_first):
    if far_first:
        return sum(uplink_power_requirements(h_far, h_near, r_far, r_near, PZ))
    return sum(uplink_power_requirements(h_near, h_far, r_near, r_far, PZ))


def test_criterion_4_decoding_order_oracle():
    with criterion(4, "chosen decoding orders never strictly beaten (1e4 pairs, 4 orders)"):
        rng = np.random.default_rng(41)
        count = 10_000
        start = time.perf_counter()
        gains = random_geometry_gains(rng, 2 * count).reshape(count, 2)
        gains.sort(axis=1)
        rates = rng.choice(RATE_GRID, size=(count, 4))
        for (h_far, h_near), (rd_f, rd_n, ru_f, ru_n) in zip(gains, rates):
            chosen = _priority_total_dl(h_far, h_near, rd_f, rd_n, True) + \
                _priority_total_ul(h_far, h_near, ru_f, ru_n, False)
            for dl_far_first in (True, False):
                for ul_far_first in (True, False):
                    other = _priority_total_dl(h_far, h_near, rd_f, rd_n, dl_far_first) + \
                        _priority_total_ul(h_far, h_near, ru_f, ru_n, ul_far_first)
                    assert chosen <= other * (1.0 + 1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0


def test_criterion_5_rate_closure():
    with criterion(5, "optimal powers achieve the requested rates (1e-9 closure)"):
        rng = np.random.default_rng(51)
        count = 10_000
        gains = random_geometry_gains(rng, 2 * count).reshape(count, 2)
        gains.sort(axis=1)
        rates = rng.choice(RATE_GRID, size=(count, 4))
        tol = 1e-9
        for (h_far, h_near), (rd_f, rd_n, ru_f, ru_n) in zip(gains, rates):
            pair = UserPair(0, 1, h_far, h_near)
            alloc = opa_set(pair, QosRates(rd_f, ru_f), QosRates(rd_n, ru_n), PZ)
            r_far, r_near, r_cross = downlink_achievable_rates(
                h_far, h_near, alloc.far_dl, alloc.near_dl, PZ
            )
            # every achieved rate covers its request; the binding ones match it
            assert min(r_far, r_cross) >= rd_f * (1.0 - tol)
            assert abs(r_far - rd_f) <= tol * rd_f
            assert abs(r_near - rd_n) <= tol * rd_n
            u_near, u_far = uplink_achievable_rates(
                h_near, h_far, alloc.near_ul, alloc.far_ul, PZ
            )
            assert abs(u_near - ru_n) <= tol * ru_n
            assert abs(u_far - ru_f) <= tol * ru_f


def test_criterion_6_adaptive_menu_property():
    with criterion(6, "adaptive pairing total == min(channel, qos) exactly (1e4 trials)"):
        rng = np.random.default_rng(61)
        for _ in range(10_000):
            n = int(rng.integers(8, 33))
            gains = random_geometry_gains(rng, n)
            rates_dl = rng.choice([1.0, 2.0, 3.0, 4.0], n)
            rates_ul = rng.choice([1.0, 2.0, 3.0, 4.0], n)
            adaptive = adaptive_pairing(rates_dl, rates_ul, gains, noise_power=PZ)
            total_channel = opa_total_power(
                pair_by_channel(gains), rates_dl, rates_ul, gains, noise_power=PZ
            )
            total_qos = opa_total_power(
                pair_by_qos(rates_dl, rates_ul, gains), rates_dl, rates_ul, gains,
                noise_power=PZ,
            )
            assert adaptive.min_total_power == min(total_channel, total_qos)

        # Uniform QoS degenerates the qos sort, and for even populations the
        # channel pairing is total-power optimal, so adaptive must collapse
        # to it. (With an odd leftover the coincidence genuinely breaks: the
        # standalone user costs like a far user, so unpairing a mid-gain
        # user can beat unpairing the strongest.)
        for _ in range(1000):
            n = 2 * int(rng.integers(4, 17))
            gains = random_geometry_gains(rng, n)
            ones = np.ones(n)
            adaptive = adaptive_pairing(ones, ones, gains, noise_power=PZ)
            channel = pair_by_channel(gains)
            assert adaptive.pairs == channel.pairs
            assert adaptive.method == "adaptive:channel"
            assert adaptive.min_total_power == opa_total_power(
                channel, ones, ones, gains, noise_power=PZ
            )


DESK_CONFIG = ScenarioConfig(
    num_users=16,
    trials=1000,
    seed=20240501,
    qos_set=(1.0, 2.0, 3.0, 4.0),
    pairings=("adaptive",),
)
DL_CAP_GRID = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
UL_CAP_GRID = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


def test_criterion_7_desk_campaign_orderings():
    with criterion(7, "desk campaign: EE ordering and outage orderings/monotonicity"):
        start = time.perf_counter()
        summary = run_campaign(DESK_CONFIG)
        ee = {key[0]: cell.mean_ee for key, cell in summary.cells.items()}
        assert ee["opa"] > ee["ngdpa"] > ee["grpa"] > ee["oma"]

        dl_config = replace(
            DESK_CONFIG, uop_sweep_link="dl", uop_sweep_grid=DL_CAP_GRID
        )
        dl_curves = {}
        for point in run_uop_sweep(dl_config):
            for (strategy, _), cell in point.cells.items():
                dl_curves.setdefault(strategy, []).append(cell.mean_uop_dl)
        for strategy, curve in dl_curves.items():
            assert all(a >= b for a, b in zip(curve, curve[1:]))
        for i in range(len(DL_CAP_GRID)):
            others = [dl_curves[s][i] for s in ("ngdpa", "grpa", "oma")]
            assert dl_curves["opa"][i] <= min(others)

        ul_config = replace(
            DESK_CONFIG, uop_sweep_link="ul", uop_sweep_grid=UL_CAP_GRID
        )
        ul_curves = {}
        for point in run_uop_sweep(ul_config):
            for (strategy, _), cell in point.cells.items():
                ul_curves.setdefault(strategy, []).append(cell.mean_uop_ul)
        for i in range(len(UL_CAP_GRID)):
            assert ul_curves["opa"][i] <= ul_curves["ngdpa"][i]
            assert ul_curves["ngdpa"][i] <= ul_curves["grpa"][i]
            assert ul_curves["ngdpa"][i] <= ul_curves["oma"][i]

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0


def test_criterion_8_campaign_determinism_across_workers(tmp_path):
    with criterion(8, "identical seed, different worker counts: byte-identical CSV"):
        scenario = tmp_path / "desk.cfg"
        scenario.write_text(
            "num_users = 12\ntrials = 60\nseed = 77\nqos_set = 1, 2, 3, 4\n"
            "p_max_dl = 8.0\np_max_ul = 1.0\npairing = channel, qos, adaptive\n"
        )
        out_one = tmp_path / "one.csv"
        out_two = tmp_path / "two.csv"
        assert main(["campaign", "--scenario", str(scenario), "--out", str(out_one),
                     "--workers", "1"]) == 0
        assert main(["campaign", "--scenario", str(scenario), "--out", str(out_two),
                     "--workers", "4"]) == 0
        assert out_one.read_bytes() == out_two.read_bytes()
