"""Chunked array engine against the scalar closed forms, compared exactly.

The oracle below evaluates one population pair by pair with the reference
functions (``make_pair`` through the scalar pairings, ``allocate``,
``single_user_allocation``, ``downlink_uop``/``uplink_uop`` and the outage
masks). The engine must reproduce every value bit for bit, ``inf``
patterns included, so every comparison is ``==``.
"""

import math

import numpy as np
import pytest

from lifi_noma import (
    InfeasibleAllocationError,
    OpticalFrontEnd,
    PowerLimits,
    QosRates,
    ScenarioConfig,
    Strategy,
    UserNode,
    UserPosition,
    adaptive_pairing,
    allocate,
    downlink_uop,
    evaluate_population,
    pair_by_channel,
    pair_by_qos,
    run_campaign,
    run_uop_sweep,
    sample_users,
    single_user_allocation,
    uplink_uop,
)
from lifi_noma.metrics import downlink_outage_mask, uplink_outage_mask
from lifi_noma.pairing import opa_total_power
from lifi_noma.channel import los_gain
from lifi_noma.simulation import CHUNK, CellResult, _gains, _Population, population_gains

PAIRINGS = ("channel", "qos", "adaptive")


def oracle_powers(config, users):
    """Per (strategy, pairing): method, slot users, slot powers and total."""
    gains = population_gains(users, config.front_end)
    rates_dl = np.array([u.qos.downlink for u in users])
    rates_ul = np.array([u.qos.uplink for u in users])
    pz = config.noise_power
    out = {}
    for name in config.pairings:
        if name == "channel":
            outcome = pair_by_channel(gains)
        elif name == "qos":
            outcome = pair_by_qos(rates_dl, rates_ul, gains, key=config.qos_pairing_key)
        else:
            outcome = adaptive_pairing(rates_dl, rates_ul, gains,
                                       noise_power=pz, key=config.qos_pairing_key)
        for strategy in config.strategies:
            slots, dl, ul, total = [], [], [], 0.0
            for pair in outcome.pairs:
                slots += [pair.far, pair.near]
                qos_far = QosRates(float(rates_dl[pair.far]), float(rates_ul[pair.far]))
                qos_near = QosRates(float(rates_dl[pair.near]), float(rates_ul[pair.near]))
                try:
                    alloc = allocate(strategy, pair, qos_far, qos_near, pz)
                except InfeasibleAllocationError:
                    dl += [math.inf, math.inf]
                    ul += [math.inf, math.inf]
                    total += math.inf
                    continue
                dl += [alloc.far_dl, alloc.near_dl]
                ul += [alloc.far_ul, alloc.near_ul]
                total += alloc.total
            if outcome.unpaired is not None:
                u = outcome.unpaired
                slots.append(u)
                qos = QosRates(float(rates_dl[u]), float(rates_ul[u]))
                try:
                    p_dl, p_ul = single_user_allocation(float(gains[u]), qos, pz)
                except InfeasibleAllocationError:
                    p_dl = p_ul = math.inf
                dl.append(p_dl)
                ul.append(p_ul)
                total += p_dl + p_ul
            out[(strategy.value, name)] = (outcome.method, slots, dl, ul, total)
    return out, rates_dl, rates_ul


def oracle_ee(config, slots, dl, ul, total, rates_dl, rates_ul):
    if not config.ee_served_only:
        sum_rate = float(np.sum(rates_dl) + np.sum(rates_ul))
        return sum_rate, (sum_rate / total if total > 0.0 else 0.0)
    dl_served = ~downlink_outage_mask(dl, config.limits.max_total_dl)
    ul_served = ~uplink_outage_mask(ul, config.limits.max_per_user_ul)
    sum_rate = power = 0.0
    for slot, user in enumerate(slots):
        if dl_served[slot]:
            sum_rate += float(rates_dl[user])
            power += dl[slot]
        if ul_served[slot]:
            sum_rate += float(rates_ul[user])
            power += ul[slot]
    return sum_rate, (sum_rate / power if power > 0.0 else 0.0)


def oracle_cells(config, users):
    powers, rates_dl, rates_ul = oracle_powers(config, users)
    cells = {}
    for (strategy, pairing), (method, slots, dl, ul, total) in powers.items():
        sum_rate, ee = oracle_ee(config, slots, dl, ul, total, rates_dl, rates_ul)
        cells[(strategy, pairing)] = CellResult(
            strategy, pairing, method, sum_rate, total, ee,
            downlink_uop(dl, config.limits.max_total_dl),
            uplink_uop(ul, config.limits.max_per_user_ul),
            tuple(dl), tuple(ul),
        )
    return cells


def oracle_means(config, caps_dl, caps_ul):
    """Trial-ordered sums of EE, power and both UOPs at each cap pair."""
    sums = {}
    for trial in range(config.trials):
        users = sample_users(config, trial)
        powers, rates_dl, rates_ul = oracle_powers(config, users)
        for key, (_, slots, dl, ul, total) in powers.items():
            _, ee = oracle_ee(config, slots, dl, ul, total, rates_dl, rates_ul)
            row = [ee, total] + [downlink_uop(dl, c).uop for c in caps_dl] + \
                [uplink_uop(ul, c).uop for c in caps_ul]
            acc = sums.setdefault(key, [0.0] * len(row))
            for i, value in enumerate(row):
                acc[i] += value
    return {key: [s / config.trials for s in acc] for key, acc in sums.items()}


def config_grid():
    inf = math.inf
    for n in (2, 3, 5, 8, 9, 16):
        for qos in ((1.0, 2.0, 3.0, 4.0), (0.3, 1.7, 2.25)):
            yield ScenarioConfig(num_users=n, trials=1, seed=n, qos_set=qos, pairings=PAIRINGS)
            yield ScenarioConfig(
                num_users=n, trials=1, seed=100 + n, qos_set=qos, pairings=PAIRINGS,
                limits=PowerLimits(2.0, 0.05), ee_served_only=True,
            )
    for n in (3, 5, 9):
        # a 40-degree FOV under uncapped links: zero gains in pairs and in
        # the leftover slot, with no cap to hide them
        yield ScenarioConfig(
            num_users=n, trials=1, seed=9 + n, qos_set=(1.0, 2.0), pairings=PAIRINGS,
            front_end=OpticalFrontEnd(fov_half_angle_deg=40.0),
        )
    for n in (3, 8):
        # users outside a 40-degree FOV: infeasible pairs and unpaired users
        yield ScenarioConfig(
            num_users=n, trials=1, seed=7, qos_set=(1.0, 3.0), pairings=PAIRINGS,
            front_end=OpticalFrontEnd(fov_half_angle_deg=40.0),
            limits=PowerLimits(4.0, 0.1), ee_served_only=True,
        )
        yield ScenarioConfig(
            num_users=n, trials=1, seed=8, qos_set=(0.0, 0.5, 2.5), pairings=PAIRINGS,
            qos_coupled_links=True, qos_pairing_key="uplink", limits=PowerLimits(0.5, inf),
        )


@pytest.mark.parametrize("config", list(config_grid()),
                         ids=lambda c: f"n{c.num_users}-s{c.seed}")
def test_trial_cells_equal_the_oracle(config):
    for trial in range(12):
        users = sample_users(config, trial)
        assert evaluate_population(config, users) == oracle_cells(config, users)


def vector_rounding_rates(count=4000, seed=6):
    """Rates ``(a, b)`` whose ``2^(2R)`` NumPy's vectorized math rounds differently.

    Found by a fixed-seed search: ``np.exp2`` and ``np.power`` both differ
    in the last bit from the scalar ``2.0 ** (2R)`` for ``a`` and for the
    OMA sum ``a + b``, on this NumPy build and libm. An engine whose rate
    factors came from either would fail the oracle on them. None where the
    search finds no such pair.
    """
    def rounds_differently(rates):
        twice = 2.0 * rates
        scalar = np.array([2.0 ** x for x in twice.tolist()])
        return (scalar != np.exp2(twice)) & (scalar != np.power(2.0, twice))

    rates = np.random.default_rng(seed).uniform(0.0, 8.0, count)
    for a in rates[rounds_differently(rates)].tolist():
        sums = rounds_differently(a + rates)
        if sums.any():
            return a, float(rates[sums][0])
    return None


def hazard_grid():
    """Configs where stacking strategies and picking adaptive inputs could go wrong."""
    inf = math.inf
    capped = PowerLimits(3.0, 0.2)
    yield "oma-grpa-no-opa", ScenarioConfig(
        num_users=7, trials=1, seed=201, qos_set=(0.3, 1.7, 2.25),
        strategies=(Strategy.OMA, Strategy.GRPA), pairings=("adaptive",), limits=capped)
    yield "grpa-channel-and-adaptive", ScenarioConfig(
        num_users=8, trials=1, seed=202, qos_set=(1.0, 2.0, 4.0),
        strategies=(Strategy.GRPA,), pairings=("channel", "adaptive"), limits=capped,
        ee_served_only=True)
    yield "ngdpa-opa-reversed", ScenarioConfig(
        num_users=9, trials=1, seed=203, qos_set=(1.0, 2.0, 3.0, 4.0),
        strategies=(Strategy.NGDPA, Strategy.OPA), pairings=PAIRINGS, limits=capped)
    yield "qos-then-channel", ScenarioConfig(
        num_users=9, trials=1, seed=204, qos_set=(0.3, 1.7, 2.25), pairings=("qos", "channel"),
        limits=capped, ee_served_only=True)
    yield "adaptive-only", ScenarioConfig(
        num_users=6, trials=1, seed=205, qos_set=(1.0, 2.0, 3.0, 4.0), pairings=("adaptive",),
        limits=capped)
    for name, limits in (("dl", PowerLimits(inf, 0.05)), ("ul", PowerLimits(2.0, inf)),
                         ("both", PowerLimits(inf, inf))):
        # a 40-degree FOV: infinite demands under an infinite cap are shed
        yield f"served-only-infinite-{name}-cap", ScenarioConfig(
            num_users=9, trials=1, seed=206, qos_set=(1.0, 3.0), pairings=PAIRINGS,
            front_end=OpticalFrontEnd(fov_half_angle_deg=40.0), limits=limits,
            ee_served_only=True)


HAZARDS = dict(hazard_grid())


@pytest.mark.parametrize("name", list(HAZARDS))
def test_stacking_hazards_equal_the_oracle(name):
    config = HAZARDS[name]
    for trial in range(12):
        users = sample_users(config, trial)
        assert evaluate_population(config, users) == oracle_cells(config, users)


@pytest.fixture(scope="module")
def rounding_config():
    rates = vector_rounding_rates()
    assert rates is not None, (
        "no searched rate's 2^(2R) rounds differently under np.exp2 and np.power on this "
        "build, so the vector-rounding pin would not catch a vectorized rate factor")
    return ScenarioConfig(num_users=8, trials=1, seed=207, qos_set=rates, pairings=PAIRINGS,
                          limits=PowerLimits(3.0, 0.2))


def test_vector_rounding_rates_equal_the_oracle(rounding_config):
    for trial in range(12):
        users = sample_users(rounding_config, trial)
        assert evaluate_population(rounding_config, users) == oracle_cells(rounding_config, users)


def test_vector_rounding_rates_meet_in_oma_pairs(rounding_config):
    # the oracle test pins the OMA sum only if an OMA pair holds both rates
    config = rounding_config
    a, b = config.qos_set
    mixed = 0
    for trial in range(12):
        powers, rates_dl, rates_ul = oracle_powers(config, sample_users(config, trial))
        for (strategy, _), (_, slots, *_) in powers.items():
            if strategy == "oma":
                paired = slots[:len(slots) // 2 * 2]
                mixed += sum({x, y} == {a, b} for rates in (rates_dl, rates_ul)
                             for x, y in rates[paired].reshape(-1, 2).tolist())
    assert a != b and mixed


def test_adaptive_guard_resolves_rounding_ties_to_channel():
    # uniform QoS: pairings with the same far users tie up to rounding; the
    # guard keeps the channel pairing even where the QoS total rounds lower
    config = ScenarioConfig(num_users=4, trials=1, pairings=("adaptive",))
    ties = 0
    for trial in range(100):
        users = sample_users(config, trial)
        assert evaluate_population(config, users) == oracle_cells(config, users)
        gains = population_gains(users, config.front_end)
        ones = np.ones(len(users))
        total_channel, total_qos = (
            opa_total_power(outcome, ones, ones, gains, noise_power=config.noise_power)
            for outcome in (pair_by_channel(gains), pair_by_qos(ones, ones, gains))
        )
        ties += total_qos < total_channel <= total_qos * (1.0 + 1e-12)
    assert ties


@pytest.mark.parametrize("front_end", [
    OpticalFrontEnd(),
    OpticalFrontEnd(semi_angle_deg=15.0, fov_half_angle_deg=40.0),
    OpticalFrontEnd(semi_angle_deg=85.0, fov_half_angle_deg=89.0),
], ids=["desk", "narrow", "wide"])
def test_gains_equal_los_gain_per_user(front_end):
    tan_fov = front_end.gain_terms[0]
    rng = np.random.default_rng(17)
    vertical = np.concatenate([
        10.0 ** rng.uniform(-3.0, 3.0, 2000),
        # on the FOV edge, r / l == tan(FOV) exactly: the visible branch
        [1.0, 2.0, 0.25],
        # so far away that the gain's square underflows, on and off the axis
        [1e85, 1e85, 3e84],
    ])
    horizontal = np.concatenate([
        vertical[:2000] * rng.uniform(0.0, 2.0 * tan_fov, 2000),  # half out of FOV
        [tan_fov, 2.0 * tan_fov, 0.25 * tan_fov],
        [0.0, 1e84, 1e84],
    ])
    rows = np.stack([vertical, horizontal]).reshape(2, 2, -1)  # a chunk of 2 trials
    zeros = np.zeros(rows[0].shape)
    got = _gains(front_end, _Population(rows[0], rows[1], zeros, zeros, zeros))
    want = [los_gain(l, r, *front_end.gain_terms) for l, r in zip(vertical, horizontal)]
    assert got.shape == rows[0].shape
    assert got.ravel().tolist() == want
    assert 0.0 < min(want[2000:])  # the edge and the far users are visible
    assert want.count(0.0) > 500  # out-of-FOV users


def user(vertical, horizontal, rate_dl, rate_ul):
    return UserNode(UserPosition(vertical, horizontal), QosRates(rate_dl, rate_ul))


@pytest.mark.parametrize("users", [
    # co-located users: equal gains, so NGDPA's ratio is a degenerate 0 and
    # QoS pairing must give the far role to the lower index
    [user(2.0, 1.0, 3.0, 1.0), user(2.0, 1.0, 1.0, 2.0),
     user(2.0, 1.0, 2.0, 3.0), user(2.0, 1.0, 4.0, 4.0)],
    # two identical pairs: equal powers, shed toward the lower slot
    [user(2.0, 0.5, 2.0, 1.0), user(2.0, 2.0, 1.0, 2.0),
     user(2.0, 0.5, 2.0, 1.0), user(2.0, 2.0, 1.0, 2.0), user(1.6, 0.1, 1.0, 1.0)],
    # outside the FOV: a zero-gain pair member and a zero-gain leftover
    [user(1.5, 2.9, 1.0, 1.0), user(2.0, 0.0, 2.0, 1.0), user(2.5, 2.9, 0.5, 0.5)],
    # so far away that a positive gain's square underflows to 0: unbounded
    # powers in pairs and, under QoS pairing, for the leftover user
    [user(1e85, 0.0, 1.0, 2.0), user(2.0, 0.5, 2.0, 1.0), user(1e85, 1e84, 0.5, 1.0),
     user(1.8, 1.0, 1.0, 1.0), user(3e84, 0.0, 2.0, 2.0)],
])
@pytest.mark.parametrize("served_only", [False, True])
def test_hand_built_populations_equal_the_oracle(users, served_only):
    for caps in ((math.inf, math.inf), (0.3, 0.05), (1e-3, 1e-4)):
        config = ScenarioConfig(
            num_users=len(users), trials=1, pairings=PAIRINGS,
            limits=PowerLimits(*caps), ee_served_only=served_only,
        )
        assert evaluate_population(config, users) == oracle_cells(config, users)


def test_out_of_fov_users_make_infinite_pairs():
    config = ScenarioConfig(num_users=8, trials=1, seed=7, pairings=PAIRINGS,
                            front_end=OpticalFrontEnd(fov_half_angle_deg=40.0))
    totals = [cell.total_power for t in range(12)
              for cell in evaluate_population(config, sample_users(config, t)).values()]
    assert math.inf in totals  # the grid above does reach the infeasible branch


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("served_only", [False, True])
def test_campaign_means_equal_the_oracle_across_chunks(workers, served_only):
    # not a multiple of CHUNK, so 1 and 3 workers cut the chunks differently
    config = ScenarioConfig(
        num_users=9, trials=CHUNK + 37, seed=11, qos_set=(0.3, 1.0, 2.25, 4.0),
        pairings=PAIRINGS, limits=PowerLimits(3.0, 0.2), ee_served_only=served_only,
    )
    limits = config.limits
    want = oracle_means(config, (limits.max_total_dl,), (limits.max_per_user_ul,))
    got = run_campaign(config, workers=workers).cells
    assert list(got) == list(want)
    for key, (ee, power, uop_dl, uop_ul) in want.items():
        cell = got[key]
        assert (cell.mean_ee, cell.mean_total_power, cell.mean_uop_dl, cell.mean_uop_ul) == (
            ee, power, uop_dl, uop_ul)


@pytest.mark.parametrize("workers", [1, 3])
def test_campaign_means_of_a_strategy_subset_equal_the_oracle(workers):
    # OMA and GRPA without OPA, adaptive before QoS, an infinite downlink
    # cap under served-only EE; chunks cut differently on 1 and 3 workers
    config = ScenarioConfig(
        num_users=9, trials=CHUNK + 37, seed=12, qos_set=(0.3, 1.0, 2.25, 4.0),
        strategies=(Strategy.OMA, Strategy.GRPA), pairings=("adaptive", "qos"),
        front_end=OpticalFrontEnd(fov_half_angle_deg=40.0),
        limits=PowerLimits(math.inf, 0.2), ee_served_only=True,
    )
    limits = config.limits
    want = oracle_means(config, (limits.max_total_dl,), (limits.max_per_user_ul,))
    got = run_campaign(config, workers=workers).cells
    assert list(got) == list(want)
    for key, (ee, power, uop_dl, uop_ul) in want.items():
        cell = got[key]
        assert (cell.mean_ee, cell.mean_total_power, cell.mean_uop_dl, cell.mean_uop_ul) == (
            ee, power, uop_dl, uop_ul)


@pytest.mark.parametrize("link", ["dl", "ul"])
def test_uop_sweep_means_equal_the_oracle(link):
    grid = (0.5, 2.0, 8.0, math.inf) if link == "dl" else (0.01, 0.1, 1.0)
    config = ScenarioConfig(
        num_users=6, trials=40, seed=5, qos_set=(1.0, 2.0, 3.0, 4.0),
        limits=PowerLimits(4.0, 0.5), uop_sweep_link=link, uop_sweep_grid=grid,
    )
    base_dl, base_ul = config.limits.max_total_dl, config.limits.max_per_user_ul
    caps_dl, caps_ul = (grid, (base_ul,)) if link == "dl" else ((base_dl,), grid)
    want = oracle_means(config, caps_dl, caps_ul)
    points = run_uop_sweep(config)
    assert [p.sweep_value for p in points] == list(grid)
    for g, point in enumerate(points):
        for key, row in want.items():
            cell = point.cells[key]
            uop_dl = row[2 + (g if link == "dl" else 0)]
            uop_ul = row[2 + len(caps_dl) + (g if link == "ul" else 0)]
            assert (cell.mean_ee, cell.mean_total_power, cell.mean_uop_dl,
                    cell.mean_uop_ul) == (row[0], row[1], uop_dl, uop_ul)


@pytest.mark.parametrize("link", ["dl", "ul"])
def test_served_only_ee_of_a_uop_sweep_reads_the_base_caps(link):
    # the grid moves only the outage columns: who is served, and so the EE,
    # follows the scenario's own caps at every grid point
    grid = (0.5, 2.0, 8.0, math.inf) if link == "dl" else (0.01, 0.1, 1.0)
    config = ScenarioConfig(
        num_users=6, trials=40, seed=5, qos_set=(1.0, 2.0, 3.0, 4.0),
        limits=PowerLimits(4.0, 0.5), ee_served_only=True, uop_sweep_link=link,
        uop_sweep_grid=grid,
    )
    want = oracle_means(config, (4.0,), (0.5,))
    points = run_uop_sweep(config)
    assert len(points) == len(grid)
    for point in points:
        for key, (ee, power, _, _) in want.items():
            assert (point.cells[key].mean_ee, point.cells[key].mean_total_power) == (ee, power)
