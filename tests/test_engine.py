"""Chunked array engine against the scalar closed forms.

The oracle below evaluates one population pair by pair with the reference
functions (``make_pair`` through the scalar pairings, ``allocate``,
``single_user_allocation``, ``downlink_uop``/``uplink_uop`` and the outage
masks), from the engine's own gains. From the gains on, the engine must
reproduce every value bit for bit, ``inf`` patterns included, so every
comparison is ``==``. The gains themselves are not libm's: they are held
to :func:`.channel.los_gain` by a declared relative bound, with the zero
pattern exact, and to a 40-digit ``decimal`` value by a bound in ulp.
"""

import functools
import itertools
import math
import time
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

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
from lifi_noma.allocation import _rate_factor
from lifi_noma import simulation
from lifi_noma.cli import load_scenario
from lifi_noma.simulation import (CHUNK, CellResult, _base_caps, _Chunk, _evaluate, _gains,
                                  _Population, _population_from_words, _population_of,
                                  _Powers, run_trial)

PAIRINGS = ("channel", "qos", "adaptive")
ROOT = Path(__file__).resolve().parent.parent


def chunk_count(config, workers=1):
    """How many trial ranges, each at most one chunk, a run of ``config`` is cut into."""
    return len(simulation._trial_ranges(config.trials, workers, simulation._chunk_size(config)))


def oracle_powers(config, users):
    """Per (strategy, pairing): method, slot users, slot powers and total."""
    gains = _gains(config.front_end, _population_of([users]))[0]
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
    in the last bit from the scalar ``2.0 ** (2R)`` for ``a`` and for ``b``,
    on this NumPy build and libm. An engine whose rate factors came from
    either would fail the oracle on them, also through both factors of
    OMA's product ``2^(2a) * 2^(2b)``. None where the search finds no such
    pair.
    """
    rates = np.random.default_rng(seed).uniform(0.0, 8.0, count)
    twice = 2.0 * rates
    scalar = np.array([2.0 ** x for x in twice.tolist()])
    hazards = rates[(scalar != np.exp2(twice)) & (scalar != np.power(2.0, twice))].tolist()
    return tuple(hazards[:2]) if len(hazards) > 1 else None


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
    # the oracle test pins OMA's product of both rates' factors only if an
    # OMA pair holds both rates
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
        gains = _gains(config.front_end, _population_of([users]))[0]
        ones = np.ones(len(users))
        total_channel, total_qos = (
            opa_total_power(outcome, ones, ones, gains, noise_power=config.noise_power)
            for outcome in (pair_by_channel(gains), pair_by_qos(ones, ones, gains))
        )
        ties += total_qos < total_channel <= total_qos * (1.0 + 1e-12)
    assert ties


FRONT_ENDS = {
    "desk": OpticalFrontEnd(),
    "narrow": OpticalFrontEnd(semi_angle_deg=15.0, fov_half_angle_deg=40.0),
    "wide": OpticalFrontEnd(semi_angle_deg=85.0, fov_half_angle_deg=89.0),
}


def gain_positions(front_end):
    """Heights and distances from the axis, half of the random ones out of FOV."""
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
        vertical[:2000] * rng.uniform(0.0, 2.0 * tan_fov, 2000),
        [tan_fov, 2.0 * tan_fov, 0.25 * tan_fov],
        [0.0, 1e84, 1e84],
    ])
    return vertical, horizontal


def engine_gains(front_end, vertical, horizontal):
    rows = np.stack([vertical, horizontal]).reshape(2, 2, -1)  # a chunk of 2 trials
    zeros = np.zeros(rows[0].shape)
    got = _gains(front_end, _Population(rows[0], rows[1], *[zeros] * 5))
    assert got.shape == rows[0].shape
    return got.ravel()


@pytest.mark.parametrize("front_end", list(FRONT_ENDS.values()), ids=list(FRONT_ENDS))
def test_gains_track_los_gain_per_user(front_end):
    vertical, horizontal = gain_positions(front_end)
    exponent = front_end.gain_terms[1]
    got = engine_gains(front_end, vertical, horizontal)
    want = np.array([los_gain(l, r, *front_end.gain_terms)
                     for l, r in zip(vertical.tolist(), horizontal.tolist())])
    # the zero pattern is exact: the FOV edge and the far users are visible,
    # the users past the edge are not
    assert ((got == 0.0) == (want == 0.0)).all()
    assert 0.0 < want[2000:].min()
    assert (want == 0.0).sum() > 500
    # The engine takes cos(atan(x)) as l / sqrt(l^2 + r^2), x = r / l. Each
    # form is off the exact gain by a few rounding errors, times the exponent
    # for the attenuation; los_gain's atan rounding is also amplified by
    # x * atan(x) in its cosine, which grows without bound toward 90
    # degrees. Summed over both forms, in units of eps:
    visible = want > 0.0
    bound = np.finfo(float).eps * (6.0 + exponent * (3.0 + 2.0 * horizontal / vertical))
    assert (np.abs(got - want)[visible] <= bound[visible] * want[visible]).all()


@pytest.mark.parametrize("front_end", list(FRONT_ENDS.values()), ids=list(FRONT_ENDS))
def test_gains_are_within_k_ulp_of_the_exact_gain(front_end):
    # Exact: C * l^e / (l^2 + r^2)^(1 + e / 2), e = m + 1, at 40 digits from
    # the same float l, r, C and e. The array form rounds l^2, r^2, their
    # sum, sqrt, l / sqrt, C / reach and the product once each (relative
    # u = eps / 2 apiece) and np.power once, within 1 ulp; the cosine's 3u
    # grows e-fold under the power. So 6u + 3e u at most, or 3e + 6 ulp.
    _, exponent, constant = front_end.gain_terms
    vertical, horizontal = gain_positions(front_end)
    got = engine_gains(front_end, vertical, horizontal)
    k = 3.0 * exponent + 6.0
    e, c = Decimal(exponent), Decimal(constant)
    checked = 0
    with localcontext() as context:
        context.prec = 40
        for l, r, gain in zip(vertical.tolist(), horizontal.tolist(), got.tolist()):
            if gain == 0.0:
                continue
            l, r = Decimal(l), Decimal(r)
            exact = float(c * l ** e / (l * l + r * r) ** (1 + e / 2))
            assert abs(gain - exact) <= k * math.ulp(exact), (l, r)
            checked += 1
    assert checked > 1000


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


def test_served_only_ee_sheds_part_of_equal_powers_toward_the_lower_slot():
    # users at two spots, so pairs and slot powers repeat and a cap can fall
    # inside a group of equal powers: some shed, the higher slots served
    spots = [user(2.0, 0.5, 1.0, 2.0), user(2.0, 2.0, 1.0, 2.0)]
    rng = np.random.default_rng(12)
    split = 0
    for n, cap in itertools.product((4, 5, 6), (0.01, 0.03, 1.0)):
        config = ScenarioConfig(num_users=n, trials=1, pairings=PAIRINGS,
                                limits=PowerLimits(cap, 0.05), ee_served_only=True)
        for _ in range(6):
            users = [spots[i] for i in rng.integers(0, len(spots), n).tolist()]
            cells = evaluate_population(config, users)
            assert cells == oracle_cells(config, users)
            for cell in cells.values():
                dl = np.array(cell.dl_powers)
                shed = downlink_outage_mask(dl, cap)
                split += any(0 < shed[dl == power].sum() < (dl == power).sum() for power in dl)
    assert split


def test_out_of_fov_users_make_infinite_pairs():
    config = ScenarioConfig(num_users=8, trials=1, seed=7, pairings=PAIRINGS,
                            front_end=OpticalFrontEnd(fov_half_angle_deg=40.0))
    totals = [cell.total_power for t in range(12)
              for cell in evaluate_population(config, sample_users(config, t)).values()]
    assert math.inf in totals  # the grid above does reach the infeasible branch


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("served_only", [False, True])
def test_campaign_means_equal_the_oracle_across_chunks(workers, served_only):
    # not a multiple of CHUNK, so 1 and 3 workers cut the chunks differently:
    # two 9-user chunks (of at most 2 * CHUNK trials) on 1 worker, three on 3
    config = ScenarioConfig(
        num_users=9, trials=2 * CHUNK + 37, seed=11, qos_set=(0.3, 1.0, 2.25, 4.0),
        pairings=PAIRINGS, limits=PowerLimits(3.0, 0.2), ee_served_only=served_only,
    )
    assert chunk_count(config, workers) == max(2, workers)
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


def wide_grid(config, link):
    """An unsorted grid of 24 caps: repeats, ``inf``, a cap below every power
    and a cap equal to one of trial 0's (its largest downlink tail sum, or
    its first uplink power), where ``>`` and ``>=`` part ways."""
    cell = evaluate_population(config, sample_users(config, 0))[("opa", "channel")]
    if link == "dl":
        scale, edge = 2.0, float(np.cumsum(np.sort(cell.dl_powers))[-1])
    else:
        scale, edge = 0.05, cell.ul_powers[0]
    steps = (3, -9, 0, 5, -2, 1, -6, 4, 0, -1, 7, -4, 2, -8, 6, -3, 3, -5, -7)
    return (edge, *(scale * 2.0 ** k for k in steps), math.inf, 1e-300, math.inf, edge)


@pytest.mark.parametrize("num_users", [9, 16])
@pytest.mark.parametrize("link", ["dl", "ul"])
def test_a_wide_unsorted_cap_grid_equals_the_oracle(link, num_users):
    # two chunks of trials (of at most 2 * CHUNK at 9 and 16 users); the base
    # caps shed users for served-only EE
    config = ScenarioConfig(
        num_users=num_users, trials=2 * CHUNK + 37, seed=13, qos_set=(0.5, 1.0, 2.0, 3.0),
        pairings=PAIRINGS, limits=PowerLimits(4.0, 0.05), ee_served_only=True,
        uop_sweep_link=link,
    )
    assert chunk_count(config) == 2
    grid = wide_grid(config, link)
    config = replace(config, uop_sweep_grid=grid)
    base_dl, base_ul = config.limits.max_total_dl, config.limits.max_per_user_ul
    caps_dl, caps_ul = (grid, (base_ul,)) if link == "dl" else ((base_dl,), grid)
    want = oracle_means(config, caps_dl, caps_ul)
    points = run_uop_sweep(config)
    assert [p.sweep_value for p in points] == list(grid)
    seen = set()
    for g, point in enumerate(points):
        for key, row in want.items():
            uop_dl = row[2 + (g if link == "dl" else 0)]
            uop_ul = row[2 + len(caps_dl) + (g if link == "ul" else 0)]
            cell = point.cells[key]
            assert (cell.mean_ee, cell.mean_total_power, cell.mean_uop_dl,
                    cell.mean_uop_ul) == (row[0], row[1], uop_dl, uop_ul)
            seen.add(uop_dl if link == "dl" else uop_ul)
    assert {0.0, 1.0} < seen  # no cap and every cap out, with fractions between


def picked_powers_first(config, population, caps_dl, caps_ul):
    """Adaptive pairing's cells as the engine once counted them: pick the
    channel or the QoS pairing's powers per trial, then one outcome."""
    chunk = _Chunk(config, population, caps_dl, caps_ul)
    channel, qos = (chunk.powers(chunk.slots(m)) for m in ("channel", "qos"))
    used_qos = ~(channel.opa_total <= qos.opa_total * (1.0 + 1e-12))
    # trials are every field's last axis
    powers = _Powers(*(np.where(used_qos, q, c) for q, c in zip(qos, channel)))
    return chunk.outcome(powers), used_qos


ADAPTIVE_ORDERS = [PAIRINGS, ("adaptive", "channel", "qos"), ("adaptive", "qos"), ("adaptive",)]
ADAPTIVE_VARIANTS = {
    "plain": dict(num_users=8),
    # served-only EE sheds at the base caps, which the cap grids below repeat
    "served-only": dict(num_users=8, ee_served_only=True, limits=PowerLimits(2.0, 0.05)),
    "coupled-9": dict(num_users=9, qos_coupled_links=True, limits=PowerLimits(2.0, 0.05)),
    "odd": dict(num_users=7, ee_served_only=True, limits=PowerLimits(1.0, 0.02)),
    "one-rate": dict(num_users=6, qos_set=(2.0,), ee_served_only=True,
                     limits=PowerLimits(0.5, 0.01)),
}


@pytest.mark.parametrize("pairings", ADAPTIVE_ORDERS, ids="-".join)
@pytest.mark.parametrize("variant", list(ADAPTIVE_VARIANTS))
def test_adaptive_cells_equal_powers_picked_before_the_outcome(pairings, variant):
    config = ScenarioConfig(**dict(trials=96, seed=3, qos_set=(0.5, 1.0, 2.0, 3.0),
                                   pairings=pairings) | ADAPTIVE_VARIANTS[variant])
    trials = range(config.trials)
    population = _population_from_words(
        config, trials, np.stack([run_trial(config, i) for i in trials]))
    base_dl, base_ul = config.limits.max_total_dl, config.limits.max_per_user_ul
    # an unsorted downlink grid with a repeat and an infinite cap
    for caps_dl, caps_ul in (((base_dl,), (base_ul,)),
                             ((4.0, 0.5, math.inf, 0.5, base_dl), (base_ul, 0.01))):
        cells, _, used_qos = _evaluate(config, population, caps_dl, caps_ul)
        want, want_qos = picked_powers_first(config, population, caps_dl, caps_ul)
        assert used_qos.tobytes() == want_qos.tobytes()
        if len(config.qos_set) > 1:  # with one rate, QoS pairing never won here
            assert 0 < used_qos.sum() < len(trials)
        got = cells["adaptive"]
        for name in ("total", "sum_rate", "ee", "k_out_dl", "k_out_ul"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.dtype == b.dtype, name
            assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), name
        if config.ee_served_only:
            assert (got.ee != (got.sum_rate / got.total)).any()  # some users were shed


@pytest.mark.parametrize("pairings", ADAPTIVE_ORDERS, ids="-".join)
def test_adaptive_cell_results_are_the_chosen_pairings(pairings):
    config = ScenarioConfig(num_users=7, trials=1, seed=4, qos_set=(0.5, 1.0, 2.0, 3.0),
                            pairings=pairings, ee_served_only=True, limits=PowerLimits(1.0, 0.02))
    both = replace(config, pairings=PAIRINGS)
    chosen = set()
    for trial in range(40):
        users = sample_users(config, trial)
        cells, reference = evaluate_population(config, users), evaluate_population(both, users)
        for strategy in config.strategies:
            got = cells[(strategy.value, "adaptive")]
            method = got.method_used.partition(":")[2]
            chosen.add(method)
            assert got == replace(reference[(strategy.value, method)], pairing="adaptive",
                                  method_used=f"adaptive:{method}")
            for pairing in set(pairings) - {"adaptive"}:
                assert cells[(strategy.value, pairing)] == reference[(strategy.value, pairing)]
    assert chosen == {"channel", "qos"}


@pytest.mark.parametrize("scenario, runner, per_chunk", [
    ("campaign_16users.cfg", run_campaign, 2),  # channel and QoS; adaptive is picked from them
    # adaptive alone: its slots are picked, then one outcome is counted
    ("uop_downlink.cfg", run_uop_sweep, 1),
])
def test_outcomes_counted_per_chunk(monkeypatch, scenario, runner, per_chunk):
    config = load_scenario(ROOT / "scenarios" / scenario)
    config = replace(config, trials=simulation._chunk_size(config) + 5)
    assert chunk_count(config) == 2
    outcome, calls = _Chunk.outcome, []
    monkeypatch.setattr(_Chunk, "outcome", lambda chunk, powers: calls.append(1) or
                        outcome(chunk, powers))
    runner(config)
    assert len(calls) == 2 * per_chunk  # two chunks


@pytest.mark.parametrize("scenario, runner, per_chunk", [
    ("campaign_16users.cfg", run_campaign, 2),  # channel and QoS pairing
    # adaptive alone: its slots are picked by OPA totals, then one strategies pass
    ("uop_downlink.cfg", run_uop_sweep, 1),
    ("uop_uplink.cfg", run_uop_sweep, 1),
])
def test_strategy_powers_computed_per_chunk(monkeypatch, scenario, runner, per_chunk):
    config = load_scenario(ROOT / "scenarios" / scenario)
    config = replace(config, trials=simulation._chunk_size(config) + 5)
    assert chunk_count(config) == 2
    powers, calls = _Chunk.powers, []
    monkeypatch.setattr(_Chunk, "powers", lambda chunk, slots: calls.append(1) or
                        powers(chunk, slots))
    runner(config)
    assert len(calls) == 2 * per_chunk  # two chunks


ADAPTIVE_ONLY = [("adaptive",), ("adaptive", "qos"), ("adaptive", "channel")]


def chunk_population(config):
    trials = range(config.trials)
    return _population_from_words(config, trials,
                                  np.stack([run_trial(config, i) for i in trials]))


@pytest.mark.parametrize("pairings", ADAPTIVE_ONLY, ids="-".join)
@pytest.mark.parametrize("variant", list(ADAPTIVE_VARIANTS))
def test_adaptive_powers_equal_powers_picked_from_both_pairings(monkeypatch, pairings, variant):
    config = ScenarioConfig(**dict(trials=96, seed=3, qos_set=(0.5, 1.0, 2.0, 3.0),
                                   pairings=pairings) | ADAPTIVE_VARIANTS[variant])
    population, caps = chunk_population(config), _base_caps(config)
    _, powers, used_qos = _evaluate(config, population, *caps)
    # picked_powers_first without its outcome: both pairings' full powers, picked per trial
    monkeypatch.setattr(_Chunk, "outcome", lambda chunk, powers: powers)
    want, want_qos = picked_powers_first(config, population, *caps)
    assert used_qos.tobytes() == want_qos.tobytes()
    got = powers["adaptive"]
    for name in _Powers._fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), name


@pytest.mark.parametrize("variant", ["narrow-fov"] + list(ADAPTIVE_VARIANTS))
def test_opa_totals_are_the_strategies_pass_and_the_scalar_totals(variant):
    extra = (dict(num_users=7, front_end=FRONT_ENDS["narrow"]) if variant == "narrow-fov"
             else ADAPTIVE_VARIANTS[variant])
    config = ScenarioConfig(**dict(trials=96, seed=3, qos_set=(0.5, 1.0, 2.0, 3.0)) | extra)
    chunk = _Chunk(config, chunk_population(config), *_base_caps(config))
    infinite = 0
    for method in ("channel", "qos"):
        slots = chunk.slots(method)
        got = chunk.opa(slots)[-1]
        assert got.tobytes() == chunk.powers(slots).opa_total.tobytes()
        for gains, rates_dl, rates_ul, total in zip(
                chunk.gains, chunk.rates_dl, chunk.rates_ul, got.tolist()):
            outcome = (pair_by_channel(gains) if method == "channel" else
                       pair_by_qos(rates_dl, rates_ul, gains, key=config.qos_pairing_key))
            assert total == opa_total_power(outcome, rates_dl, rates_ul, gains,
                                            noise_power=config.noise_power)
        infinite += np.isinf(got).sum()
    assert (infinite > 0) == (variant == "narrow-fov")  # out-of-FOV users need unbounded power


def broadcast_counts(chunk, powers):
    """Outage counts as the engine once made them: one ``(strategies, trials,
    caps, users)`` compare, summed over the users of each row."""
    dl, ul = (np.moveaxis(p, 0, -1) for p in (powers.dl, powers.ul))  # users last
    tails = np.sort(dl, axis=-1)
    np.cumsum(tails, axis=-1, out=tails)
    return ((tails[..., None, :] > chunk.caps_dl[:, None]).sum(axis=-1),
            (ul[..., None, :] > chunk.caps_ul[:, None]).sum(axis=-1))


@pytest.mark.parametrize("count", [1, 8, 24])
@pytest.mark.parametrize("variant", ["narrow-fov"] + list(ADAPTIVE_VARIANTS))
def test_cap_counts_equal_the_broadcast_count(variant, count):
    extra = (dict(num_users=7, front_end=FRONT_ENDS["narrow"]) if variant == "narrow-fov"
             else ADAPTIVE_VARIANTS[variant])
    config = ScenarioConfig(**dict(trials=96, seed=3, qos_set=(0.5, 1.0, 2.0, 3.0)) | extra)
    steps = np.random.default_rng(count).permutation(np.arange(count) - count // 2)
    grids = [list(scale * 2.0 ** steps) for scale in (2.0, 0.05)]
    for grid in grids if count > 2 else ():
        grid[1:3] = math.inf, grid[0]  # an infinite cap and a repeat
    chunk = _Chunk(config, chunk_population(config), *grids)
    for method in ("channel", "qos"):
        powers = chunk.powers(chunk.slots(method))
        got = chunk.outcome(powers)
        for a, b in zip((got.k_out_dl, got.k_out_ul), broadcast_counts(chunk, powers)):
            assert a.shape == b.shape == (len(config.strategies), config.trials, count)
            assert a.dtype == b.dtype
            assert np.ascontiguousarray(a).tobytes() == b.tobytes()


@pytest.mark.parametrize("pairings", ADAPTIVE_ONLY, ids="-".join)
def test_adaptive_only_cell_results_carry_the_chosen_pairings_powers(pairings):
    config = ScenarioConfig(num_users=9, trials=1, seed=6, qos_set=(0.5, 1.0, 2.0, 3.0),
                            pairings=pairings, qos_coupled_links=True,
                            limits=PowerLimits(2.0, 0.05))
    chosen = set()
    for trial in range(40):
        users = sample_users(config, trial)
        cells = evaluate_population(config, users)
        for strategy in config.strategies:
            got = cells[(strategy.value, "adaptive")]
            method = got.method_used.partition(":")[2]
            chosen.add(method)
            alone = evaluate_population(replace(config, pairings=(method,)), users)
            want = alone[(strategy.value, method)]
            assert (got.dl_powers, got.ul_powers) == (want.dl_powers, want.ul_powers)
            assert (got.total_power, got.ee) == (want.total_power, want.ee)
    assert chosen == {"channel", "qos"}


def chunk_factors(config, trials, words):
    """The rate factors a chunk reads, per link, and the drawn rates."""
    population = _population_from_words(config, trials, words)
    chunk = _Chunk(config, population, *_base_caps(config))
    factors_dl, factors_ul = chunk.users[1:].reshape(2, len(trials), -1)
    return (factors_dl, population.rates_dl), (factors_ul, population.rates_ul)


def test_chunk_factors_are_the_scalar_factors_of_the_drawn_rates():
    # three rates: Lemire's method rejects only a zero 32-bit draw, so trial
    # 5's third draw (user 2's downlink, index 1 as drawn) is zeroed in its
    # words, and the trial has its draws redone
    three = ScenarioConfig(num_users=6, trials=8, seed=2, qos_set=(0.75, 2.0, 3.5))
    words = np.stack([run_trial(three, i) for i in range(8)])
    words[5, 3 * three.num_users + 1] &= np.uint64(0xFFFFFFFF00000000)
    assert sample_users(three, 5)[2].qos.downlink != three.qos_set[0]
    # a hundred thousand rates: trial 1150 rejects one of its 64 draws
    many = ScenarioConfig(num_users=32, trials=1, seed=5,
                          qos_set=tuple(k * 2.5e-3 for k in range(100_000)))
    rng = np.random.default_rng([5, 1150])
    rng.random(3 * 32)
    rng.integers(0, 100_000, 64)
    assert rng.bit_generator.state["state"] != state_after(many, 1150, 3 * 32 + 32)
    for config, trials, words, row in ((three, range(8), words, 5),
                                       (many, [1150], run_trial(many, 1150)[None], 0)):
        redrawn = sample_users(config, trials[row])
        for link, (factors, rates) in enumerate(chunk_factors(config, trials, words)):
            want = [[_rate_factor(r) for r in rates_of] for rates_of in rates.tolist()]
            assert factors.tolist() == want
            assert rates[row].tolist() == [u.qos.uplink if link else u.qos.downlink
                                           for u in redrawn]


def test_the_rate_table_is_built_once_per_qos_set_and_keeps_the_sign_of_zero(monkeypatch):
    # the configs are equal, as 0.0 == -0.0: a table shared by equal QoS sets
    # would hand one config the other's zeros
    plus, minus = (ScenarioConfig(num_users=8, trials=16, seed=1, qos_set=(zero, 1.0))
                   for zero in (0.0, -0.0))
    assert plus == minus
    for config in (plus, minus, plus):
        rates = np.concatenate(chunk_population(config)[3:5])
        zeros = rates == 0.0
        assert zeros.any()
        assert (np.signbit(rates[zeros]) == np.signbit(config.qos_set[0])).all()
    # a hundred thousand rates: converted and factored once, on the first draw
    calls = []
    monkeypatch.setattr(simulation, "_rate_factor",
                        lambda rate: calls.append(rate) or _rate_factor(rate))
    many = ScenarioConfig(num_users=32, trials=1, seed=5,
                          qos_set=tuple(k * 2.5e-3 for k in range(100_000)))
    few = replace(many, qos_set=(0.5, 1.0, 2.0, 3.0))
    medians = []
    for config in (many, few):
        sample_users(config, 0)
        times = []
        for trial in range(1, 16):
            start = time.perf_counter()
            sample_users(config, trial)
            times.append(time.perf_counter() - start)
        medians.append(np.median(times))
    assert len(calls) == len(many.qos_set) + len(few.qos_set)
    # a draw reads the held table, so the set's size must not show in its time
    assert medians[0] < 5 * medians[1]


def test_a_listed_qos_set_is_held_as_a_tuple_and_its_table_built_once_per_run(monkeypatch):
    listed = ScenarioConfig(num_users=8, trials=200, seed=3, qos_set=[0.5, 1.0, 2.0],
                            strategies=[Strategy.OPA], pairings=["channel", "qos"])
    tupled = replace(listed, qos_set=(0.5, 1.0, 2.0), strategies=(Strategy.OPA,),
                     pairings=("channel", "qos"))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert type(listed.qos_set) is type(listed.strategies) is type(listed.pairings) is tuple
    calls = []
    monkeypatch.setattr(simulation, "_rate_factor",
                        lambda rate: calls.append(rate) or _rate_factor(rate))
    monkeypatch.setattr(simulation, "_chunk_size", lambda config: 16)  # thirteen chunks
    summary = run_campaign(listed)
    assert calls == [0.5, 1.0, 2.0]
    assert run_campaign(tupled) == summary


def state_after(config, trial, words):
    """Trial ``trial``'s PCG64 state after ``words`` raw words."""
    rng = np.random.default_rng([config.seed, trial])
    rng.bit_generator.advance(words)
    return rng.bit_generator.state["state"]


def exact_pair_powers(strategies, pz, h_far, h_near, f):
    """One pair's slot powers (far, near downlink, far, near uplink) per strategy, as
    Fractions from the same gains, noise power and factors ``f`` (far, near downlink,
    far, near uplink) as the engine's; None where the pair is infeasible."""
    if h_far == 0:
        return dict.fromkeys(strategies)
    near_dl = f[1] * pz / (h_near * h_near)
    opa = (f[0] * (near_dl + pz / (h_far * h_far)), near_dl,
           f[2] * pz / (h_far * h_far), f[3] * (1 + f[2]) * pz / (h_near * h_near))
    k_dl, k_ul = f[0] * f[1] * pz, f[2] * f[3] * pz
    out = {Strategy.OPA: opa, Strategy.OMA: (k_dl / (h_far * h_far), k_dl / (h_near * h_near),
                                             k_ul / (h_far * h_far), k_ul / (h_near * h_near))}
    for strategy, alpha in ((Strategy.GRPA, (h_far / h_near) ** 2),
                            (Strategy.NGDPA, (h_near - h_far) / h_near)):
        out[strategy] = None if alpha == 0 else tuple(itertools.chain.from_iterable(
            (p_far, alpha * p_far) if alpha >= p_near / p_far else (p_near / alpha, p_near)
            for p_far, p_near in (opa[:2], opa[2:])))
    return out


def ulps(got: float, exact: Fraction) -> float:
    """``|got - exact|`` in ulp of ``exact``'s float; int quotients round once each."""
    (a, b), n, d = got.as_integer_ratio(), exact.numerator, exact.denominator
    return abs(a * d - n * b) / (b * d) / math.ulp(n / d)


# Each bound counts roundings: a power n roundings from exact float inputs is within a
# relative n * eps / 2 to first order, so within n ulp. OPA's far downlink and near
# uplink powers take 5, OMA's 4, the unpaired user's 3. GRPA's ratio takes 3 and
# NGDPA's 2 (h_near - h_far is exact or one rounding); each adds an OPA power's 5 and
# one product or quotient. Measured on these chunks: OPA 1.9, OMA 1.3, GRPA 4.1,
# NGDPA 3.3 and the unpaired user 1.1 ulp at most.
ULP_BOUNDS = {Strategy.OPA: 5, Strategy.OMA: 4, Strategy.GRPA: 9, Strategy.NGDPA: 8,
              "unpaired": 3}
ULP_CHUNKS = {
    "desk": lambda: replace(load_scenario(ROOT / "scenarios" / "campaign_16users.cfg"),
                            trials=CHUNK),
    # an unpaired user, and users out of FOV (r / l > tan 70 degrees) in infeasible pairs
    "odd-out-of-fov": lambda: ScenarioConfig(num_users=7, trials=CHUNK, seed=5, r_max=6.0,
                                             qos_set=(0.5, 1.0, 2.0, 3.0), pairings=PAIRINGS),
}


@pytest.mark.parametrize("variant", list(ULP_CHUNKS))
def test_chunk_powers_are_within_k_ulp_of_the_exact_powers(variant):
    config = ULP_CHUNKS[variant]()
    population, caps = chunk_population(config), _base_caps(config)
    chunk, used_qos = _Chunk(config, population, *caps), _evaluate(config, population, *caps)[2]
    pz = Fraction(config.noise_power)
    h, f_dl, f_ul = ([Fraction(v) for v in row] for row in chunk.users.tolist())
    exact = functools.cache(lambda far, near: exact_pair_powers(
        config.strategies, pz, h[far], h[near], (f_dl[far], f_dl[near], f_ul[far], f_ul[near])))
    worst, infeasible = dict.fromkeys(ULP_BOUNDS, 0.0), 0
    channel, qos = chunk.slots("channel"), chunk.slots("qos")
    for slots in (channel, qos, np.where(used_qos, qos, channel)):
        powers = chunk.powers(slots)
        dl, ul = powers.dl.transpose(2, 1, 0).tolist(), powers.ul.transpose(2, 1, 0).tolist()
        for trial, users in enumerate(slots.T.tolist()):
            for row, strategy in enumerate(config.strategies):
                got_dl, got_ul = dl[trial][row], ul[trial][row]
                for far in range(0, len(users) - 1, 2):
                    got = got_dl[far], got_dl[far + 1], got_ul[far], got_ul[far + 1]
                    want = exact(users[far], users[far + 1])[strategy]
                    if want is None:  # all four demands unbounded, not merely large
                        assert got == (math.inf,) * 4, (strategy, trial, far)
                        infeasible += 1
                        continue
                    worst[strategy] = max(worst[strategy], *map(ulps, got, want))
                if len(users) % 2:
                    user = users[-1]
                    for power, factor in ((got_dl[-1], f_dl[user]), (got_ul[-1], f_ul[user])):
                        if h[user] == 0:
                            assert power == math.inf
                        else:
                            value = factor * pz / (h[user] * h[user])
                            worst["unpaired"] = max(worst["unpaired"], ulps(power, value))
    assert all(worst[key] <= bound for key, bound in ULP_BOUNDS.items()), worst
    assert (infeasible > 0) == (variant == "odd-out-of-fov")
