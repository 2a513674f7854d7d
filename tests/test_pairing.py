"""User pairing: sort rules, partition properties, the adaptive menu, an
exhaustive-matching oracle at small sizes, and the exact optimum pairing
against which the engine's pairings are measured."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifi_noma import (
    QosRates,
    ScenarioConfig,
    Strategy,
    UserNode,
    UserPosition,
    adaptive_pairing,
    channel_gain,
    evaluate_population,
    opa_set,
    pair_by_channel,
    pair_by_qos,
    sample_users,
    single_user_allocation,
)
from lifi_noma.allocation import MAX_RATE, UserPair
from lifi_noma.pairing import (
    QOS_SORT_KEYS,
    PairingOutcome,
    _qos_sort_values,
    make_pair,
    opa_total_power,
)
from lifi_noma.simulation import PAIRING_METHODS

PZ = 2e-15


def oracle_pair_total(h_far_dl, h_near_dl, h_far_ul, h_near_ul,
                      rd_far, rd_near, ru_far, ru_near, pz=PZ) -> float:
    # independent restatement of the per-pair closed-form minimum
    e = lambda r: 2.0 ** (2.0 * r)
    return (
        e(rd_far) * (e(rd_near) * pz / h_near_dl**2 + pz / h_far_dl**2)
        + e(rd_near) * pz / h_near_dl**2
        + e(ru_far) * pz / h_far_ul**2
        + e(ru_near) * (1.0 + e(ru_far)) * pz / h_near_ul**2
    )


def oracle_total(pairs, unpaired, gains, rates_dl, rates_ul, pz=PZ) -> float:
    total = 0.0
    for far, near in pairs:
        total += oracle_pair_total(
            gains[far], gains[near], gains[far], gains[near],
            rates_dl[far], rates_dl[near], rates_ul[far], rates_ul[near], pz,
        )
    if unpaired is not None:
        e = lambda r: 2.0 ** (2.0 * r)
        total += e(rates_dl[unpaired]) * pz / gains[unpaired] ** 2
        total += e(rates_ul[unpaired]) * pz / gains[unpaired] ** 2
    return total


def all_matchings(indices):
    # every perfect matching of an even index set
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for i in range(len(rest)):
        partner = rest[i]
        remaining = rest[:i] + rest[i + 1:]
        for tail in all_matchings(remaining):
            yield [(first, partner)] + tail


def optimal_total(gains, rates_dl, rates_ul, pz=PZ) -> float:
    """The least OPA total power over every pairing of the users.

    A pair costs its ``opa_set`` total. With an odd count a dummy slot joins
    the users: pairing a user with it costs ``single_user_allocation``'s
    powers, so the user left alone is chosen optimally too. The best perfect
    matching of the slots comes from a program over the subsets of slots
    still unmatched, the lowest of which is matched first.
    """
    n, qos = len(gains), [QosRates(float(d), float(u)) for d, u in zip(rates_dl, rates_ul)]
    cost = [[math.inf] * (n + n % 2) for _ in range(n + n % 2)]
    for a, b in itertools.combinations(range(n), 2):
        pair = make_pair(a, b, gains)
        cost[a][b] = cost[b][a] = opa_set(pair, qos[pair.far], qos[pair.near], pz).total
    if n % 2:
        for u in range(n):
            cost[u][n] = cost[n][u] = sum(single_user_allocation(float(gains[u]), qos[u], pz))

    @functools.cache
    def best(rest: int) -> float:
        if not rest:
            return 0.0
        i = (rest & -rest).bit_length() - 1
        rest ^= 1 << i
        return min(cost[i][j] + best(rest ^ (1 << j)) for j in range(len(cost)) if rest >> j & 1)

    return best((1 << len(cost)) - 1)


def trial_population(config: ScenarioConfig, users):
    """The gains and rates of a trial's users, for :func:`optimal_total`."""
    gains = np.array([channel_gain(u.position, config.front_end) for u in users])
    return (gains, [u.qos.downlink for u in users], [u.qos.uplink for u in users],
            config.noise_power)


class TestChannelPairing:
    def test_four_sorted_gains(self):
        out = pair_by_channel(np.array([1e-6, 2e-6, 3e-6, 4e-6]))
        assert [(p.far, p.near) for p in out.pairs] == [(0, 2), (1, 3)]
        assert out.method == "channel"
        assert out.unpaired is None

    def test_two_users_lower_gain_is_far(self):
        out = pair_by_channel(np.array([5e-6, 2e-6]))
        assert [(p.far, p.near) for p in out.pairs] == [(1, 0)]

    def test_equal_gains_keep_index_order(self):
        out = pair_by_channel(np.array([2e-6] * 4))
        assert [(p.far, p.near) for p in out.pairs] == [(0, 2), (1, 3)]

    def test_unsorted_input(self):
        out = pair_by_channel(np.array([4e-6, 1e-6, 3e-6, 2e-6]))
        # ascending order is users (1, 3, 2, 0)
        assert [(p.far, p.near) for p in out.pairs] == [(1, 2), (3, 0)]

    def test_odd_count_leaves_last_sorted_user(self):
        out = pair_by_channel(np.array([5e-6, 1e-6, 3e-6, 2e-6, 4e-6]))
        assert [(p.far, p.near) for p in out.pairs] == [(1, 2), (3, 4)]
        assert out.unpaired == 0  # the highest gain ends the ascending sort

    def test_rejects_single_user(self):
        with pytest.raises(ValueError):
            pair_by_channel(np.array([1e-6]))


class TestQosPairing:
    def test_descending_rates(self):
        gains = np.array([1e-6, 2e-6, 3e-6, 4e-6])
        out = pair_by_qos([4.0, 3.0, 2.0, 1.0], [0.0] * 4, gains)
        assert [(p.far, p.near) for p in out.pairs] == [(0, 2), (1, 3)]
        assert out.method == "qos"

    def test_equal_rates_degenerate_to_input_order(self):
        gains = np.array([1e-6, 2e-6, 3e-6, 4e-6])
        out = pair_by_qos([1.0] * 4, [1.0] * 4, gains)
        assert [(p.far, p.near) for p in out.pairs] == [(0, 2), (1, 3)]

    def test_two_users_rates_do_not_matter(self):
        out = pair_by_qos([1.0, 9.0], [1.0, 9.0], np.array([5e-6, 2e-6]))
        assert [(p.far, p.near) for p in out.pairs] == [(1, 0)]

    def test_far_role_follows_gains_not_rates(self):
        gains = np.array([4e-6, 1e-6, 2e-6, 3e-6])
        out = pair_by_qos([4.0, 3.0, 2.0, 1.0], [0.0] * 4, gains)
        # sorted by rate: (0, 1, 2, 3) -> pairs (0, 2) and (1, 3)
        assert [(p.far, p.near) for p in out.pairs] == [(2, 0), (1, 3)]

    def test_sort_key_modes(self):
        gains = np.array([1e-6, 2e-6, 3e-6, 4e-6])
        rd = [0.0, 4.0, 1.0, 2.0]
        ru = [4.0, 0.0, 2.0, 1.0]
        by_dl = pair_by_qos(rd, ru, gains, key="downlink")
        by_ul = pair_by_qos(rd, ru, gains, key="uplink")
        by_sum = pair_by_qos(rd, ru, gains, key="sum")
        # downlink sort order is (1, 3, 2, 0); groups {1, 3} and {2, 0}
        assert [(p.far, p.near) for p in by_dl.pairs] == [(1, 2), (0, 3)]
        # uplink sort order is (0, 2, 3, 1); groups {0, 2} and {3, 1}
        assert [(p.far, p.near) for p in by_ul.pairs] == [(0, 3), (1, 2)]
        # combined rates tie pairwise -> stable input order
        assert [(p.far, p.near) for p in by_sum.pairs] == [(0, 2), (1, 3)]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            pair_by_qos([1.0, 1.0], [1.0, 1.0], np.array([1e-6, 2e-6]), key="max")

    @pytest.mark.parametrize("rates_dl, rates_ul", [
        ([[1.0, 2.0]], [[1.0, 2.0]]),  # a chunk of one trial is not a population
        ([1.0, 2.0], [1.0, 2.0, 3.0]),
    ])
    def test_rate_arrays_must_be_one_dimensional_and_equal(self, rates_dl, rates_ul):
        with pytest.raises(ValueError, match="^rate arrays must be 1-D and equally shaped$"):
            pair_by_qos(rates_dl, rates_ul, np.array([1e-6, 2e-6]))

    @pytest.mark.parametrize("pairing, args, message", [
        (pair_by_qos, ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1e-6, 2e-6]),
         "^rates and gains must cover the same users$"),
        (pair_by_channel, ([[1e-6, 2e-6]],), "^the gain array must be 1-D$"),
    ], ids=["rates-and-gains-differ", "gains-not-1d"])
    def test_a_malformed_population_is_refused(self, pairing, args, message):
        with pytest.raises(ValueError, match=message):
            pairing(*args)

    @pytest.mark.parametrize("key", QOS_SORT_KEYS)
    def test_sort_values_of_a_chunk_are_those_of_its_trials(self, key):
        # the engine sorts (trials, users) arrays with the same key rule
        rng = np.random.default_rng(3)
        rd, ru = rng.choice([0.5, 1.0, 2.0], (4, 7)), rng.choice([0.5, 1.0, 2.0], (4, 7))
        chunk = _qos_sort_values(rd, ru, key)
        for row in range(4):
            assert chunk[row].tobytes() == _qos_sort_values(rd[row], ru[row], key).tobytes()


def test_pairing_and_engine_share_the_user_count_rule():
    message = "^pairing needs at least 2 users, got 1$"
    with pytest.raises(ValueError, match=message):
        pair_by_channel([1e-6])
    user = UserNode(UserPosition(2.0, 0.5), QosRates(1.0, 1.0))
    with pytest.raises(ValueError, match=message):
        evaluate_population(ScenarioConfig(num_users=2, trials=1), [user])


ZERO_FIRST = [0.0, 1e-6, 2e-6, 3e-6]  # pair (0, 2) needs unbounded power
FOUR = [1e-6, 2e-6, 3e-6, 4e-6]
BAD_RATES = [(math.nan, "must be finite, got nan"), (-1.0, r"must lie in \[0, 256\), got -1.0"),
             (300.0, r"must lie in \[0, 256\), got 300.0"),
             (1e9, r"must lie in \[0, 256\), got 1000000000.0")]
POPULATION_ENTRIES = {
    "opa_total_power": lambda rd, ru: opa_total_power(pair_by_channel(ZERO_FIRST), rd, ru,
                                                      ZERO_FIRST, noise_power=PZ),
    "adaptive_pairing": lambda rd, ru: adaptive_pairing(rd, ru, ZERO_FIRST, noise_power=PZ),
    "pair_by_qos": lambda rd, ru: pair_by_qos(rd, ru, ZERO_FIRST),
}


def bad_rate_case(entry, link, rate, message):
    bad, ones = [1.0, 1.0, 1.0, rate], [1.0] * 4
    rates = (bad, ones) if link == "downlink" else (ones, bad)
    return pytest.param(lambda: POPULATION_ENTRIES[entry](*rates), f"^{link} {message}$",
                        id=f"{entry}-{link}-{rate}")


@pytest.mark.parametrize("call, message", [
    *(bad_rate_case(entry, link, rate, message) for entry in POPULATION_ENTRIES
      for link in ("downlink", "uplink") for rate, message in BAD_RATES),
    pytest.param(lambda: pair_by_channel([1e-6, 2e-6, 3e-6, 4e-6, math.nan]),
                 r"^gains must be >= 0, got \(1e-06, 2e-06, 3e-06, 4e-06, nan\)$",
                 id="pair_by_channel-nan-gain"),
    pytest.param(lambda: adaptive_pairing([1.0] * 3, [1.0] * 3, [1e-6, -1.0, 3e-6],
                                          noise_power=PZ),
                 r"^gains must be >= 0, got \(1e-06, -1.0, 3e-06\)$",
                 id="adaptive_pairing-negative-gain"),
])
def test_a_population_entry_point_refuses_a_bad_rate_or_gain(call, message):
    # checked where the population enters, before any pair is costed, so
    # neither an earlier infinite pair nor the unpaired slot hides the value
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    bad_rate_case(entry, link, MAX_RATE, r"must lie in \[0, 256\), got 256.0")
    for entry in POPULATION_ENTRIES for link in ("downlink", "uplink")
])
def test_a_population_entry_point_refuses_the_rate_bound_itself(call, message):
    # the range is half-open: from MAX_RATE on, OMA's factor overflows
    with pytest.raises(ValueError, match=message):
        call()


@st.composite
def populations(draw):
    n = draw(st.integers(2, 33))
    gains = draw(
        st.lists(st.floats(1e-7, 1e-5), min_size=n, max_size=n)
    )
    rates = draw(
        st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]), min_size=n, max_size=n)
    )
    return np.asarray(gains), np.asarray(rates)


class TestPartitionProperties:
    @given(populations())
    @settings(max_examples=150)
    def test_every_user_appears_exactly_once(self, population):
        gains, rates = population
        for out in (
            pair_by_channel(gains),
            pair_by_qos(rates, rates, gains),
            adaptive_pairing(rates, rates, gains, noise_power=PZ),
        ):
            seen = [u for p in out.pairs for u in (p.far, p.near)]
            if out.unpaired is not None:
                seen.append(out.unpaired)
            assert sorted(seen) == list(range(len(gains)))
            assert out.num_users == len(gains)

    @given(populations())
    @settings(max_examples=150)
    def test_far_member_never_outgains_near(self, population):
        gains, rates = population
        for out in (pair_by_channel(gains), pair_by_qos(rates, rates, gains)):
            for pair in out.pairs:
                assert pair.h_far <= pair.h_near


class TestOpaTotalPower:
    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            gains = rng.uniform(1e-7, 1e-5, n)
            rates_dl = rng.choice([0.5, 1.0, 2.0, 4.0], n)
            rates_ul = rng.choice([0.5, 1.0, 2.0, 4.0], n)
            out = pair_by_channel(gains)
            got = opa_total_power(out, rates_dl, rates_ul, gains, noise_power=PZ)
            want = oracle_total(
                [(p.far, p.near) for p in out.pairs], out.unpaired,
                gains, rates_dl, rates_ul,
            )
            assert got == pytest.approx(want, rel=1e-12)

    def test_equals_the_reference_composition_bit_for_bit(self):
        # the float path adds the same powers in the same order as opa_set's
        # totals in pair order, then the unpaired user's single_user_allocation
        rng = np.random.default_rng(2031)
        for case in range(200):
            n = int(rng.integers(2, 12))
            gains = rng.uniform(1e-7, 1e-5, n)
            if case % 3 == 1:
                gains[:] = gains[0]
            elif case % 3 == 2:
                gains[rng.integers(n)] = 1e-200  # its square underflows to 0
            rates_dl, rates_ul = rng.choice([0.0, 0.5, 1.0, 2.0, 4.0, 255.0], (2, n))
            qos = [QosRates(float(d), float(u)) for d, u in zip(rates_dl, rates_ul)]
            for out in (pair_by_channel(gains), pair_by_qos(rates_dl, rates_ul, gains)):
                want = 0.0
                for pair in out.pairs:
                    want += opa_set(pair, qos[pair.far], qos[pair.near], PZ).total
                if out.unpaired is not None:
                    p_dl, p_ul = single_user_allocation(float(gains[out.unpaired]),
                                                        qos[out.unpaired], PZ)
                    want += p_dl + p_ul
                got = opa_total_power(out, rates_dl, rates_ul, gains, noise_power=PZ)
                assert got == want, (case, out.method)

    @pytest.mark.parametrize("outcome", [
        pytest.param(pair_by_channel(FOUR[:2]), id="two-of-four-users"),
        pytest.param(pair_by_channel([5e-6, 6e-6, 7e-6, 8e-6]), id="other-gains"),
        pytest.param(pair_by_channel([*FOUR, 5e-6]), id="five-users"),
        pytest.param(PairingOutcome((UserPair(0, 1, 1e-6, 2e-6), UserPair(0, 3, 1e-6, 4e-6)),
                                    "channel"), id="a-user-twice"),
        pytest.param(PairingOutcome((UserPair(1, 0, 1e-6, 2e-6), UserPair(2, 3, 3e-6, 4e-6)),
                                    "channel"), id="roles-swapped"),
        pytest.param(PairingOutcome((UserPair(0, 1, 1e-6, 2e-6),), "channel", unpaired=2),
                     id="a-user-missing"),
    ])
    def test_refuses_an_outcome_that_is_not_a_pairing_of_its_population(self, outcome):
        # pairs are costed at the outcome's gains and the unpaired user at the
        # population's, so a foreign outcome would be priced at the wrong users
        with pytest.raises(ValueError, match="^the outcome must pair exactly the given users"):
            opa_total_power(outcome, [1.0] * 4, [1.0] * 4, FOUR, noise_power=PZ)

    @pytest.mark.parametrize("gains", [[0.0, 1e-6, 2e-6, 3e-6], [1e-6, 2e-6, 0.0]])
    def test_zero_gain_makes_the_total_infinite(self, gains):
        # a user outside the FOV needs unbounded power, whether it is paired
        # or (descending rates leave the last user over) standalone
        gains = np.array(gains)
        rates = np.arange(len(gains), 0.0, -1.0)
        out = pair_by_qos(rates, rates, gains)
        assert opa_total_power(out, rates, rates, gains, noise_power=PZ) == math.inf


class TestAdaptivePairing:
    def test_infinite_totals_tie_to_channel(self):
        gains = np.array([0.0, 1e-6, 2e-6, 3e-6])
        rates = np.array([4.0, 1.0, 2.0, 3.0])
        adaptive = adaptive_pairing(rates, rates, gains, noise_power=PZ)
        assert adaptive.method == "adaptive:channel"
        assert adaptive.min_total_power == math.inf

    def test_equal_qos_collapses_to_channel(self):
        gains = np.array([3e-6, 1e-6, 4e-6, 2e-6])
        rates = np.array([1.0] * 4)
        adaptive = adaptive_pairing(rates, rates, gains, noise_power=PZ)
        channel = pair_by_channel(gains)
        assert adaptive.pairs == channel.pairs
        assert adaptive.method == "adaptive:channel"
        assert adaptive.min_total_power is not None

    def test_exact_tie_prefers_channel(self):
        # equal gains and rates: both candidate pairings are identical
        gains = np.array([2e-6] * 4)
        rates = np.array([1.0] * 4)
        adaptive = adaptive_pairing(rates, rates, gains, noise_power=PZ)
        assert adaptive.method == "adaptive:channel"

    def test_diverse_qos_can_flip_to_qos_pairing(self):
        # nearly uniform gains but extreme rate spread: pairing the two
        # rate-4 users together (channel pairing would) costs a 2^16 factor
        gains = np.array([1.0e-6, 1.1e-6, 2.0e-6, 2.2e-6])
        rates = np.array([4.0, 0.5, 4.0, 0.5])
        channel = pair_by_channel(gains)
        qos = pair_by_qos(rates, rates, gains)
        total_channel = oracle_total(
            [(p.far, p.near) for p in channel.pairs], None, gains, rates, rates
        )
        total_qos = oracle_total(
            [(p.far, p.near) for p in qos.pairs], None, gains, rates, rates
        )
        assert total_qos < total_channel
        adaptive = adaptive_pairing(rates, rates, gains, noise_power=PZ)
        assert adaptive.method == "adaptive:qos"
        assert adaptive.pairs == qos.pairs
        assert adaptive.min_total_power == pytest.approx(total_qos, rel=1e-12)

    def test_menu_minimum_follows_the_guarded_comparison(self):
        # distinct pairings can tie mathematically (identical rate profiles
        # make partner swaps cost-neutral); the tie guard must then pick the
        # channel pairing, never losing more than rounding noise
        rng = np.random.default_rng(512)
        for _ in range(300):
            n = int(rng.integers(4, 17))
            gains = rng.uniform(1e-7, 1e-5, n)
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
            if adaptive.method == "adaptive:channel":
                assert adaptive.min_total_power == total_channel
                assert total_channel <= total_qos * (1.0 + 1e-12)
            else:
                assert adaptive.min_total_power == total_qos
                assert total_qos < total_channel
            assert adaptive.min_total_power <= min(total_channel, total_qos) * (1.0 + 1e-12)

    def test_never_below_the_exhaustive_optimum(self):
        # the two-option menu can only match or exceed the best of all
        # (2N-1)!! matchings; checked exhaustively up to 8 users
        rng = np.random.default_rng(77)
        for n in (4, 6, 8):
            for _ in range(20):
                gains = rng.uniform(1e-7, 1e-5, n)
                rates = rng.choice([0.5, 1.0, 2.0, 4.0], n)
                adaptive = adaptive_pairing(rates, rates, gains, noise_power=PZ)
                best = min(
                    oracle_total(
                        [
                            ((a, b) if gains[a] <= gains[b] else (b, a))
                            for a, b in matching
                        ],
                        None, gains, rates, rates,
                    )
                    for matching in all_matchings(list(range(n)))
                )
                assert adaptive.min_total_power >= best * (1.0 - 1e-12)


class TestOptimalPairing:
    """How far the engine's pairings are from the best pairing of a trial."""

    def test_the_subset_program_finds_the_exhaustive_optimum(self):
        # every way to pair the users, one left alone when their count is odd
        rng = np.random.default_rng(9)
        for n in range(2, 9):
            for _ in range(12):
                gains = rng.uniform(1e-7, 1e-5, n)
                rates_dl, rates_ul = rng.choice([0.5, 1.0, 2.0, 4.0], (2, n))
                exhaustive = min(
                    oracle_total([sorted(pair, key=lambda k: (gains[k], k)) for pair in matching],
                                 alone, gains, rates_dl, rates_ul)
                    for alone in (range(n) if n % 2 else [None])
                    for matching in all_matchings([k for k in range(n) if k != alone])
                )
                assert optimal_total(gains, rates_dl, rates_ul) == pytest.approx(exhaustive,
                                                                                  rel=1e-12)

    @pytest.mark.parametrize("num_users", [5, 8, 11])
    def test_no_engine_pairing_needs_less_than_the_optimum(self, num_users):
        config = ScenarioConfig(num_users=num_users, trials=10, seed=2024,
                                qos_set=(1.0, 2.0, 3.0, 4.0), strategies=(Strategy.OPA,),
                                pairings=PAIRING_METHODS)
        for trial in range(config.trials):
            users = sample_users(config, trial)
            best = optimal_total(*trial_population(config, users))
            cells = evaluate_population(config, users)
            for pairing in PAIRING_METHODS:
                assert cells[("opa", pairing)].total_power >= best * (1.0 - 1e-12), (trial,
                                                                                     pairing)

    @pytest.mark.parametrize("num_users", [6, 10])
    def test_with_one_rate_channel_pairing_is_the_optimum(self, num_users):
        # the claim behind criterion 6's collapse to channel pairing
        config = ScenarioConfig(num_users=num_users, trials=10, seed=7, qos_set=(1.0,),
                                strategies=(Strategy.OPA,), pairings=("channel",))
        for trial in range(config.trials):
            users = sample_users(config, trial)
            best = optimal_total(*trial_population(config, users))
            total = evaluate_population(config, users)[("opa", "channel")].total_power
            assert total == pytest.approx(best, rel=1e-9), trial
