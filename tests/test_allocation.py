"""Minimum-power allocations: frozen closed-form values, decoding-order
optimality, dominance and rate-closure properties."""


import dataclasses
import decimal
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifi_noma import (
    InfeasibleAllocationError,
    QosRates,
    ScenarioConfig,
    Strategy,
    UserPair,
    allocate,
    channel_based_allocation,
    oma_allocation,
    opa_set,
    single_user_allocation,
    UserNode,
    UserPosition,
    evaluate_population,
)
from lifi_noma import allocation, simulation
from lifi_noma.allocation import (
    MAX_RATE,
    channel_ratio,
    downlink_achievable_rates,
    downlink_power_requirements,
    uplink_achievable_rates,
    _scaled_link_allocation,
    uplink_power_requirements,
)

PZ = 2e-15
REL = 1e-12

# Reference two-user geometry: both 2.5 m below the AP, near user on the
# axis, far user 1.5 m off. Gains and the resulting minima are frozen from
# a 50-digit evaluation of the closed forms.
H_FAR = 2.195095822927715e-06
H_NEAR = 3.8450220735972906e-06

GOLDEN_OPA = (
    0.003824760090110212,    # far downlink
    0.0005411184130891369,   # near downlink
    0.0016602864377536643,   # far uplink
    0.0027055920654456847,   # near uplink
)
GOLDEN_OPA_TOTAL = 0.008731757006398698
GOLDEN_ALPHA_GRPA = 0.3259187094374268
GOLDEN_ALPHA_NGDPA = 0.4291070945987971
GOLDEN_NGDPA = (
    0.003824760090110212,
    0.0016412316898046265,
    0.006305167403431855,
    0.0027055920654456847,
)
GOLDEN_NGDPA_TOTAL = 0.014476751248792378
GOLDEN_GRPA_TOTAL = 0.016078345216800715
GOLDEN_OMA = (
    0.006641145751014657,
    0.0021644736523565477,
    0.006641145751014657,
    0.0021644736523565477,
)
GOLDEN_OMA_TOTAL = 0.01761123880674241


def golden_pair() -> UserPair:
    return UserPair(1, 0, H_FAR, H_NEAR)


def rate_grid():
    return st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])


def gain_pairs():
    # distinct (far, near) gains in the physically plausible range
    return st.tuples(
        st.floats(1e-7, 1e-4), st.floats(1.0000001, 50.0)
    ).map(lambda t: (t[0], t[0] * t[1]))


class TestLinkRequirements:
    def test_downlink_equal_gains_half_rates(self):
        h = 3e-6
        p_high, p_low = downlink_power_requirements(h, h, 0.5, 0.5, PZ)
        assert p_low == pytest.approx(2.0 * PZ / h**2, rel=REL)
        assert p_high == pytest.approx(6.0 * PZ / h**2, rel=REL)

    def test_downlink_zero_low_rate(self):
        p_high, p_low = downlink_power_requirements(3e-6, 2e-6, 1.0, 0.0, PZ)
        assert p_low == PZ / (2e-6) ** 2

    def test_downlink_golden_roles(self):
        # far user is the high-priority one on the downlink
        p_high, p_low = downlink_power_requirements(H_FAR, H_NEAR, 1.0, 1.0, PZ)
        assert p_high == pytest.approx(GOLDEN_OPA[0], rel=REL)
        assert p_low == pytest.approx(GOLDEN_OPA[1], rel=REL)

    def test_uplink_equal_gains_half_rates(self):
        h = 3e-6
        p_high, p_low = uplink_power_requirements(h, h, 0.5, 0.5, PZ)
        assert p_low == pytest.approx(2.0 * PZ / h**2, rel=REL)
        assert p_high == pytest.approx(6.0 * PZ / h**2, rel=REL)

    def test_uplink_zero_high_rate(self):
        h_high, h_low = 3e-6, 2e-6
        p_high, _ = uplink_power_requirements(h_high, h_low, 0.0, 1.5, PZ)
        assert p_high == pytest.approx((1.0 + 2.0**3) * PZ / h_high**2, rel=REL)

    def test_uplink_golden_roles(self):
        # near user is the high-priority one on the uplink
        p_high, p_low = uplink_power_requirements(H_NEAR, H_FAR, 1.0, 1.0, PZ)
        assert p_high == pytest.approx(GOLDEN_OPA[3], rel=REL)
        assert p_low == pytest.approx(GOLDEN_OPA[2], rel=REL)

    @pytest.mark.parametrize("func", [downlink_power_requirements, uplink_power_requirements])
    def test_zero_gain_is_infeasible(self, func):
        with pytest.raises(InfeasibleAllocationError):
            func(0.0, 2e-6, 1.0, 1.0, PZ)
        with pytest.raises(InfeasibleAllocationError):
            func(2e-6, 0.0, 1.0, 1.0, PZ)

    @pytest.mark.parametrize("func", [downlink_power_requirements, uplink_power_requirements])
    def test_invalid_inputs_raise(self, func):
        with pytest.raises(ValueError):
            func(2e-6, 2e-6, -1.0, 1.0, PZ)
        with pytest.raises(ValueError):
            func(2e-6, 2e-6, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            func(-2e-6, 2e-6, 1.0, 1.0, PZ)

    @pytest.mark.parametrize("func", [downlink_power_requirements, uplink_power_requirements])
    def test_rates_past_the_bound_are_refused_by_name(self, func):
        with pytest.raises(ValueError, match="^rate_high must lie in"):
            func(2e-6, 2e-6, MAX_RATE, 1.0, PZ)
        with pytest.raises(ValueError, match="^rate_low must be finite"):
            func(2e-6, 2e-6, 1.0, math.nan, PZ)


def standalone(h, noise_power):
    return single_user_allocation(h, QosRates(1.0, 1.0), noise_power)


def orthogonal(h, noise_power):
    # a duck-typed pair reaches oma_allocation's own check past UserPair's
    pair = SimpleNamespace(far=0, near=1, h_far=h, h_near=max(h, 2e-6))
    return oma_allocation(pair, QosRates(1.0, 1.0), QosRates(1.0, 1.0), noise_power)


class TestInputChecks:
    @pytest.mark.parametrize("func", [standalone, orthogonal])
    @pytest.mark.parametrize("noise_power", [0.0, -PZ, math.nan])
    def test_noise_power_that_is_not_positive_raises(self, func, noise_power):
        with pytest.raises(ValueError, match="noise power"):
            func(1e-6, noise_power)

    @pytest.mark.parametrize("func", [standalone, orthogonal])
    @pytest.mark.parametrize("h", [-1e-6, math.nan])
    def test_negative_or_nan_gain_raises(self, func, h):
        with pytest.raises(ValueError, match="must be >= 0"):
            func(h, PZ)

    @pytest.mark.parametrize("func", [standalone, orthogonal])
    def test_zero_gain_is_infeasible(self, func):
        with pytest.raises(InfeasibleAllocationError):
            func(0.0, PZ)


def _order_total_dl(h_far, h_near, r_far, r_near, far_first: bool) -> float:
    if far_first:
        p_high, p_low = downlink_power_requirements(h_far, h_near, r_far, r_near, PZ)
    else:
        p_high, p_low = downlink_power_requirements(h_near, h_far, r_near, r_far, PZ)
    return p_high + p_low


def _order_total_ul(h_far, h_near, r_far, r_near, far_first: bool) -> float:
    if far_first:
        p_high, p_low = uplink_power_requirements(h_far, h_near, r_far, r_near, PZ)
    else:
        p_high, p_low = uplink_power_requirements(h_near, h_far, r_near, r_far, PZ)
    return p_high + p_low


class TestDecodingOrders:
    def test_equal_gains_make_orders_tie(self):
        h = 2.5e-6
        assert _order_total_dl(h, h, 1.0, 2.0, True) == pytest.approx(
            _order_total_dl(h, h, 1.0, 2.0, False), rel=REL
        )
        assert _order_total_ul(h, h, 1.0, 2.0, True) == pytest.approx(
            _order_total_ul(h, h, 1.0, 2.0, False), rel=REL
        )

    def test_brute_force_oracle_never_beats_chosen_orders(self):
        # enumerate all four (downlink x uplink) priority assignments
        rng = np.random.default_rng(2024)
        rates = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
        for _ in range(2000):
            h_far, h_near = np.sort(rng.uniform(1e-7, 1e-5, 2))
            r_far, r_near, u_far, u_near = rng.choice(rates, 4)
            best_dl = _order_total_dl(h_far, h_near, r_far, r_near, True)
            best_ul = _order_total_ul(h_far, h_near, u_far, u_near, False)
            for dl_far_first in (True, False):
                for ul_far_first in (True, False):
                    candidate = _order_total_dl(
                        h_far, h_near, r_far, r_near, dl_far_first
                    ) + _order_total_ul(h_far, h_near, u_far, u_near, ul_far_first)
                    assert best_dl + best_ul <= candidate * (1.0 + 1e-12)


class TestOpaSet:
    def test_golden_quadruple(self):
        alloc = opa_set(golden_pair(), QosRates(1.0, 1.0), QosRates(1.0, 1.0), PZ)
        for got, expect in zip(
            (alloc.far_dl, alloc.near_dl, alloc.far_ul, alloc.near_ul), GOLDEN_OPA
        ):
            assert got == pytest.approx(expect, rel=REL)
        assert alloc.total == pytest.approx(GOLDEN_OPA_TOTAL, rel=REL)

    def test_zero_rates_equal_gains_exact(self):
        h = 4e-6
        pair = UserPair(0, 1, h, h)
        alloc = opa_set(pair, QosRates(0.0, 0.0), QosRates(0.0, 0.0), PZ)
        unit = PZ / (h * h)
        assert alloc.far_dl == 2.0 * unit
        assert alloc.near_dl == unit
        assert alloc.far_ul == unit
        assert alloc.near_ul == 2.0 * unit

    @given(gain_pairs(), rate_grid(), rate_grid(), rate_grid(), rate_grid(),
           st.integers(-6, 6))
    def test_scales_linearly_with_noise_power(self, gains, rd_f, rd_n, ru_f, ru_n, k):
        # power-of-two noise scaling keeps the proportionality float-exact
        h_far, h_near = gains
        pair = UserPair(0, 1, h_far, h_near)
        qos_far, qos_near = QosRates(rd_f, ru_f), QosRates(rd_n, ru_n)
        base = opa_set(pair, qos_far, qos_near, PZ)
        scaled = opa_set(pair, qos_far, qos_near, PZ * 2.0**k)
        factor = 2.0**k
        assert scaled.far_dl == base.far_dl * factor
        assert scaled.near_dl == base.near_dl * factor
        assert scaled.far_ul == base.far_ul * factor
        assert scaled.near_ul == base.near_ul * factor


def _lp_vertices(constraints):
    """The vertices of ``x, y >= 0`` and each ``a x + b y >= c``, exactly.

    The sum ``x + y`` is bounded below there, so its minimum sits at a vertex:
    a meeting point of two constraint lines that meets every constraint.
    """
    zero, one = Fraction(0), Fraction(1)
    rows = [*constraints, (one, zero, zero), (zero, one, zero)]
    vertices = []
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(rows, 2):
        if det := a1 * b2 - a2 * b1:
            x, y = (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det
            if all(a * x + b * y >= c for a, b, c in rows):
                vertices.append((x, y))
    return vertices


def _link_constraints(link, first, second, noise):
    """One link's rate constraints on ``(x, y)``, the powers of the users decoded
    first and second; each user is its ``(gain, 2^(2R))``.

    Each decoded signal needs signal >= 2^(2R) * (interference + noise) at every
    receiver that decodes it, and SIC removes the signals decoded before it.
    """
    (g1, f1), (g2, f2) = ((h * h, factor) for h, factor in (first, second))
    if link == "downlink":  # each user's own receiver; the second one decodes both signals
        return [(g1, -f1 * g1, f1 * noise), (g2, -f1 * g2, f1 * noise),
                (0, g2, f2 * noise)]
    # the access point, which receives each signal through its sender's gain
    return [(g1, -f1 * g2, f1 * noise), (0, g2, f2 * noise)]


def _lp_cases():
    # (h_far, h_near, far (downlink, uplink) rates, near rates), fixed before any run:
    # a seeded draw, equal gains, rate 0 and rates whose 2^(2R) is no power of two
    rates = [0.0, 0.25, 1.0, 2.5, 3.0]
    rng = np.random.default_rng(2026)
    cases = [(*sorted(map(float, rng.uniform(1e-7, 1e-5, 2))),
              tuple(map(float, rng.choice(rates, 2))), tuple(map(float, rng.choice(rates, 2))))
             for _ in range(300)]
    for h in (H_FAR, H_NEAR, 4e-6):
        cases += [(h, h, far, near) for far, near in itertools.product(
            [(0.0, 0.0), (0.25, 1.0), (2.5, 0.25)], repeat=2)]
    return cases + [(H_FAR, H_NEAR, (0.0, 0.0), (0.0, 0.0)),
                    (H_FAR, H_NEAR, (0.25, 0.25), (0.25, 0.25)),
                    (H_FAR, H_NEAR, (0.0, 0.25), (0.25, 0.0))]


class _ExactFactor(Fraction):
    """A factor 2^(2R) as a Fraction that keeps ``1.0 + factor`` exact too."""

    def __radd__(self, other):
        return Fraction(other) + Fraction(self)


class TestOpaLinearProgram:
    def test_closed_form_is_the_exact_optimum_of_both_decoding_orders(self, monkeypatch):
        # opa_set itself, in Fractions: exact gains and noise, and the exact value of
        # each float factor 2^(2R) the engine computes
        float_factor = allocation._rate_factor
        monkeypatch.setattr(allocation, "_rate_factor", lambda r: _ExactFactor(float_factor(r)))
        noise = Fraction(PZ)
        for h_far, h_near, far, near in _lp_cases():
            gains = Fraction(h_far), Fraction(h_near)
            closed = opa_set(UserPair(0, 1, *gains), QosRates(*far), QosRates(*near), noise)
            links = {"downlink": (closed.far_dl, closed.near_dl),
                     "uplink": (closed.far_ul, closed.near_ul)}
            for k, (link, powers) in enumerate(links.items()):
                assert all(type(p) is Fraction for p in powers)
                users = [(g, Fraction(float_factor(rate[k]))) for g, rate in
                         zip(gains, (far, near))]
                # (far, near) power vertices of both decoding orders
                vertices = _lp_vertices(_link_constraints(link, *users, noise)) + [
                    (y, x) for x, y in _lp_vertices(_link_constraints(link, *users[::-1], noise))]
                best = min(x + y for x, y in vertices)
                case = (link, h_far, h_near, far, near)
                assert sum(powers) == best, case
                assert powers in vertices, case


class TestChannelRatio:
    def test_grpa_equal_gains(self):
        assert channel_ratio(Strategy.GRPA, 2e-6, 2e-6) == 1.0

    def test_golden_ratios(self):
        assert channel_ratio(Strategy.GRPA, H_FAR, H_NEAR) == pytest.approx(
            GOLDEN_ALPHA_GRPA, rel=REL
        )
        assert channel_ratio(Strategy.NGDPA, H_FAR, H_NEAR) == pytest.approx(
            GOLDEN_ALPHA_NGDPA, rel=REL
        )

    def test_ngdpa_vanishing_far_gain_approaches_one(self):
        assert channel_ratio(Strategy.NGDPA, 1e-30, 1e-6) == pytest.approx(1.0, rel=1e-9)

    def test_ngdpa_equal_gains_degenerate_zero(self):
        assert channel_ratio(Strategy.NGDPA, 2e-6, 2e-6) == 0.0

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            channel_ratio(Strategy.GRPA, 0.0, 1e-6)
        with pytest.raises(ValueError):
            channel_ratio(Strategy.GRPA, 2e-6, 1e-6)
        with pytest.raises(ValueError):
            channel_ratio(Strategy.OPA, 1e-6, 2e-6)


class TestChannelBasedAllocation:
    def test_ngdpa_golden(self):
        alloc = channel_based_allocation(
            Strategy.NGDPA, golden_pair(), QosRates(1.0, 1.0), QosRates(1.0, 1.0), PZ
        )
        for got, expect in zip(
            (alloc.far_dl, alloc.near_dl, alloc.far_ul, alloc.near_ul), GOLDEN_NGDPA
        ):
            assert got == pytest.approx(expect, rel=REL)
        assert alloc.total == pytest.approx(GOLDEN_NGDPA_TOTAL, rel=REL)

    def test_grpa_golden_total(self):
        alloc = channel_based_allocation(
            Strategy.GRPA, golden_pair(), QosRates(1.0, 1.0), QosRates(1.0, 1.0), PZ
        )
        assert alloc.total == pytest.approx(GOLDEN_GRPA_TOTAL, rel=REL)

    def test_boundary_ratio_reduces_to_optimum(self):
        # with alpha exactly at the optimal near/far ratio both branches agree
        p_far, p_near = 2.0e-3, 5.0e-4
        got = _scaled_link_allocation(p_near / p_far, p_far, p_near)
        assert got[0] == pytest.approx(p_far, rel=1e-15)
        assert got[1] == pytest.approx(p_near, rel=1e-15)

    def test_degenerate_zero_ratio_is_infeasible(self):
        h = 2e-6
        pair = UserPair(0, 1, h, h)
        with pytest.raises(InfeasibleAllocationError):
            channel_based_allocation(
                Strategy.NGDPA, pair, QosRates(1.0, 1.0), QosRates(1.0, 1.0), PZ
            )

    @given(gain_pairs(), rate_grid(), rate_grid(), rate_grid(), rate_grid(),
           st.sampled_from([Strategy.GRPA, Strategy.NGDPA]))
    @settings(max_examples=200)
    def test_never_undercuts_the_optimum(self, gains, rd_f, rd_n, ru_f, ru_n, strategy):
        h_far, h_near = gains
        pair = UserPair(0, 1, h_far, h_near)
        qos_far, qos_near = QosRates(rd_f, ru_f), QosRates(rd_n, ru_n)
        optimum = opa_set(pair, qos_far, qos_near, PZ)
        baseline = channel_based_allocation(strategy, pair, qos_far, qos_near, PZ)
        slack = 1.0 + 1e-12
        assert baseline.far_dl * slack >= optimum.far_dl
        assert baseline.near_dl * slack >= optimum.near_dl
        assert baseline.far_ul * slack >= optimum.far_ul
        assert baseline.near_ul * slack >= optimum.near_ul


class TestOmaAllocation:
    def test_golden(self):
        alloc = oma_allocation(golden_pair(), QosRates(1.0, 1.0), QosRates(1.0, 1.0), PZ)
        for got, expect in zip(
            (alloc.far_dl, alloc.near_dl, alloc.far_ul, alloc.near_ul), GOLDEN_OMA
        ):
            assert got == pytest.approx(expect, rel=REL)
        assert alloc.total == pytest.approx(GOLDEN_OMA_TOTAL, rel=REL)

    def test_zero_rates_cost_noise_floor(self):
        h_far, h_near = 1e-6, 2e-6
        pair = UserPair(0, 1, h_far, h_near)
        alloc = oma_allocation(pair, QosRates(0.0, 0.0), QosRates(0.0, 0.0), PZ)
        assert alloc.far_dl == PZ / h_far**2
        assert alloc.near_dl == PZ / h_near**2

    def test_symmetric_pair_equal_components(self):
        h = 3e-6
        pair = UserPair(0, 1, h, h)
        alloc = oma_allocation(pair, QosRates(0.5, 0.5), QosRates(0.5, 0.5), PZ)
        expected = 4.0 * PZ / (h * h)  # combined rate 1 -> factor 2^2
        for component in (alloc.far_dl, alloc.near_dl, alloc.far_ul, alloc.near_ul):
            assert component == expected

    def test_colocated_pair_still_loses_to_the_optimum(self):
        # equal gains, unit rates: 48 vs 64 noise-floor units
        h = 3e-6
        pair = UserPair(0, 1, h, h)
        qos = QosRates(1.0, 1.0)
        assert opa_set(pair, qos, qos, PZ).total < oma_allocation(pair, qos, qos, PZ).total

    @given(gain_pairs(),
           st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]),
           st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]),
           st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]),
           st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]))
    @settings(max_examples=200)
    def test_never_cheaper_than_noma_optimum(self, gains, rd_f, rd_n, ru_f, ru_n):
        # holds whenever every rate is at least 1/2 bit/s/Hz
        h_far, h_near = gains
        pair = UserPair(0, 1, h_far, h_near)
        qos_far, qos_near = QosRates(rd_f, ru_f), QosRates(rd_n, ru_n)
        noma = opa_set(pair, qos_far, qos_near, PZ).total
        oma = oma_allocation(pair, qos_far, qos_near, PZ).total
        assert oma - noma >= -1e-12 * oma

    def test_factor_is_the_product_of_the_users_factors(self):
        # 2^(2 (a + b)) as 2^(2a) * 2^(2b) stays within 3 ulp of exact (a
        # product of two rounded powers); it drifts from the sum form
        # 2 ** (2 (a + b)), which rounds a + b inside the exponent, by at most
        # a relative 1e-13
        rng = np.random.default_rng(19)
        rates = np.concatenate((rng.uniform(0.0, 8.0, (600, 2)),
                                rng.uniform(0.0, MAX_RATE, (600, 2))))
        pair = UserPair(0, 1, 1.0, 1.0)
        with decimal.localcontext() as context:
            context.prec = 60
            for a, b in rates.tolist():
                factor = oma_allocation(pair, QosRates(a, b), QosRates(b, a), 1.0).far_dl
                exact = decimal.Decimal(2) ** (2 * (decimal.Decimal(a) + decimal.Decimal(b)))
                ulps = abs(decimal.Decimal(factor) - exact) / decimal.Decimal(math.ulp(factor))
                assert ulps <= 3, (a, b, float(ulps))
                assert factor == pytest.approx(2.0 ** (2.0 * (a + b)), rel=1e-13, abs=0.0)


def system_total(positions) -> float:
    """The engine's OPA total of a channel-paired population at unit rates."""
    users = [UserNode(UserPosition(*p), QosRates(1.0, 1.0)) for p in positions]
    config = ScenarioConfig(num_users=len(users), trials=1, pairings=("channel",),
                            strategies=(Strategy.OPA,))
    return evaluate_population(config, users)[("opa", "channel")].total_power


class TestTotals:
    # the golden pair is the users at (2.5 m, 1.5 m) and (2.5 m, 0 m)
    def test_single_pair(self):
        assert system_total([(2.5, 0.0), (2.5, 1.5)]) == pytest.approx(GOLDEN_OPA_TOTAL, rel=REL)

    def test_two_identical_pairs_double(self):
        pair = [(2.5, 0.0), (2.5, 1.5)]
        assert system_total(pair * 2) == 2.0 * system_total(pair)


class TestSingleUserAllocation:
    def test_noise_floor_at_zero_rate(self):
        p_dl, p_ul = single_user_allocation(2e-6, QosRates(0.0, 0.0), PZ)
        assert p_dl == PZ / (2e-6) ** 2
        assert p_ul == PZ / (2e-6) ** 2

    def test_rate_factor(self):
        p_dl, p_ul = single_user_allocation(2e-6, QosRates(1.0, 2.0), PZ)
        assert p_dl == pytest.approx(4.0 * PZ / (2e-6) ** 2, rel=REL)
        assert p_ul == pytest.approx(16.0 * PZ / (2e-6) ** 2, rel=REL)

    def test_zero_gain_is_infeasible(self):
        with pytest.raises(InfeasibleAllocationError):
            single_user_allocation(0.0, QosRates(1.0, 1.0), PZ)


class TestRateClosure:
    def test_golden_point_binds(self):
        alloc = opa_set(golden_pair(), QosRates(1.0, 1.0), QosRates(1.0, 1.0), PZ)
        r_far, r_near, r_cross = downlink_achievable_rates(
            H_FAR, H_NEAR, alloc.far_dl, alloc.near_dl, PZ
        )
        assert r_far == pytest.approx(1.0, rel=1e-9)
        assert r_near == pytest.approx(1.0, rel=1e-9)
        assert min(r_far, r_cross) >= 1.0 - 1e-9
        u_near, u_far = uplink_achievable_rates(
            H_NEAR, H_FAR, alloc.near_ul, alloc.far_ul, PZ
        )
        assert u_near == pytest.approx(1.0, rel=1e-9)
        assert u_far == pytest.approx(1.0, rel=1e-9)

    @given(gain_pairs(), rate_grid(), rate_grid(), rate_grid(), rate_grid())
    @settings(max_examples=200)
    def test_optimal_powers_achieve_exactly_the_requests(self, gains, rd_f, rd_n, ru_f, ru_n):
        h_far, h_near = gains
        pair = UserPair(0, 1, h_far, h_near)
        alloc = opa_set(pair, QosRates(rd_f, ru_f), QosRates(rd_n, ru_n), PZ)
        r_far, r_near, r_cross = downlink_achievable_rates(
            h_far, h_near, alloc.far_dl, alloc.near_dl, PZ
        )
        tol = 1e-9
        assert r_far == pytest.approx(rd_f, rel=tol, abs=tol)
        assert r_near == pytest.approx(rd_n, rel=tol, abs=tol)
        assert min(r_far, r_cross) >= rd_f - tol * max(1.0, rd_f)
        u_near, u_far = uplink_achievable_rates(
            h_near, h_far, alloc.near_ul, alloc.far_ul, PZ
        )
        assert u_near == pytest.approx(ru_n, rel=tol, abs=tol)
        assert u_far == pytest.approx(ru_f, rel=tol, abs=tol)


class TestDispatch:
    def test_allocate_matches_each_strategy(self):
        pair = golden_pair()
        qos = QosRates(1.0, 1.0)
        assert allocate(Strategy.OPA, pair, qos, qos, PZ) == opa_set(pair, qos, qos, PZ)
        assert allocate(Strategy.NGDPA, pair, qos, qos, PZ) == channel_based_allocation(
            Strategy.NGDPA, pair, qos, qos, PZ
        )
        assert allocate(Strategy.OMA, pair, qos, qos, PZ) == oma_allocation(
            pair, qos, qos, PZ
        )

    def test_pair_invariant_enforced(self):
        with pytest.raises(ValueError):
            UserPair(0, 1, 3e-6, 2e-6)

    def test_allocate_refuses_an_unknown_strategy(self):
        qos = QosRates(1.0, 1.0)
        with pytest.raises(ValueError, match="^unknown strategy fdma$"):
            allocate("fdma", golden_pair(), qos, qos, PZ)


class TestQosRates:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["downlink", "uplink"])
    def test_rejects_a_non_finite_rate_by_name(self, name, value):
        rates = {"downlink": 1.0, "uplink": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            QosRates(**rates)

    def test_rejects_a_rate_at_the_bound_by_name(self):
        assert simulation.MAX_RATE is MAX_RATE
        with pytest.raises(ValueError, match="downlink"):
            QosRates(256.0, 1.0)
        for name in ("downlink", "uplink"):
            for value in (MAX_RATE, 600.0, -1.0):
                rates = {"downlink": 1.0, "uplink": 1.0, name: value}
                with pytest.raises(ValueError, match=f"^{name} must lie in \\[0, 256\\)"):
                    QosRates(**rates)

    @pytest.mark.parametrize("value", [True, False, "1", None])
    @pytest.mark.parametrize("name", ["downlink", "uplink"])
    def test_a_bool_or_a_non_real_is_refused_by_name(self, name, value):
        # a bool was once taken as the rate 1 or 0
        rates = {"downlink": 1.0, "uplink": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be real \\(a number, not a bool\\)"):
            QosRates(**rates)

    def test_numpy_reals_are_stored_as_python_numbers(self):
        qos = QosRates(np.float32(1.5), np.int64(2))
        assert qos == QosRates(1.5, 2)
        assert (type(qos.downlink), type(qos.uplink)) == (float, int)

    def test_the_largest_rates_do_not_overflow(self):
        # the OMA factor of two rates just under the bound still fits a float
        top = math.nextafter(MAX_RATE, 0.0)
        qos = QosRates(top, top)
        powers = (*dataclasses.astuple(oma_allocation(UserPair(0, 1, 1e-6, 2e-6), qos, qos, PZ)),
                  *single_user_allocation(1e-6, qos, PZ))
        assert all(p > 0.0 for p in powers)  # inf where a power leaves the float range

    def test_evaluate_population_yields_no_nan(self):
        # a NaN rate made a NaN total power with EE 0 and an infinite one a
        # NaN EE; both are now refused when the rates are built, and the
        # largest rates a scenario allows give no NaN either
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="downlink"):
                UserNode(UserPosition(2.5, 0.0), QosRates(value, 1.0))
        high = 255.0
        users = [UserNode(UserPosition(2.5, 0.0), QosRates(high, 1.0)),
                 UserNode(UserPosition(2.5, 1.5), QosRates(1.0, high)),
                 UserNode(UserPosition(2.5, 1.0), QosRates(high, high))]
        for served_only in (False, True):
            config = ScenarioConfig(num_users=3, trials=1, ee_served_only=served_only,
                                    pairings=("channel", "qos", "adaptive"))
            for cell in evaluate_population(config, users).values():
                values = [cell.sum_rate, cell.total_power, cell.ee, *cell.dl_powers,
                          *cell.ul_powers]
                assert not any(math.isnan(v) for v in values)


class TestUserPair:
    @pytest.mark.parametrize("h_far, h_near", [
        (math.nan, 1e-6),
        (1e-6, math.nan),
        (-1e-6, 1e-6),
        (3e-6, 2e-6),
    ], ids=["nan-far", "nan-near", "negative-far", "far-above-near"])
    def test_rejects_gains_outside_the_pair_order(self, h_far, h_near):
        with pytest.raises(ValueError, match="h_far <= h_near"):
            UserPair(0, 1, h_far, h_near)

    def test_holds_one_gain_per_user(self):
        pair = UserPair(0, 1, 0.0, 0.0)
        assert (pair.h_far, pair.h_near) == (0.0, 0.0)
        assert [f.name for f in dataclasses.fields(UserPair)] == ["far", "near", "h_far", "h_near"]
