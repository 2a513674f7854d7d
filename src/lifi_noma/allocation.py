"""QoS-guaranteed minimum-power allocation for two-user NOMA pairs.

Every user states a required spectral efficiency per link; the allocator
returns the smallest electrical transmit powers that meet all requirements
under power-domain superposition with successive interference cancellation
(SIC). Four strategies are covered:

* ``OPA``   -- closed-form optimum under the optimal decoding orders,
* ``GRPA``  -- gain-ratio power split ``alpha = (h_far / h_near)^2``,
* ``NGDPA`` -- normalized-gain-difference split ``alpha = (h_near - h_far) / h_near``,
* ``OMA``   -- orthogonal baseline carrying the combined rate per user.

Rates are in bit/s/Hz, powers in the same relative electrical units as the
noise power. All functions are pure; they can be called concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .channel import _plain_reals

__all__ = [
    "Strategy",
    "QosRates",
    "UserPair",
    "PowerAllocationSet",
    "PowerLimits",
    "InfeasibleAllocationError",
    "downlink_power_requirements",
    "uplink_power_requirements",
    "opa_set",
    "channel_ratio",
    "channel_based_allocation",
    "oma_allocation",
    "single_user_allocation",
    "allocate",
    "downlink_achievable_rates",
    "uplink_achievable_rates",
]


class InfeasibleAllocationError(Exception):
    """The QoS targets cannot be met with any finite transmit power.

    Raised for zero channel gains (device outside the receiver FOV) and for
    degenerate channel-based splits with a zero power ratio.
    Outage accounting treats the affected users as outages.
    """


class Strategy(Enum):
    """Power-allocation strategy selector."""

    OPA = "opa"
    GRPA = "grpa"
    NGDPA = "ngdpa"
    OMA = "oma"


@dataclass(frozen=True)
class QosRates:
    """Per-user rate requirements, bit/s/Hz, one value per link."""

    downlink: float
    uplink: float

    def __post_init__(self) -> None:
        if problems := _plain_reals(self, vars(self)):
            raise ValueError("; ".join(problems))
        _check_rates(**vars(self))


@dataclass(frozen=True)
class UserPair:
    """Ordered (far, near) pair with the two users' channel gains.

    ``far`` and ``near`` are caller-side user references (indices in the
    population arrays). Downlink and uplink share one front end, so each
    user has one gain for both links; the far member's must not exceed the
    near member's.
    """

    far: int
    near: int
    h_far: float
    h_near: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.h_far <= self.h_near:  # also rejects NaN
            raise ValueError(f"need 0 <= h_far <= h_near, got ({self.h_far}, {self.h_near})")


@dataclass(frozen=True)
class PowerAllocationSet:
    """The four per-pair transmit powers (far/near times downlink/uplink)."""

    far_dl: float
    near_dl: float
    far_ul: float
    near_ul: float

    @property
    def total(self) -> float:
        return self.far_dl + self.near_dl + self.far_ul + self.near_ul


@dataclass(frozen=True)
class PowerLimits:
    """Transmit-power caps: total at the access point, per device uplink."""

    max_total_dl: float = math.inf
    max_per_user_ul: float = math.inf

    def __post_init__(self) -> None:
        problems = _plain_reals(self, vars(self)) or [
            f"{name} must be positive (inf for no cap), got {value}"
            for name, value in vars(self).items()
            if not value > 0.0  # also rejects NaN
        ]
        if problems:
            raise ValueError("invalid power limits: " + "; ".join(problems))


# Rates from here on overflow the OMA factor 2^(2 R_far) * 2^(2 R_near):
# below it each factor is below 2^512, so their product stays a float.
MAX_RATE = 256.0


def _check_rates(**rates: float) -> None:
    for name, value in rates.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 <= value < MAX_RATE:
            raise ValueError(f"{name} must lie in [0, {MAX_RATE:g}), got {value}")


def _rate_factor(rate: float) -> float:
    # SINR threshold 2^(2R); the factor 2 in the exponent comes from the
    # Hermitian-symmetry constraint of intensity modulation.
    return 2.0 ** (2.0 * rate)


def _rate(signal: float, interference: float) -> float:
    # the rate that meets the SINR threshold exactly: the inverse of _rate_factor
    return 0.5 * math.log2(signal / interference)


def _per_square(demand: float, h: float) -> float:
    # demand / h^2 as IEEE floats, as the batched engine computes it: a gain
    # whose square underflows to 0 needs unbounded power (demand > 0), where
    # Python's float division would raise
    square = h * h
    return demand / square if square else math.inf


def _check_inputs(noise_power: float, *gains: float) -> None:
    if not noise_power > 0.0:  # also rejects NaN
        raise ValueError(f"noise power must be positive, got {noise_power}")
    if not all(h >= 0.0 for h in gains):  # also rejects NaN
        raise ValueError(f"gains must be >= 0, got {gains}")
    if 0.0 in gains:
        raise InfeasibleAllocationError(
            "zero channel gain: the rate target needs unbounded power"
        )


def downlink_power_requirements(
    h_high: float,
    h_low: float,
    rate_high: float,
    rate_low: float,
    noise_power: float,
) -> tuple[float, float]:
    """Minimum downlink powers for one pair under a given priority split.

    The high-priority user is decoded first at both receivers, so its power
    must overcome the low-priority signal plus noise at whichever of the two
    receivers has the weaker gain; the low-priority user is decoded after
    SIC and only fights noise.

    Args:
        h_high, h_low: channel gains of the high/low priority users, > 0.
        rate_high, rate_low: their rate requirements, bit/s/Hz, >= 0.
        noise_power: in-band noise power.

    Returns:
        ``(p_high, p_low)`` at the feasibility boundary (equality powers).

    Raises:
        InfeasibleAllocationError: if either gain is zero.
    """
    _check_rates(rate_high=rate_high, rate_low=rate_low)
    _check_inputs(noise_power, h_high, h_low)
    h_min = min(h_high, h_low)
    p_low = _per_square(_rate_factor(rate_low) * noise_power, h_low)
    p_high = _rate_factor(rate_high) * (p_low + _per_square(noise_power, h_min))
    return p_high, p_low


def uplink_power_requirements(
    h_high: float,
    h_low: float,
    rate_high: float,
    rate_low: float,
    noise_power: float,
) -> tuple[float, float]:
    """Minimum uplink powers for one pair under a given priority split.

    The access point decodes the high-priority signal first against the
    low-priority interference, removes it by SIC, then decodes the
    low-priority signal against noise alone.

    Args and returns as in :func:`downlink_power_requirements`.
    """
    _check_rates(rate_high=rate_high, rate_low=rate_low)
    _check_inputs(noise_power, h_high, h_low)
    p_low = _per_square(_rate_factor(rate_low) * noise_power, h_low)
    p_high = _per_square(
        _rate_factor(rate_high) * (1.0 + _rate_factor(rate_low)) * noise_power, h_high
    )
    return p_high, p_low


def opa_set(
    pair: UserPair,
    qos_far: QosRates,
    qos_near: QosRates,
    noise_power: float,
) -> PowerAllocationSet:
    """Closed-form minimum-power allocation for one pair (the optimum).

    Composes the per-link equality powers under the optimal decoding orders;
    each of the four powers is the smallest value meeting its user's rate.
    """
    p_far_dl, p_near_dl = downlink_power_requirements(
        pair.h_far, pair.h_near, qos_far.downlink, qos_near.downlink, noise_power
    )
    p_near_ul, p_far_ul = uplink_power_requirements(
        pair.h_near, pair.h_far, qos_near.uplink, qos_far.uplink, noise_power
    )
    return PowerAllocationSet(p_far_dl, p_near_dl, p_far_ul, p_near_ul)


def channel_ratio(strategy: Strategy, h_far: float, h_near: float) -> float:
    """Near-to-far power ratio prescribed by a channel-based strategy.

    GRPA uses ``(h_far / h_near)^2``; NGDPA uses ``(h_near - h_far) / h_near``.
    Equal gains make the NGDPA ratio 0, which is degenerate: an allocation
    with it is infeasible.

    Raises:
        ValueError: unless ``0 < h_far <= h_near`` and the strategy is one of
            GRPA / NGDPA.
    """
    if not 0.0 < h_far <= h_near:
        raise ValueError(f"need 0 < h_far <= h_near, got ({h_far}, {h_near})")
    if strategy is Strategy.GRPA:
        ratio = h_far / h_near
        return ratio * ratio
    if strategy is Strategy.NGDPA:
        return (h_near - h_far) / h_near
    raise ValueError(f"no channel ratio defined for strategy {strategy}")


def _scaled_link_allocation(
    alpha: float, p_far_opt: float, p_near_opt: float
) -> tuple[float, float]:
    # Keep the prescribed ratio while meeting both equality powers: scale the
    # near power up when alpha allows it, otherwise scale the far power up.
    # A ratio of 0 reaches no positive near power (0 * inf when the far
    # power overflows).
    if alpha == 0.0:
        raise InfeasibleAllocationError(
            "degenerate power ratio 0 cannot reach the near user's minimum power"
        )
    if alpha >= p_near_opt / p_far_opt:
        return p_far_opt, alpha * p_far_opt
    return p_near_opt / alpha, p_near_opt


def channel_based_allocation(
    strategy: Strategy,
    pair: UserPair,
    qos_far: QosRates,
    qos_near: QosRates,
    noise_power: float,
) -> PowerAllocationSet:
    """Minimum-power allocation that respects a fixed near/far power ratio.

    Per link, the optimum pair of powers is inflated just enough to satisfy
    the strategy's ratio, so every component is >= its optimal counterpart.

    Raises:
        InfeasibleAllocationError: zero gains, or a ratio of 0 (NGDPA on
            equal gains).
    """
    optimum = opa_set(pair, qos_far, qos_near, noise_power)
    alpha = channel_ratio(strategy, pair.h_far, pair.h_near)
    far_dl, near_dl = _scaled_link_allocation(alpha, optimum.far_dl, optimum.near_dl)
    far_ul, near_ul = _scaled_link_allocation(alpha, optimum.far_ul, optimum.near_ul)
    return PowerAllocationSet(far_dl, near_dl, far_ul, near_ul)


def oma_allocation(
    pair: UserPair,
    qos_far: QosRates,
    qos_near: QosRates,
    noise_power: float,
) -> PowerAllocationSet:
    """Minimum powers under orthogonal access.

    Splitting the band/time between the two users means each must carry the
    pair's combined rate over its own interference-free channel, so both
    powers per link scale with ``2^(2 (R_far + R_near))``. That factor is
    taken as the product ``2^(2 R_far) * 2^(2 R_near)`` of the per-user
    factors: rounding ``R_far + R_near`` inside the exponent would cost up
    to hundreds of ulp near :data:`MAX_RATE`, the product at most a few.
    """
    _check_inputs(noise_power, pair.h_far, pair.h_near)
    demand_dl = _rate_factor(qos_far.downlink) * _rate_factor(qos_near.downlink) * noise_power
    demand_ul = _rate_factor(qos_far.uplink) * _rate_factor(qos_near.uplink) * noise_power
    return PowerAllocationSet(
        _per_square(demand_dl, pair.h_far),
        _per_square(demand_dl, pair.h_near),
        _per_square(demand_ul, pair.h_far),
        _per_square(demand_ul, pair.h_near),
    )


def single_user_allocation(h: float, qos: QosRates, noise_power: float) -> tuple[float, float]:
    """Minimum ``(downlink, uplink)`` powers for a standalone (unpaired) user.

    An odd user left over by pairing gets its own band, so it only fights
    noise: ``p = 2^(2R) Pz / h^2`` per link, with the user's one gain ``h``.
    """
    _check_inputs(noise_power, h)
    return (
        _per_square(_rate_factor(qos.downlink) * noise_power, h),
        _per_square(_rate_factor(qos.uplink) * noise_power, h),
    )


def allocate(
    strategy: Strategy,
    pair: UserPair,
    qos_far: QosRates,
    qos_near: QosRates,
    noise_power: float,
) -> PowerAllocationSet:
    """Dispatch to the requested strategy's minimum-power allocation."""
    if strategy is Strategy.OPA:
        return opa_set(pair, qos_far, qos_near, noise_power)
    if strategy in (Strategy.GRPA, Strategy.NGDPA):
        return channel_based_allocation(strategy, pair, qos_far, qos_near, noise_power)
    if strategy is Strategy.OMA:
        return oma_allocation(pair, qos_far, qos_near, noise_power)
    raise ValueError(f"unknown strategy {strategy}")


def downlink_achievable_rates(
    h_high: float,
    h_low: float,
    p_high: float,
    p_low: float,
    noise_power: float,
) -> tuple[float, float, float]:
    """Achievable downlink rates of a pair for given powers.

    Returns:
        ``(r_high, r_low, r_cross)`` in bit/s/Hz: the high-priority user's
        own rate, the low-priority user's post-SIC rate, and the rate at
        which the low-priority receiver can decode the high-priority signal.
        The high-priority user's guaranteed rate is ``min(r_high, r_cross)``.
    """
    r_high = _rate(h_high * h_high * p_high, h_high * h_high * p_low + noise_power)
    r_low = _rate(h_low * h_low * p_low, noise_power)
    r_cross = _rate(h_low * h_low * p_high, h_low * h_low * p_low + noise_power)
    return r_high, r_low, r_cross


def uplink_achievable_rates(
    h_high: float,
    h_low: float,
    p_high: float,
    p_low: float,
    noise_power: float,
) -> tuple[float, float]:
    """Achievable uplink rates of a pair for given powers.

    The access point decodes the high-priority signal against the
    low-priority one, then the low-priority signal against noise alone.
    """
    r_high = _rate(h_high * h_high * p_high, h_low * h_low * p_low + noise_power)
    r_low = _rate(h_low * h_low * p_low, noise_power)
    return r_high, r_low
