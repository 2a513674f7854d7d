"""User outage probability per link, the scalar reference of the engine.

Downlink users go out when the access point cannot carry everyone below its
total-power cap (highest-power users are shed first); uplink users go out
individually when their own required power exceeds the per-device cap.
Powers of ``inf`` mark users whose allocation was infeasible; they always
count as outages. A NaN or negative power, or a NaN cap, is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "LinkOutage",
    "downlink_uop",
    "uplink_uop",
    "downlink_outage_mask",
    "uplink_outage_mask",
]


@dataclass(frozen=True)
class LinkOutage:
    """Outage count and probability for one link."""

    k_out: int
    uop: float


def _link_outage(mask: np.ndarray) -> LinkOutage:
    k_out = int(mask.sum())
    return LinkOutage(k_out, k_out / len(mask) if len(mask) else 0.0)


def _checked(powers: Sequence[float], cap: float) -> list[float]:
    powers = list(map(float, powers))
    if math.isnan(cap) or not all(map((0.0).__le__, powers)):  # 0 <= NaN is false too
        raise ValueError(f"powers must be >= 0 and the cap not NaN, got {powers}, {cap}")
    return powers


def downlink_uop(powers: Sequence[float], max_total_power: float) -> LinkOutage:
    """Downlink outage from the access point's total-power cap: the users
    :func:`downlink_outage_mask` sheds."""
    return _link_outage(downlink_outage_mask(powers, max_total_power))


def uplink_uop(powers: Sequence[float], max_user_power: float) -> LinkOutage:
    """Uplink outage: users whose own power demand strictly exceeds the cap."""
    return _link_outage(uplink_outage_mask(powers, max_user_power))


def downlink_outage_mask(powers: Sequence[float], max_total_power: float) -> np.ndarray:
    """Boolean mask of the downlink users shed by the cap.

    Sort the per-user powers heaviest first, ties toward the lower index, and
    walk the tail sums from the smallest power up: a user is shed when its
    power plus all smaller ones still exceeds the cap. Equivalently, the
    highest-power users are shed one by one until the remainder fits.
    """
    powers = _checked(powers, max_total_power)
    order = sorted(range(len(powers)), key=powers.__getitem__, reverse=True)  # stable
    mask = np.zeros(len(powers), dtype=bool)
    tail = 0.0
    for i in reversed(order):
        tail += powers[i]
        # infeasible (infinite) demands are outages even under an infinite cap
        mask[i] = tail > max_total_power or math.isinf(tail)
    return mask


def uplink_outage_mask(powers: Sequence[float], max_user_power: float) -> np.ndarray:
    powers = _checked(powers, max_user_power)
    return np.asarray([p > max_user_power or math.isinf(p) for p in powers], dtype=bool)
