"""User outage probability per link, the scalar reference of the engine.

Downlink users go out when the access point cannot carry everyone below its
total-power cap (highest-power users are shed first); uplink users go out
individually when their own required power exceeds the per-device cap.
Powers of ``inf`` mark users whose allocation was infeasible; they always
count as outages.
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


def downlink_uop(powers: Sequence[float], max_total_power: float) -> LinkOutage:
    """Downlink outage from the access point's total-power cap.

    Sort the per-user powers in descending order and walk the tail sums:
    position k is in outage when its power plus all smaller ones still
    exceeds the cap. Equivalently, the highest-power users are shed one by
    one until the remainder fits.
    """
    if not len(powers):
        return LinkOutage(0, 0.0)
    ordered = sorted((float(p) for p in powers), reverse=True)
    k_out = 0
    tail = 0.0
    for p in reversed(ordered):  # accumulate the tail from the smallest power up
        tail += p
        # infeasible (infinite) demands are outages even under an infinite cap
        if tail > max_total_power or math.isinf(tail):
            k_out += 1
    return LinkOutage(k_out, k_out / len(ordered))


def uplink_uop(powers: Sequence[float], max_user_power: float) -> LinkOutage:
    """Uplink outage: users whose own power demand strictly exceeds the cap."""
    if not len(powers):
        return LinkOutage(0, 0.0)
    k_out = sum(1 for p in powers if float(p) > max_user_power or math.isinf(float(p)))
    return LinkOutage(k_out, k_out / len(powers))


def downlink_outage_mask(powers: Sequence[float], max_total_power: float) -> np.ndarray:
    """Boolean mask of the downlink users shed by the cap.

    One sort, heaviest first with ties toward the lower index; the tail sums
    are walked from the smallest power up as in :func:`downlink_uop`, so the
    shed set is its ``k_out`` highest-power users.
    """
    order = sorted(range(len(powers)), key=lambda i: (-float(powers[i]), i))
    mask = np.zeros(len(powers), dtype=bool)
    tail = 0.0
    for i in reversed(order):
        tail += float(powers[i])
        mask[i] = tail > max_total_power or math.isinf(tail)
    return mask


def uplink_outage_mask(powers: Sequence[float], max_user_power: float) -> np.ndarray:
    return np.asarray(
        [float(p) > max_user_power or math.isinf(float(p)) for p in powers], dtype=bool
    )
