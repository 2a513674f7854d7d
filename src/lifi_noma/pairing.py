"""User pairing: partition a population into two-user NOMA pairs.

Three approaches: sort by channel gain (pair the i-th weakest with the i-th
strongest), sort by QoS requirement, or adaptively keep whichever of the two
needs less total optimal power. One shared pairing is used for both links;
with an odd population the last sorted user stays unpaired and is served
standalone on its own band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .allocation import (
    InfeasibleAllocationError,
    QosRates,
    UserPair,
    opa_set,
    single_user_allocation,
)

__all__ = [
    "PairingOutcome",
    "make_pair",
    "pair_by_channel",
    "pair_by_qos",
    "adaptive_pairing",
    "opa_total_power",
]

QOS_SORT_KEYS = ("sum", "downlink", "uplink")


@dataclass(frozen=True)
class PairingOutcome:
    """Result of one pairing pass.

    Attributes:
        pairs: the formed pairs; together with ``unpaired`` they partition
            the user indices exactly.
        method: "channel", "qos", "adaptive:channel" or "adaptive:qos".
        unpaired: index of the leftover user for odd populations, else None.
        min_total_power: system-wide optimal total power of this pairing;
            filled by :func:`adaptive_pairing`, None otherwise.
    """

    pairs: tuple[UserPair, ...]
    method: str
    unpaired: int | None = None
    min_total_power: float | None = None

    @property
    def num_users(self) -> int:
        return 2 * len(self.pairs) + (self.unpaired is not None)


def _gain_arrays(gains_dl, gains_ul) -> tuple[np.ndarray, np.ndarray]:
    dl = np.asarray(gains_dl, dtype=float)
    ul = dl if gains_ul is None else np.asarray(gains_ul, dtype=float)
    if dl.ndim != 1 or ul.shape != dl.shape:
        raise ValueError("gain arrays must be 1-D and equally shaped")
    if len(dl) < 2:
        raise ValueError(f"pairing needs at least 2 users, got {len(dl)}")
    return dl, ul


def make_pair(a: int, b: int, gains_dl: np.ndarray, gains_ul: np.ndarray) -> UserPair:
    """Build a pair from two user indices, assigning far/near roles.

    The far role goes to the lower downlink gain; ties fall back to the
    lower original index so results are reproducible.
    """
    if (gains_dl[b], b) < (gains_dl[a], a):
        a, b = b, a
    return UserPair(
        far=a,
        near=b,
        h_far_dl=float(gains_dl[a]),
        h_near_dl=float(gains_dl[b]),
        h_far_ul=float(gains_ul[a]),
        h_near_ul=float(gains_ul[b]),
    )


def _pair_halves(order: list[int], gains_dl, gains_ul, method: str) -> PairingOutcome:
    n = len(order) // 2
    unpaired = order[-1] if len(order) % 2 else None
    pairs = tuple(
        make_pair(order[i], order[n + i], gains_dl, gains_ul) for i in range(n)
    )
    return PairingOutcome(pairs=pairs, method=method, unpaired=unpaired)


def pair_by_channel(gains_dl, gains_ul=None) -> PairingOutcome:
    """Pair users by sorting their channel gains in ascending order.

    The weaker half is matched index-by-index with the stronger half, so the
    i-th pair joins the i-th weakest and the i-th strongest-of-the-weak-half
    partner. Ties keep the original index order.
    """
    gains_dl, gains_ul = _gain_arrays(gains_dl, gains_ul)
    order = sorted(range(len(gains_dl)), key=lambda k: (gains_dl[k], k))
    return _pair_halves(order, gains_dl, gains_ul, "channel")


def _qos_sort_values(rates_dl, rates_ul, key: str) -> np.ndarray:
    rd = np.asarray(rates_dl, dtype=float)
    ru = np.asarray(rates_ul, dtype=float)
    if rd.shape != ru.shape or rd.ndim != 1:
        raise ValueError("rate arrays must be 1-D and equally shaped")
    if key == "sum":
        return rd + ru
    if key == "downlink":
        return rd
    if key == "uplink":
        return ru
    raise ValueError(f"unknown QoS sort key {key!r}, expected one of {QOS_SORT_KEYS}")


def pair_by_qos(rates_dl, rates_ul, gains_dl, gains_ul=None, key: str = "sum") -> PairingOutcome:
    """Pair users by sorting their QoS requirements in descending order.

    ``key`` selects the per-user sort value: the default "sum" uses the
    combined downlink+uplink rate; "downlink"/"uplink" use one link only.
    Far/near roles inside each pair still follow the channel gains.
    """
    values = _qos_sort_values(rates_dl, rates_ul, key)
    gains_dl, gains_ul = _gain_arrays(gains_dl, gains_ul)
    if len(values) != len(gains_dl):
        raise ValueError("rates and gains must cover the same users")
    order = sorted(range(len(values)), key=lambda k: (-values[k], k))
    return _pair_halves(order, gains_dl, gains_ul, "qos")


def opa_total_power(
    outcome: PairingOutcome,
    rates_dl: Sequence[float],
    rates_ul: Sequence[float],
    gains_dl,
    gains_ul=None,
    *,
    noise_power: float,
) -> float:
    """System-wide minimum total power of a pairing under optimal allocation.

    Pair totals are accumulated in pair order, then the unpaired user's two
    standalone link powers are added; reproducing a total bit-exactly
    requires the same order. A pairing with an infeasible member (a zero
    gain, i.e. a user outside the FOV) needs unbounded power: ``inf``.
    """
    gains_dl, gains_ul = _gain_arrays(gains_dl, gains_ul)
    total = 0.0
    try:
        for pair in outcome.pairs:
            qos_far = QosRates(float(rates_dl[pair.far]), float(rates_ul[pair.far]))
            qos_near = QosRates(float(rates_dl[pair.near]), float(rates_ul[pair.near]))
            total += opa_set(pair, qos_far, qos_near, noise_power).total
        if outcome.unpaired is not None:
            u = outcome.unpaired
            qos = QosRates(float(rates_dl[u]), float(rates_ul[u]))
            p_dl, p_ul = single_user_allocation(
                float(gains_dl[u]), float(gains_ul[u]), qos, noise_power
            )
            total += p_dl + p_ul
    except InfeasibleAllocationError:
        return math.inf
    return total


def adaptive_pairing(
    rates_dl,
    rates_ul,
    gains_dl,
    gains_ul=None,
    *,
    noise_power: float,
    key: str = "sum",
) -> PairingOutcome:
    """Keep whichever of the channel / QoS pairings needs less total power.

    Both candidate pairings are formed, their system-wide optimal totals
    are compared, and the cheaper one is returned (ties go to the
    channel-based pairing, also when both totals are infinite). The selection is global: one method serves all
    pairs of the trial.

    Distinct pairings can be exact mathematical ties (for instance under
    uniform QoS, where several matchings share the optimal total); their
    float totals then differ only by rounding. The comparison carries a
    relative guard so such ties still resolve to the channel-based pairing.
    """
    by_channel = pair_by_channel(gains_dl, gains_ul)
    by_qos = pair_by_qos(rates_dl, rates_ul, gains_dl, gains_ul, key=key)
    total_channel = opa_total_power(
        by_channel, rates_dl, rates_ul, gains_dl, gains_ul, noise_power=noise_power
    )
    total_qos = opa_total_power(
        by_qos, rates_dl, rates_ul, gains_dl, gains_ul, noise_power=noise_power
    )
    if total_channel <= total_qos * (1.0 + 1e-12):
        return replace(by_channel, method="adaptive:channel", min_total_power=total_channel)
    return replace(by_qos, method="adaptive:qos", min_total_power=total_qos)
