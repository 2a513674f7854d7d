"""User pairing: partition a population into two-user NOMA pairs.

Three approaches: sort by channel gain (pair the i-th weakest with the i-th
strongest), sort by QoS requirement, or adaptively keep whichever of the two
needs less total optimal power. Downlink and uplink share one front end, so
each user has one channel gain and one shared pairing serves both links;
with an odd population the last sorted user stays unpaired and is served
standalone on its own band.

Each public function checks a population's rates, gains and noise power once;
the OPA totals then add :mod:`.allocation`'s kernels, which trust floats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .allocation import MAX_RATE, UserPair, _alone, _check_inputs, _check_rates, _opa_powers
# No pairing function calls these two; the benchmark's tracer (bench/spans.py)
# looks each of them up on this module by name.
from .allocation import opa_set, single_user_allocation  # noqa: F401

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


def _check_user_count(users: int) -> None:
    if users < 2:
        raise ValueError(f"pairing needs at least 2 users, got {users}")


def _gain_array(gains) -> np.ndarray:
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1:
        raise ValueError("the gain array must be 1-D")
    _check_user_count(len(gains))
    if not (gains >= 0.0).all():  # also false for NaN
        raise ValueError(f"gains must be >= 0, got {tuple(gains.tolist())}")
    return gains


def _population(rates_dl, rates_ul, gains) -> tuple[list[float], list[float], list[float]]:
    """A population's checked rates and gains, as lists of Python floats."""
    if np.ndim(rates_dl) != 1 or np.shape(rates_dl) != np.shape(rates_ul):
        raise ValueError("rate arrays must be 1-D and equally shaped")
    rates = np.asarray((rates_dl, rates_ul), dtype=float)
    if not ((rates >= 0.0) & (rates < MAX_RATE)).all():  # also false for NaN and inf
        for downlink, uplink in zip(*rates.tolist()):  # the first bad value's message
            _check_rates(downlink=downlink, uplink=uplink)
    gains = _gain_array(gains)
    if rates.shape[1] != len(gains):
        raise ValueError("rates and gains must cover the same users")
    return (*rates.tolist(), gains.tolist())


def make_pair(a: int, b: int, gains: Sequence[float]) -> UserPair:
    """Build a pair from two user indices, assigning far/near roles.

    The far role goes to the lower gain (one gain per user serves both
    links); ties fall back to the lower original index so results are
    reproducible.
    """
    if (gains[b], b) < (gains[a], a):
        a, b = b, a
    return UserPair(far=a, near=b, h_far=float(gains[a]), h_near=float(gains[b]))


def _pair_sorted(values: list[float], gains: list[float], method: str) -> PairingOutcome:
    # a stable sort keeps ties in index order; the last user of an odd count stays unpaired
    order = sorted(range(len(values)), key=values.__getitem__)
    n = len(order) // 2
    unpaired = order[-1] if len(order) % 2 else None
    pairs = tuple(make_pair(order[i], order[n + i], gains) for i in range(n))
    return PairingOutcome(pairs=pairs, method=method, unpaired=unpaired)


def pair_by_channel(gains) -> PairingOutcome:
    """Pair users by sorting their channel gains in ascending order.

    The weaker half is matched index-by-index with the stronger half, so the
    i-th pair joins the i-th weakest and the i-th strongest-of-the-weak-half
    partner. Ties keep the original index order.
    """
    gains = _gain_array(gains).tolist()
    return _pair_sorted(gains, gains, "channel")


def _qos_sort_values(rates_dl, rates_ul, key: str) -> np.ndarray:
    """Per-user QoS sort values; the rate arrays may carry leading axes (trials)."""
    if key not in QOS_SORT_KEYS:
        raise ValueError(f"unknown QoS sort key {key!r}, expected one of {QOS_SORT_KEYS}")
    rd, ru = np.asarray(rates_dl, dtype=float), np.asarray(rates_ul, dtype=float)
    return {"sum": rd + ru, "downlink": rd, "uplink": ru}[key]


def pair_by_qos(rates_dl, rates_ul, gains, key: str = "sum") -> PairingOutcome:
    """Pair users by sorting their QoS requirements in descending order.

    ``key`` selects the per-user sort value: the default "sum" uses the
    combined downlink+uplink rate; "downlink"/"uplink" use one link only.
    Far/near roles inside each pair still follow the channel gains.
    """
    rates_dl, rates_ul, gains = _population(rates_dl, rates_ul, gains)
    return _pair_sorted((-_qos_sort_values(rates_dl, rates_ul, key)).tolist(), gains, "qos")


def _opa_total(outcome: PairingOutcome, rd, ru, gains, noise_power) -> float:
    total = 0.0
    for p in outcome.pairs:
        far_dl, near_dl, far_ul, near_ul = _opa_powers(
            p.h_far, p.h_near, rd[p.far], rd[p.near], ru[p.far], ru[p.near], noise_power
        )
        total += far_dl + near_dl + far_ul + near_ul
    if (u := outcome.unpaired) is not None:
        total += _alone(rd[u], gains[u], noise_power) + _alone(ru[u], gains[u], noise_power)
    return total


def opa_total_power(
    outcome: PairingOutcome,
    rates_dl: Sequence[float],
    rates_ul: Sequence[float],
    gains,
    *,
    noise_power: float,
) -> float:
    """System-wide minimum total power of a pairing under optimal allocation.

    The outcome must pair exactly the given population, at its gains: each
    user once, in a pair or unpaired. Pair totals are accumulated in pair
    order, then the unpaired user's two standalone link powers are added;
    reproducing a total bit-exactly requires the same order. A pairing with
    an infeasible member (a zero gain, i.e. a user outside the FOV) needs
    unbounded power: ``inf``, as does a gain whose square underflows.
    """
    _check_inputs(noise_power)
    rates_dl, rates_ul, gains = _population(rates_dl, rates_ul, gains)
    users = {outcome.unpaired, *(u for p in outcome.pairs for u in (p.far, p.near))} - {None}
    if len(users) != outcome.num_users or users != set(range(len(gains))) or any(
            (p.h_far, p.h_near) != (gains[p.far], gains[p.near]) for p in outcome.pairs):
        raise ValueError("the outcome must pair exactly the given users, at their gains")
    return _opa_total(outcome, rates_dl, rates_ul, gains, noise_power)


def adaptive_pairing(
    rates_dl, rates_ul, gains, *, noise_power: float, key: str = "sum"
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
    _check_inputs(noise_power)
    rates_dl, rates_ul, gains = population = _population(rates_dl, rates_ul, gains)
    by_channel = _pair_sorted(gains, gains, "channel")
    by_qos = _pair_sorted((-_qos_sort_values(rates_dl, rates_ul, key)).tolist(), gains, "qos")
    total_channel = _opa_total(by_channel, *population, noise_power)
    total_qos = _opa_total(by_qos, *population, noise_power)
    if total_channel <= total_qos * (1.0 + 1e-12):
        return replace(by_channel, method="adaptive:channel", min_total_power=total_channel)
    return replace(by_qos, method="adaptive:qos", min_total_power=total_qos)
