"""Seeded Monte Carlo engine: populations, trials, campaigns and sweeps.

A trial draws a random user population, pairs it with each configured
pairing method, allocates powers with each configured strategy and records
energy efficiency plus both links' outage probabilities. Campaigns average
many trials. Trial ``i`` reads its raw 64-bit words in one call from its
own PCG64 stream (:func:`.streams.run_trial`, which also sets their count
and order), so results are bit-identical for any worker count or execution
order; the per-cell averages are reduced in trial order. :mod:`.streams`
also converts a chunk's words into the draws ``default_rng([seed, i])``
makes (:func:`.streams._draws`); this module maps their rate indices to rates.

Trials are evaluated in chunks of :data:`CHUNK` trials, doubled while a
``(users, strategies, trials)`` array holds at most ``128 * CHUNK`` elements,
so 512 desk trials (see :func:`_chunk_size`); importing this module raises
glibc's mmap and trim thresholds, so a chunk's arrays reuse the heap pages the
process already holds. The draws are ``(trials, users)`` arrays; from the
pairing on, every array puts the trials last and contiguous, so each pair,
user or cap is one whole row or plane. Each pairing method's slot powers
are computed in one pass for all the strategies. Adaptive pairing picks
per trial from the channel and QoS pairings' outcomes where both are
reported, else their slots first. Outages and served-only EE are counted
one ``(strategies, trials)`` plane per user or per cap (see
:meth:`_Chunk.outcome`).
The scalar closed forms in :mod:`.allocation`, :mod:`.pairing` and
:mod:`.metrics` are the reference the chunked arrays reproduce bit for bit
from the gains on: a rate's factor is the scalar ``2 ** (2R)``, once per
QoS-set entry for drawn rates (OMA's is a product of two), and every sum
adds its terms in scalar order. The gains are :func:`.channel.los_gain`
on arrays with ``cos(atan(r / l))`` taken as ``l / sqrt(l^2 + r^2)``:
out-of-FOV zeros are exact, and a positive gain is within a relative
``eps * (6 + (m + 1) * (3 + 2 r / l))`` of ``los_gain``'s.

Energy efficiency is computed from the full (pre-cap) minimum powers by
default; the power caps only enter the outage statistics. Setting
``ee_served_only`` restricts the EE accounting to users that survive the
caps on each link.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .allocation import MAX_RATE, PowerLimits, QosRates, Strategy, _check_rates, _rate_factor
from .channel import NoiseModel, OpticalFrontEnd, UserPosition, _plain_int, _plain_reals, channel_gain
from .metrics import LinkOutage
from .pairing import QOS_SORT_KEYS, _check_user_count, _qos_sort_values
from .streams import CHUNK, _draws, _word_count, run_trial

# The engine does not call these scalar reference functions; the benchmark's
# tracer (bench/spans.py) looks each of them up on this module by name.
from .allocation import allocate, single_user_allocation  # noqa: F401, E402
from .metrics import (  # noqa: F401, E402
    downlink_outage_mask,
    downlink_uop,
    uplink_outage_mask,
    uplink_uop,
)
from .pairing import adaptive_pairing, pair_by_channel, pair_by_qos  # noqa: F401, E402

# glibc maps a block of at least its mmap threshold apart and hands the freed
# heap top past its trim threshold back to the kernel. Both start at 128 KiB and
# follow the largest mapped block freed, to its size and twice that (mallopt(3),
# the dynamic mmap threshold). Left near a chunk's array size, they had the
# heap top a call freed trimmed and faulted in again by the next call. Freeing
# one 4 MiB block raises them to 4 and 8 MiB, and the chunks reuse the heap
# pages the process holds. Other C libraries ignore it.
np.empty(4 << 20, dtype=np.uint8)

__all__ = [
    "CHUNK",
    "MAX_RATE",
    "PAIRING_METHODS",
    "ScenarioValidationError",
    "UserNode",
    "ScenarioConfig",
    "CellResult",
    "CellSummary",
    "CampaignSummary",
    "sample_users",
    "population_gains",
    "evaluate_population",
    "run_trial",
    "run_campaign",
    "run_uop_sweep",
    "two_user_sweep",
]

PAIRING_METHODS = ("channel", "qos", "adaptive")


class ScenarioValidationError(ValueError):
    """One or more scenario invariants are violated; lists every problem."""

    def __init__(self, problems: Sequence[str]):
        super().__init__("; ".join(problems))
        self.problems = tuple(problems)


@dataclass(frozen=True)
class UserNode:
    """One IoT device: its location and per-link rate requirements."""

    position: UserPosition
    qos: QosRates


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a campaign needs; defaults follow the reference desk setup.

    ``num_users`` and ``trials`` have no defaults. The remaining physical
    parameters default to the reference values (70-degree optics, 20 MHz
    band at 1e-22 A^2/Hz noise, users uniform over l in [1.5, 2.5] m and
    r in [0, 3] m). Power caps default to infinity, i.e. no outage. Every
    float is a real number, not a bool, and finite except the power caps;
    rates stay below :data:`MAX_RATE`. Two-user sweep values are far-user
    distances from the axis (>= 0) or heights (> 0); ``l_min`` and the
    heights must keep an on-axis user's minimum power a normal float.
    """

    num_users: int
    trials: int
    seed: int = 0
    scenario_id: str = "scenario"
    qos_set: tuple[float, ...] = (1.0,)
    l_min: float = 1.5
    l_max: float = 2.5
    r_max: float = 3.0
    front_end: OpticalFrontEnd = field(default_factory=OpticalFrontEnd)
    noise: NoiseModel = field(default_factory=NoiseModel)
    limits: PowerLimits = field(default_factory=PowerLimits)
    strategies: tuple[Strategy, ...] = (
        Strategy.OPA,
        Strategy.NGDPA,
        Strategy.GRPA,
        Strategy.OMA,
    )
    pairings: tuple[str, ...] = ("adaptive",)
    qos_pairing_key: str = "sum"
    qos_coupled_links: bool = False
    ee_served_only: bool = False
    sweep_mode: str = "horizontal"
    sweep_values: tuple[float, ...] | None = None
    sweep_rate: float = 1.0
    uop_sweep_link: str = "dl"
    uop_sweep_grid: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        problems = []
        for name, least in (("num_users", 2), ("trials", 1), ("seed", 0)):
            try:  # a NumPy integer is stored as the Python int the CSV and JSON write
                object.__setattr__(self, name, _plain_int(name, getattr(self, name), least))
            except ValueError as error:
                problems.append(str(error))
        listed, flag = (list, tuple), (bool,)
        kinds = {"scenario_id": (str,), "front_end": (OpticalFrontEnd,), "noise": (NoiseModel,),
                 "limits": (PowerLimits,), "strategies": listed, "pairings": listed,
                 "qos_set": listed, "uop_sweep_grid": listed, "qos_coupled_links": flag,
                 "ee_served_only": flag, "sweep_values": (*listed, type(None))}
        wrong = {name: f"{name} must be of type {' or '.join(k.__name__ for k in kind)}, "
                       f"got {getattr(self, name)!r}"
                 for name, kind in kinds.items() if not isinstance(getattr(self, name), kind)}
        scalars = ("l_min", "l_max", "r_max", "sweep_rate")
        lists = [n for n in ("qos_set", "uop_sweep_grid", "sweep_values") if n not in wrong]
        wrong = [*wrong.values(), *_plain_reals(self, scalars, lists)]
        if wrong:  # the checks below use these as numbers, parts and lists
            raise ScenarioValidationError(problems + wrong)
        for name in ("strategies", "pairings"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.qos_set:
            problems.append("qos_set must not be empty")
        for name, rates in (("qos_set", self.qos_set), ("sweep_rate", (self.sweep_rate,))):
            try:
                for rate in rates:
                    _check_rates(**{name: rate})
            except ValueError as error:
                problems.append(str(error))
        # the comparisons below are False for NaN, so NaN is rejected too
        if not 0.0 < self.l_min <= self.l_max < math.inf:
            problems.append(
                f"need 0 < l_min <= l_max < inf, got ({self.l_min}, {self.l_max})"
            )
        elif not self._resolves(self.l_min):
            problems.append(f"l_min is too close to the access point, got {self.l_min}")
        if not 0.0 < self.r_max < math.inf:
            problems.append(f"r_max must be positive and finite, got {self.r_max}")
        if not self.strategies:
            problems.append("strategies must not be empty")
        elif not all(isinstance(s, Strategy) for s in self.strategies):
            problems.append(f"strategies must be Strategy members, got {self.strategies!r}")
        if not self.pairings:
            problems.append("pairing methods must not be empty")
        for name in self.pairings:
            if name not in PAIRING_METHODS:
                problems.append(f"unknown pairing method {name!r}, expected one of {PAIRING_METHODS}")
        named = {"strategies": [getattr(s, "value", s) for s in self.strategies or ()],
                 "pairings": list(self.pairings)}
        for name, entries in named.items():
            if repeated := [entry for i, entry in enumerate(entries) if entry in entries[:i]]:
                problems.append(f"{name} must not repeat {repeated[0]!r}")
        if self.qos_pairing_key not in QOS_SORT_KEYS:
            problems.append(
                f"unknown qos_pairing_key {self.qos_pairing_key!r}, expected one of {QOS_SORT_KEYS}"
            )
        if self.sweep_mode not in ("horizontal", "vertical"):
            problems.append(f"sweep_mode must be 'horizontal' or 'vertical', got {self.sweep_mode!r}")
        if self.sweep_values is not None:
            if not self.sweep_values:
                problems.append("sweep_values must not be empty when given")
            elif not all(math.isfinite(v) for v in self.sweep_values):
                problems.append(f"sweep_values must be finite, got {self.sweep_values}")
            elif self.sweep_mode == "horizontal" and min(self.sweep_values) < 0.0:
                problems.append(
                    f"sweep_values (far-user distances from the axis) must be >= 0, "
                    f"got {self.sweep_values}"
                )
            elif self.sweep_mode == "vertical" and not all(
                v > 0.0 and self._resolves(v) for v in self.sweep_values
            ):
                problems.append(
                    f"sweep_values (far-user heights) must be positive and not too close "
                    f"to the access point, got {self.sweep_values}"
                )
        if self.uop_sweep_link not in ("dl", "ul"):
            problems.append(f"uop_sweep_link must be 'dl' or 'ul', got {self.uop_sweep_link!r}")
        if not all(v > 0.0 for v in self.uop_sweep_grid):
            problems.append(f"uop_sweep_grid values must be positive, got {self.uop_sweep_grid}")
        if problems:
            raise ScenarioValidationError(problems)

    @property
    def noise_power(self) -> float:
        return self.noise.noise_power

    def _resolves(self, height: float) -> bool:
        """Whether a user on the axis at ``height`` needs a normal, positive power.

        Its gain ``C / height^2`` is the largest at that height. Closer in,
        the squared distance underflows or the squared gain overflows, and
        the minimum powers round to 0 instead of staying positive.
        """
        reach = height * height
        if reach == 0.0:
            return False
        gain = self.front_end.channel_constant / reach
        square = gain * gain  # 0 far away: unbounded powers, counted as outage
        return square == 0.0 or self.noise_power / square >= sys.float_info.min


@dataclass(frozen=True)
class CellResult:
    """One trial's outcome for one (strategy, pairing) combination.

    ``dl_powers``/``ul_powers`` are per-slot powers: far, near of each pair
    in pair order, then the unpaired user.
    """

    strategy: str
    pairing: str
    method_used: str
    sum_rate: float
    total_power: float
    ee: float
    outage_dl: LinkOutage
    outage_ul: LinkOutage
    dl_powers: tuple[float, ...]
    ul_powers: tuple[float, ...]


class _Population(NamedTuple):
    """Per-user draws and each rate's 2^(2R): arrays of shape (users,) or (trials, users)."""

    vertical: np.ndarray
    horizontal: np.ndarray
    polar: np.ndarray
    rates_dl: np.ndarray
    rates_ul: np.ndarray
    factors_dl: np.ndarray
    factors_ul: np.ndarray


@dataclass(frozen=True)
class CellSummary:
    """Per-cell campaign averages (plain arithmetic means over trials)."""

    mean_ee: float
    mean_total_power: float
    mean_uop_dl: float | None
    mean_uop_ul: float | None


@dataclass(frozen=True)
class CampaignSummary:
    scenario_id: str
    num_users: int
    trials: int
    seed: int
    cells: dict[tuple[str, str], CellSummary]
    sweep_parameter: str | None = None
    sweep_value: float | None = None


_held_rates: list = [()]  # the last QoS set converted, its rates and its factors


def _rate_table(qos_set: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The set as an array and each rate's scalar ``2 ** (2R)``, held for the last set by
    identity, not equality: ``0.0 == -0.0``, yet each drawn rate keeps its own sign."""
    held = _held_rates[0]
    if not held or held[0] is not qos_set:
        rates = np.asarray(qos_set, dtype=float)
        held = _held_rates[0] = (qos_set, rates,
                                 np.array([_rate_factor(r) for r in rates.tolist()]))
    return held[1:]


def _population_from_words(
    config: ScenarioConfig, trials: Sequence[int], words: np.ndarray
) -> _Population:
    """The draws of ``trials`` from their :func:`run_trial` words (:func:`.streams._draws`),
    one row each, with each rate index mapped to its rate and factor."""
    n = config.num_users
    *positions, index = _draws(config, trials, words)
    choices, table = _rate_table(config.qos_set)
    rates, factors = choices.take(index), table.take(index)
    # coupled links (and a one-rate set) draw one index per user for both
    return _Population(*positions, rates[:, :n], rates[:, -n:], factors[:, :n], factors[:, -n:])


def sample_users(config: ScenarioConfig, trial_index: int) -> list[UserNode]:
    """Trial ``trial_index``'s draw, converted from its :func:`run_trial` words, as users."""
    words = run_trial(config, trial_index)[None]
    draw = _population_from_words(config, [trial_index], words)
    return [
        UserNode(UserPosition(vertical, horizontal, polar), QosRates(dl, ul))
        for vertical, horizontal, polar, dl, ul in zip(*(a[0].tolist() for a in draw[:5]))
    ]


def population_gains(users: Sequence[UserNode], front_end: OpticalFrontEnd) -> np.ndarray:
    """Per-user LOS gains, shared by the downlink and the uplink."""
    return np.array([channel_gain(u.position, front_end) for u in users])


def _population_of(rows: Sequence[Sequence[UserNode]]) -> _Population:
    """A chunk of given users, one trial per row."""
    fields = [[(u.position.vertical, u.position.horizontal, u.position.polar_angle,
                u.qos.downlink, u.qos.uplink) for u in users] for users in rows]
    draws = np.array(fields, dtype=float).reshape(len(rows), -1, 5).transpose(2, 0, 1)
    return _Population(*draws, *np.frompyfunc(_rate_factor, 1, 1)(draws[3:]).astype(float))


def _gains(front_end: OpticalFrontEnd, population: _Population) -> np.ndarray:
    """:func:`.channel.los_gain` of every user, on arrays.

    ``cos(atan(r / l))`` is ``l / sqrt(l^2 + r^2)``, so no libm call is made
    per user, and a positive gain may differ from ``los_gain``'s in its last
    bits, within the bound the module docstring states. The FOV mask is
    ``los_gain``'s own ``r / l > tan(FOV)``, so out-of-FOV users get exactly 0.
    """
    tan_fov, exponent, constant = front_end.gain_terms
    vertical, horizontal = population.vertical, population.horizontal
    with np.errstate(over="ignore"):  # an overflow is inf, as in los_gain
        reach = vertical * vertical + horizontal * horizontal
        gains = constant / reach * (vertical / np.sqrt(reach)) ** exponent
        return np.where(horizontal / vertical > tan_fov, 0.0, gains)


def _opa_powers(pz: float, h_far, h_near, factors) -> tuple:
    """``opa_set`` on arrays of pairs, computed once per pairing.

    ``h_far``/``h_near`` are the pair members' gains, shared by both links.
    ``factors`` (``2^(2R)``) and the result are per-pair arrays ordered far
    downlink, near downlink, far uplink, near uplink. Every expression keeps
    the operand order of the scalar closed form, so each element rounds as
    it does there.
    """
    # downlink far user decoded first, uplink near user first
    near_dl = factors[1] * pz / (h_near * h_near)
    far_dl = factors[0] * (near_dl + pz / (h_far * h_far))
    far_ul = factors[2] * pz / (h_far * h_far)
    near_ul = factors[3] * (1.0 + factors[2]) * pz / (h_near * h_near)
    return far_dl, near_dl, far_ul, near_ul


def _pair_powers(strategy: Strategy, pz: float, h_far, h_near, opa, factors) -> tuple:
    """``allocate`` on arrays of pairs, from the pairing's OPA powers.

    Arguments and powers are ordered as in :func:`_opa_powers`; OMA's
    ``2^(2 (R_far + R_near))`` per link is the product of its members'
    ``factors``, as in :func:`.allocation.oma_allocation`. Also returns the
    infeasible pairs, whose four demands are unbounded.
    """
    infeasible = h_far == 0.0  # the far member has the lower gain
    powers = opa
    if strategy is Strategy.OMA:
        k_dl, k_ul = factors[0] * factors[1] * pz, factors[2] * factors[3] * pz
        far, near = h_far * h_far, h_near * h_near
        powers = (k_dl / far, k_dl / near, k_ul / far, k_ul / near)
    elif strategy is not Strategy.OPA:
        if strategy is Strategy.GRPA:
            ratio = h_far / h_near
            alpha = ratio * ratio
        else:  # NGDPA
            alpha = (h_near - h_far) / h_near
        powers = []
        for p_far, p_near in (opa[:2], opa[2:]):  # _scaled_link_allocation per link
            keep = alpha >= p_near / p_far
            powers += [np.where(keep, p_far, p_near / alpha),
                       np.where(keep, alpha * p_far, p_near)]
        infeasible = infeasible | (alpha == 0.0)  # a degenerate ratio
    return powers, infeasible


class _Powers(NamedTuple):
    """One pairing's slot powers, slots leading and trials last.

    Slots are far, near of each pair in pair order, then the unpaired user;
    the strategies are the configured ones, in config order.
    """

    dl: np.ndarray  # (users, strategies, trials)
    ul: np.ndarray
    total: np.ndarray  # (strategies, trials)
    opa_total: np.ndarray  # (trials,): what adaptive pairing compares, OPA configured or not
    slots: np.ndarray  # (users, trials): each slot's user, a flat index into the chunk


def _total(pairs, single) -> np.ndarray:
    """Pair by pair, ((far_dl + near_dl) + far_ul) + near_ul, then the unpaired user's two links."""
    return reduce(np.add, ((pairs[0] + pairs[1]) + pairs[2]) + pairs[3]) + sum(single)


class _Cells(NamedTuple):
    """One pairing's outcome over a chunk, leading axes strategies and trials."""

    total: np.ndarray  # its _Powers' total
    sum_rate: np.ndarray
    ee: np.ndarray
    k_out_dl: np.ndarray  # (strategies, trials, caps_dl)
    k_out_ul: np.ndarray  # (strategies, trials, caps_ul)


def _pick(used_qos: np.ndarray, qos: _Cells, channel: _Cells) -> _Cells:
    """Adaptive pairing's cells: per trial, the QoS pairing's where ``used_qos``."""
    return _Cells(*(np.where(used_qos[:, None] if q.ndim > 2 else used_qos, q, c)
                    for q, c in zip(qos, channel)))


def _count_above(users_first: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Per strategy and trial, the users above each cap, as ``(strategies, trials, caps)``;
    ``users_first`` is ``(users, strategies, trials)``."""
    return (users_first > caps[:, None, None, None]).sum(axis=1).transpose(1, 2, 0)


def _base_caps(config: ScenarioConfig) -> tuple[tuple[float], tuple[float]]:
    """The scenario's own downlink and uplink caps, each as a one-cap grid."""
    return (config.limits.max_total_dl,), (config.limits.max_per_user_ul,)


class _Chunk:
    """Shared per-chunk inputs: gains, rates, rate factors and the caps.

    Slot powers are stacked over the configured strategies in config order.
    """

    def __init__(self, config, population, caps_dl, caps_ul):
        self.config = config
        trials, n = population.vertical.shape
        self.rates_dl, self.rates_ul = population.rates_dl, population.rates_ul
        self.row_start = np.arange(0, trials * n, n)[:, None]
        self.far, self.near = slice(0, n - n % 2, 2), slice(1, n - n % 2, 2)  # each pair's slots
        # per user, flat over the chunk: gain (both links) and factors
        self.users = np.stack((_gains(config.front_end, population), population.factors_dl,
                               population.factors_ul)).reshape(3, -1)
        self.gains = self.users[0].reshape(trials, n)
        # summed in user order, as np.sum sums one trial's rates
        self.sum_rate = np.sum(self.rates_dl, axis=1) + np.sum(self.rates_ul, axis=1)
        # clamped to the largest float, a cap counts infinite (infeasible) demands
        # as outages even where it is infinite; the base caps shed for served-only EE
        self.caps_dl, self.caps_ul, self.base_caps = (
            np.minimum(np.asarray(caps, dtype=float), sys.float_info.max)
            for caps in (caps_dl, caps_ul, _base_caps(config)))

    def slots(self, method: str) -> np.ndarray:
        """A pairing's slots, ``(users, trials)``, each user a flat index into the
        chunk: the i-th sorted user pairs with the (n/2 + i)-th, far is the
        lower (gain, index)."""
        if method == "channel":  # ascending (gain, index)
            order = np.argsort(self.gains, axis=1, kind="stable")
        else:  # descending (rate), then index
            values = _qos_sort_values(self.rates_dl, self.rates_ul, self.config.qos_pairing_key)
            order = np.argsort(-values, axis=1, kind="stable")
        order += self.row_start
        slots = order.T.copy()
        half = len(slots) // 2
        a, b = slots[:half], slots[half:2 * half]
        gain_a, gain_b = self.users[0][a], self.users[0][b]
        swap = (gain_b < gain_a) | ((gain_b == gain_a) & (b < a))
        slots[self.far], slots[self.near] = np.where(swap, b, a), np.where(swap, a, b)
        return slots

    def opa(self, slots: np.ndarray) -> tuple:
        """On given slots: pair gains, factors and OPA powers, the unpaired user's
        powers, and OPA's total (unmasked: inf where a pair is infeasible).
        Each is a ``(pairs, trials)`` array, or ``(trials,)``."""
        h, f_dl, f_ul = self.users.take(slots, axis=1)
        pz, far, near, single = self.config.noise_power, self.far, self.near, []
        factors = f_dl[far], f_dl[near], f_ul[far], f_ul[near]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            opa = _opa_powers(pz, h[far], h[near], factors)
            if len(slots) % 2:  # single_user_allocation; a zero gain gives inf
                single = [f[-1] * pz / (h[-1] * h[-1]) for f in (f_dl, f_ul)]
        return h[far], h[near], factors, opa, single, _total(opa, single)

    def powers(self, slots: np.ndarray) -> _Powers:
        """Every strategy's slot powers on given slots (see :meth:`slots`)."""
        h_far, h_near, factors, opa, single, opa_total = self.opa(slots)
        pz, far, near = self.config.noise_power, self.far, self.near
        users, trials = slots.shape
        dl, ul = (np.empty((users, len(self.config.strategies), trials)) for _ in range(2))
        pairs = dl[far], dl[near], ul[far], ul[near]  # as in _opa_powers
        infeasible = np.empty(pairs[0].shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for row, strategy in enumerate(self.config.strategies):
                powers, infeasible[:, row] = _pair_powers(strategy, pz, h_far, h_near, opa, factors)
                for slot, power in zip(pairs, powers):
                    slot[:, row] = power
        if single:
            dl[-1], ul[-1] = single
        # an infeasible pair goes out whole: all four demands unbounded
        for slot in pairs:
            np.copyto(slot, math.inf, where=infeasible)
        return _Powers(dl, ul, _total(pairs, single), opa_total, slots)

    def outcome(self, powers: _Powers) -> _Cells:
        """Outage counts at every cap and the EE of the configured strategies.

        Counted on the ``(users, strategies, trials)`` powers, so the tail
        sums, every count and the served-only sums are whole-plane
        operations, one per user or per cap. The counts are returned as
        ``(strategies, trials, caps)``.
        """
        dl, ul = powers.dl, powers.ul
        k_out_ul = _count_above(ul, self.caps_ul)
        # downlink_uop: tail sums from the smallest power up, sorted once for
        # every cap, then added user after user as np.cumsum adds them
        ordered = np.sort(dl, axis=0)
        tails = ordered.copy() if self.config.ee_served_only else ordered
        for below, tail in zip(tails, tails[1:]):
            np.add(below, tail, out=tail)
        k_out_dl = _count_above(tails, self.caps_dl)
        sum_rate, power = np.broadcast_to(self.sum_rate, powers.total.shape), powers.total
        if self.config.ee_served_only:
            (cap_dl,), (cap_ul,) = self.base_caps
            shed_count = (tails > cap_dl).sum(axis=0)
            # downlink_outage_mask sheds the heaviest first, ties toward the lower
            # slot: all above the lightest shed power (the heaviest if none is
            # shed), then as many of its equals as are left, in slot order
            rank = np.minimum(len(dl) - shed_count, len(dl) - 1)
            lightest = np.take_along_axis(ordered, rank[None], axis=0)
            above, level = dl > lightest, dl == lightest
            shed = above | level & (np.cumsum(level, axis=0) <= shed_count - above.sum(axis=0))
            # slot by slot, downlink before uplink, as the scalar sums add
            # them; a skipped term adds 0.0
            served = ~shed, ~(ul > cap_ul)
            rates = [r.take(powers.slots)[:, None] for r in (self.rates_dl, self.rates_ul)]
            sum_rate, power = (reduce(np.add, chain.from_iterable(zip(*(
                np.where(s, t, 0.0) for s, t in zip(served, terms))))) for terms in (rates, (dl, ul)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ee = np.where(power > 0.0, sum_rate / power, 0.0)
        return _Cells(powers.total, sum_rate, ee, k_out_dl, k_out_ul)


def _evaluate(
    config: ScenarioConfig, population: _Population, caps_dl, caps_ul
) -> tuple[dict[str, _Cells], dict[str, _Powers], np.ndarray | None]:
    """Every configured pairing's cells over a chunk of trials, in config order.

    Each pairing method's slot powers are computed once, for all strategies
    at a time. Adaptive pairing picks, per trial, the channel or the QoS
    pairing (the QoS one where its OPA total is cheaper under the scalar
    relative guard): from their cells where both are reported, as every
    outcome is per (strategy, trial) row; else their slots, by OPA totals
    alone where unreported, and then its powers are computed once. Also
    returns the powers and, per trial, where adaptive pairing kept QoS's.
    """
    _check_user_count(population.vertical.shape[1])
    chunk = _Chunk(config, population, caps_dl, caps_ul)
    del population  # the chunk holds what it reads: a draw handed over unnamed is freed
    adaptive = "adaptive" in config.pairings
    slots = {m: chunk.slots(m) for m in ("channel", "qos") if adaptive or m in config.pairings}
    powers = {m: chunk.powers(s) for m, s in slots.items() if m in config.pairings}
    cells, used_qos = {}, None
    if adaptive:
        channel, qos = (powers[m].opa_total if m in powers else chunk.opa(slots[m])[-1]
                        for m in ("channel", "qos"))
        used_qos = ~(channel <= qos * (1.0 + 1e-12))
        if len(powers) == 2:
            cells = {m: chunk.outcome(powers[m]) for m in powers}
            cells["adaptive"] = _pick(used_qos, cells["qos"], cells["channel"])
        else:  # adaptive pairing's slots first, then its powers and outcome once
            powers["adaptive"] = chunk.powers(np.where(used_qos, slots["qos"], slots["channel"]))
    cells = {name: cells.get(name) or chunk.outcome(powers[name]) for name in config.pairings}
    return cells, powers, used_qos


def evaluate_population(
    config: ScenarioConfig, users: Sequence[UserNode]
) -> dict[tuple[str, str], CellResult]:
    """Run every configured (pairing, strategy) combination on one population."""
    cells, powers, used_qos = _evaluate(config, _population_of([users]), *_base_caps(config))
    n = len(users)
    out = {}
    for pairing, cell in cells.items():
        chosen = ("qos" if used_qos[0] else "channel") if pairing == "adaptive" else pairing
        method = f"adaptive:{chosen}" if pairing == "adaptive" else pairing
        slots = powers[pairing if pairing in powers else chosen]  # adaptive's, or its choice's
        for row, strategy in enumerate(config.strategies):
            k_dl, k_ul = int(cell.k_out_dl[row, 0, 0]), int(cell.k_out_ul[row, 0, 0])
            out[(strategy.value, pairing)] = CellResult(
                strategy=strategy.value,
                pairing=pairing,
                method_used=method,
                sum_rate=float(cell.sum_rate[row, 0]),
                total_power=float(cell.total[row, 0]),
                ee=float(cell.ee[row, 0]),
                outage_dl=LinkOutage(k_dl, k_dl / n),
                outage_ul=LinkOutage(k_ul, k_ul / n),
                dl_powers=tuple(slots.dl[:, row, 0].tolist()),
                ul_powers=tuple(slots.ul[:, row, 0].tolist()),
            )
    return out


def _trial_words(config: ScenarioConfig, trials: range) -> np.ndarray:
    """The :func:`run_trial` words of ``trials``, one row each; passed unnamed, freed once read."""
    words = np.empty((len(trials), _word_count(config)), dtype=np.uint64)
    for row, i in enumerate(trials):
        # run_trial is looked up per call, so one trial stays the traceable unit
        words[row] = run_trial(config, i)
    return words


def _chunk_values(config: ScenarioConfig, trials: range, caps_dl, caps_ul) -> np.ndarray:
    """Per-trial values to average, one row per trial of the range.

    Columns per cell, pairing after pairing and strategy after strategy in
    config order (the keys :func:`_reduce` builds): EE, total power, the
    downlink UOP at each of ``caps_dl``, the uplink UOP at each of ``caps_ul``.
    """
    cells = _evaluate(config, _population_from_words(config, trials, _trial_words(config, trials)),
                      caps_dl, caps_ul)[0]
    n = config.num_users
    blocks = [np.concatenate((cell.ee[..., None], cell.total[..., None],
                              cell.k_out_dl / n, cell.k_out_ul / n), axis=-1)
              for cell in map(cells.get, config.pairings)]
    # (cells, trials, width), one row per trial
    return np.concatenate(blocks).transpose(1, 0, 2).reshape(len(trials), -1)


def _chunk_size(config: ScenarioConfig) -> int:
    """CHUNK, doubled while a ``(users, strategies, trials)`` array holds at most
    ``128 * CHUNK`` elements (256 KiB of float64, within the heap the module's
    freed block keeps) and the chunk is shorter than the run."""
    size, width = CHUNK, len(config.strategies) * config.num_users
    while 2 * size * width <= 128 * CHUNK and size < config.trials:
        size *= 2
    return size


def _trial_ranges(trials: int, workers: int, size: int) -> list[range]:
    """Contiguous ranges of at most ``size`` trials, at least one per worker."""
    count = max(-(-trials // size), min(workers, trials))
    bounds = [trials * k // count for k in range(count + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _sums_in_trial_order(parts: Iterable[np.ndarray], columns: int) -> np.ndarray:
    # trial after trial, as a running float sum: the fixed order keeps the
    # means bit-identical for any worker count and chunking
    sums = np.zeros((1, columns))
    for part in parts:
        sums = np.cumsum(np.concatenate([sums, part]), axis=0)[-1:]
    return sums[0]


def _reduce(
    config: ScenarioConfig, caps_dl: Sequence[float], caps_ul: Sequence[float], workers: int
) -> list[dict[tuple[str, str], CellSummary]]:
    """Trial-ordered means of every cell, one cells dict per swept cap.

    ``workers`` counts processes, the caller included: the trial ranges are
    split into that many contiguous shares (at most one per range), and
    ``workers - 1`` child processes evaluate the later shares while the
    caller evaluates the first (see :mod:`.workers`). A child's error is
    re-raised here. Every child is reaped, or terminated and reaped, before
    this returns or raises.
    """
    keys = [(s.value, p) for p in config.pairings for s in config.strategies]
    width = 2 + len(caps_dl) + len(caps_ul)
    ranges = _trial_ranges(config.trials, _plain_int("workers", workers, 1), _chunk_size(config))
    workers = min(workers, len(ranges))
    shares = [ranges[len(ranges) * k // workers:len(ranges) * (k + 1) // workers]
              for k in range(workers)]
    columns = width * len(keys)
    task = partial(_chunk_values, config, caps_dl=caps_dl, caps_ul=caps_ul)
    own = map(task, shares[0])
    if workers == 1:
        sums = _sums_in_trial_order(own, columns)
    else:
        from .workers import children  # here: a serial run neither compiles nor loads it

        with children(task, shares[1:]) as received:  # float64 rows, as task returns them
            sums = _sums_in_trial_order(chain(own, *received), columns)
    means = (sums / config.trials).reshape(len(keys), width).tolist()
    dl, ul = len(caps_dl), len(caps_ul)  # a one-cap link repeats its UOP at every grid point
    return [{key: CellSummary(row[0], row[1], row[2 + min(g, dl - 1)], row[2 + dl + min(g, ul - 1)])
             for key, row in zip(keys, means)} for g in range(max(dl, ul))]


def _summary(config: ScenarioConfig, cells, **sweep) -> CampaignSummary:
    """The summary of a campaign's cells, under the config's identity and trial count."""
    return CampaignSummary(config.scenario_id, config.num_users, config.trials, config.seed,
                           cells, **sweep)


def run_campaign(config: ScenarioConfig, workers: int = 1) -> CampaignSummary:
    """Average EE, power and outage over ``config.trials`` trials.

    ``workers`` is the number of processes, this one included, that split
    the trial loop into contiguous shares; per-trial RNG streams and the
    trial-ordered reduction keep the summary bit-identical for any count.
    """
    (cells,) = _reduce(config, *_base_caps(config), workers)
    return _summary(config, cells)


def run_uop_sweep(config: ScenarioConfig, workers: int = 1) -> list[CampaignSummary]:
    """Re-evaluate outage over a grid of power caps on one set of trials.

    The trials (and therefore the per-user minimum powers and the EE values)
    are computed once; each grid value replaces the swept link's cap. With
    ``ee_served_only`` the reported EE still reflects the scenario's base
    caps, not the grid.
    """
    grid = config.uop_sweep_grid
    if not grid:
        raise ScenarioValidationError(["uop_sweep_grid must be non-empty for a UOP sweep"])
    caps_dl, caps_ul = _base_caps(config)
    if config.uop_sweep_link == "dl":
        parameter, caps_dl = "p_max_dl", grid
    else:
        parameter, caps_ul = "p_max_ul", grid
    return [_summary(config, cells, sweep_parameter=parameter, sweep_value=float(value))
            for value, cells in zip(grid, _reduce(config, caps_dl, caps_ul, workers))]


# Default two-user grids step 0.5 m out to r_max or 0.2 m from l_min to l_max;
# a cell too small for one step or so large that the grid outgrows this
# needs explicit sweep_values.
_MAX_DEFAULT_POINTS = 10_000


def _default_sweep_values(config: ScenarioConfig) -> tuple[float, ...]:
    if config.sweep_mode == "horizontal":
        count = int(round(config.r_max / 0.5))
        first, last = 0.5, 0.5 * count
    else:
        count = int(round((config.l_max - config.l_min) / 0.2)) + 1
        first, last = config.l_min, config.l_max
    if not 1 <= count <= _MAX_DEFAULT_POINTS:
        raise ScenarioValidationError(
            [f"sweep_values: the default {config.sweep_mode} grid would have {count} points, "
             f"outside [1, {_MAX_DEFAULT_POINTS}]; give sweep_values"]
        )
    return tuple(np.linspace(first, last, count))


def two_user_sweep(config: ScenarioConfig) -> list[CampaignSummary]:
    """Deterministic two-user geometry sweep (no sampling).

    The config sets the sweep: ``sweep_mode`` its geometry, ``sweep_values``
    its coordinates (a default grid when None) and ``sweep_rate`` the rate.
    Horizontal mode fixes both users at ``l_max`` height with the near user
    on the axis and sweeps the far user's horizontal distance. Vertical mode
    fixes the near user at ``(l_min, 0)`` and sweeps the far user's height,
    keeping its incidence angle constant via ``r = r_max * l / l_max``. All
    four per-link rates equal ``sweep_rate``. Each sweep point is one row of
    a chunk; EE counts all four rates whatever ``ee_served_only`` says.
    """
    mode = config.sweep_mode
    values = config.sweep_values or _default_sweep_values(config)
    far = np.array(values, dtype=float)
    vertical, horizontal = np.zeros((2, len(far), 2))  # a row per point: near user, far user
    if mode == "horizontal":
        vertical[:], horizontal[:, 1] = config.l_max, far
    else:
        # clamped to a finite position: where r overflows, the gain is 0
        # either way (out of the FOV, or l * l overflows too)
        with np.errstate(over="ignore"):
            np.minimum(config.r_max * far / config.l_max, sys.float_info.max, out=horizontal[:, 1])
        vertical[:, 0], vertical[:, 1] = config.l_min, far
    rates = np.full_like(vertical, config.sweep_rate)
    factors = np.full_like(vertical, _rate_factor(config.sweep_rate))
    points = _Population(vertical, horizontal, np.zeros_like(vertical), rates, rates, factors, factors)
    # channel pairing of two users is their one pair, roles by gain
    pair_config = replace(config, num_users=2, trials=1, pairings=("channel",),
                          ee_served_only=False)
    cell = _evaluate(pair_config, points, *_base_caps(config))[0]["channel"]
    parameter = "r_far" if mode == "horizontal" else "l_far"
    return [_summary(pair_config, {(s.value, "none"): CellSummary(ee, total, None, None)
                                   for s, ee, total in zip(config.strategies, ees, totals)},
                     sweep_parameter=parameter, sweep_value=float(value))
            for value, ees, totals in zip(values, cell.ee.T.tolist(), cell.total.T.tolist())]
