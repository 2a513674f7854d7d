"""Seeded Monte Carlo engine: populations, trials, campaigns and sweeps.

A trial draws a random user population, pairs it with each configured
pairing method, allocates powers with each configured strategy and records
energy efficiency plus both links' outage probabilities. Campaigns average
many trials. Trial ``i`` draws from the PCG64 stream of
``SeedSequence([seed, i])``, the one ``numpy.random.default_rng([seed, i])``
makes, so results are bit-identical regardless of worker count or execution
order; the per-cell averages are reduced in trial order. The streams of a
:data:`CHUNK`-aligned block of trials are seeded together, in one
vectorized pass over SeedSequence's integer hash. A trial reads its raw
64-bit words in one call (:func:`run_trial`); the words of a chunk are
converted together, by NumPy's own ``uniform`` and ``integers``
arithmetic, into the same draws ``default_rng`` makes.

Trials are evaluated in chunks of up to :data:`CHUNK`: every input is a
``(trials, users)`` array, and each pairing method's slot powers are
computed in one pass with the strategies on a leading axis. Adaptive
pairing picks its powers per trial before outage is counted, so outage and
EE are counted once per reported pairing. The scalar closed forms in
:mod:`.allocation`, :mod:`.pairing` and :mod:`.metrics` are the reference
the chunked arrays reproduce bit for bit: gains are
:func:`.channel.los_gain` on arrays, with its ``math`` (libm) calls kept,
rate factors come from the scalar ``2 ** (2R)`` once per distinct rate or
rate pair, and every sum adds its terms in the scalar order.

Energy efficiency is computed from the full (pre-cap) minimum powers by
default; the power caps only enter the outage statistics. Setting
``ee_served_only`` restricts the EE accounting to users that survive the
caps on each link.
"""

from __future__ import annotations

import math
import operator
import sys
import threading
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain, repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .allocation import MAX_RATE, PowerLimits, QosRates, Strategy, _check_rates, _rate_factor
from .channel import NoiseModel, OpticalFrontEnd, UserPosition, channel_gain
from .metrics import LinkOutage
from .pairing import QOS_SORT_KEYS, _check_user_count, _qos_sort_values

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

# Trials evaluated together as one set of (trials, users) arrays; workers'
# shares are made of such ranges. Large enough to amortize NumPy's per-call
# overhead, small enough that a chunk's arrays stay in cache.
CHUNK = 256


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
    float must be finite except the power caps; rates stay below
    :data:`MAX_RATE`. Two-user sweep values are far-user distances from the
    axis (>= 0) or heights (> 0); ``l_min`` and the heights must keep an
    on-axis user's minimum power a normal float.
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
        if self.num_users < 2:
            problems.append(f"num_users must be >= 2, got {self.num_users}")
        if self.trials < 1:
            problems.append(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
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
        if not self.pairings:
            problems.append("pairing methods must not be empty")
        for name in self.pairings:
            if name not in PAIRING_METHODS:
                problems.append(f"unknown pairing method {name!r}, expected one of {PAIRING_METHODS}")
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
    """Per-user draws: arrays of shape (users,) for one trial or (trials, users)."""

    vertical: np.ndarray
    horizontal: np.ndarray
    polar: np.ndarray
    rates_dl: np.ndarray
    rates_ul: np.ndarray


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


# SeedSequence's hash constants and PCG64's 128-bit multiplier, as in
# NumPy's bit_generator.pyx and pcg64.h; _block_streams redoes their integer
# arithmetic.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_POOL = 4  # SeedSequence's default pool size, in uint32 words


def _words(value: int) -> list[int]:
    """``value`` as the little-endian uint32 words SeedSequence splits it into."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


@lru_cache(maxsize=1)
def _block_streams(seed: int, block: int) -> tuple[tuple[int, int], ...]:
    """PCG64 ``(state, inc)`` of the trials ``block * CHUNK`` up to the next block.

    Each is the state ``default_rng([seed, trial])`` starts from. The uint32
    arithmetic of SeedSequence (hash pool, then ``generate_state(4,
    uint64)``) runs on arrays over the whole block, PCG64's 128-bit seeding
    step on Python ints per trial. CHUNK divides 2^32, so a block's trials
    differ only in their lowest word. One block is kept: a run walks its
    trials in order.
    """
    seed_words = _words(seed)
    entropy = [np.full(CHUNK, w, dtype=np.uint32) for w in seed_words + _words(block * CHUNK)]
    entropy[len(seed_words)] += np.arange(CHUNK, dtype=np.uint32)
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_L * x - _MIX_R * y
        return result ^ result >> 16

    zero = np.zeros(CHUNK, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight words cycling the pool, paired
    # little-endian into (initstate high, low, initseq high, low)
    hash_const = _INIT_B
    words = []
    for k in range(8):
        value = pool[k % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append(value ^ value >> 16)
    words = np.array(words, dtype=np.uint64)
    seeds = (words[0::2] | words[1::2] << 32).tolist()
    streams = []
    for state_hi, state_lo, seq_hi, seq_lo in zip(*seeds):
        # PCG64's srandom_r: two LCG steps from 0, adding initstate between
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((state_hi << 64 | state_lo) + inc) * _PCG_MULT + inc & _MASK128
        streams.append((state, inc))
    return tuple(streams)


# One Generator per thread, its state replaced before each trial's draws.
# Made on first use: importing numpy.random with the package would add about
# 12 ms to every start.
_generators = threading.local()


def _stream(config: ScenarioConfig, trial_index: int) -> np.random.Generator:
    """This thread's Generator, set to the start of trial ``trial_index``'s stream."""
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    block, offset = divmod(operator.index(trial_index), CHUNK)
    state, inc = _block_streams(config.seed, block)[offset]
    try:
        rng = _generators.rng
    except AttributeError:
        rng = _generators.rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return rng


def _rate_draws(config: ScenarioConfig) -> int:
    """How many 32-bit integer draws pick a trial's rates (none from one rate)."""
    if len(config.qos_set) == 1:
        return 0
    return config.num_users if config.qos_coupled_links else 2 * config.num_users


def _word_count(config: ScenarioConfig) -> int:
    """Raw 64-bit words of one trial: ``3n`` uniforms, then the rate draws in pairs."""
    return 3 * config.num_users + (_rate_draws(config) + 1) // 2


def run_trial(config: ScenarioConfig, trial_index: int) -> np.ndarray:
    """Trial ``trial_index``'s raw PCG64 words: all that its draw consumes.

    The draw (see :func:`_population_from_words`) takes one 64-bit word per
    uniform (vertical and horizontal distances, polar angles; ``3n``) and
    one 32-bit half-word per rate index, low half first: ``2n``, or ``n``
    with ``qos_coupled_links``, or none from a one-rate QoS set. This is
    the one RNG stream of a trial, and that order is part of the contract.
    The chunk evaluator calls it once per trial.
    """
    return _stream(config, trial_index).bit_generator.random_raw(_word_count(config))


def _population_from_words(
    config: ScenarioConfig, trials: Sequence[int], words: np.ndarray
) -> _Population:
    """The draws of ``trials`` from their :func:`run_trial` words, one row each.

    Redoes NumPy's conversions on the whole ``(trials, words)`` array, bit
    for bit, as ``default_rng([seed, i])`` draws them: ``uniform(low,
    high)`` is ``low + (high - low) * d`` with ``d = (word >> 11) * 2^-53``,
    and each rate is ``qos_set[integers(0, k)]``, which is Lemire's
    ``(u32 * k) >> 32``. Lemire's method rejects a ``u32`` whose low product
    word is below ``(2^32 - k) % k`` and draws again; a row with such a word
    has its rate draws redone by the Generator, past the ``3n`` uniforms.
    """
    n = config.num_users
    unit = (words[:, :3 * n] >> 11) * 2.0 ** -53
    vertical, horizontal, polar = (
        low + (high - low) * unit[:, part * n:(part + 1) * n]
        for part, (low, high) in enumerate(
            ((config.l_min, config.l_max), (0.0, config.r_max), (0.0, 2.0 * math.pi)))
    )
    choices = np.asarray(config.qos_set, dtype=float)
    k, draws = len(choices), _rate_draws(config)
    if draws:
        tail = words[:, 3 * n:]
        halves = np.stack((tail & _MASK32, tail >> 32), axis=2).reshape(len(words), -1)
        scaled = halves[:, :draws] * np.uint64(k)
        index = scaled >> 32
        threshold = ((1 << 32) - k) % k
        if threshold:
            for row in np.flatnonzero(((scaled & _MASK32) < threshold).any(axis=1)).tolist():
                rng = _stream(config, trials[row])
                rng.bit_generator.advance(3 * n)
                index[row] = rng.integers(0, k, draws)
    else:
        index = np.zeros((len(words), n), dtype=np.intp)
    rates = choices[index]
    # coupled links (and a one-rate set) draw one index per user for both
    return _Population(vertical, horizontal, polar, rates[:, :n], rates[:, -n:])


def sample_users(config: ScenarioConfig, trial_index: int) -> list[UserNode]:
    """Trial ``trial_index``'s draw, converted from its :func:`run_trial` words, as users."""
    words = run_trial(config, trial_index)[None]
    draw = _population_from_words(config, [trial_index], words)
    return [
        UserNode(UserPosition(vertical, horizontal, polar), QosRates(dl, ul))
        for vertical, horizontal, polar, dl, ul in zip(*(a[0].tolist() for a in draw))
    ]


def population_gains(users: Sequence[UserNode], front_end: OpticalFrontEnd) -> np.ndarray:
    """Per-user LOS gains, shared by the downlink and the uplink."""
    return np.array([channel_gain(u.position, front_end) for u in users])


def _population_of(rows: Sequence[Sequence[UserNode]]) -> _Population:
    """A chunk of given users, one trial per row."""
    fields = [[(u.position.vertical, u.position.horizontal, u.position.polar_angle,
                u.qos.downlink, u.qos.uplink) for u in users] for users in rows]
    return _Population(*np.array(fields, dtype=float).reshape(len(rows), -1, 5).transpose(2, 0, 1))


def _gains(front_end: OpticalFrontEnd, population: _Population) -> np.ndarray:
    """:func:`.channel.los_gain` of every user, bit for bit.

    Its arithmetic runs on the arrays; ``cos(atan(r / l)) ** (m + 1)`` stays
    with the ``math`` functions, mapped over the ratios, because NumPy's
    vectorized ``cos``/``arctan`` may round differently. Out-of-FOV users
    get 0.
    """
    tan_fov, exponent, constant = front_end.gain_terms
    vertical, horizontal = population.vertical, population.horizontal
    with np.errstate(over="ignore"):  # an overflow is inf, as in los_gain
        ratio = horizontal / vertical
        reach = vertical * vertical + horizontal * horizontal
    cosines = map(math.cos, map(math.atan, ratio.ravel().tolist()))
    attenuation = np.fromiter(map(math.pow, cosines, repeat(exponent)), float, ratio.size)
    gains = constant / reach * attenuation.reshape(ratio.shape)
    return np.where(ratio > tan_fov, 0.0, gains)


def _interleave(*columns: np.ndarray) -> np.ndarray:
    """``(..., k)`` arrays merged along the last axis into ``(..., len * k)``."""
    return np.stack(columns, axis=-1).reshape(columns[0].shape[:-1] + (-1,))


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


def _pair_powers(strategy: Strategy, pz: float, h_far, h_near, opa, oma) -> tuple:
    """``allocate`` on arrays of pairs, from the pairing's OPA powers.

    Arguments and powers are ordered as in :func:`_opa_powers`; ``oma``
    holds each pair's ``2^(2 (R_far + R_near))`` per link, downlink first.
    Also returns the infeasible pairs, whose four demands are unbounded.
    """
    infeasible = h_far == 0.0  # the far member has the lower gain
    powers = opa
    if strategy is Strategy.OMA:
        k_dl, k_ul = oma[0] * pz, oma[1] * pz
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
    """One pairing's slot powers, leading axis strategies.

    Slots are far, near of each pair in pair order, then the unpaired user.
    """

    dl: np.ndarray  # (strategies, trials, users)
    ul: np.ndarray
    total: np.ndarray  # (strategies, trials)
    slots: np.ndarray  # (trials, users): each slot's user, a flat index into the chunk


class _Cells(NamedTuple):
    """One pairing's cells over a chunk, leading axes strategies and trials."""

    dl: np.ndarray  # slot powers as in _Powers
    ul: np.ndarray
    total: np.ndarray
    sum_rate: np.ndarray
    ee: np.ndarray
    k_out_dl: np.ndarray  # (strategies, trials, caps_dl)
    k_out_ul: np.ndarray  # (strategies, trials, caps_ul)


def _base_caps(config: ScenarioConfig) -> tuple[tuple[float], tuple[float]]:
    """The scenario's own downlink and uplink caps, each as a one-cap grid."""
    return (config.limits.max_total_dl,), (config.limits.max_per_user_ul,)


class _Chunk:
    """Shared per-chunk inputs: gains, rates, rate factors and the caps.

    Slot powers are stacked over the configured strategies in config order,
    plus OPA last when it is not one of them: adaptive pairing needs its total.
    """

    def __init__(self, config, population, caps_dl, caps_ul):
        self.config = config
        trials, n = population.vertical.shape
        self.rates_dl, self.rates_ul = population.rates_dl, population.rates_ul
        self.row_start = np.arange(0, trials * n, n)[:, None]
        # 2^(2R) from the scalar closed form, once per distinct rate of either link
        self.values, index = np.unique(np.concatenate((self.rates_dl, self.rates_ul), axis=1),
                                       return_inverse=True)
        index = index.reshape(trials, 2 * n)
        factors = np.array([_rate_factor(r) for r in self.values.tolist()])[index]
        # per user, flat over the chunk: gain (both links) and factors; rate indices
        self.users = np.stack((_gains(config.front_end, population), factors[:, :n],
                               factors[:, n:])).reshape(3, -1)
        self.gains = self.users[0].reshape(trials, n)
        self.rate_index = np.stack((index[:, :n], index[:, n:])).reshape(2, -1)
        # summed in user order, as np.sum sums one trial's rates
        self.sum_rate = np.sum(self.rates_dl, axis=1) + np.sum(self.rates_ul, axis=1)
        # clamped to the largest float, a cap counts infinite (infeasible) demands
        # as outages even where it is infinite; the base caps shed for served-only EE
        self.caps_dl, self.caps_ul, self.base_caps = (
            np.minimum(np.asarray(caps, dtype=float), sys.float_info.max)
            for caps in (caps_dl, caps_ul, _base_caps(config)))
        strategies = tuple(config.strategies)
        self.strategies = strategies + (() if Strategy.OPA in strategies else (Strategy.OPA,))
        self.opa = self.strategies.index(Strategy.OPA)

    def sort_order(self, method: str) -> np.ndarray:
        if method == "channel":  # ascending (gain, index)
            return np.argsort(self.gains, axis=1, kind="stable")
        values = _qos_sort_values(self.rates_dl, self.rates_ul, self.config.qos_pairing_key)
        return np.argsort(-values, axis=1, kind="stable")  # descending (rate), then index

    def slots(self, order: np.ndarray) -> np.ndarray:
        """Pair the i-th with the (n/2 + i)-th sorted user; far is the lower (gain, index)."""
        half = order.shape[1] // 2
        a, b = order[:, :half], order[:, half:2 * half]
        gains = np.take(self.users[0], order + self.row_start)
        gain_a, gain_b = gains[:, :half], gains[:, half:2 * half]
        swap = (gain_b < gain_a) | ((gain_b == gain_a) & (b < a))
        slots = order.copy()
        slots[:, 0:2 * half:2] = np.where(swap, b, a)
        slots[:, 1:2 * half:2] = np.where(swap, a, b)
        return slots

    def oma_factors(self, far: np.ndarray, near: np.ndarray) -> np.ndarray:
        """``2^(2 (R_far + R_near))`` of rate index pairs, from the scalar closed
        form once per distinct index pair present."""
        values, k = self.values.tolist(), len(self.values)
        present, codes = np.unique(far * k + near, return_inverse=True)
        table = np.array([_rate_factor(values[c // k] + values[c % k]) for c in present.tolist()])
        return table[codes.reshape(far.shape)]

    def powers(self, method: str) -> _Powers:
        """Every strategy's slot powers on one pairing method."""
        slots = self.slots(self.sort_order(method)) + self.row_start
        h, f_dl, f_ul = self.users.take(slots, axis=1)
        pz = self.config.noise_power
        shape = (len(self.strategies),) + slots.shape
        half = slots.shape[1] // 2
        far, near = slice(0, 2 * half, 2), slice(1, 2 * half, 2)
        h_far, h_near = h[:, far], h[:, near]
        oma = None
        if Strategy.OMA in self.strategies:
            index = self.rate_index.take(slots, axis=1)
            oma = self.oma_factors(index[:, :, far], index[:, :, near])
        dl, ul = np.empty(shape), np.empty(shape)
        pairs = dl[..., far], dl[..., near], ul[..., far], ul[..., near]  # as in _opa_powers
        infeasible = np.empty(shape[:2] + h_far.shape[1:], dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            opa = _opa_powers(pz, h_far, h_near,
                              (f_dl[:, far], f_dl[:, near], f_ul[:, far], f_ul[:, near]))
            for row, strategy in enumerate(self.strategies):
                powers, infeasible[row] = _pair_powers(strategy, pz, h_far, h_near, opa, oma)
                for slot, power in zip(pairs, powers):
                    slot[row] = power
            if slots.shape[1] % 2:  # single_user_allocation for the leftover
                h_u = h[:, -1]
                zero = h_u == 0.0
                dl[:, :, -1] = np.where(zero, math.inf, f_dl[:, -1] * pz / (h_u * h_u))
                ul[:, :, -1] = np.where(zero, math.inf, f_ul[:, -1] * pz / (h_u * h_u))
        # an infeasible pair goes out whole: all four demands unbounded
        for slot in pairs:
            np.copyto(slot, math.inf, where=infeasible)
        # pair by pair, each ((far_dl + near_dl) + far_ul) + near_ul, then the
        # leftover user's two links
        total = np.cumsum(((pairs[0] + pairs[1]) + pairs[2]) + pairs[3], axis=-1)[..., -1]
        if slots.shape[1] % 2:
            total = total + (dl[..., -1] + ul[..., -1])
        return _Powers(dl, ul, total, slots)

    def outcome(self, powers: _Powers) -> _Cells:
        """Outage counts at every cap and the EE of the configured strategies."""
        count = len(self.config.strategies)
        dl, ul, total = powers.dl[:count], powers.ul[:count], powers.total[:count]
        # downlink_uop: tail sums from the smallest power up, sorted once for
        # every cap
        tails = np.sort(dl, axis=-1)
        np.cumsum(tails, axis=-1, out=tails)
        k_out_dl = (tails[..., None, :] > self.caps_dl[:, None]).sum(axis=-1)
        k_out_ul = (ul[..., None, :] > self.caps_ul[:, None]).sum(axis=-1)
        sum_rate, power = np.broadcast_to(self.sum_rate, total.shape), total
        if self.config.ee_served_only:
            (cap_dl,), (cap_ul,) = self.base_caps
            shed_count = (tails > cap_dl).sum(axis=-1)
            # downlink_outage_mask: the heaviest users go first, ties toward
            # the lower slot
            heaviest = np.argsort(-dl, axis=-1, kind="stable")
            served_dl = np.empty(dl.shape, dtype=bool)
            np.put_along_axis(served_dl, heaviest,
                              np.arange(dl.shape[-1]) >= shed_count[..., None], axis=-1)
            served_ul = ~(ul > cap_ul)
            # slot by slot, downlink before uplink; a skipped term adds 0.0
            rates_dl, rates_ul = (np.take(r, powers.slots) for r in (self.rates_dl, self.rates_ul))
            sum_rate = np.cumsum(_interleave(np.where(served_dl, rates_dl, 0.0),
                                             np.where(served_ul, rates_ul, 0.0)),
                                 axis=-1)[..., -1]
            power = np.cumsum(_interleave(np.where(served_dl, dl, 0.0),
                                          np.where(served_ul, ul, 0.0)), axis=-1)[..., -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ee = np.where(power > 0.0, sum_rate / power, 0.0)
        return _Cells(dl, ul, total, sum_rate, ee, k_out_dl, k_out_ul)


def _evaluate(
    config: ScenarioConfig, population: _Population, caps_dl, caps_ul
) -> tuple[dict[str, _Cells], np.ndarray | None]:
    """Every configured pairing's cells over a chunk of trials, in config order.

    Each pairing method's slot powers are computed once, for all strategies
    at a time. Adaptive pairing picks, per trial, the channel or the QoS
    pairing's powers and slot rates (the QoS ones where their OPA total is
    cheaper under the scalar relative guard); outage and EE are then counted
    once per reported pairing. Also returns, per trial, where adaptive
    pairing kept the QoS pairing (None without adaptive pairing).
    """
    _check_user_count(population.vertical.shape[1])
    chunk = _Chunk(config, population, caps_dl, caps_ul)
    methods = dict.fromkeys(m for name in config.pairings
                            for m in (("channel", "qos") if name == "adaptive" else (name,)))
    powers = {m: chunk.powers(m) for m in methods}
    used_qos = None
    if "adaptive" in config.pairings:
        # the pairings it picks from are dropped unless reported themselves
        channel, qos = (powers[m] if m in config.pairings else powers.pop(m)
                        for m in ("channel", "qos"))
        used_qos = ~(channel.total[chunk.opa] <= qos.total[chunk.opa] * (1.0 + 1e-12))
        pick = used_qos[:, None]
        powers["adaptive"] = _Powers(*map(np.where, (pick, pick, used_qos, pick), qos, channel))
        del channel, qos
    cells = {name: chunk.outcome(powers[name]) for name in dict.fromkeys(config.pairings)}
    return cells, used_qos


def evaluate_population(
    config: ScenarioConfig, users: Sequence[UserNode]
) -> dict[tuple[str, str], CellResult]:
    """Run every configured (pairing, strategy) combination on one population."""
    cells, used_qos = _evaluate(config, _population_of([users]), *_base_caps(config))
    n = len(users)
    out = {}
    for pairing, cell in cells.items():
        method = pairing
        if pairing == "adaptive":
            method = "adaptive:qos" if used_qos[0] else "adaptive:channel"
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
                dl_powers=tuple(cell.dl[row, 0].tolist()),
                ul_powers=tuple(cell.ul[row, 0].tolist()),
            )
    return out


def _cell_keys(config: ScenarioConfig) -> list[tuple[str, str]]:
    return [(s.value, p) for p in config.pairings for s in config.strategies]


def _chunk_values(config: ScenarioConfig, trials: range, caps_dl, caps_ul) -> np.ndarray:
    """Per-trial values to average, one row per trial of the range.

    Columns per cell, in :func:`_cell_keys` order: EE, total power, the
    downlink UOP at each of ``caps_dl``, the uplink UOP at each of ``caps_ul``.
    """
    words = np.empty((len(trials), _word_count(config)), dtype=np.uint64)
    for row, i in enumerate(trials):
        # run_trial is looked up per call, so one trial stays the traceable unit
        words[row] = run_trial(config, i)
    population = _population_from_words(config, trials, words)
    cells, _ = _evaluate(config, population, caps_dl, caps_ul)
    n = config.num_users
    columns = []
    for name in config.pairings:
        cell = cells[name]
        block = np.concatenate((cell.ee[..., None], cell.total[..., None], cell.k_out_dl / n,
                                cell.k_out_ul / n), axis=-1)  # (strategies, trials, width)
        columns.append(block.transpose(1, 0, 2).reshape(len(trials), -1))
    return np.concatenate(columns, axis=1)


def _trial_ranges(trials: int, workers: int) -> list[range]:
    """Contiguous ranges of at most CHUNK trials, at least one per worker."""
    count = max(-(-trials // CHUNK), min(workers, trials))
    bounds = [trials * k // count for k in range(count + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _sums_in_trial_order(parts: Iterable[np.ndarray], columns: int) -> np.ndarray:
    # trial after trial, as a running float sum: the fixed order keeps the
    # means bit-identical for any worker count and chunking
    sums = np.zeros((1, columns))
    for part in parts:
        sums = np.cumsum(np.concatenate([sums, part]), axis=0)[-1:]
    return sums[0]


def _share_worker(conn, config: ScenarioConfig, share: list[range], caps_dl, caps_ul) -> None:
    """A child's share: ``None``, then one float64 message per range; or its error."""
    with conn:
        try:
            parts = [_chunk_values(config, trials, caps_dl, caps_ul) for trials in share]
        except Exception as error:
            return conn.send(error)
        conn.send(None)
        for part in parts:
            conn.send_bytes(part)


def _share_rows(child, conn, share: list[range], columns: int) -> Iterable[np.ndarray]:
    """A child's rows in trial order, one range at a time; its error is raised."""
    try:
        error = conn.recv()
        for trials in share if error is None else ():
            yield np.frombuffer(conn.recv_bytes()).reshape(len(trials), columns)
    except EOFError:
        child.join()
        raise RuntimeError(f"a worker process exited with code {child.exitcode} "
                           "before sending all its trials") from None
    if error is not None:
        raise error


def _reduce(
    config: ScenarioConfig, caps_dl: Sequence[float], caps_ul: Sequence[float], workers: int
) -> list[dict[tuple[str, str], CellSummary]]:
    """Trial-ordered means of every cell, one cells dict per swept cap.

    ``workers`` counts processes, the caller included: the trial ranges are
    split into that many contiguous shares (at most one per range), and
    ``workers - 1`` child processes evaluate the later shares while the
    caller evaluates the first. A child's error is re-raised here. Every
    child is joined, or terminated and joined, before this returns or raises.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    keys = _cell_keys(config)
    width = 2 + len(caps_dl) + len(caps_ul)
    ranges = _trial_ranges(config.trials, workers)
    workers = min(workers, len(ranges))
    shares = [ranges[len(ranges) * k // workers:len(ranges) * (k + 1) // workers]
              for k in range(workers)]
    children = []
    try:
        for share in shares[1:]:
            import multiprocessing  # here: single-worker runs need not load it

            conn, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_share_worker,
                                            args=(send, config, share, caps_dl, caps_ul))
            with send:  # then only the child holds it: its exit reads as EOF
                child.start()
            children.append((child, conn, share))
        own = map(_chunk_values, repeat(config), shares[0], repeat(caps_dl), repeat(caps_ul))
        received = (_share_rows(child, conn, share, width * len(keys))
                    for child, conn, share in children)
        sums = _sums_in_trial_order(chain(own, *received), width * len(keys))
    except BaseException:
        for child, _, _ in children:
            child.terminate()
        raise
    finally:
        for child, conn, _ in children:
            child.join()
            conn.close()
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
    qos = QosRates(config.sweep_rate, config.sweep_rate)
    points = []
    for value in values:
        if mode == "horizontal":
            near = UserPosition(config.l_max, 0.0)
            far = UserPosition(config.l_max, float(value))
        else:
            near = UserPosition(config.l_min, 0.0)
            # clamped to a finite position: where r overflows, the gain is 0
            # either way (out of the FOV, or l * l overflows too)
            r = config.r_max * float(value) / config.l_max
            far = UserPosition(float(value), min(r, sys.float_info.max))
        points.append([UserNode(near, qos), UserNode(far, qos)])
    # channel pairing of two users is their one pair, roles by gain
    pair_config = replace(config, pairings=("channel",), ee_served_only=False)
    cell = _evaluate(pair_config, _population_of(points), *_base_caps(config))[0]["channel"]
    ee, total = cell.ee.tolist(), cell.total.tolist()  # (strategies, points)
    return [
        CampaignSummary(
            scenario_id=config.scenario_id,
            num_users=2,
            trials=1,
            seed=config.seed,
            cells={(s.value, "none"): CellSummary(ee[row][i], total[row][i], None, None)
                   for row, s in enumerate(config.strategies)},
            sweep_parameter="r_far" if mode == "horizontal" else "l_far",
            sweep_value=float(value),
        )
        for i, value in enumerate(values)
    ]
