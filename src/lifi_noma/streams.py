"""Per-trial PCG64 streams: trial ``i`` reads ``default_rng([seed, i])``'s stream,
as many words as its draw takes and in its draw's order (:func:`run_trial`),
and a chunk's words become that generator's draws (:func:`_draws`).

The starts of a span of SPAN trials, clipped at the run's last trial, come
from one vectorized pass over SeedSequence's integer hash and PCG64's seeding
step. Each thread holds the span it drew from last, with its config, starts
and words per trial. A trial of that span has its start written into the
thread's PCG64 in place, through a view whose layout is checked once per
thread against the setter, and its words drawn.
"""

from __future__ import annotations

import ctypes
import operator
import threading

import numpy as np

# The unit of a chunk of trials drawn and evaluated together (see
# simulation._chunk_size): a chunk is CHUNK trials doubled while a
# (users, strategies, trials) array holds at most 128 * CHUNK elements, so a
# desk chunk (16 users, 4 strategies) holds 2 * CHUNK, enough to amortize
# NumPy's per-call overhead.
CHUNK = 256
# Trials seeded in one pass. A power of two, so it divides 2^32 and a span's
# trials differ only in their lowest word.
SPAN = 8 * CHUNK

# SeedSequence's hash constants and PCG64's 128-bit multiplier, as in
# NumPy's bit_generator.pyx and pcg64.h; _block_streams redoes their integer
# arithmetic.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_MASK32 = (1 << 32) - 1
_POOL = 4  # SeedSequence's default pool size, in uint32 words


def _words(value: int) -> list[int]:
    """``value`` as the little-endian uint32 words SeedSequence splits it into."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _block_streams(seed: int, span: int, count: int) -> bytes:
    """PCG64 starts of the ``count`` trials from ``span * SPAN`` on, 32 bytes each.

    Each is the state ``default_rng([seed, trial])`` starts from, as the 32
    little-endian bytes of ``state | inc << 128``. The uint32 arithmetic of
    SeedSequence (hash pool, then ``generate_state(4, uint64)``) runs on
    arrays over the span, and so does PCG64's 128-bit seeding step, in
    uint64 halves.
    """
    seed_words = _words(seed)
    entropy = [np.full(count, w, dtype=np.uint32) for w in seed_words + _words(span * SPAN)]
    entropy[len(seed_words)] += np.arange(count, dtype=np.uint32)

    def hasher(const: int, mult: int):  # SeedSequence's hash step, from its two constants
        def step(value: np.ndarray) -> np.ndarray:
            nonlocal const
            value = value ^ const
            const = const * mult & _MASK32
            value = value * const
            return value ^ value >> 16
        return step

    hashmix = hasher(_INIT_A, _MULT_A)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_L * x - _MIX_R * y
        return result ^ result >> 16

    zero = np.zeros(count, dtype=np.uint32)
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
    words = np.array(list(map(hasher(_INIT_B, _MULT_B), pool * 2)), dtype=np.uint64)
    state_hi, state_lo, seq_hi, seq_lo = words[0::2] | words[1::2] << 32
    # PCG64's srandom_r: inc = seq << 1 | 1, state = (initstate + inc) * MULT + inc,
    # mod 2^128 in wrapping uint64 halves
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    lo = state_lo + inc_lo
    hi = state_hi + inc_hi + (lo < inc_lo)
    # the product's high word: lo * _PCG_LO's high word, from 32-bit splits,
    # plus the wrapping lo * _PCG_HI + hi * _PCG_LO
    low, high = lo & _MASK32, lo >> 32
    cross = high * (_PCG_LO & _MASK32) + (low * (_PCG_LO & _MASK32) >> 32)
    carry = (low * (_PCG_LO >> 32) + (cross & _MASK32)) >> 32
    hi = high * (_PCG_LO >> 32) + (cross >> 32) + carry + lo * _PCG_HI + hi * _PCG_LO
    lo = lo * _PCG_LO + inc_lo
    hi += inc_hi + (lo < inc_lo)
    return np.stack((lo, hi, inc_lo, inc_hi), axis=1).astype("<u8", copy=False).tobytes()


def _rate_draws(config) -> int:
    """How many 32-bit integer draws pick a trial's rates (none from one rate)."""
    if len(config.qos_set) == 1:
        return 0
    return config.num_users if config.qos_coupled_links else 2 * config.num_users


def _word_count(config) -> int:
    """Raw 64-bit words of one trial: ``3n`` uniforms, then the rate draws in pairs."""
    return 3 * config.num_users + (_rate_draws(config) + 1) // 2


class _Thread(threading.local):
    """This thread's held span: the config (by identity), its first and stop
    trial, their starts, words per trial, and the PCG64's state view and
    ``random_raw``. Each thread holds its own; none is shared."""

    span = (None, 0, 0, b"", 0, None, None)


_thread = _Thread()
_PROBE = bytes(range(1, 33))  # 32 distinct bytes: another layout reads them differently


def _state_view(bit_generator) -> memoryview:
    """The ``pcg64_random_t`` that the first member of NumPy's ``pcg64_state`` points at."""
    address = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
    return memoryview((ctypes.c_ubyte * 32).from_address(address)).cast("B")


def _hold(config, trial_index: int) -> tuple:
    """Seed this thread's span of ``config``'s trials around ``trial_index``, and hold it."""
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    span = operator.index(trial_index) // SPAN
    # a run's last span stops at its last trial; an index past the run gets a whole span
    count = SPAN if trial_index >= config.trials else min(config.trials - span * SPAN, SPAN)
    state, random_raw = _thread.span[5:]
    if state is None:
        # made on first use: importing numpy.random with the package would
        # add about 12 ms to every start. NumPy's struct layout is internal:
        # check the view once per thread against the setter
        bit_generator = np.random.PCG64(0)
        state, random_raw = _state_view(bit_generator), bit_generator.random_raw
        probe, inc = (int.from_bytes(_PROBE[i:i + 16], "little") for i in (0, 16))
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": probe, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        if bytes(state) != _PROBE:
            raise RuntimeError(f"NumPy {np.__version__} does not store PCG64's state as "
                               "little-endian 128-bit state then inc; trial streams cannot be set")
    first, starts = span * SPAN, _block_streams(config.seed, span, count)
    _thread.span = held = (config, first, first + count, starts, _word_count(config), state, random_raw)
    return held


def run_trial(config, trial_index: int) -> np.ndarray:
    """Trial ``trial_index``'s raw PCG64 words: all that its draw consumes.

    The draw (:func:`_draws`) takes one 64-bit word per uniform (vertical and
    horizontal distances, polar angles; ``3n``) and one 32-bit half-word per
    rate index, low half first: ``2n``, or ``n`` with ``qos_coupled_links``, or
    none from a one-rate QoS set. This is the one RNG stream of a trial, and
    that order is part of the contract. The chunk evaluator calls it once per trial.

    In this thread's held span, a trial costs an identity and a range check,
    a 32-byte state write and ``random_raw`` (which reads the state alone);
    any other trial first seeds and holds its own span.
    """
    held, first, stop, starts, count, state, random_raw = _thread.span
    if held is not config or not first <= trial_index < stop:
        held, first, stop, starts, count, state, random_raw = _hold(config, trial_index)
    offset = 32 * (trial_index - first)
    state[:] = starts[offset:offset + 32]
    return random_raw(count)


def _draws(config, trials, words: np.ndarray) -> tuple[np.ndarray, ...]:
    """The draws of ``trials`` from their :func:`run_trial` words, one row each: the
    ``(trials, n)`` heights, distances and polar angles, then the rate indices.

    NumPy's conversions, bit for bit, on the whole array: ``uniform(low, high)``
    is ``low + (high - low) * (word >> 11) * 2^-53``, and ``integers(0, k)`` is
    Lemire's ``(u32 * k) >> 32`` (zeros from a one-rate set). Lemire's method
    rejects a ``u32`` whose low product word is below ``(2^32 - k) % k``; a row
    with one has its indices redrawn by ``default_rng([seed, i])`` past the ``3n`` uniforms.
    """
    n, k, draws = config.num_users, len(config.qos_set), _rate_draws(config)
    unit = (words[:, :3 * n] >> 11) * 2.0 ** -53
    positions = [low + (high - low) * unit[:, part * n:(part + 1) * n]
                 for part, (low, high) in enumerate(
                     ((config.l_min, config.l_max), (0.0, config.r_max), (0.0, 2.0 * np.pi)))]
    del unit  # the draw's largest array, freed before the rate draws
    if not draws:
        return (*positions, np.zeros((len(words), n), dtype=np.intp))
    # the 32-bit halves, low half first on any host, widened so u32 * k cannot wrap on NumPy 1.x
    scaled = words[:, 3 * n:].astype("<u8", copy=False).view("<u4")[:, :draws].astype("u8") * k
    index = (scaled >> 32).astype(np.intp)
    if threshold := ((1 << 32) - k) % k:
        for row in np.flatnonzero(((scaled & _MASK32) < threshold).any(axis=1)).tolist():
            rng = np.random.default_rng([config.seed, trials[row]])
            rng.bit_generator.advance(3 * n)
            index[row] = rng.integers(0, k, draws)
    return (*positions, index)
