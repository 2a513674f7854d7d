"""Monte Carlo engine: sampling contracts, determinism, trial evaluation,
campaign reduction and the deterministic two-user sweeps."""

import math
import multiprocessing
import os
import platform
import re
import signal
import subprocess
import sys
import textwrap
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from lifi_noma import (
    NoiseModel,
    OpticalFrontEnd,
    PowerLimits,
    QosRates,
    ScenarioConfig,
    ScenarioValidationError,
    Strategy,
    UserNode,
    UserPosition,
    evaluate_population,
    run_campaign,
    run_trial,
    run_uop_sweep,
    sample_users,
    two_user_sweep,
)
from lifi_noma import simulation, streams
from lifi_noma.cli import load_scenario
from lifi_noma.simulation import _population_from_words
from lifi_noma.streams import CHUNK, SPAN, _block_streams

GOLDEN_EE_OPA = 458.0979517717648
GOLDEN_EE_NGDPA = 276.3050860830169


def desk_config(**overrides) -> ScenarioConfig:
    base = dict(num_users=8, trials=10, seed=5, qos_set=(1.0, 2.0, 3.0, 4.0))
    base.update(overrides)
    return ScenarioConfig(**base)


def reference_draw(config: ScenarioConfig, trial: int) -> list[bytes]:
    """The stream contract, literally: uniform l, uniform r, uniform angle,
    then one choice per link, from default_rng([seed, trial])."""
    rng = np.random.default_rng([config.seed, trial])
    n = config.num_users
    vertical = rng.uniform(config.l_min, config.l_max, n)
    horizontal = rng.uniform(0.0, config.r_max, n)
    polar = rng.uniform(0.0, 2.0 * math.pi, n)
    rates_dl = rng.choice(np.asarray(config.qos_set), size=n)
    rates_ul = rates_dl if config.qos_coupled_links else rng.choice(np.asarray(config.qos_set), size=n)
    return [a.tobytes() for a in (vertical, horizontal, polar, rates_dl, rates_ul)]


def drawn(config: ScenarioConfig, trial: int) -> list[bytes]:
    # run_trial returns the trial's raw words; the chunk converter draws from
    # them (the draws are its first five fields, the rates' factors follow)
    words = run_trial(config, trial)[None]
    return [a.tobytes() for a in _population_from_words(config, [trial], words)[:5]]


def golden_users() -> list[UserNode]:
    qos = QosRates(1.0, 1.0)
    return [
        UserNode(UserPosition(2.5, 0.0), qos),
        UserNode(UserPosition(2.5, 1.5), qos),
    ]


class TestSampling:
    def test_same_trial_same_population(self):
        config = desk_config()
        assert sample_users(config, 3) == sample_users(config, 3)

    def test_trials_are_distinct(self):
        config = desk_config()
        assert sample_users(config, 0) != sample_users(config, 1)

    def test_seed_changes_population(self):
        assert sample_users(desk_config(seed=1), 0) != sample_users(desk_config(seed=2), 0)

    def test_singleton_qos_set(self):
        config = desk_config(qos_set=(1.0,))
        for user in sample_users(config, 0):
            assert user.qos == QosRates(1.0, 1.0)

    def test_coupled_links_share_one_rate_draw(self):
        config = desk_config(num_users=100, qos_coupled_links=True)
        users = sample_users(config, 0)
        assert all(u.qos.downlink == u.qos.uplink for u in users)
        # positions are unaffected by the coupling flag
        free = sample_users(desk_config(num_users=100), 0)
        assert [u.position for u in users] == [u.position for u in free]

    def test_rates_come_from_the_qos_set(self):
        config = desk_config(num_users=200)
        allowed = set(config.qos_set)
        for user in sample_users(config, 4):
            assert user.qos.downlink in allowed
            assert user.qos.uplink in allowed

    def test_positions_respect_bounds(self):
        config = desk_config(num_users=500)
        for user in sample_users(config, 2):
            assert config.l_min <= user.position.vertical <= config.l_max
            assert 0.0 <= user.position.horizontal <= config.r_max
            assert 0.0 <= user.position.polar_angle < 2.0 * math.pi

    def test_radius_mean_matches_uniform_law(self):
        # 1e5 draws: the sample mean of r must sit within 1% of r_max / 2
        config = desk_config(num_users=100_000)
        users = sample_users(config, 0)
        mean_r = np.mean([u.position.horizontal for u in users])
        assert mean_r == pytest.approx(config.r_max / 2.0, rel=0.01)

    @pytest.mark.parametrize("qos_count", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("num_users", [7, 16])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_draw_matches_the_reference_sequence(self, qos_count, num_users, coupled):
        config = desk_config(num_users=num_users, qos_coupled_links=coupled,
                             qos_set=tuple(0.5 + 0.75 * k for k in range(qos_count)))
        # within the first span, then at and across a SPAN boundary
        for trial in (0, 3, SPAN - 1, SPAN, SPAN + 1, 2 * SPAN + 7):
            want = reference_draw(config, trial)
            assert drawn(config, trial) == want
            users = sample_users(config, trial)
            assert np.array([(u.position.vertical, u.position.horizontal,
                              u.position.polar_angle, u.qos.downlink, u.qos.uplink)
                             for u in users]).T.tobytes() == b"".join(want)

    def test_configs_that_share_the_geometry_fields_place_the_same_users(self):
        # a trial's first 3n words are its positions, so every field but
        # these five may differ; the rate draws come after them
        shared = ("seed", "num_users", "l_min", "l_max", "r_max")
        base = ScenarioConfig(num_users=7, trials=1, seed=9, l_min=1.2, l_max=2.8, r_max=2.5)
        others = [
            replace(base, trials=3000, scenario_id="rates", qos_set=(1.0, 2.0, 3.0, 4.0),
                    limits=PowerLimits(4.0, 0.5), strategies=(Strategy.OPA,),
                    pairings=("channel", "qos"), qos_pairing_key="uplink", ee_served_only=True),
            replace(base, qos_set=(2.5, 1.0, 3.0), qos_coupled_links=True,
                    front_end=OpticalFrontEnd(semi_angle_deg=15.0, fov_half_angle_deg=40.0),
                    noise=NoiseModel(psd=3e-22, bandwidth=1e7), sweep_mode="vertical",
                    sweep_values=(2.0,), sweep_rate=2.0, uop_sweep_link="ul",
                    uop_sweep_grid=(0.5, 1.0)),
        ]
        varied = {f.name for f in fields(ScenarioConfig)
                  if any(getattr(c, f.name) != getattr(base, f.name) for c in others)}
        assert varied == {f.name for f in fields(ScenarioConfig)} - set(shared)
        for trial in (0, SPAN - 1, SPAN, 2999):
            want = [user.position for user in sample_users(base, trial)]
            for config in others:
                assert [user.position for user in sample_users(config, trial)] == want

    def test_negative_trial_index_rejected(self):
        with pytest.raises(ValueError):
            sample_users(desk_config(), -1)


class TestStreamSeeding:
    """Each SPAN-aligned span of trials, clipped at the run's last trial, is
    seeded in one vectorized pass; every trial must still start where
    default_rng([seed, trial]) does."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 1])
    @pytest.mark.parametrize("trial", [0, SPAN - 1, SPAN, SPAN + 1, 2**32 - 1, 2**32, 2**32 + 5,
                                       2**64 + 5])
    def test_state_and_draws_match_default_rng(self, seed, trial):
        want = np.random.default_rng([seed, trial]).bit_generator.state["state"]
        span, offset = divmod(trial, SPAN)
        start = (want["state"] | want["inc"] << 128).to_bytes(32, "little")
        # a whole span, and one clipped right after the trial
        starts = _block_streams(seed, span, SPAN)
        assert starts[32 * offset:32 * offset + 32] == start
        assert _block_streams(seed, span, offset + 1) == starts[:32 * offset + 32]
        config = desk_config(seed=seed, num_users=7)
        assert drawn(config, trial) == reference_draw(config, trial)

    def test_the_last_span_stops_at_the_runs_last_trial(self):
        config = desk_config(seed=3, num_users=7, trials=300)
        assert drawn(config, 299) == reference_draw(config, 299)
        held, first, stop, starts = streams._thread.span[:4]
        assert held is config and (first, stop, len(starts)) == (0, 300, 32 * 300)
        # an index past the run still gets its stream
        trial = config.trials + 2 * SPAN + 5
        users = sample_users(config, trial)
        assert np.array([(u.position.vertical, u.position.horizontal, u.position.polar_angle,
                          u.qos.downlink, u.qos.uplink)
                         for u in users]).T.tobytes() == b"".join(reference_draw(config, trial))

    def test_the_written_state_reads_back_through_the_public_getter(self):
        # one bit generator, at and across a span boundary: after a trial's
        # words it stands where default_rng([seed, trial]) does after as many
        config = desk_config(seed=11)
        for trial in (SPAN - 2, SPAN - 1, SPAN, SPAN + 1, 3 * SPAN):
            words = run_trial(config, trial)
            want = np.random.default_rng([config.seed, trial]).bit_generator
            want.advance(len(words))
            got = streams._thread.span[-1].__self__  # the held random_raw's bit generator
            assert got.state["state"] == want.state["state"]

    def test_a_layout_other_than_the_setters_is_refused(self, monkeypatch):
        # a fresh thread's Generator whose view reads other bytes than the probe
        monkeypatch.setattr(streams, "_state_view", lambda bit_generator: memoryview(bytearray(32)))
        monkeypatch.setattr(streams, "_thread", streams._Thread())
        with pytest.raises(RuntimeError, match=re.escape(f"NumPy {np.__version__} ")):
            run_trial(desk_config(), 0)

    def test_out_of_order_draws_never_see_a_stale_block(self):
        sequence = [(5, 300), (5, 3), (5, SPAN + 3), (5, 300), (6, 300), (5, 3), (6, 3)]
        for seed, trial in sequence:
            config = desk_config(seed=seed)
            assert drawn(config, trial) == reference_draw(config, trial)

    def test_threads_drawing_at_once_each_get_their_own_stream(self):
        # more threads than cores, switching often, on trials of different
        # spans: a shared set-state-then-draw would hand out wrong bytes
        config = desk_config(num_users=16)
        trials = [[t * SPAN + k for k in range(0, 40, 3)] for t in range(4)]
        want = {i: reference_draw(config, i) for row in trials for i in row}
        wrong = []

        def work(row):
            for _ in range(20):
                for i in row:
                    if drawn(config, i) != want[i]:
                        wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(row,)) for row in trials]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


def reference_words(config: ScenarioConfig, trials) -> np.ndarray:
    """Each trial's words from default_rng([seed, trial]), one row each."""
    count = simulation._word_count(config)
    return np.stack([np.random.default_rng([config.seed, i]).bit_generator.random_raw(count)
                     for i in trials])


class TestHeldSpan:
    """A thread holds the span it drew from last, with its config, starts and
    word count; every trial must still read default_rng([seed, trial])'s
    words, whatever the thread held before."""

    @staticmethod
    def assert_words(config, trials):
        got = simulation._trial_words(config, trials)
        assert got.tobytes() == reference_words(config, trials).tobytes()

    def test_trials_at_a_span_boundary(self):
        self.assert_words(desk_config(seed=21, trials=3 * SPAN), range(SPAN - 1, SPAN + 2))

    def test_the_runs_last_partial_span_then_indices_past_the_run(self):
        config = desk_config(seed=22, trials=2 * SPAN + 100)
        self.assert_words(config, range(2 * SPAN + 90, 2 * SPAN + 100))
        # past the run, a whole span is held; the run's last trials read from it too
        self.assert_words(config, range(config.trials - 2, config.trials + 3))
        self.assert_words(config, [config.trials + SPAN, config.trials - 1, 3 * SPAN - 1])

    def test_configs_of_one_seed_interleaved_on_one_thread(self):
        # equal seeds, so only the held config tells the spans and word counts apart
        short = desk_config(seed=23, trials=300)
        configs = (short, replace(short, trials=3000), replace(short, num_users=5),
                   replace(short))
        for trial in (0, 1, 299, 298, 7):
            for config in configs:
                self.assert_words(config, [trial])
        self.assert_words(configs[1], [300, SPAN - 1, SPAN, 2999])
        self.assert_words(short, [299, 300])

    def test_two_threads_alternating_configs(self):
        one = desk_config(seed=24, trials=300)
        configs = (one, replace(one, trials=SPAN + 50), replace(one, num_users=5, trials=SPAN + 50))
        trials = [0, 1, 299, SPAN - 1, SPAN, SPAN + 49]
        want = {(id(c), i): reference_words(c, [i]).tobytes() for c in configs for i in trials}
        wrong = []

        def work(order):
            for _ in range(30):
                for config in order:
                    for i in trials:
                        if simulation._trial_words(config, [i]).tobytes() != want[(id(config), i)]:
                            wrong.append((config.trials, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(order,))
                       for order in (configs, configs[::-1])]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("index, error, message", [
        (-1, ValueError, "trial_index must be >= 0, got -1"),
        (-SPAN - 3, ValueError, f"trial_index must be >= 0, got {-SPAN - 3}"),
        (2.0, TypeError, None),  # inside the held span
        (2.5, TypeError, None),
        (SPAN + 2.0, TypeError, None),  # outside it
        ("2", TypeError, None),
    ])
    def test_negative_and_non_integer_indices_raise(self, index, error, message):
        config = desk_config(trials=SPAN)
        run_trial(config, 3)  # holds trials 0 to SPAN - 1
        with pytest.raises(error, match=message and re.escape(message)):
            run_trial(config, index)
        assert run_trial(config, 3).tobytes() == reference_words(config, [3]).tobytes()


def reads_past_its_words(config: ScenarioConfig, trial: int) -> bool:
    """Whether default_rng's rate draws of ``trial`` (``2n``, or ``n`` with
    coupled links) read past their words: Lemire's method rejected a 32-bit
    draw and drew again (for an odd count, more than once)."""
    n = config.num_users
    draws = n if config.qos_coupled_links else 2 * n
    rng = np.random.default_rng([config.seed, trial])
    rng.random(3 * n)
    rng.integers(0, len(config.qos_set), draws)
    fresh = np.random.default_rng([config.seed, trial])
    fresh.bit_generator.advance(3 * n + (draws + 1) // 2)
    return rng.bit_generator.state["state"] != fresh.bit_generator.state["state"]


class TestRawWords:
    """run_trial returns a trial's raw PCG64 words; the chunk converter redoes
    NumPy's uniform and bounded-integer conversions on them, bit for bit."""

    def test_uniform_is_low_plus_range_times_the_raw_unit_draw(self):
        # the converter's arithmetic; a NumPy build whose C random_uniform
        # fuses it into an FMA rounds differently and must fail here
        raw = np.random.Generator(np.random.PCG64(9)).bit_generator.random_raw(4096)
        unit = (raw >> 11) * 2.0 ** -53
        assert np.random.default_rng(9).random(4096).tobytes() == unit.tobytes()
        for low, high in ((1.5, 2.5), (0.0, 3.0), (0.0, 2.0 * math.pi), (-7.25, 1e3)):
            want = np.random.default_rng(9).uniform(low, high, 4096)
            assert want.tobytes() == (low + (high - low) * unit).tobytes()

    @pytest.mark.parametrize("num_users, qos_count, coupled, words", [
        (9, 1, False, 27),  # one rate: no integer draw
        (9, 1, True, 27),
        (9, 3, True, 27 + 5),  # 9 half-words, the last word's high half unused
        (9, 2**16, False, 27 + 9),  # a power of two: never rejects
        (8, 2**16, True, 24 + 4),
    ])
    def test_word_count_and_draws(self, num_users, qos_count, coupled, words):
        config = desk_config(num_users=num_users, qos_coupled_links=coupled,
                             qos_set=tuple(k * 2.0 ** -9 for k in range(qos_count)))
        for trial in (0, 1, CHUNK + 2):
            assert run_trial(config, trial).shape == (words,)
            assert drawn(config, trial) == reference_draw(config, trial)

    def test_rejected_rate_draws_are_redrawn_exactly(self):
        # (2^32 - k) % k is 67,296 for k = 100,000: Lemire's method rejects
        # about one 32-bit draw in 64,000, and a trial with 2n = 64 draws
        # about once in 1,000 trials
        config = desk_config(num_users=32, qos_set=tuple(k * 2.5e-3 for k in range(100_000)))
        rejecting = [t for t in range(4000) if reads_past_its_words(config, t)]
        assert rejecting
        for trial in rejecting:
            assert drawn(config, trial) == reference_draw(config, trial)
        # converted as one chunk: only the rejecting rows are redrawn
        trials = range(rejecting[0] - 2, rejecting[0] + 3)
        words = np.stack([run_trial(config, i) for i in trials])
        draws = _population_from_words(config, trials, words)
        for row, trial in enumerate(trials):
            assert [a[row].tobytes() for a in draws[:5]] == reference_draw(config, trial)

    def test_a_redraw_leaves_no_buffered_half_word_for_the_next(self):
        # coupled links and an even n: a redraw with one rejection reads n + 1
        # half-words, and the last word's high half stays buffered
        # (has_uint32 = 1); the next trial's state is written without
        # clearing it, so the next redraw must not read it
        config = desk_config(num_users=32, qos_coupled_links=True,
                             qos_set=tuple(k * 2.5e-3 for k in range(100_000)))
        trials = [t for t in range(4000) if reads_past_its_words(config, t)][:2]
        rng = np.random.default_rng([config.seed, trials[0]])
        rng.bit_generator.advance(3 * config.num_users)
        rng.integers(0, len(config.qos_set), config.num_users)
        assert len(trials) == 2 and rng.bit_generator.state["has_uint32"] == 1
        words = np.stack([run_trial(config, i) for i in trials])
        draws = _population_from_words(config, trials, words)
        for row, trial in enumerate(trials):
            assert [a[row].tobytes() for a in draws[:5]] == reference_draw(config, trial)


class TestConfigValidation:
    def test_lists_every_problem(self):
        with pytest.raises(ScenarioValidationError) as err:
            ScenarioConfig(num_users=1, trials=0, seed=-3, qos_set=())
        message = str(err.value)
        for fragment in ("num_users", "trials", "seed", "qos_set"):
            assert fragment in message

    def test_unknown_pairing_rejected(self):
        with pytest.raises(ScenarioValidationError):
            desk_config(pairings=("greedy",))

    @pytest.mark.parametrize("field, value, entry", [
        ("strategies", (Strategy.OPA, Strategy.GRPA, Strategy.OPA), "'opa'"),
        ("pairings", ("channel", "qos", "channel"), "'channel'"),
    ])
    def test_repeated_entries_are_refused_by_name(self, field, value, entry):
        # a repeat would be evaluated again, then collapse to one cell
        with pytest.raises(ScenarioValidationError, match=f"^{field} must not repeat {entry}$"):
            desk_config(**{field: value})

    def test_bad_bounds_rejected(self):
        with pytest.raises(ScenarioValidationError):
            desk_config(l_min=3.0, l_max=2.0)

    @pytest.mark.parametrize("rate", [-1.0, 256.0, math.nan, math.inf])
    def test_scenario_and_library_refuse_the_same_rates(self, rate):
        # one rate rule: a scenario's rates and a user's QosRates
        for field, value in (("qos_set", (1.0, rate)), ("sweep_rate", rate)):
            with pytest.raises(ScenarioValidationError, match=f"^{field} must") as err:
                desk_config(**{field: value})
            assert len(err.value.problems) == 1
        with pytest.raises(ValueError, match="^downlink must"):
            QosRates(rate, 1.0)

    @pytest.mark.parametrize("field, value", [
        ("strategies", ("opa",)), ("num_users", 4.0), ("trials", 3.0), ("seed", 1.5),
        ("qos_coupled_links", "no"), ("ee_served_only", 1), ("l_min", "1.5"), ("l_max", "2"),
        ("r_max", None), ("uop_sweep_grid", ("a",)), ("qos_set", ("1",)), ("sweep_rate", "1"),
        ("sweep_values", ("x",)), ("l_max", True), ("front_end", None), ("noise", None),
        ("limits", None), ("qos_set", 1.0), ("sweep_values", 3.0), ("uop_sweep_grid", None),
        ("pairings", "adaptive"), ("scenario_id", None), ("strategies", Strategy.OPA)])
    def test_library_inputs_of_the_wrong_type_are_refused_by_name(self, field, value):
        # scenario files cannot reach these: the CLI parsers return the right types
        with pytest.raises(ScenarioValidationError, match=f"^{field} must") as err:
            desk_config(**{field: value})
        assert len(err.value.problems) == 1


class TestTrialEvaluation:
    def test_golden_two_user_population(self):
        config = ScenarioConfig(num_users=2, trials=1, pairings=("channel",))
        cells = evaluate_population(config, golden_users())
        assert cells[("opa", "channel")].ee == pytest.approx(GOLDEN_EE_OPA, rel=1e-12)
        assert cells[("ngdpa", "channel")].ee == pytest.approx(GOLDEN_EE_NGDPA, rel=1e-12)

    def test_zero_rate_population(self):
        config = ScenarioConfig(
            num_users=2, trials=1, qos_set=(0.0,),
            limits=PowerLimits(max_total_dl=1.0, max_per_user_ul=1.0),
            pairings=("channel",),
        )
        users = [
            UserNode(UserPosition(2.0, 0.0), QosRates(0.0, 0.0)),
            UserNode(UserPosition(2.0, 1.0), QosRates(0.0, 0.0)),
        ]
        cells = evaluate_population(config, users)
        cell = cells[("opa", "channel")]
        assert cell.ee == 0.0
        assert cell.outage_dl.uop == 0.0
        assert cell.outage_ul.uop == 0.0

    def test_adaptive_equals_channel_under_equal_qos(self):
        config = desk_config(qos_set=(1.0,), pairings=("channel", "adaptive"))
        cells = evaluate_population(config, sample_users(config, 0))
        for strategy in ("opa", "ngdpa", "grpa", "oma"):
            channel_cell = cells[(strategy, "channel")]
            adaptive_cell = cells[(strategy, "adaptive")]
            assert adaptive_cell.total_power == channel_cell.total_power
            assert adaptive_cell.ee == channel_cell.ee
            assert adaptive_cell.method_used == "adaptive:channel"

    def test_adaptive_total_is_menu_minimum(self):
        config = desk_config(num_users=12, pairings=("channel", "qos", "adaptive"))
        for trial in range(10):
            cells = evaluate_population(config, sample_users(config, trial))
            assert cells[("opa", "adaptive")].total_power == min(
                cells[("opa", "channel")].total_power,
                cells[("opa", "qos")].total_power,
            )

    def test_odd_population_is_fully_served(self):
        config = desk_config(num_users=9)
        cell = evaluate_population(config, sample_users(config, 1))[("opa", "adaptive")]
        assert len(cell.dl_powers) == 9
        assert len(cell.ul_powers) == 9
        assert all(math.isfinite(p) for p in cell.dl_powers)

    def test_kept_powers_sum_to_total(self):
        config = desk_config()
        cell = evaluate_population(config, sample_users(config, 2))[("opa", "adaptive")]
        assert sum(cell.dl_powers) + sum(cell.ul_powers) == pytest.approx(
            cell.total_power, rel=1e-12
        )


class TestCampaigns:
    def test_single_trial_campaign_equals_trial(self):
        config = desk_config(trials=1)
        summary = run_campaign(config)
        cells = evaluate_population(config, sample_users(config, 0))
        for key, cell_summary in summary.cells.items():
            assert cell_summary.mean_ee == cells[key].ee
            assert cell_summary.mean_total_power == cells[key].total_power

    def test_worker_count_cannot_change_results(self):
        config = desk_config(trials=12)
        assert run_campaign(config, workers=1) == run_campaign(config, workers=3)

    def test_equal_qos_adaptive_matches_channel_mean(self):
        config = desk_config(qos_set=(1.0,), trials=30,
                             pairings=("channel", "adaptive"))
        summary = run_campaign(config)
        assert summary.cells[("opa", "adaptive")].mean_ee == summary.cells[
            ("opa", "channel")
        ].mean_ee

    def test_per_trial_strategy_dominance_in_means(self):
        # all sampled rates are >= 1/2, so the optimum leads every baseline
        summary = run_campaign(desk_config(trials=40))
        ee = {k[0]: v.mean_ee for k, v in summary.cells.items()}
        assert ee["opa"] >= ee["ngdpa"] >= ee["grpa"]
        assert ee["opa"] >= ee["oma"]

    def test_optimum_dominates_in_every_single_trial(self):
        config = desk_config(trials=40)
        for trial in range(config.trials):
            cells = evaluate_population(config, sample_users(config, trial))
            best = cells[("opa", "adaptive")].ee
            for strategy in ("ngdpa", "grpa", "oma"):
                assert best >= cells[(strategy, "adaptive")].ee

    def test_finite_slot_powers_that_sum_past_the_largest_float_total_inf(self):
        # OMA's slot powers are finite here, and their sum is not
        config = ScenarioConfig(num_users=6, trials=1, seed=168, qos_set=(253.0,), l_min=1.0,
                                l_max=1.25, pairings=("channel",),
                                front_end=OpticalFrontEnd(semi_angle_deg=21.0,
                                                          fov_half_angle_deg=66.0))
        oma = evaluate_population(config, sample_users(config, 0))[("oma", "channel")]
        powers = oma.dl_powers + oma.ul_powers
        assert all(map(math.isfinite, powers)) and sum(powers) == math.inf
        assert oma.total_power == math.inf
        assert run_campaign(config).cells[("oma", "channel")].mean_total_power == math.inf

    def test_finite_totals_that_sum_past_the_largest_float_average_to_inf(self):
        config = ScenarioConfig(num_users=2, trials=2, seed=38, qos_set=(255.0,),
                                strategies=(Strategy.OPA,), pairings=("channel",),
                                front_end=OpticalFrontEnd(area=1e-6))
        totals = [evaluate_population(config, sample_users(config, trial))[("opa", "channel")]
                  .total_power for trial in range(2)]
        assert all(map(math.isfinite, totals)) and sum(totals) == math.inf
        for workers in (1, 2):
            summary = run_campaign(config, workers=workers)
            assert summary.cells[("opa", "channel")].mean_total_power == math.inf


class TestChunkSize:
    """A chunk holds CHUNK trials, doubled while a ``(users, strategies, trials)``
    array stays within ``128 * CHUNK`` elements and the chunk is shorter than
    the run; the trial-order sums keep every mean independent of it."""

    def test_wide_configs_keep_chunk_and_the_lean_one_takes_a_span(self, monkeypatch):
        root = Path(__file__).resolve().parent.parent
        for name in ("campaign_16users.cfg", "uop_downlink.cfg"):
            # 16 users and 4 strategies: the budget holds 2 * CHUNK trials
            assert simulation._chunk_size(load_scenario(root / "scenarios" / name)) == (
                128 * CHUNK // (16 * 4))
        # the benchmark's campaign-lean config: 5 users, OPA, 2,000 trials
        monkeypatch.syspath_prepend(str(root / "bench"))
        from workloads import WORKLOADS

        lean = WORKLOADS["campaign-lean"]
        overrides = dict(lean.overrides, strategies=tuple(map(Strategy, lean.strategies)))
        config = replace(load_scenario(root / lean.scenario), trials=lean.trials, **overrides)
        assert simulation._chunk_size(config) == SPAN

    def test_chunks_that_cut_spans_keep_the_means(self, monkeypatch):
        # 5 users and one strategy: the budget holds 6,553 trials, so chunks of
        # 2 * SPAN, cut into two ranges of about 2,066 on 1 worker, each across
        # a span's edge
        config = desk_config(num_users=5, trials=2 * SPAN + 37, strategies=(Strategy.OPA,),
                             pairings=("channel", "qos", "adaptive"))
        assert simulation._chunk_size(config) == 2 * SPAN
        assert simulation._trial_ranges(config.trials, 1, 2 * SPAN) == [
            range(0, 2066), range(2066, 2 * SPAN + 37)]
        summary = run_campaign(config, workers=1)
        assert run_campaign(config, workers=2) == summary
        assert run_campaign(config, workers=3) == summary
        monkeypatch.setattr(simulation, "_chunk_size", lambda config: CHUNK)
        assert run_campaign(config, workers=1) == summary


def _patched_chunks(monkeypatch, fail):
    """Make ``_chunk_values`` call ``fail(trials)`` first; forked children inherit it."""
    real = simulation._chunk_values

    def chunk_values(config, trials, caps_dl, caps_ul):
        fail(trials)
        return real(config, trials, caps_dl, caps_ul)

    monkeypatch.setattr(simulation, "_chunk_values", chunk_values)


# the engine's rule: fork on Linux, the default start method elsewhere
forked = pytest.mark.skipif(
    sys.platform != "linux" and multiprocessing.get_start_method() != "fork",
    reason="the engine is patched before the children are forked")


BOUND_S = 30  # an in-process worker test takes well under a second


@pytest.fixture
def bounded():
    """Fail the test, rather than hang, if it still waits after ``BOUND_S`` seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"the test still waited after {BOUND_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, BOUND_S)  # a forked child does not inherit it
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left() -> None:
    """This process has no child, running or exited but not reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Locked(ArithmeticError):
    """An error that cannot be pickled: it holds a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class Two(ArithmeticError):
    """An error that pickles but cannot be rebuilt: its ``__init__`` takes two arguments."""

    def __init__(self, what, where):
        super().__init__(f"no {what} {where}")


def _run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this package; it must exit 0.
    Returns what it printed."""
    src = str(Path(simulation.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          stdout=subprocess.PIPE, text=True, timeout=120, check=True).stdout


# Minor page faults per warm 500-trial desk campaign call, fixed before the
# first run: a chunk's arrays reuse heap pages the process holds (0 to 1 faults
# per call), where a heap trimmed after every call faults them in again (93 to
# 215). The campaign's arrays have the same sizes whatever the seed; a UOP
# sweep's do not, and one larger block freed can raise glibc's thresholds
# without the module's own, so whether it trims depends on the seeds.
FAULTS_PER_CALL = 20


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap thresholds")
def test_warm_calls_fault_no_heap_pages_back_in():
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "campaign_16users.cfg"
    faults = float(_run_python(textwrap.dedent(f"""
        import resource
        from dataclasses import replace
        from lifi_noma import run_campaign
        from lifi_noma.cli import load_scenario

        config = replace(load_scenario({str(scenario)!r}), trials=500)

        def faults(seeds):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for seed in seeds:  # a new seed per call, as the benchmark's calls
                run_campaign(replace(config, seed=seed))
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(range(5))  # first calls: numpy.random, the code's first pages
        print(faults(range(5, 25)) / 20)
    """)))
    assert faults < FAULTS_PER_CALL


class TestWorkerProcesses:
    """``workers - 1`` children evaluate the later shares, the caller the first."""

    @forked
    @pytest.mark.usefixtures("bounded")
    def test_a_child_error_is_raised_in_the_caller(self, monkeypatch):
        def fail(trials):
            if trials.start:
                raise ArithmeticError(f"no trial {trials.start}")

        _patched_chunks(monkeypatch, fail)
        with pytest.raises(ArithmeticError, match="^no trial 6$"):
            run_campaign(desk_config(trials=12), workers=2)
        assert_no_child_left()

    @forked
    @pytest.mark.usefixtures("bounded")
    def test_a_child_that_dies_names_its_exit_code(self, monkeypatch):
        def fail(trials):
            if trials.start:
                os._exit(3)

        _patched_chunks(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="exited with code 3 "):
            run_campaign(desk_config(trials=12), workers=2)
        assert_no_child_left()

    @forked
    @pytest.mark.usefixtures("bounded")
    def test_an_error_in_the_callers_share_leaves_no_child(self, monkeypatch):
        def fail(trials):
            if not trials.start:
                raise ArithmeticError("no trial 0")

        _patched_chunks(monkeypatch, fail)
        # the children are still evaluating, or blocked on a full pipe: a
        # chunk's rows at 16 caps outgrow a 64 KiB pipe buffer
        grid = tuple(2.0 ** k for k in range(-8, 8))
        with pytest.raises(ArithmeticError, match="^no trial 0$"):
            run_uop_sweep(desk_config(trials=3 * CHUNK, uop_sweep_grid=grid), workers=3)
        assert_no_child_left()

    @forked
    @pytest.mark.usefixtures("bounded")
    @pytest.mark.parametrize("error", [Locked("no trial 6"), Two("trial", 6)],
                             ids=["not-picklable", "not-rebuildable"])
    def test_an_error_the_caller_cannot_receive_is_named(self, monkeypatch, capfd, error):
        def fail(trials):
            if trials.start:
                raise error

        _patched_chunks(monkeypatch, fail)
        name = type(error).__name__
        with pytest.raises(RuntimeError, match=f"^a worker process raised {name}: no trial 6$"):
            run_campaign(desk_config(trials=12), workers=2)
        assert capfd.readouterr().err == ""
        assert_no_child_left()

    @pytest.mark.skipif(sys.platform != "linux", reason="the engine forks on Linux only")
    def test_a_pooled_run_on_linux_leaves_multiprocessing_unloaded(self):
        _run_python(textwrap.dedent("""
            import sys
            from lifi_noma import ScenarioConfig, run_campaign
            c = ScenarioConfig(num_users=5, trials=2 * 256 + 9, seed=4, qos_set=(1.0, 2.0))
            same = run_campaign(c, workers=3) == run_campaign(c, workers=1)
            sys.exit(not same or "multiprocessing" in sys.modules)
        """))

    def test_shares_under_spawn_equal_one_worker(self):
        # spawned children import the package afresh and get the config pickled
        _run_python(textwrap.dedent("""
            import multiprocessing, sys
            from lifi_noma import ScenarioConfig, run_campaign
            multiprocessing.set_start_method("spawn")
            sys.platform = "darwin"  # off Linux the engine takes the default start method
            c = ScenarioConfig(num_users=5, trials=2 * 256 + 9, seed=4, qos_set=(1.0, 2.0))
            sys.exit(run_campaign(c, workers=2) != run_campaign(c, workers=1))
        """))

    @pytest.mark.skipif(sys.platform != "linux", reason="the engine forks on Linux only")
    def test_children_fork_on_linux_under_another_default(self):
        # a forkserver child would import the package afresh, without the patch
        _run_python(textwrap.dedent("""
            import multiprocessing, sys
            from lifi_noma import ScenarioConfig, run_campaign, simulation
            multiprocessing.set_start_method("forkserver")
            real = simulation._chunk_values

            def chunk_values(config, trials, caps_dl, caps_ul):
                if trials.start:
                    raise ArithmeticError(f"no trial {trials.start}")
                return real(config, trials, caps_dl, caps_ul)

            simulation._chunk_values = chunk_values
            try:
                run_campaign(ScenarioConfig(num_users=8, trials=12, seed=5), workers=2)
            except ArithmeticError as error:
                sys.exit(str(error) != "no trial 6")
            sys.exit("the child's share ran without the patch")
        """))


class TestUopSweep:
    def test_outage_non_increasing_and_ee_constant(self):
        config = desk_config(
            trials=25,
            limits=PowerLimits(max_total_dl=math.inf, max_per_user_ul=0.5),
            uop_sweep_link="dl",
            uop_sweep_grid=(0.5, 1.0, 2.0, 4.0, 8.0),
        )
        summaries = run_uop_sweep(config)
        assert [s.sweep_value for s in summaries] == [0.5, 1.0, 2.0, 4.0, 8.0]
        for key in summaries[0].cells:
            uops = [s.cells[key].mean_uop_dl for s in summaries]
            assert all(a >= b for a, b in zip(uops, uops[1:]))
            ees = {s.cells[key].mean_ee for s in summaries}
            assert len(ees) == 1  # EE ignores the swept cap
            # the un-swept uplink cap stays in force
            assert all(s.cells[key].mean_uop_ul == summaries[0].cells[key].mean_uop_ul
                       for s in summaries)

    def test_empty_grid_rejected(self):
        with pytest.raises(ScenarioValidationError):
            run_uop_sweep(desk_config(uop_sweep_grid=()))


class TestTwoUserSweep:
    def test_default_horizontal_grid(self):
        points = two_user_sweep(ScenarioConfig(num_users=2, trials=1))
        assert [p.sweep_value for p in points] == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        assert all(p.sweep_parameter == "r_far" for p in points)

    def test_golden_point(self):
        points = two_user_sweep(ScenarioConfig(num_users=2, trials=1))
        at_15 = {k[0]: c for k, c in points[2].cells.items()}
        assert points[2].sweep_value == 1.5
        assert at_15["opa"].mean_ee == pytest.approx(GOLDEN_EE_OPA, rel=1e-12)
        assert at_15["ngdpa"].mean_ee == pytest.approx(GOLDEN_EE_NGDPA, rel=1e-12)

    def test_monotone_strategies_decrease_with_separation(self):
        points = two_user_sweep(ScenarioConfig(num_users=2, trials=1))
        for strategy in ("opa", "grpa", "oma"):
            ees = [p.cells[(strategy, "none")].mean_ee for p in points]
            assert all(a > b for a, b in zip(ees, ees[1:]))

    def test_ngdpa_peaks_mid_sweep(self):
        points = two_user_sweep(ScenarioConfig(num_users=2, trials=1))
        ees = [p.cells[("ngdpa", "none")].mean_ee for p in points]
        assert max(ees) == ees[2]  # peak at r_far = 1.5 m

    def test_vertical_sweep_decreases(self):
        points = two_user_sweep(ScenarioConfig(num_users=2, trials=1, sweep_mode="vertical"))
        assert [round(p.sweep_value, 3) for p in points] == [1.5, 1.7, 1.9, 2.1, 2.3, 2.5]
        assert all(p.sweep_parameter == "l_far" for p in points)
        for strategy in ("opa", "ngdpa", "grpa", "oma"):
            ees = [p.cells[(strategy, "none")].mean_ee for p in points]
            assert all(a > b for a, b in zip(ees, ees[1:]))

    def test_custom_rate_scales_sum_rate(self):
        points = two_user_sweep(
            ScenarioConfig(num_users=2, trials=1, sweep_values=(1.5,), sweep_rate=0.5)
        )
        cell = points[0].cells[("opa", "none")]
        assert cell.mean_ee == pytest.approx(2.0 / cell.mean_total_power, rel=1e-12)

    def test_vertical_sweep_past_the_largest_float_gives_no_gain(self):
        # r = r_max * l / l_max overflows for these heights; the far user
        # has gain 0 (and unbounded powers) as it would at r = inf
        config = ScenarioConfig(num_users=2, trials=1, l_min=1e-50, l_max=1e-50,
                                sweep_mode="vertical", sweep_values=(1e250, 1e300))
        for point in two_user_sweep(config):
            for cell in point.cells.values():
                assert (cell.mean_ee, cell.mean_total_power) == (0.0, math.inf)

    @pytest.mark.parametrize("mode, r_max, values", [
        ("horizontal", 3.0, (0.0, -0.0, 0.5, 2.9, 1e200)),
        ("vertical", 3.0, (1.5, 1.7, 2.5, 1e250)),
        ("vertical", 1e10, (1.5, 1e299, 1e300)),  # r = r_max * l / l_max overflows here
    ])
    def test_each_point_is_the_pair_evaluate_population_sees(self, mode, r_max, values):
        config = ScenarioConfig(num_users=2, trials=1, r_max=r_max, sweep_mode=mode,
                                sweep_values=values, sweep_rate=0.7, pairings=("channel",))
        qos = QosRates(0.7, 0.7)
        for value, point in zip(values, two_user_sweep(config)):
            if mode == "horizontal":
                near, far = UserPosition(config.l_max, 0.0), UserPosition(config.l_max, value)
            else:
                r = min(config.r_max * value / config.l_max, sys.float_info.max)
                near, far = UserPosition(config.l_min, 0.0), UserPosition(value, r)
            cells = evaluate_population(config, [UserNode(near, qos), UserNode(far, qos)])
            assert point.cells == {
                (s.value, "none"): simulation.CellSummary(cells[(s.value, "channel")].ee,
                                                          cells[(s.value, "channel")].total_power,
                                                          None, None)
                for s in config.strategies}


class TestServedOnlyAccounting:
    def test_uncapped_served_only_matches_default(self):
        users = golden_users()
        base = ScenarioConfig(num_users=2, trials=1, pairings=("channel",))
        served = ScenarioConfig(
            num_users=2, trials=1, pairings=("channel",), ee_served_only=True
        )
        cells_base = evaluate_population(base, users)
        cells_served = evaluate_population(served, users)
        for key in cells_base:
            assert cells_served[key].ee == pytest.approx(cells_base[key].ee, rel=1e-12)

    def test_shedding_users_changes_the_ee_accounting(self):
        # uplink cap below the near user's demand: its rate and power drop out
        users = golden_users()
        config = ScenarioConfig(
            num_users=2, trials=1, pairings=("channel",), ee_served_only=True,
            limits=PowerLimits(max_total_dl=math.inf, max_per_user_ul=2.0e-3),
        )
        cell = evaluate_population(config, users)[("opa", "channel")]
        assert cell.outage_ul.uop == 0.5
        assert cell.sum_rate == 3.0  # one uplink rate excluded
