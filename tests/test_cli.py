"""Scenario file loading and the command-line contract: CSV schema, summary
document, reproducibility and exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lifi_noma
from lifi_noma import (
    NoiseModel,
    OpticalFrontEnd,
    PowerLimits,
    ScenarioConfig,
    ScenarioValidationError,
    Strategy,
    run_campaign,
    run_uop_sweep,
)
from lifi_noma.cli import (
    _COMMANDS,
    _KEYS,
    CSV_COLUMNS,
    ScenarioParseError,
    load_scenario,
    main,
    run,
)

ROOT = Path(__file__).resolve().parent.parent
MINIMAL = "num_users = 4\ntrials = 2\n"
# stage 2 refuses the optics, the noise, the caps and two strategies; the bad
# l_min waits for stage 3, which needs valid parts to build the config
SIX_BAD_VALUES = MINIMAL + (
    "area_m2 = 0\nnoise_psd = -1\np_max_dl = -2\nstrategies = opa, foo, bar\nl_min = -1\n"
)
STAGE_TWO_PROBLEMS = ("area must be positive", "noise PSD must be positive",
                      "max_total_dl must be positive", "unknown strategy 'foo'",
                      "unknown strategy 'bar'")


# Every scenario key: a valid value other than its default, and where the loaded config
# holds it. Six keys are not their field's name: area_m2, noise_psd, bandwidth_hz,
# p_max_dl, p_max_ul and pairing.
EVERY_KEY = {
    "scenario_id": ("Desk_A", "scenario_id", "Desk_A"),
    "num_users": ("6", "num_users", 6),
    "trials": ("3", "trials", 3),
    "seed": ("7", "seed", 7),
    "qos_set": ("0.5, 2", "qos_set", (0.5, 2.0)),
    "l_min": ("1.2", "l_min", 1.2),
    "l_max": ("2.8", "l_max", 2.8),
    "r_max": ("2.5", "r_max", 2.5),
    "semi_angle_deg": ("60", "front_end.semi_angle_deg", 60.0),
    "responsivity": ("0.5", "front_end.responsivity", 0.5),
    "area_m2": ("2e-4", "front_end.area", 2e-4),
    "fov_half_angle_deg": ("65", "front_end.fov_half_angle_deg", 65.0),
    "filter_gain": ("0.8", "front_end.filter_gain", 0.8),
    "refractive_index": ("1.4", "front_end.refractive_index", 1.4),
    "noise_psd": ("3e-22", "noise.psd", 3e-22),
    "bandwidth_hz": ("1e7", "noise.bandwidth", 1e7),
    "p_max_dl": ("0.5", "limits.max_total_dl", 0.5),
    "p_max_ul": ("0.25", "limits.max_per_user_ul", 0.25),
    "strategies": ("OMA, opa", "strategies", (Strategy.OMA, Strategy.OPA)),
    "pairing": ("channel, qos", "pairings", ("channel", "qos")),
    "qos_pairing_key": ("uplink", "qos_pairing_key", "uplink"),
    "qos_coupled_links": ("true", "qos_coupled_links", True),
    "ee_served_only": ("yes", "ee_served_only", True),
    "sweep_mode": ("vertical", "sweep_mode", "vertical"),
    "sweep_values": ("1.5, 2", "sweep_values", (1.5, 2.0)),
    "sweep_rate": ("0.75", "sweep_rate", 0.75),
    "uop_sweep_link": ("ul", "uop_sweep_link", "ul"),
    "uop_sweep_grid": ("0.1, 1", "uop_sweep_grid", (0.1, 1.0)),
}


def field_of(config, path):
    for name in path.split("."):
        config = getattr(config, name)
    return config


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestLoadScenario:
    def test_minimal_file_gets_reference_defaults(self, tmp_path):
        config = load_scenario(write(tmp_path, "s.cfg", MINIMAL))
        assert config.num_users == 4
        assert config.trials == 2
        assert config.seed == 0
        assert config.front_end == OpticalFrontEnd()
        assert config.noise == NoiseModel()
        assert config.limits.max_total_dl == math.inf
        assert config.qos_set == (1.0,)
        assert config.scenario_id == "s"

    def test_empty_file_reports_both_required_fields(self, tmp_path):
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(write(tmp_path, "empty.cfg", ""))
        assert "num_users" in str(err.value)
        assert "trials" in str(err.value)

    def test_bandwidth_override_propagates_to_noise_power(self, tmp_path):
        config = load_scenario(
            write(tmp_path, "s.cfg", MINIMAL + "bandwidth_hz = 1e7\n")
        )
        assert config.noise_power == pytest.approx(1e-15, rel=1e-12)

    def test_malformed_number_names_field_and_line(self, tmp_path):
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(write(tmp_path, "s.cfg", "num_users = 4\ntrials = abc\n"))
        message = str(err.value)
        assert "trials" in message
        assert "line 2" in message

    def test_unknown_field_rejected(self, tmp_path):
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(write(tmp_path, "s.cfg", MINIMAL + "frobnicate = 1\n"))
        assert "frobnicate" in str(err.value)

    def test_duplicate_field_rejected(self, tmp_path):
        with pytest.raises(ScenarioParseError):
            load_scenario(write(tmp_path, "s.cfg", MINIMAL + "trials = 9\n"))

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "# a scenario\n\nnum_users = 4  # inline comment\ntrials = 2\n"
        assert load_scenario(write(tmp_path, "s.cfg", text)).num_users == 4

    def test_lists_and_caps(self, tmp_path):
        text = MINIMAL + (
            "qos_set = 1, 2, 3, 4\nstrategies = opa, oma\npairing = channel, adaptive\n"
            "p_max_dl = 2.5\np_max_ul = inf\n"
        )
        config = load_scenario(write(tmp_path, "s.cfg", text))
        assert config.qos_set == (1.0, 2.0, 3.0, 4.0)
        assert config.strategies == (Strategy.OPA, Strategy.OMA)
        assert config.pairings == ("channel", "adaptive")
        assert config.limits.max_total_dl == 2.5
        assert config.limits.max_per_user_ul == math.inf

    def test_unknown_strategy_is_a_validation_error(self, tmp_path):
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(write(tmp_path, "s.cfg", MINIMAL + "strategies = opa, foo\n"))
        assert "foo" in str(err.value)

    def test_every_refused_part_and_strategy_is_listed(self, tmp_path):
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(write(tmp_path, "s.cfg", SIX_BAD_VALUES))
        assert len(err.value.problems) == len(STAGE_TWO_PROBLEMS)
        for problem, message in zip(err.value.problems, STAGE_TWO_PROBLEMS):
            assert message in problem
        assert "l_min" not in str(err.value)

    def test_missing_fields_are_listed_with_refused_parts(self, tmp_path):
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(write(tmp_path, "s.cfg", "trials = 2\nbandwidth_hz = 0\n"))
        assert err.value.problems[0] == "required field missing: num_users"
        assert "bandwidth must be positive" in err.value.problems[1]

    def test_every_malformed_line_is_listed(self, tmp_path):
        text = "num_users = four\ntrials = 2\nl_max = far\nseed =\nee_served_only = maybe\n"
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(write(tmp_path, "s.cfg", text))
        assert str(err.value).splitlines() == [
            "line 1: field 'num_users': not an integer: 'four'",
            "line 3: field 'l_max': not a number: 'far'",
            "line 4: field 'seed': empty value",
            "line 5: field 'ee_served_only': not a boolean: 'maybe'",
        ]

    def test_every_key_lands_in_the_field_it_names(self, tmp_path):
        assert set(EVERY_KEY) == set(_KEYS)
        text = "".join(f"{key} = {value}\n" for key, (value, _, _) in EVERY_KEY.items())
        config = load_scenario(write(tmp_path, "s.cfg", text))
        default = ScenarioConfig(num_users=2, trials=1)
        # repr tells 6 from 6.0 and "6", so a wrong parser is named too
        assert [key for key, (_, path, value) in EVERY_KEY.items()
                if value == field_of(default, path)] == []
        assert [key for key, (_, path, value) in EVERY_KEY.items()
                if repr(field_of(config, path)) != repr(value)] == []

    def test_names_ignore_case_and_the_scenario_id_is_kept_as_written(self, tmp_path):
        text = MINIMAL + ("sweep_mode = Vertical\nuop_sweep_link = UL\nqos_pairing_key = Sum\n"
                          "strategies = OMA\nscenario_id = Desk-A\n")
        config = load_scenario(write(tmp_path, "s.cfg", text))
        assert (config.sweep_mode, config.uop_sweep_link, config.qos_pairing_key,
                config.strategies, config.scenario_id) == (
                    "vertical", "ul", "sum", (Strategy.OMA,), "Desk-A")
        with pytest.raises(ScenarioValidationError) as err:  # a refused name, as read
            load_scenario(write(tmp_path, "s.cfg", MINIMAL + "sweep_mode = Diagonal\n"))
        assert "'diagonal'" in str(err.value)

    def test_invalid_physics_listed(self, tmp_path):
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(write(tmp_path, "s.cfg", MINIMAL + "filter_gain = 7\n"))
        assert "filter_gain" in str(err.value)


class TestCliRuns:
    def test_sweep_two_user_row_grid(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.cfg", MINIMAL + "strategies = opa, ngdpa\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep-two-user", "--scenario", str(scenario), "--out", str(out)]) == 0
        rows = read_rows(out)
        # 6 sweep points for each of the 2 strategies
        assert len(rows) == 12
        assert set(CSV_COLUMNS) == set(rows[0].keys())
        opa_rows = [r for r in rows if r["strategy"] == "opa"]
        assert [r["sweep_value"] for r in opa_rows] == [
            "0.5", "1.0", "1.5", "2.0", "2.5", "3.0"
        ]
        assert all(r["pairing"] == "none" for r in rows)
        assert all(r["mean_uop_dl"] == "" for r in rows)

    def test_campaign_reruns_byte_identical(self, tmp_path):
        scenario = write(
            tmp_path, "s.cfg",
            "num_users = 6\ntrials = 8\nseed = 3\nqos_set = 1, 2\n",
        )
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["campaign", "--scenario", str(scenario), "--out", str(out_a)]) == 0
        assert main(["campaign", "--scenario", str(scenario), "--out", str(out_b),
                     "--workers", "2"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        scenario = write(tmp_path, "s.cfg", "num_users = 6\ntrials = 5\nseed = 3\n")
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["campaign", "--scenario", str(scenario), "--out", str(out_a)])
        main(["campaign", "--scenario", str(scenario), "--out", str(out_b),
              "--seed", "4"])
        assert out_a.read_bytes() != out_b.read_bytes()
        assert read_rows(out_b)[0]["seed"] == "4"

    def test_trials_and_pairing_overrides(self, tmp_path):
        scenario = write(tmp_path, "s.cfg", MINIMAL)
        out = tmp_path / "c.csv"
        main(["campaign", "--scenario", str(scenario), "--out", str(out),
              "--trials", "3", "--pairing", "channel", "qos",
              "--strategies", "opa"])
        rows = read_rows(out)
        assert {r["pairing"] for r in rows} == {"channel", "qos"}
        assert {r["strategy"] for r in rows} == {"opa"}
        assert all(r["trials"] == "3" for r in rows)

    def test_uop_sweep_monotone_outage(self, tmp_path):
        scenario = write(
            tmp_path, "s.cfg",
            "num_users = 8\ntrials = 15\nseed = 1\nqos_set = 1, 2, 3, 4\n"
            "uop_sweep_link = dl\nuop_sweep_grid = 0.5, 1, 2, 4, 8, 16\n",
        )
        out = tmp_path / "u.csv"
        assert main(["uop-sweep", "--scenario", str(scenario), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert all(r["sweep_parameter"] == "p_max_dl" for r in rows)
        by_strategy = {}
        for row in rows:
            by_strategy.setdefault(row["strategy"], []).append(float(row["mean_uop_dl"]))
        for uops in by_strategy.values():
            assert all(a >= b for a, b in zip(uops, uops[1:]))

    def test_adaptive_campaign_survives_out_of_fov_users(self, tmp_path):
        # a 40-degree FOV leaves users outside it: their pairs need unbounded
        # power, which adaptive pairing must compare, not raise on
        scenario = write(
            tmp_path, "s.cfg",
            "num_users = 8\ntrials = 20\nseed = 2\nqos_set = 1, 2\n"
            "fov_half_angle_deg = 40\npairing = adaptive\n",
        )
        out = tmp_path / "fov.csv"
        assert main(["campaign", "--scenario", str(scenario), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [r["strategy"] for r in rows] == ["opa", "ngdpa", "grpa", "oma"]
        assert all(r["pairing"] == "adaptive" for r in rows)
        assert all(float(r["mean_uop_dl"]) > 0.0 for r in rows)
        # an infinite mean is written as such, not as the empty "not applicable"
        assert all(r["mean_total_power"] == "inf" for r in rows)

    def test_the_csv_writer_keeps_a_floats_sign_and_every_digit(self, tmp_path):
        # the writer writes a float by repr, None as an empty field and an int by str
        config = ScenarioConfig(num_users=2, trials=1, seed=9, strategies=(Strategy.OPA,),
                                sweep_mode="horizontal", sweep_values=(-0.0, 0.1 + 0.2))
        text = run("sweep-two-user", config, tmp_path / "cells.csv").read_text()
        rows = list(csv.DictReader(text.splitlines()))
        assert [r["sweep_value"] for r in rows] == ["-0.0", "0.30000000000000004"]
        assert all(r["mean_uop_dl"] == r["mean_uop_ul"] == "" for r in rows)
        assert all((r["trials"], r["seed"]) == ("1", "9") for r in rows)
        assert text.splitlines()[1].startswith("scenario,r_far,-0.0,opa,none,")
        assert text.splitlines()[1].endswith(f",,,1,9,{lifi_noma.__version__}")

    @pytest.mark.skipif(sys.platform != "linux", reason="the engine forks on Linux only")
    def test_pool_never_outnumbers_its_tasks(self, tmp_path, monkeypatch):
        # the caller evaluates the first share itself and forks one process
        # per other share, never more than there are trial ranges
        started = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            started.append(pid)  # the child's own list is never read
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        scenario = write(tmp_path, "s.cfg", "num_users = 4\ntrials = 3\n")
        outs = [tmp_path / "one.csv", tmp_path / "many.csv"]
        counts = []
        for out, workers in zip(outs, ("1", "5")):
            assert main(["campaign", "--scenario", str(scenario), "--out", str(out),
                         "--workers", workers]) == 0
            counts.append(len(started))
        assert counts == [0, 2]  # three one-trial ranges; no process for 1 worker
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_summary_of_an_output_not_named_csv_keeps_the_whole_name(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.cfg", MINIMAL)
        assert main(["campaign", "--scenario", str(scenario), "--out", str(tmp_path / "c.out")]) == 0
        assert json.loads((tmp_path / "c.out.summary.json").read_text())["output_csv"] == "c.out"
        assert capsys.readouterr().out.endswith(" and c.out.summary.json\n")

    def test_run_refuses_an_unknown_command(self, tmp_path):
        out = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="^unknown command 'sweep'$"):
            run("sweep", ScenarioConfig(num_users=4, trials=2), out)
        assert not out.exists()

    def test_summary_document_echoes_config(self, tmp_path):
        scenario = write(tmp_path, "s.cfg", MINIMAL + "seed = 9\nqos_set = 1, 2\n")
        out = tmp_path / "c.csv"
        main(["campaign", "--scenario", str(scenario), "--out", str(out)])
        summary = json.loads((tmp_path / "c.summary.json").read_text())
        assert summary["command"] == "campaign"
        assert summary["seed"] == 9
        assert summary["trials"] == 2
        assert summary["config"]["qos_set"] == [1.0, 2.0]
        assert summary["config"]["limits"]["max_total_dl"] == "inf"
        assert summary["config"]["strategies"] == ["opa", "ngdpa", "grpa", "oma"]
        assert "SeedSequence" in summary["rng"]

    def test_summary_records_the_numpy_version(self, tmp_path):
        # the NumPy build decides the last bits of np.power, so of the means
        out = run("campaign", ScenarioConfig(num_users=4, trials=2), tmp_path / "c.csv")
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["numpy"] == np.__version__
        assert summary["version"] == lifi_noma.__version__


class TestExitCodes:
    def test_help_is_zero_and_lists_each_command_with_its_help_line(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # no help line wrapped at a hyphen
        assert main(["--help"]) == 0
        listing = " ".join(capsys.readouterr().out.split())
        assert set(_COMMANDS) == {"sweep-two-user", "campaign", "uop-sweep"}
        for name, (blurb, _) in _COMMANDS.items():
            assert f"{name} {blurb}" in listing

    def test_usage_error_is_one(self, capsys):
        assert main([]) == 1
        assert main(["campaign"]) == 1  # missing --scenario/--out
        assert main(["no-such-command", "--scenario", "x", "--out", "y"]) == 1

    def test_validation_error_is_two(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.cfg", "num_users = 1\ntrials = 0\n")
        out = tmp_path / "x.csv"
        assert main(["campaign", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert "scenario error" in capsys.readouterr().err

    def test_parse_error_is_two(self, tmp_path):
        scenario = write(tmp_path, "s.cfg", "num_users four\n")
        assert main(["campaign", "--scenario", str(scenario),
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("line, field", [
        ("qos_set = nan", "qos_set"),
        ("qos_set = 1, 600", "qos_set"),
        ("qos_set = 256", "qos_set"),
        ("p_max_dl = nan", "p_max_dl"),
        ("p_max_ul = -inf", "max_per_user_ul"),
        ("r_max = nan", "r_max"),
        ("r_max = inf", "r_max"),
        ("l_max = inf", "l_max"),
        ("sweep_rate = 300", "sweep_rate"),
        ("uop_sweep_grid = 1, nan", "uop_sweep_grid"),
        ("responsivity = inf", "responsivity"),
        ("noise_psd = inf", "PSD"),
    ])
    def test_non_finite_and_overflowing_values_are_two(self, tmp_path, capsys, line, field):
        scenario = write(tmp_path, "s.cfg", MINIMAL + line + "\n")
        assert main(["campaign", "--scenario", str(scenario),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command, lines, field", [
        ("sweep-two-user", "sweep_values = 0.5, -1", "sweep_values"),
        ("sweep-two-user", "sweep_mode = vertical\nsweep_values = 0.5, -1", "sweep_values"),
        ("sweep-two-user", "sweep_mode = vertical\nsweep_values = 0.5, 0", "sweep_values"),
        ("sweep-two-user", "sweep_mode = vertical\nsweep_values = 0.5, 1e-200", "sweep_values"),
        ("campaign", "l_min = 1e-200\nl_max = 1e-200\nr_max = 1e-200", "l_min"),
    ])
    def test_unusable_geometry_is_two(self, tmp_path, capsys, command, lines, field):
        scenario = write(tmp_path, "s.cfg", MINIMAL + lines + "\n")
        assert main([command, "--scenario", str(scenario),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("lines, message", [
        ("strategies = ,", "strategies must not be empty"),
        ("pairing = ,", "pairing methods must not be empty"),
        ("strategies = opa, oma, opa", "strategies must not repeat 'opa'"),
        ("pairing = channel, channel", "pairings must not repeat 'channel'"),
        ("qos_pairing_key = max", "unknown qos_pairing_key 'max'"),
        ("sweep_mode = diagonal", "sweep_mode must be"),
        ("sweep_values = ,", "sweep_values must not be empty"),
        ("sweep_values = 1, inf", "sweep_values must be finite"),
        ("uop_sweep_link = both", "uop_sweep_link must be"),
        ("uop_sweep_grid = 1, 0", "uop_sweep_grid values must be positive"),
        ("l_max = far", "field 'l_max': not a number"),
        ("ee_served_only = maybe", "field 'ee_served_only': not a boolean"),
        ("seed =", "field 'seed': empty value"),
        ("area_m2 = 0", "area must be positive"),
        ("refractive_index = 1e200", "gain constant of"),
        ("semi_angle_deg = 1e-10", "gain constant of semi_angle_deg"),
        ("noise_psd = 1e200\nbandwidth_hz = 1e200", "noise power psd * bandwidth"),
        # a subnormal noise power has lost precision bits
        ("noise_psd = 1e-315\nbandwidth_hz = 1", "noise power psd * bandwidth"),
        ("noise_psd = 1e-300\nbandwidth_hz = 1e-20", "noise power psd * bandwidth"),
    ])
    def test_each_refusal_of_a_scenario_file_names_its_field(self, tmp_path, capsys, lines,
                                                             message):
        scenario = write(tmp_path, "s.cfg", MINIMAL + lines + "\n")
        assert main(["campaign", "--scenario", str(scenario),
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "scenario error" in err
        assert message in err

    def test_every_unknown_strategy_override_is_named(self, tmp_path, capsys):
        scenario = write(tmp_path, "s.cfg", MINIMAL)
        out = tmp_path / "x.csv"
        assert main(["campaign", "--scenario", str(scenario), "--out", str(out),
                     "--strategies", "foo", "OPA", "bar"]) == 2
        err = capsys.readouterr().err
        assert "unknown strategy 'foo'" in err
        assert "unknown strategy 'bar'" in err
        assert "'opa'" not in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_is_a_usage_error(self, tmp_path, capsys, workers):
        scenario = write(tmp_path, "s.cfg", MINIMAL)
        out = tmp_path / "x.csv"
        assert main(["campaign", "--scenario", str(scenario), "--out", str(out),
                     "--workers", workers]) == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers, message", [
        ("0", "argument --workers: workers must be an integer >= 1, got 0"),
        ("x", "argument --workers: not an integer: 'x'"),
    ])
    def test_worker_count_is_refused_with_the_subcommands_usage_line(self, tmp_path, capsys,
                                                                     workers, message):
        scenario = write(tmp_path, "s.cfg", MINIMAL)
        out = tmp_path / "x.csv"
        assert main(["campaign", "--scenario", str(scenario), "--out", str(out),
                     "--workers", workers]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: lifi-noma campaign ")
        assert err.rstrip().endswith(f"lifi-noma campaign: error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_library_entry_points_reject_a_worker_count_below_one(self, tmp_path, workers):
        config = ScenarioConfig(num_users=4, trials=2, uop_sweep_grid=(1.0, 2.0))
        for call in (run_campaign, run_uop_sweep):
            with pytest.raises(ValueError, match="workers"):
                call(config, workers=workers)
        for command in ("campaign", "uop-sweep", "sweep-two-user"):
            out = tmp_path / f"{command}.csv"
            with pytest.raises(ValueError, match="workers"):
                run(command, config, out, workers=workers)
            assert not out.exists()

    @pytest.mark.parametrize("workers", [True, 2.0, "2"])
    def test_library_entry_points_refuse_a_worker_count_that_is_not_an_integer(self, tmp_path,
                                                                               workers):
        config = ScenarioConfig(num_users=4, trials=2, uop_sweep_grid=(1.0, 2.0))
        for call in (run_campaign, run_uop_sweep):
            with pytest.raises(ValueError, match="^workers must be an integer >= 1"):
                call(config, workers=workers)
        for command in ("campaign", "uop-sweep", "sweep-two-user"):
            out = tmp_path / f"{command}.csv"
            with pytest.raises(ValueError, match="^workers must be an integer >= 1"):
                run(command, config, out, workers=workers)
            assert not out.exists()

    @pytest.mark.parametrize("field", ["num_users", "trials", "seed"])
    def test_a_bool_is_refused_as_an_integer_field(self, field):
        with pytest.raises(ScenarioValidationError, match=f"^{field} must be an integer "):
            ScenarioConfig(**{"num_users": 4, "trials": 2, field: True})

    @pytest.mark.parametrize("field, least", [("num_users", 2), ("trials", 1), ("seed", 0)])
    @pytest.mark.parametrize("step", [1, 2])
    def test_an_integer_field_below_its_least_is_refused_by_the_integer_rule(self, field, least,
                                                                             step):
        fields = {"num_users": 4, "trials": 2, field: least - step}
        with pytest.raises(ScenarioValidationError) as err:
            ScenarioConfig(**fields)
        assert err.value.problems == (f"{field} must be an integer >= {least}, got {least - step}",)

    @pytest.mark.parametrize("flag", ["qos_coupled_links", "ee_served_only"])
    @pytest.mark.parametrize("value", [1, "true", None, np.True_])
    def test_a_wrong_typed_flag_is_one_problem_refused_with_the_other_types(self, flag, value):
        # refused before the value checks, so the bad r_max is not listed beside it
        with pytest.raises(ScenarioValidationError) as err:
            ScenarioConfig(num_users=4, trials=2, r_max=-1.0, **{flag: value})
        assert err.value.problems == (f"{flag} must be of type bool, got {value!r}",)

    @pytest.mark.parametrize("part, field", [
        (OpticalFrontEnd, "area"), (OpticalFrontEnd, "filter_gain"), (NoiseModel, "psd"),
        (NoiseModel, "bandwidth"), (PowerLimits, "max_total_dl"), (PowerLimits, "max_per_user_ul"),
    ])
    @pytest.mark.parametrize("value", [True, "1"])
    def test_a_bool_or_a_non_real_is_refused_by_name_in_each_part(self, part, field, value):
        with pytest.raises(ValueError, match=f"{field} must be real \\(a number, not a bool\\)"):
            part(**{field: value})

    def test_numpy_numbers_write_what_python_numbers_write(self, tmp_path):
        # every NumPy value here is exactly representable, so it is the Python number's twin
        numpy = ScenarioConfig(num_users=np.int64(4), trials=np.int64(3), seed=np.uint64(5),
                               qos_set=[np.float32(1.0), 2.0], l_min=np.float32(1.5),
                               uop_sweep_grid=[np.int64(1), np.float64(2.0)],
                               front_end=OpticalFrontEnd(area=np.float32(2.0 ** -13),
                                                         fov_half_angle_deg=np.int32(60)),
                               noise=NoiseModel(psd=np.float64(1e-22),
                                                bandwidth=np.int64(20_000_000)),
                               limits=PowerLimits(max_total_dl=np.float32(2.0),
                                                  max_per_user_ul=np.float16(0.5)))
        plain = ScenarioConfig(num_users=4, trials=3, seed=5, qos_set=(1.0, 2.0), l_min=1.5,
                               uop_sweep_grid=(1, 2.0),
                               front_end=OpticalFrontEnd(area=2.0 ** -13, fov_half_angle_deg=60),
                               noise=NoiseModel(psd=1e-22, bandwidth=20_000_000),
                               limits=PowerLimits(max_total_dl=2.0, max_per_user_ul=0.5))
        assert numpy == plain
        for part in ("front_end", "noise", "limits"):
            for name, value in vars(getattr(numpy, part)).items():
                assert type(value) is type(getattr(getattr(plain, part), name)), (part, name)
        for command in ("campaign", "uop-sweep"):
            written = []
            for name, config, workers in (("numpy", numpy, np.int64(2)), ("plain", plain, 2)):
                (tmp_path / name).mkdir(exist_ok=True)
                out = run(command, config, tmp_path / name / f"{command}.csv", workers=workers)
                written.append((out.read_bytes(), out.with_suffix(".summary.json").read_bytes()))
            assert written[0] == written[1]

    def test_file_that_is_not_utf8_is_two(self, tmp_path, capsys):
        scenario = tmp_path / "s.cfg"
        scenario.write_bytes(b"num_users = 4\ntrials = 2\n# caf\xff\n")
        assert main(["campaign", "--scenario", str(scenario),
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "scenario error" in err
        assert str(scenario) in err
        assert "byte offset 30" in err
        with pytest.raises(ScenarioParseError):
            load_scenario(scenario)

    def test_missing_scenario_is_three(self, tmp_path, capsys):
        assert main(["campaign", "--scenario", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_unwritable_output_is_three(self, tmp_path):
        scenario = write(tmp_path, "s.cfg", MINIMAL)
        assert main(["campaign", "--scenario", str(scenario),
                     "--out", str(tmp_path / "no_dir" / "x.csv")]) == 3


class TestProcess:
    """The module run as a program: its exit status is the process's."""

    def run_cli(self, tmp_path, *args):
        path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, "-m", "lifi_noma.cli", *map(str, args)],
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)

    def test_campaign_exits_zero_and_writes_both_files(self, tmp_path):
        result = self.run_cli(tmp_path, "campaign", "--scenario",
                              ROOT / "scenarios" / "campaign_16users.cfg",
                              "--trials", "20", "--out", "c.csv")
        assert result.returncode == 0, result.stderr
        assert len(read_rows(tmp_path / "c.csv")) == 12
        assert json.loads((tmp_path / "c.summary.json").read_text())["trials"] == 20

    def test_refused_scenario_exits_two_naming_each_problem(self, tmp_path):
        scenario = write(tmp_path, "s.cfg", SIX_BAD_VALUES)
        result = self.run_cli(tmp_path, "campaign", "--scenario", scenario, "--out", "x.csv")
        assert result.returncode == 2
        assert all(message in result.stderr for message in STAGE_TWO_PROBLEMS)
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_usage_error_exits_one(self, tmp_path):
        scenario = write(tmp_path, "s.cfg", MINIMAL)
        result = self.run_cli(tmp_path, "campaign", "--scenario", scenario, "--out", "x.csv",
                              "--workers", "0")
        assert result.returncode == 1
        assert "--workers" in result.stderr
