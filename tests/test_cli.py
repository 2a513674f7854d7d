"""Scenario file loading and the command-line contract: CSV schema, summary
document, reproducibility and exit codes."""

import csv
import json
import math
import multiprocessing.process

import pytest

from lifi_noma import (
    NoiseModel,
    OpticalFrontEnd,
    ScenarioConfig,
    ScenarioValidationError,
    Strategy,
    run_campaign,
    run_uop_sweep,
)
from lifi_noma.cli import (
    CSV_COLUMNS,
    ScenarioParseError,
    load_scenario,
    main,
    run,
)

MINIMAL = "num_users = 4\ntrials = 2\n"


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

    def test_pool_never_outnumbers_its_tasks(self, tmp_path, monkeypatch):
        # the caller evaluates the first share itself and starts one process
        # per other share, never more than there are trial ranges
        started = []
        start = multiprocessing.process.BaseProcess.start

        def recording_start(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording_start)
        scenario = write(tmp_path, "s.cfg", "num_users = 4\ntrials = 3\n")
        outs = [tmp_path / "one.csv", tmp_path / "many.csv"]
        counts = []
        for out, workers in zip(outs, ("1", "5")):
            assert main(["campaign", "--scenario", str(scenario), "--out", str(out),
                         "--workers", workers]) == 0
            counts.append(len(started))
        assert counts == [0, 2]  # three one-trial ranges; no process for 1 worker
        assert outs[0].read_bytes() == outs[1].read_bytes()

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


class TestExitCodes:
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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_is_a_usage_error(self, tmp_path, capsys, workers):
        scenario = write(tmp_path, "s.cfg", MINIMAL)
        out = tmp_path / "x.csv"
        assert main(["campaign", "--scenario", str(scenario), "--out", str(out),
                     "--workers", workers]) == 1
        assert "--workers" in capsys.readouterr().err
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
