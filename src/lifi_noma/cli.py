"""Command-line runner: load a scenario file, run an experiment, write CSV.

Commands
    sweep-two-user   deterministic two-user geometry sweep (EE per strategy)
    campaign         averaged multi-user Monte Carlo campaign
    uop-sweep        outage probability over a grid of power caps

Every run writes one CSV of result records plus a JSON summary echoing the
fully resolved configuration and seed, so each row can be reproduced. Exit
codes: 0 success, 1 usage error, 2 scenario parse/validation error, 3 I/O
error.

Scenario files are plain ``key = value`` text; ``#`` starts a comment and
lists are comma-separated. Unknown keys are rejected. See the README for
the full key table.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from enum import Enum
from pathlib import Path

from . import __version__
from .allocation import PowerLimits, Strategy
from .channel import NoiseModel, OpticalFrontEnd
from .simulation import (
    CampaignSummary,
    ScenarioConfig,
    ScenarioValidationError,
    run_campaign,
    run_uop_sweep,
    two_user_sweep,
)

__all__ = ["ScenarioParseError", "load_scenario", "run", "main", "console_entry"]

CSV_COLUMNS = (
    "scenario_id",
    "sweep_parameter",
    "sweep_value",
    "strategy",
    "pairing",
    "mean_ee",
    "mean_total_power",
    "mean_uop_dl",
    "mean_uop_ul",
    "trials",
    "seed",
    "version",
)


class ScenarioParseError(Exception):
    """The scenario file is not well-formed; message carries line numbers."""


def _parse_int(field: str, text: str, line_no: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioParseError(
            f"line {line_no}: field {field!r}: not an integer: {text!r}"
        ) from None


def _parse_float(field: str, text: str, line_no: int) -> float:
    try:
        value = float(text)  # accepts 'inf' for the power caps
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise ScenarioParseError(f"line {line_no}: field {field!r}: not a number: {text!r}")
    return value


def _parse_floats(field: str, text: str, line_no: int) -> tuple[float, ...]:
    return tuple(_parse_float(field, s.strip(), line_no) for s in text.split(",") if s.strip())


def _parse_names(field: str, text: str, line_no: int) -> tuple[str, ...]:
    return tuple(s.strip().lower() for s in text.split(",") if s.strip())


def _parse_bool(field: str, text: str, line_no: int) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ScenarioParseError(f"line {line_no}: field {field!r}: not a boolean: {text!r}")


def _parse_text(field: str, text: str, line_no: int) -> str:
    return text


# Each scenario key: its parser, the part of the config it sets, its field there.
_KEYS = {
    "scenario_id": (_parse_text, ScenarioConfig, "scenario_id"),
    "num_users": (_parse_int, ScenarioConfig, "num_users"),
    "trials": (_parse_int, ScenarioConfig, "trials"),
    "seed": (_parse_int, ScenarioConfig, "seed"),
    "qos_set": (_parse_floats, ScenarioConfig, "qos_set"),
    "l_min": (_parse_float, ScenarioConfig, "l_min"),
    "l_max": (_parse_float, ScenarioConfig, "l_max"),
    "r_max": (_parse_float, ScenarioConfig, "r_max"),
    "semi_angle_deg": (_parse_float, OpticalFrontEnd, "semi_angle_deg"),
    "responsivity": (_parse_float, OpticalFrontEnd, "responsivity"),
    "area_m2": (_parse_float, OpticalFrontEnd, "area"),
    "fov_half_angle_deg": (_parse_float, OpticalFrontEnd, "fov_half_angle_deg"),
    "filter_gain": (_parse_float, OpticalFrontEnd, "filter_gain"),
    "refractive_index": (_parse_float, OpticalFrontEnd, "refractive_index"),
    "noise_psd": (_parse_float, NoiseModel, "psd"),
    "bandwidth_hz": (_parse_float, NoiseModel, "bandwidth"),
    "p_max_dl": (_parse_float, PowerLimits, "max_total_dl"),
    "p_max_ul": (_parse_float, PowerLimits, "max_per_user_ul"),
    "strategies": (_parse_names, ScenarioConfig, "strategies"),
    "pairing": (_parse_names, ScenarioConfig, "pairings"),
    "qos_pairing_key": (_parse_text, ScenarioConfig, "qos_pairing_key"),
    "qos_coupled_links": (_parse_bool, ScenarioConfig, "qos_coupled_links"),
    "ee_served_only": (_parse_bool, ScenarioConfig, "ee_served_only"),
    "sweep_mode": (_parse_text, ScenarioConfig, "sweep_mode"),
    "sweep_values": (_parse_floats, ScenarioConfig, "sweep_values"),
    "sweep_rate": (_parse_float, ScenarioConfig, "sweep_rate"),
    "uop_sweep_link": (_parse_text, ScenarioConfig, "uop_sweep_link"),
    "uop_sweep_grid": (_parse_floats, ScenarioConfig, "uop_sweep_grid"),
}


def _parse_file(path: Path) -> dict:
    raw: dict[str, object] = {}
    problems: list[str] = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ScenarioParseError(f"{path}: not valid UTF-8 at byte offset {err.start}") from None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"line {line_no}: expected 'key = value', got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _KEYS:
            problems.append(f"line {line_no}: unknown field {key!r}")
            continue
        if key in raw:
            problems.append(f"line {line_no}: duplicate field {key!r}")
            continue
        if not value:
            problems.append(f"line {line_no}: field {key!r}: empty value")
            continue
        try:
            raw[key] = _KEYS[key][0](key, value, line_no)
        except ScenarioParseError as err:
            problems.append(str(err))
    if problems:
        raise ScenarioParseError("\n".join(problems))
    return raw


def _strategies_from_tokens(tokens) -> tuple[Strategy, ...]:
    values = []
    for token in tokens:
        try:
            values.append(Strategy(token))
        except ValueError:
            valid = ", ".join(s.value for s in Strategy)
            raise ScenarioValidationError(
                [f"unknown strategy {token!r}, expected one of: {valid}"]
            ) from None
    return tuple(values)


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file into a fully resolved config.

    Omitted physical parameters take the reference defaults; ``num_users``
    and ``trials`` are required. Raises :class:`ScenarioParseError` for
    malformed text and :class:`ScenarioValidationError` (listing every
    violated invariant) for bad values.
    """
    path = Path(path)
    parts = {part: {} for part in (OpticalFrontEnd, NoiseModel, PowerLimits, ScenarioConfig)}
    for key, value in _parse_file(path).items():
        _, part, field = _KEYS[key]
        parts[part][field] = value
    config = parts.pop(ScenarioConfig)

    problems = [f"required field missing: {key}" for key in ("num_users", "trials")
                if key not in config]
    if problems:
        raise ScenarioValidationError(problems)

    try:
        front_end, noise, limits = (part(**fields) for part, fields in parts.items())
    except ValueError as err:
        raise ScenarioValidationError([str(err)]) from None

    if "strategies" in config:
        config["strategies"] = _strategies_from_tokens(config["strategies"])
    config.setdefault("scenario_id", path.stem)
    return ScenarioConfig(front_end=front_end, noise=noise, limits=limits, **config)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)  # an infinite mean stays "inf", not "not applicable"
    return str(value)


def _summary_rows(summaries: list[CampaignSummary]) -> list[list[str]]:
    return [
        [_format_cell(value) for value in (
            summary.scenario_id, summary.sweep_parameter, summary.sweep_value, strategy,
            pairing, cell.mean_ee, cell.mean_total_power, cell.mean_uop_dl, cell.mean_uop_ul,
            summary.trials, summary.seed, __version__)]
        for summary in summaries
        for (strategy, pairing), cell in summary.cells.items()
    ]


def _jsonable(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _summary_path(out_path: Path) -> Path:
    if out_path.suffix == ".csv":
        return out_path.with_suffix(".summary.json")
    return Path(str(out_path) + ".summary.json")


def run(command: str, config: ScenarioConfig, out_path, *, workers: int = 1) -> Path:
    """Execute one command and persist the CSV plus the JSON run summary.

    Returns the path of the written CSV.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if command == "sweep-two-user":
        summaries = two_user_sweep(config)
    elif command == "campaign":
        summaries = [run_campaign(config, workers=workers)]
    elif command == "uop-sweep":
        summaries = run_uop_sweep(config, workers=workers)
    else:
        raise ValueError(f"unknown command {command!r}")

    out_path = Path(out_path)
    with open(out_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(_summary_rows(summaries))

    summary_doc = {
        "command": command,
        "scenario_id": config.scenario_id,
        "config": _jsonable(dataclasses.asdict(config)),
        "seed": config.seed,
        "trials": config.trials,
        "workers": workers,
        "rng": "numpy PCG64, per-trial streams from SeedSequence([seed, trial_index])",
        "output_csv": out_path.name,
        "version": __version__,
    }
    with open(_summary_path(out_path), "w", encoding="utf-8") as handle:
        json.dump(summary_doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return out_path


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse's default would be 2, which this tool
    # reserves for scenario validation failures)
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lifi-noma", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("sweep-two-user", "deterministic two-user geometry sweep"),
        ("campaign", "averaged multi-user Monte Carlo campaign"),
        ("uop-sweep", "outage probability over a grid of power caps"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--scenario", required=True, help="scenario file path")
        cmd.add_argument("--out", required=True, help="output CSV path")
        cmd.add_argument("--trials", type=int, help="override the trial count")
        cmd.add_argument("--seed", type=int, help="override the RNG seed")
        cmd.add_argument("--strategies", nargs="+", metavar="NAME",
                         help="override strategies (opa ngdpa grpa oma)")
        cmd.add_argument("--pairing", nargs="+", metavar="NAME",
                         help="override pairing methods (channel qos adaptive)")
        cmd.add_argument("--workers", type=int, default=1,
                         help="processes in total, this one included (same results)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.workers < 1:
            raise _UsageError(f"--workers must be >= 1, got {args.workers}")
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        config = load_scenario(args.scenario)
        overrides = {}
        if args.trials is not None:
            overrides["trials"] = args.trials
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.strategies is not None:
            overrides["strategies"] = _strategies_from_tokens(
                t.lower() for t in args.strategies
            )
        if args.pairing is not None:
            overrides["pairings"] = tuple(t.lower() for t in args.pairing)
        if overrides:
            config = dataclasses.replace(config, **overrides)
        out = run(args.command, config, args.out, workers=args.workers)
    except (ScenarioParseError, ScenarioValidationError) as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3
    print(f"wrote {out} and {_summary_path(out).name}")
    return 0


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
