"""Command-line runner: load a scenario file, run an experiment, write CSV.

Every run writes one CSV of result records plus a JSON summary echoing the
fully resolved configuration and seed, so each row can be reproduced. Exit
codes: 0 success, 1 usage error, 2 scenario parse/validation error, 3 I/O
error.

Scenario files are plain ``key = value`` text; ``#`` starts a comment and
lists are comma-separated. Unknown keys are rejected. See the README for
the full key table.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
from enum import Enum
from pathlib import Path

import numpy

from . import __version__
from .allocation import PowerLimits, Strategy
from .channel import NoiseModel, OpticalFrontEnd, _plain_int
from .simulation import (
    PAIRING_METHODS,
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


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        value = float(text)  # accepts 'inf' for the power caps
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise ValueError(f"not a number: {text!r}")
    return value


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(s.strip()) for s in text.split(",") if s.strip())


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(s.strip().lower() for s in text.split(",") if s.strip())


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# The parts of a config that scenario keys set field by field.
_PARTS = {"front_end": OpticalFrontEnd, "noise": NoiseModel, "limits": PowerLimits}

# Each scenario key names a field of the config or of one of its parts, save these six.
_RENAMED = {"area": "area_m2", "psd": "noise_psd", "bandwidth": "bandwidth_hz",
            "max_total_dl": "p_max_dl", "max_per_user_ul": "p_max_ul", "pairings": "pairing"}

# The parser of each field annotation (a string: the modules postpone their annotations).
_PARSERS = {"int": _parse_int, "float": _parse_float, "str": str.lower, "bool": _parse_bool,
            "tuple[float, ...]": _parse_floats, "tuple[float, ...] | None": _parse_floats,
            "tuple[Strategy, ...]": _parse_names, "tuple[str, ...]": _parse_names}

# Each scenario key: its parser, the part it sets (None: the config itself), its field there.
_KEYS = {_RENAMED.get(f.name, f.name): (_PARSERS[f.type], part, f.name)
         for part, owner in ((None, ScenarioConfig), *_PARTS.items())
         for f in dataclasses.fields(owner) if f.name not in _PARTS}
_KEYS["scenario_id"] = (str, None, "scenario_id")  # names ignore case, as keys do; ids do not


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
        elif key in raw:
            problems.append(f"line {line_no}: duplicate field {key!r}")
        else:
            try:
                if not value:
                    raise ValueError("empty value")
                raw[key] = _KEYS[key][0](value)
            except ValueError as err:
                problems.append(f"line {line_no}: field {key!r}: {err}")
    if problems:
        raise ScenarioParseError("\n".join(problems))
    return raw


def _strategies_from_tokens(tokens) -> tuple[Strategy, ...]:
    valid = {s.value: s for s in Strategy}
    if unknown := [t for t in tokens if t not in valid]:
        raise ScenarioValidationError([f"unknown strategy {t!r}, expected one of: "
                                       f"{', '.join(valid)}" for t in unknown])
    return tuple(valid[t] for t in tokens)


def load_scenario(path) -> ScenarioConfig:
    """Read a scenario file into a fully resolved config, in three stages.

    1. Text: every line is read and converted; :class:`ScenarioParseError`
       lists each malformed line by number and field.
    2. Parts: the optics, noise and power caps are built one at a time;
       :class:`ScenarioValidationError` lists each refused part together with
       the missing required fields (``num_users``, ``trials``) and every
       unknown strategy.
    3. Config: :class:`ScenarioConfig` checks its own invariants, listing
       every violation, once the parts are valid.

    Omitted physical parameters take the reference defaults.
    """
    path = Path(path)
    config, fields = {"scenario_id": path.stem}, {name: {} for name in _PARTS}
    for key, value in _parse_file(path).items():
        _, part, field = _KEYS[key]
        (fields[part] if part else config)[field] = value

    problems = [f"required field missing: {key}" for key in ("num_users", "trials")
                if key not in config]
    for name, part in _PARTS.items():
        try:
            config[name] = part(**fields[name])
        except ValueError as err:
            problems.append(str(err))
    if "strategies" in config:
        try:
            config["strategies"] = _strategies_from_tokens(config["strategies"])
        except ScenarioValidationError as err:
            problems += err.problems
    if problems:
        raise ScenarioValidationError(problems)
    return ScenarioConfig(**config)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)  # an infinite mean stays "inf", not "not applicable"
    return str(value)


def _summary_rows(summaries: list[CampaignSummary]) -> list[list[str]]:
    rows = []
    for summary in summaries:
        # the columns a summary shares across its cells, formatted once
        head, tail = ([_format_cell(value) for value in values] for values in (
            (summary.scenario_id, summary.sweep_parameter, summary.sweep_value),
            (summary.trials, summary.seed, __version__)))
        rows += [head + [_format_cell(value) for value in (
                    strategy, pairing, cell.mean_ee, cell.mean_total_power, cell.mean_uop_dl,
                    cell.mean_uop_ul)] + tail
                 for (strategy, pairing), cell in summary.cells.items()]
    return rows


def _jsonable(value):
    if dataclasses.is_dataclass(value):  # as dataclasses.asdict, without its deep copies
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _summary_path(out_path: Path) -> Path:
    if out_path.suffix == ".csv":
        return out_path.with_suffix(".summary.json")
    return Path(str(out_path) + ".summary.json")


# Each command: its help line and the engine call that gives its summaries. The calls
# look the engine functions up by name, so a patched module attribute is the one called.
_COMMANDS = {
    "sweep-two-user": ("deterministic two-user geometry sweep (EE per strategy)",
                       lambda config, workers: two_user_sweep(config)),
    "campaign": ("averaged multi-user Monte Carlo campaign",
                 lambda config, workers: [run_campaign(config, workers=workers)]),
    "uop-sweep": ("outage probability over a grid of power caps",
                  lambda config, workers: run_uop_sweep(config, workers=workers)),
}


def run(command: str, config: ScenarioConfig, out_path, *, workers: int = 1) -> Path:
    """Execute one command and persist the CSV plus the JSON run summary.

    Returns the path of the written CSV.
    """
    workers = _plain_int("workers", workers, 1)
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    summaries = _COMMANDS[command][1](config, workers)

    out_path = Path(out_path)
    with open(out_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(_summary_rows(summaries))

    summary_doc = {
        "command": command,
        "scenario_id": config.scenario_id,
        "config": _jsonable(config),
        "seed": config.seed,
        "trials": config.trials,
        "workers": workers,
        "rng": "numpy PCG64, per-trial streams from SeedSequence([seed, trial_index])",
        "output_csv": out_path.name,
        "version": __version__,
        "numpy": numpy.__version__,  # its build decides the last bits of np.power
    }
    text = json.dumps(summary_doc, indent=2, sort_keys=True) + "\n"
    _summary_path(out_path).write_text(text, encoding="utf-8")
    return out_path


def _build_parser():
    import argparse  # the command line alone needs it; the library and benchmark do not load it

    def workers(text: str) -> int:  # the library's rule, refused with the subcommand's usage
        try:
            return _plain_int("workers", _parse_int(text), 1)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    parser = argparse.ArgumentParser(prog="lifi-noma", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--scenario", required=True, help="scenario file path")
        cmd.add_argument("--out", required=True, help="output CSV path")
        cmd.add_argument("--trials", type=int, help="override the trial count")
        cmd.add_argument("--seed", type=int, help="override the RNG seed")
        cmd.add_argument("--strategies", nargs="+", type=str.lower, metavar="NAME",
                         help=f"override strategies ({' '.join(s.value for s in Strategy)})")
        cmd.add_argument("--pairing", nargs="+", type=str.lower, metavar="NAME",
                         help=f"override pairing methods ({' '.join(PAIRING_METHODS)})")
        cmd.add_argument("--workers", type=workers, default=1,
                         help="processes in total, this one included (same results)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:  # usage errors exit 1, not argparse's 2: that is a scenario error
        return 0 if stop.code == 0 else 1
    try:
        config = load_scenario(args.scenario)
        overrides = {"trials": args.trials, "seed": args.seed, "pairings": args.pairing,
                     "strategies": args.strategies and _strategies_from_tokens(args.strategies)}
        config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
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
