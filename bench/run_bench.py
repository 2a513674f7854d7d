"""lifi-noma benchmark: Monte Carlo throughput end to end, self time per layer.

Usage, from the root of a checkout::

    python3 bench/run_bench.py --workload campaign-grid --seed 3 --seconds 25 --trace 0

Workloads are defined, with the reason for each, in ``workloads.py``.
Every timed call is one ``lifi_noma.cli.run`` in a fresh process started by
this script (see ``child.py``); the package is imported from ``src/`` of the
checkout. With ``--trace 0`` five processes share the time budget and the
last stdout line carries the end-to-end metrics:

- ``trials_per_s`` (1/s, higher is better): trials per second of the
  ``cli.run`` call at the workload's worker count, median over the run's
  calls;
- ``setup_s`` (s, lower): median over the processes of importing the
  package, ``load_scenario`` and the config override;
- ``peak_rss_mb`` (MiB, lower): median over the processes of peak RSS,
  the process plus its largest reaped child.

Both times are in reference seconds: each call and each set-up is scaled
by the host speed measured right around it (``hostspeed.py``), because
the CPU speed of a small shared host drifts by up to 60 % within a minute.
The times as measured, and the host loop time, are printed beside them.

``error_rate`` (failed output checks over checks attempted) is the
``failed``/``attempted`` pair of the last line; ``scaling_efficiency``
(2-worker over twice the 1-worker trials_per_s, where each process also
times one 1-worker call) is printed for ``campaign-grid-2w``. Both are
printed above the last line, with the environment; the full result, every
call's wall time and every failed check go to
``.bench_build/bench/<workload>/trace<n>/result.json``.

With ``--trace 1`` one process alternates untraced and traced 1-worker
calls of ``TRACE_TRIALS`` trials; the traced ones have spans around the
calls into each module (``spans.py``). The spans of the first traced call
go to ``spans.jsonl`` beside the result and give the per-layer metrics;
``trace.overhead_ratio`` is the median traced over the median untraced
wall time.

Every call's CSV is checked (``checks.py``). At the default seed the first
call is also compared with ``reference.json``, recorded by
``record_reference.py``. The two-user sweep is run once, untimed, against
the golden point of acceptance criterion 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from hostspeed import REFERENCE_S
from workloads import TWO_USER_SCENARIO, WORKLOADS, call_seed

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
PROCESSES = 5  # fresh processes per untraced run; setup_s is their median
RUN_LIMIT_S = 170  # a hung process is killed so that the run still reports


def _fail(message: str) -> None:
    print(f"run_bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    # a checkout nested in some other repository is not that repository
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lifi_noma").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _run_child(spec: dict, timeout_s: float) -> tuple[dict | None, str | None]:
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("child.py")), json.dumps(spec)],
            stdout=subprocess.PIPE, text=True, timeout=max(1.0, timeout_s),
        )
    except subprocess.TimeoutExpired:
        return None, f"child {spec['child']} timed out"
    if proc.returncode != 0:
        return None, f"child {spec['child']} exited with {proc.returncode}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, f"child {spec['child']} printed no result"


def _check_child(workload, child: dict) -> list:
    results = []
    if child["error"]:
        results.append(("engine_call", False, child["error"]))
    expect = dict(strategies=workload.strategies, pairings=workload.pairings,
                  caps=workload.caps)
    # only the first call at the default seed has recorded means
    reference_seed = call_seed(DEFAULT_SEED, 0, 0)
    rounds: dict[int, list[str]] = {}
    for call in child["calls"]:
        rows = checks.parse_rows(call["csv"])
        results += checks.check_call(rows, trials=call["trials"], seed=call["seed"], **expect)
        rounds.setdefault(call["call"], []).append(call["csv"])
        if (call["seed"], call["trials"]) == (reference_seed, workload.trials):
            reference = checks.load_reference()[workload.reference_key]
            results += checks.check_reference(rows, reference)
    for index, texts in rounds.items():
        # the calls of a round differ only in workers or tracing
        if len(texts) > 1:
            results.append(("same_bytes", len(set(texts)) == 1, f"round {index}: CSVs differ"))
    if "two_user_csv" in child:
        results += checks.check_golden(child["two_user_csv"])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        _fail("--seed must be >= 0 and --seconds >= 1")
    workload = WORKLOADS[args.workload]
    needed = [ROOT / "src" / "lifi_noma" / "__init__.py", ROOT / workload.scenario,
              ROOT / TWO_USER_SCENARIO]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        _fail(f"not a lifi-noma checkout, missing: {', '.join(missing)}")

    env = _environment()
    out_dir = ROOT / ".bench_build" / "bench" / workload.name / f"trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    run_deadline = time.monotonic() + RUN_LIMIT_S
    processes = 1 if args.trace else PROCESSES
    budget = args.seconds / processes
    children, results = [], []
    for index in range(processes):
        spec = {"root": str(ROOT), "workload": workload.name, "seed": args.seed,
                "child": index, "budget_s": budget, "trace": bool(args.trace),
                "gate": index == 0, "out_dir": str(out_dir)}
        child, error = _run_child(spec, run_deadline - time.monotonic())
        if child is None:
            results.append(("child_process", False, error))
            continue
        children.append(child)
        results += _check_child(workload, child)

    failed = sum(not ok for _, ok, _ in results)
    attempted = max(1, len(results))
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "error_rate": failed / attempted,
              "failed_checks": [(name, detail) for name, ok, detail in results if not ok]}
    metrics: dict[str, dict] = {}
    calls = [c for child in children for c in child["calls"]]
    if calls:
        env["numpy"] = children[0]["numpy"]
        if args.trace:
            metrics = children[0].get("layer_metrics", {})
            report["traced_wall_s"] = children[0].get("traced_wall_s")
        else:
            # per-call trials per reference second (hostspeed.py)
            rate = {w: [c["trials"] * c["loop_s"] / (c["wall_s"] * REFERENCE_S)
                        for c in calls if c["workers"] == w]
                    for w in workload.round_workers(0)}
            median = {w: statistics.median(r) for w, r in rate.items()}
            metrics = {
                "trials_per_s": {"value": median[workload.workers], "unit": "1/s"},
                "setup_s": {"value": statistics.median(
                    c["setup_s"] * REFERENCE_S / c["setup_loop_s"] for c in children),
                    "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in children),
                                "unit": "MiB"},
            }
            main_calls = [c for c in calls if c["workers"] == workload.workers]
            report["timed_calls"] = len(main_calls)
            report["raw_trials_per_s_median"] = statistics.median(
                c["trials"] / c["wall_s"] for c in main_calls)
            report["raw_setup_s_median"] = statistics.median(c["setup_s"] for c in children)
            report["loop_s_median"] = statistics.median(c["loop_s"] for c in calls)
            if workload.workers > 1:
                report["scaling_efficiency"] = median[workload.workers] / (
                    workload.workers * median[1])
        report["calls"] = [{k: c[k] for k in ("call", "workers", "seed", "wall_s")}
                           for c in calls]
    report["metrics"] = metrics
    (out_dir / "result.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env))
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'error_rate':32s} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} checks failed)")
    if report.get("traced_wall_s"):
        covered = sum(m["value"] for name, m in metrics.items()
                      if name.endswith("self_s") or name == "cli.write_s")
        print(f"  self times cover {covered:.6g} s of the traced call's "
              f"{report['traced_wall_s']:.6g} s wall time")
    if "timed_calls" in report:
        print(f"  median of {report['timed_calls']} calls, in reference seconds; as timed: "
              f"trials_per_s {report['raw_trials_per_s_median']:.6g}, setup_s "
              f"{report['raw_setup_s_median']:.6g}, host loop {report['loop_s_median']:.6g} s")
    if "scaling_efficiency" in report:
        print(f"{'scaling_efficiency':32s} {report['scaling_efficiency']:>14.6g} ratio")
    for name, detail in report["failed_checks"]:
        print(f"FAILED {name}: {detail}")
    print(json.dumps({"correct": not failed and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
