"""One fresh benchmark process: set up, time ``cli.run`` calls, report JSON.

Run by ``run_bench.py`` with a JSON spec as its only argument::

    {"root": ..., "workload": ..., "seed": ..., "child": ..., "budget_s": ...,
     "trace": false, "gate": false, "out_dir": ...}

It prints one JSON object on stdout. Set-up time covers the package
import, ``load_scenario`` and the workload's config override. The host
speed loop (``hostspeed.py``) is timed right before and after set-up and
each call, and the mean of the two is reported with it. Timed calls
repeat in rounds until ``budget_s`` would be exceeded (at least one
round); the calls of a round share a config seed. With ``trace`` a round is
one untraced and one traced call on 1 worker, and the spans of the first
traced call are written out. With ``gate`` the two-user sweep is run once,
untimed, for its golden check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed
from spans import Tracer, layer_metrics
from workloads import TRACE_TRIALS, TWO_USER_SCENARIO, WORKLOADS, call_seed


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; a pool's workers show up, once reaped,
    # as the largest child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def workload_config(cli, root: Path, workload, trials: int):
    """The workload's scenario with its overrides and the trial count."""
    from lifi_noma.allocation import Strategy

    overrides = dict(workload.overrides)
    if "strategies" in overrides:
        overrides["strategies"] = tuple(Strategy(t) for t in overrides["strategies"])
    return dataclasses.replace(
        cli.load_scenario(root / workload.scenario), trials=trials, **overrides
    )


def main() -> None:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    out_dir = Path(spec["out_dir"])
    workload = WORKLOADS[spec["workload"]]
    sys.path.insert(0, str(root / "src"))

    loop_before = hostspeed.loop_s()
    start = time.perf_counter()
    from lifi_noma import cli

    trials = TRACE_TRIALS if spec["trace"] else workload.trials
    config = workload_config(cli, root, workload, trials)
    setup_s = time.perf_counter() - start
    setup_loop_s = (loop_before + hostspeed.loop_s()) / 2

    import numpy

    first_trace = None

    def timed_call(call: int, workers: int, traced: bool) -> dict:
        nonlocal first_trace
        seed = call_seed(spec["seed"], spec["child"], call)
        run_config = dataclasses.replace(config, seed=seed)
        out = out_dir / f"c{spec['child']}-k{call}-w{workers}{'-traced' if traced else ''}.csv"
        tracer = Tracer() if traced else None
        loop_before = hostspeed.loop_s()
        with tracer or contextlib.nullcontext():
            begin = time.perf_counter()
            cli.run(workload.command, run_config, out, workers=workers)
            wall_s = time.perf_counter() - begin
        loop_s = (loop_before + hostspeed.loop_s()) / 2
        csv_text = out.read_text(encoding="utf-8")
        if traced and first_trace is None:
            first_trace = (tracer, wall_s, len(csv_text.encode()), seed)
        return {"call": call, "workers": workers, "traced": traced, "seed": seed,
                "trials": trials, "wall_s": wall_s, "loop_s": loop_s, "csv": csv_text}

    def round_calls(call: int) -> list[tuple[int, bool]]:
        # a traced run alternates untraced and traced calls on 1 worker, so
        # the overhead ratio compares medians taken under the same conditions
        if spec["trace"]:
            return [(1, False), (1, True)]
        return [(w, False) for w in workload.round_workers(call)]

    calls: list[dict] = []
    error = None
    deadline = time.perf_counter() + spec["budget_s"]
    try:
        call = 0
        while True:
            round_start = time.perf_counter()
            calls += [timed_call(call, w, traced) for w, traced in round_calls(call)]
            call += 1
            if time.perf_counter() + (time.perf_counter() - round_start) > deadline:
                break
    except Exception as err:  # a failing engine call is counted, not fatal
        error = f"{type(err).__name__}: {err}"

    result = {"setup_s": setup_s, "setup_loop_s": setup_loop_s, "calls": calls, "error": error,
              "numpy": numpy.__version__, "peak_rss_mb": _peak_rss_mb()}

    if first_trace is not None:
        tracer, wall_s, csv_bytes, seed = first_trace
        tracer.write(out_dir / "spans.jsonl", {
            "workload": workload.name, "seed": seed, "trials": trials,
            "wall_ns": int(wall_s * 1e9)})
        metrics = layer_metrics(tracer, wall_s, csv_bytes)
        walls = {t: statistics.median(c["wall_s"] / c["loop_s"] for c in calls
                                      if c["traced"] is t)
                 for t in (False, True)}
        metrics["trace.overhead_ratio"] = {"value": walls[True] / walls[False],
                                           "unit": "ratio"}
        result["layer_metrics"] = metrics
        result["traced_wall_s"] = wall_s

    if spec["gate"]:
        out = out_dir / "two_user_sweep.csv"
        cli.run("sweep-two-user", cli.load_scenario(root / TWO_USER_SCENARIO), out)
        result["two_user_csv"] = out.read_text(encoding="utf-8")

    print(json.dumps(result))


if __name__ == "__main__":
    main()
