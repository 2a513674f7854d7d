"""What the benchmark (bench/) relies on in the package.

Its tracer (bench/spans.py) wraps engine functions by name: it replaces
module attributes for one run and times ``simulation.run_trial`` as the
per-trial unit. A refactor that stops calling it, or drops a name the
tracer looks up, breaks the traced benchmark; this test shows it first.
Its ``setup_s`` times the package import, which must not pull in the
modules the engine loads only on first use.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from lifi_noma import ScenarioConfig, cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_sees_every_trial(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    config = ScenarioConfig(num_users=16, trials=20, seed=1, qos_set=(1.0, 2.0, 3.0, 4.0),
                            pairings=("channel", "qos", "adaptive"))
    out = tmp_path / "traced.csv"
    with spans.Tracer() as tracer:
        begin = time.perf_counter()
        cli.run("campaign", config, out)
        wall_s = time.perf_counter() - begin
    metrics = spans.layer_metrics(tracer, wall_s, len(out.read_bytes()))
    assert metrics["simulation.trial_samples"]["value"] == 20
    assert metrics["cli.csv_bytes"]["value"] == len(out.read_bytes())


def test_package_import_leaves_lazy_modules_unloaded():
    # numpy.random (the PCG64 each thread writes a trial's stream state into)
    # and the worker processes' modules (lifi_noma.workers; multiprocessing
    # off Linux) load on first use, not with the package; concurrent.futures
    # is not used at all, and argparse (with its gettext) loads in cli.main
    # only. Only what the package adds counts: a NumPy whose own import
    # loads numpy.random is not the package's doing
    lazy = ("numpy.random", "lifi_noma.workers", "multiprocessing", "concurrent.futures",
            "argparse", "gettext")
    code = ("import sys, numpy; bare = set(sys.modules); import lifi_noma, lifi_noma.cli; "
            f"print([m for m in {lazy!r} if m in sys.modules and m not in bare])")
    src = str(BENCH.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"
