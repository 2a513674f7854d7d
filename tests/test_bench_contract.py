"""The benchmark's tracer (bench/spans.py) wraps engine functions by name.

It replaces module attributes for one run and times ``simulation.run_trial``
as the per-trial unit. A refactor that stops calling it, or drops a name
the tracer looks up, breaks the traced benchmark; this test shows it first.
"""

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
