"""Spans around the calls into each lifi_noma module, recorded from outside.

The tracer replaces module attributes with wrappers for the length of one
run and restores them afterwards; the package itself carries no timers.
Each wrapper records ``[id, parent_id, name, start_ns, end_ns, trial]``.
A span's name starts with its layer, the package module that does the
work (``channel``, ``pairing``, ``allocation``, ``metrics``,
``simulation``, ``cli``).

Patched names are the ones each caller looks up at call time, so a
function imported into ``simulation`` is patched in ``simulation``.

Which end-to-end ``trials_per_s`` each per-layer metric should move:

- ``simulation.evaluate_self_s`` (``run_trial`` minus its child spans):
  ``campaign-grid``;
- ``simulation.sample_self_s``, ``simulation.sample_calls``,
  ``channel.self_s``, ``channel.calls``, ``channel.gain_evals``:
  ``campaign-lean``;
- ``simulation.reduce_self_s`` (the engine call minus its trial spans),
  ``metrics.self_s``, ``metrics.calls``: ``uop-dl-sweep``;
- ``pairing.*``: ``campaign-grid`` and ``uop-dl-sweep``;
- ``allocation.*``: ``campaign-grid``. ``pair_evals`` counts allocations
  from ``simulation`` and from ``pairing`` (adaptive pairing's OPA totals);
  ``useful_ratio`` is the share that ``simulation`` allocated without
  raising, the ones whose powers reach a ``CellResult``;
- ``simulation.trial_p50_ms`` and ``trial_p99_ms`` (traced trial times;
  ``trial_samples`` states the count) describe every workload;
- ``cli.write_s`` (``cli.run`` minus the engine call), ``cli.csv_bytes``
  and ``trace.*`` are guards: they should not move.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter

FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "trial")

# Self time of these spans gets its own metric; others sum per layer.
_SELF_METRIC = {
    "cli.run": "cli.write_s",
    "simulation.reduce": "simulation.reduce_self_s",
    "simulation.evaluate": "simulation.evaluate_self_s",
    "simulation.sample": "simulation.sample_self_s",
}
_LAYER_SELF = ("channel", "pairing", "allocation", "metrics")


class Tracer:
    def __init__(self) -> None:
        from lifi_noma import allocation, cli, pairing, simulation

        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._trial = -1
        self._restore: list[tuple[object, str, object]] = []
        self._infeasible = allocation.InfeasibleAllocationError
        self._targets = (
            (cli, "run", "cli.run", None),
            (cli, "run_campaign", "simulation.reduce", None),
            (cli, "run_uop_sweep", "simulation.reduce", None),
            (simulation, "run_trial", "simulation.evaluate", None),
            (simulation, "sample_users", "simulation.sample", None),
            (simulation, "population_gains", "channel.population_gains", None),
            (simulation, "pair_by_channel", "pairing.pair_by_channel", None),
            (simulation, "pair_by_qos", "pairing.pair_by_qos", None),
            (simulation, "adaptive_pairing", "pairing.adaptive_pairing", self._on_adaptive),
            (simulation, "allocate", "allocation.allocate", self._on_useful),
            (simulation, "single_user_allocation", "allocation.single_user", self._on_useful),
            (pairing, "opa_set", "allocation.opa_set", None),
            (pairing, "single_user_allocation", "allocation.single_user", None),
            (simulation, "downlink_uop", "metrics.downlink_uop", None),
            (simulation, "uplink_uop", "metrics.uplink_uop", None),
            (simulation, "downlink_outage_mask", "metrics.downlink_outage_mask", None),
            (simulation, "uplink_outage_mask", "metrics.uplink_outage_mask", None),
        )
        self._simulation = simulation

    def _on_adaptive(self, outcome) -> None:
        self.counts["pairing.adaptive"] += 1
        if outcome.method == "adaptive:qos":
            self.counts["pairing.adaptive_qos"] += 1

    def _on_useful(self, _allocation) -> None:
        self.counts["allocation.useful"] += 1

    def _wrap(self, original, name, on_result):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        infeasible = self._infeasible
        sets_trial = name == "simulation.evaluate"

        def wrapper(*args, **kwargs):
            if sets_trial:
                self._trial = args[1]
            record = [len(spans), stack[-1] if stack else -1, name, 0, 0, self._trial]
            spans.append(record)
            stack.append(record[0])
            record[3] = clock()
            try:
                result = original(*args, **kwargs)
            except infeasible:
                self.counts["allocation.infeasible"] += 1
                raise
            finally:
                record[4] = clock()
                stack.pop()
                if sets_trial:
                    self._trial = -1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, original, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "Tracer":
        for module, attr, name, on_result in self._targets:
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, on_result))
        # one call per user: a counter, not a span, keeps the overhead down
        original = self._simulation.channel_gain
        self._restore.append((self._simulation, "channel_gain", original))
        self._simulation.channel_gain = self._count(original, "channel.gain_evals")
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def write(self, path, header: dict) -> None:
        """Write the spans as JSON lines: a header, then one array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": FIELDS, **header}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def _nearest_rank(values: list[float], q: float) -> float:
    """The ``q`` quantile of ``values`` by the nearest-rank method."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, wall_s: float, csv_bytes: int) -> dict:
    """Per-layer metrics of one traced ``cli.run`` call.

    ``wall_s`` is the traced call timed from outside; the part of it no
    span's self time covers is reported as ``trace.unaccounted_s``.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child_ns[span[1]] += span[4] - span[3]
    self_s: Counter[str] = Counter()
    for span, covered in zip(spans, child_ns):
        name = span[2]
        key = _SELF_METRIC.get(name) or f"{name.split('.', 1)[0]}.self_s"
        self_s[key] += (span[4] - span[3] - covered) / 1e9
    names = Counter(span[2] for span in spans)
    layer_calls = Counter(span[2].split(".", 1)[0] for span in spans)
    trial_ms = [(s[4] - s[3]) / 1e6 for s in spans if s[2] == "simulation.evaluate"]
    counts = tracer.counts
    pair_evals = layer_calls["allocation"]
    adaptive = counts["pairing.adaptive"]
    metrics = {key: (self_s[key], "s") for key in _SELF_METRIC.values()}
    for layer in _LAYER_SELF:
        metrics[f"{layer}.self_s"] = (self_s[f"{layer}.self_s"], "s")
    metrics.update({
        "simulation.sample_calls": (names["simulation.sample"], "count"),
        "simulation.trial_p50_ms": (statistics.median(trial_ms), "ms"),
        "simulation.trial_p99_ms": (_nearest_rank(trial_ms, 0.99), "ms"),
        "simulation.trial_samples": (len(trial_ms), "count"),
        "channel.calls": (layer_calls["channel"], "count"),
        "channel.gain_evals": (counts["channel.gain_evals"], "count"),
        "pairing.calls": (layer_calls["pairing"], "count"),
        "pairing.adaptive_qos_share": (
            counts["pairing.adaptive_qos"] / adaptive if adaptive else 0.0, "ratio"),
        "allocation.pair_evals": (pair_evals, "count"),
        "allocation.useful_ratio": (
            counts["allocation.useful"] / pair_evals if pair_evals else 0.0, "ratio"),
        "allocation.infeasible": (counts["allocation.infeasible"], "count"),
        "metrics.calls": (layer_calls["metrics"], "count"),
        "cli.csv_bytes": (csv_bytes, "bytes"),
        "trace.unaccounted_s": (wall_s - sum(self_s.values()), "s"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
