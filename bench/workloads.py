"""The benchmark's workloads: which engine call each one times, and why.

Every workload is one ``lifi_noma.cli.run`` call on a scenario shipped in
``scenarios/``, with the config seed derived from the benchmark's own
``--seed`` (see :func:`call_seed`). The trials per call are fixed, so that
peak RSS compares between runs, and few (a call takes 0.25 to 0.5 s on a
2-vCPU VM), so that one run times dozens of calls.
"""

from __future__ import annotations

from dataclasses import dataclass

# Trials of the traced call, on 1 worker since spans stay in one process.
# 1000 trials leave exactly 10 beyond the 99th percentile.
TRACE_TRIALS = 1000


_STRATEGIES = ("opa", "ngdpa", "grpa", "oma")
_PAIRINGS = ("channel", "qos", "adaptive")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # cli.run command
    scenario: str  # scenario file relative to the checkout root
    trials: int  # trials per timed call
    workers: int = 1
    # ScenarioConfig fields to replace; strategies are given as tokens
    overrides: tuple[tuple[str, object], ...] = ()
    # workload whose recorded reference means this one shares
    reference: str | None = None
    # rows every output CSV must hold, stated apart from the scenario
    # files so that a parser that drops a field shows as a failed check
    strategies: tuple[str, ...] = _STRATEGIES
    pairings: tuple[str, ...] = _PAIRINGS
    caps: tuple[float | None, ...] = (None,)

    def round_workers(self, call: int) -> tuple[int, ...]:
        """Worker counts timed in one round of calls, all at the same seed.

        A pooled workload also times one 1-worker call in the first round of
        each process: it gives the scaling efficiency and the byte-identity
        check, and leaves the rest of the budget to the pooled calls.
        """
        return (1, self.workers) if self.workers > 1 and call == 0 else (self.workers,)

    @property
    def reference_key(self) -> str:
        return self.reference or self.name


_DESK = "scenarios/campaign_16users.cfg"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "campaign-grid",
            "16-user desk campaign, 4 strategies x 3 pairings on 1 worker: "
            "evaluate glue, allocation and pairing dominate",
            "campaign",
            _DESK,
            trials=250,
        ),
        Workload(
            "uop-dl-sweep",
            "downlink UOP over 8 caps with adaptive pairing: keeps per-user powers, "
            "so outage metrics and the reduction weigh most and RSS grows with trials",
            "uop-sweep",
            "scenarios/uop_downlink.cfg",
            trials=500,
            pairings=("adaptive",),
            caps=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        ),
        Workload(
            "campaign-lean",
            "5 users, OPA and channel pairing only: bypasses allocation and pairing, "
            "measures the per-trial RNG and channel floor and the unpaired-user path",
            "campaign",
            _DESK,
            trials=2000,
            overrides=(("num_users", 5), ("strategies", ("opa",)), ("pairings", ("channel",))),
            strategies=("opa",),
            pairings=("channel",),
        ),
        Workload(
            "campaign-grid-2w",
            "campaign-grid on 2 workers: the only workload through the process pool, "
            "its chunking and result pickling",
            "campaign",
            _DESK,
            trials=250,
            workers=2,
            reference="campaign-grid",
        ),
    )
}

TWO_USER_SCENARIO = "scenarios/two_user_sweep.cfg"


def call_seed(seed: int, child: int, call: int) -> int:
    """Config seed of one timed call: distinct per process and call.

    Distinct seeds keep a cache keyed on the config from turning repeated
    calls into hits. Seed 0 gives config seed 0 on the first call of the
    first process, the call that the recorded reference describes.
    """
    return (seed * 1000 + child) * 1000 + call
