"""Record ``reference.json``: the CSV means of each workload's first call.

The reference is the first timed call at the benchmark's default seed,
recorded with the engine of the commit that added the benchmark. Run from
the root of a checkout::

    python3 bench/record_reference.py

Recording again is a change to the benchmark, not to the program.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import checks
from child import workload_config
from run_bench import DEFAULT_SEED, ROOT
from workloads import WORKLOADS, call_seed


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from lifi_noma import cli

    reference = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in WORKLOADS.values():
            if workload.reference_key in reference:
                continue
            config = dataclasses.replace(workload_config(cli, ROOT, workload, workload.trials),
                                         seed=call_seed(DEFAULT_SEED, 0, 0))
            out = cli.run(workload.command, config, Path(tmp) / "reference.csv")
            rows = checks.parse_rows(out.read_text(encoding="utf-8"))
            reference[workload.reference_key] = checks.reference_means(rows)
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    print(f"wrote {checks.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
