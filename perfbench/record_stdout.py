"""Record the stdout of every workload command into ``seed_stdout.json``.

    python3 perfbench/record_stdout.py

The file is the reference for ``cli.stdout_drift``: the count of commands
whose stdout differs from the output recorded at the commit that added the
benchmark.  Re-record it only together with a CHANGES.md entry that says
which bytes changed and why.
"""

from __future__ import annotations

import json
from time import perf_counter

import run


def main() -> None:
    with open(run.GOLDEN) as fh:
        golden = json.load(fh)
    run.WORK.mkdir(exist_ok=True)
    runner = run.Runner(golden, perf_counter() + 600)
    recorded = {}
    for commands in run.WORKLOADS.values():
        for argv in commands:
            outcome = runner.cli(argv)
            if outcome.error:
                raise SystemExit(f"{' '.join(argv)}: {outcome.error}")
            recorded[" ".join(argv)] = outcome.stdout
    with open(run.SEED_STDOUT, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
