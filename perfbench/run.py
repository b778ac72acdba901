"""End-to-end benchmark of the heckefam command line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout; the package is taken from ``src/``.
Each command runs in a fresh ``python -m heckefam.cli`` child, one child at
a time, so every sample pays the interpreter start, the imports and the cold
in-process caches a user pays.  Every command's exit code and stdout are
checked by ``oracle.check`` against references that do not come from the
code under test.

``--trace 0`` repeats passes over the workload's commands (order shuffled
by the seed) while whole passes fit in ``--seconds`` and reports medians
over the passes of ``wall_s``, ``cpu_s`` and ``peak_rss_mb``, plus
``setup_s``, the median wall time of ``heckefam list`` in a fresh process.
Times are scaled to a reference CPU speed measured by ``calibrate()``
between the commands; the raw figures are printed above the result.

``--trace 1`` runs one untraced pass and then the same commands under
``traced_main.py`` and reports the per-layer metrics of the traced pass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import signal
import statistics
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from spans import inclusive_and_self  # noqa: E402
from traced_main import TIMED  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = SRC / "heckefam" / "data" / "golden" / "g4_families.json"
SEED_STDOUT = HERE / "seed_stdout.json"
WORK = ROOT / ".perfbench_work"

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "dihedral-prime": [
        ["families", "--group", "I2.17", "--format", "json"],
        ["families", "--group", "I2.19", "--format", "json"],
    ],
    "dihedral-composite": [
        ["families", "--group", "I2.24", "--format", "json"],
        ["families", "--group", "I2.30", "--format", "json"],
    ],
    "desk": [
        ["verify-paper", "--group", "G4"],
        ["decomp", "--group", "G4", "--prime", "2"],
        ["decomp", "--group", "G4", "--prime", "3"],
        ["invariants", "--group", "G4", "--format", "json"],
        ["constructible", "--group", "G4"],
        ["symbols", "verify", "--rank", "8", "--defect", "8", "--parity", "odd"],
        ["symbols", "verify", "--rank", "8", "--defect", "8", "--parity", "even0"],
        ["symbols", "verify", "--rank", "8", "--defect", "8", "--parity", "even2"],
    ],
}
SETUP_COMMAND = ["list"]
SETUP_SAMPLES = 11
# On a virtual machine that shares its cores, the CPU speed can change by
# 1.5x within seconds as other tenants load them.  Times are reported at the
# speed where ``calibrate()`` takes REF_CAL_S seconds.
REF_CAL_S = 0.040
# a run must end within 180 s; no child may outlive this budget
RUN_BUDGET_S = 165.0


@dataclass
class Outcome:
    argv: list
    wall: float
    cpu: float
    maxrss_kb: int
    stdout: str
    error: str | None  # None when the oracle accepted the command


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


class Runner:
    """Starts one child at a time and checks its output."""

    def __init__(self, golden, deadline: float):
        self.golden = golden
        self.deadline = deadline
        self.env = child_env()
        self.outcomes: list[Outcome] = []

    def spawn(self, script: list, argv: list) -> Outcome:
        """Run ``python <script> <argv>``; time it and collect its rusage."""
        timeout = max(0.0, self.deadline - perf_counter())
        with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
            start = perf_counter()
            pid = os.posix_spawn(
                sys.executable, [sys.executable, *script, *argv], self.env,
                file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                              (os.POSIX_SPAWN_DUP2, err.fileno(), 2)],
            )
            pidfd = os.pidfd_open(pid)
            try:
                finished = bool(select.select([pidfd], [], [], timeout)[0])
                if not finished:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            except BaseException:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.wait4(pid, 0)
                raise
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(pid, 0)
            wall = perf_counter() - start
            out.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        if finished:
            rc = os.waitstatus_to_exitcode(status)
            error = oracle.check(argv, rc, stdout, self.golden)
            if error and stderr:
                error += f" (stderr: {stderr.strip().splitlines()[-1]})"
        else:
            error = f"timed out after {timeout:.1f} s"
        outcome = Outcome(argv, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                          stdout, error)
        self.outcomes.append(outcome)
        if error:
            print(f"FAILED {' '.join(argv)}: {error}", file=sys.stderr)
        return outcome

    def cli(self, argv):
        return self.spawn(["-m", "heckefam.cli"], argv)

    def traced(self, argv, trace_file: Path):
        return self.spawn([str(HERE / "traced_main.py"), str(trace_file)], argv)

    def out_of_time(self) -> bool:
        return perf_counter() >= self.deadline


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _summary(name, unit, values):
    q1, med, q3 = _quartiles(values)
    return f"{name:<12} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}"


def calibrate() -> float:
    """Seconds taken by a fixed stdlib workload: rational arithmetic into a
    dict, as in the package's hot loops, with no code of the package."""
    start = perf_counter()
    acc: dict = {}
    for i in range(12000):
        k = i % 97
        acc[k] = acc.get(k, Fraction(0)) + Fraction(i % 13, i % 11 + 1)
    return perf_counter() - start


def measure(runner: Runner, commands, rng: random.Random, seconds: int) -> dict:
    """Untraced run: set-up samples, then as many whole passes as fit in
    ``seconds`` (at least one).

    The calibration runs between consecutive commands.  Each command's wall
    and CPU time is scaled by ``REF_CAL_S`` over the mean of the calibration
    times just before and just after it."""
    calibrations = [calibrate()]

    def cli(argv):
        """(scaled wall, scaled CPU, max RSS in MB, raw wall) of one command."""
        outcome = runner.cli(argv)
        calibrations.append(calibrate())
        scale = 2 * REF_CAL_S / (calibrations[-2] + calibrations[-1])
        return (outcome.wall * scale, outcome.cpu * scale, outcome.maxrss_kb / 1024,
                outcome.wall)

    cli(SETUP_COMMAND)  # warm-up: writes the bytecode caches
    setup = [cli(SETUP_COMMAND) for _ in range(SETUP_SAMPLES)]
    passes = []
    start = perf_counter()
    while True:
        begun = perf_counter()
        done = [cli(argv) for argv in rng.sample(commands, len(commands))]
        passes.append((sum(d[0] for d in done), sum(d[1] for d in done),
                       max(d[2] for d in done), sum(d[3] for d in done)))
        now = perf_counter()
        if now + (now - begun) - start > seconds or runner.out_of_time():
            break
    walls, cpus, rss, raw_walls = (list(col) for col in zip(*passes))
    print(_summary("calibration", "s", calibrations))
    print(_summary("raw wall", "s", raw_walls))
    print(_summary("raw setup", "s", [d[3] for d in setup]))
    print(_summary("wall_s", "s", walls))
    print(_summary("cpu_s", "s", cpus))
    print(_summary("setup_s", "s", [d[0] for d in setup]))
    print(_summary("peak_rss_mb", "MB", rss))
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(d[0] for d in setup), "s"),
    }


def trace(runner: Runner, commands, rng: random.Random) -> dict:
    """One untraced and one traced pass over the same order; per-layer metrics."""
    order = rng.sample(commands, len(commands))
    runner.cli(SETUP_COMMAND)
    plain = [runner.cli(argv) for argv in order]
    with open(SEED_STDOUT) as fh:
        seed_stdout = json.load(fh)
    drift = sum(seed_stdout.get(" ".join(o.argv)) != o.stdout for o in plain)

    inclusive: dict = {name: 0.0 for name in TIMED}
    self_time: dict = {name: 0.0 for name in TIMED}
    calls: dict = {name: 0 for name in TIMED}
    counters: dict = {}
    resolved = [0, 0]
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        traced = []
        for k, (argv, untraced) in enumerate(zip(order, plain)):
            trace_file = Path(tmp) / f"{k}.json"
            outcome = runner.traced(argv, trace_file)
            traced.append(outcome)
            if outcome.error is None and outcome.stdout != untraced.stdout:
                outcome.error = "traced stdout differs from untraced stdout"
                print(f"FAILED {' '.join(argv)}: {outcome.error}", file=sys.stderr)
            if not trace_file.exists():
                continue
            with open(trace_file) as fh:
                doc = json.load(fh)
            for name in doc["missing"]:
                print(f"warning: trace target {name} not found", file=sys.stderr)
            incl, self_ = inclusive_and_self(doc["spans"])
            for name, value in incl.items():
                inclusive[name] += value
            for name, value in self_.items():
                self_time[name] += value
            for span in doc["spans"]:
                calls[span[0]] += 1
            for name, value in doc["counters"].items():
                counters[name] = counters.get(name, 0) + value
            for proven, total in doc["resolved"].values():
                resolved[0] += proven
                resolved[1] += total

    plain_wall = sum(o.wall for o in plain)
    traced_wall = sum(o.wall for o in traced)
    ring_ops = counters.get("cyclotomic.mul_calls", 0) + counters.get("cyclotomic.add_calls", 0)
    metrics = {}
    for name in TIMED:
        metrics[f"{name}_s"] = (inclusive[name], "s")
        metrics[f"{name}_self_s"] = (self_time[name], "s")
        metrics[f"{name}_calls"] = (calls[name], "count")
    metrics.update({
        "cyclotomic.mul_calls": (counters.get("cyclotomic.mul_calls", 0), "count"),
        "cyclotomic.add_calls": (counters.get("cyclotomic.add_calls", 0), "count"),
        "cyclotomic.descent_ratio": (
            counters.get("cyclotomic.descents", 0) / ring_ops if ring_ops else 0.0, "ratio"),
        "laurent.mul_calls": (counters.get("laurent.mul_calls", 0), "count"),
        "valuation.val_calls": (counters.get("valuation.val_calls", 0), "count"),
        "blocks.subset_space": (counters.get("blocks.subset_space", 0), "count"),
        "blocks.resolved_ratio": (resolved[0] / resolved[1] if resolved[1] else 0.0, "ratio"),
        "cli.stdout_drift": (drift, "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
    })
    print(f"untraced pass {plain_wall:.4f} s, traced pass {traced_wall:.4f} s, "
          f"overhead {traced_wall - plain_wall:.4f} s")
    print(f"cyclotomic descents {counters.get('cyclotomic.descents', 0)} of {ring_ops} "
          f"+/* results; resolved columns {resolved[0]} of {resolved[1]}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    for needed in (SRC / "heckefam" / "cli.py", GOLDEN, SEED_STDOUT):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a heckefam source checkout",
                  file=sys.stderr)
            return 2
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    WORK.mkdir(exist_ok=True)
    # One CPU for this process and every child: the calibration then sees
    # the same contention as the commands it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(golden, perf_counter() + RUN_BUDGET_S)
    rng = random.Random(args.seed)
    commands = WORKLOADS[args.workload]
    if args.trace:
        metrics = trace(runner, commands, rng)
    else:
        metrics = measure(runner, commands, rng, args.seconds)
    attempted = len(runner.outcomes)
    failed = sum(o.error is not None for o in runner.outcomes)
    print(f"fail_rate {failed}/{attempted} commands")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
