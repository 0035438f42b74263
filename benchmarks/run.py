"""udpp's benchmark: timed end-to-end runs and a traced per-layer split.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py [--seed N] [--seconds S] [--trace 0|1]

The first form runs one workload in this process and prints, as its last
line, one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
The second form runs every workload, each in its own process, and prints a
table of every metric with its unit, plus failed_frac. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = workloads.ROOT
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 21
# The host's speed drifts by a third over minutes, and udpp's speed drifts
# with it. A fixed reference computation that never touches udpp is timed
# right after each set-up and about once a second between tasks. Each set-up
# or task time is scaled by REFERENCE_S / (the reference time next to it):
# seconds on a host where the reference takes REFERENCE_S.
REFERENCE_S = 0.06
REFERENCE_EVERY_S = 1.0

END_TO_END = (
    ("setup_s", "s"),
    ("task_p50_s", "s"),
    ("task_p90_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def reference_computation() -> int:
    """Integer arithmetic, then small dicts of tuple keys built and sorted:
    the kind of work udpp's hot paths do, in code no udpp change can touch.
    The dicts stay small so that the computation does not raise peak RSS."""
    total = 0
    for i in range(300_000):
        total += i * i % 7
    for round_ in range(20):
        table = {}
        for i in range(2_000):
            table[((i * 7919 + round_) % 100_003, "x%d" % (i % 50))] = (i, i + 1)
        total += len(sorted(table))
    return total


class Runner:
    """One workload in this process: set-up, then a closed loop of tasks."""

    def __init__(self, workload: workloads.Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.pinned = json.loads(workloads.PINNED.read_text(encoding="utf-8"))
        self.failed = 0
        self.attempted = 0
        self.reference_walls: list[float] = []

    def time_reference(self) -> float:
        gc.collect()
        start = perf_counter()
        reference_computation()
        wall = perf_counter() - start
        self.reference_walls.append(wall)
        return wall

    def scale(self) -> float:
        """Host-speed factor of the whole run so far."""
        return REFERENCE_S / statistics.median(self.reference_walls)

    def setup(self) -> tuple[float, float]:
        """Median seconds of SETUP_REPEATS set-ups, each from a fresh import:
        unscaled, and scaled by the reference timed right after each one."""
        times, scaled = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir.mkdir(parents=True)
            gc.collect()
            start = perf_counter()
            u = workloads.import_udpp()
            state = self.workload.setup(u, self.workdir)
            wall = perf_counter() - start
            times.append(wall)
            scaled.append(wall * REFERENCE_S / self.time_reference())
        self.u, self.state = u, state
        self.reference_walls = []
        return statistics.median(times), statistics.median(scaled)

    def run_task(self, task_input: int) -> tuple[float, float]:
        """Wall seconds and work of one task; the check runs outside the timing."""
        self.attempted += 1
        gc.collect()
        start = perf_counter()
        try:
            outcome = self.workload.task(self.u, self.state, task_input)
        except Exception:
            wall = perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return wall, 0
        wall = perf_counter() - start
        if not self.workload.check(self.pinned, task_input, outcome):
            print(f"{self.workload.name}: wrong answer for input {task_input}", file=sys.stderr)
            self.failed += 1
            return wall, 0
        return wall, self.workload.work(outcome, self.workload.expected(self.pinned, task_input))

    def loop(self, seconds: float) -> tuple[list[int], list[float], list[float], list[float]]:
        """Tasks back to back until `seconds` have passed; at least one.
        The reference computation runs between tasks about once a second, and
        once more at the end, so that every task lies between two references.
        Returns the task inputs, walls, works and host-speed factors, each
        factor from the mean of the two references around its task."""
        inputs = self.workload.inputs(self.seed)
        done, walls, works, since = [], [], [], []
        deadline = perf_counter() + seconds
        next_reference = 0.0
        while not done or perf_counter() < deadline:
            if perf_counter() >= next_reference:
                self.time_reference()
                next_reference = perf_counter() + REFERENCE_EVERY_S
            task_input = next(inputs)
            wall, work = self.run_task(task_input)
            done.append(task_input)
            walls.append(wall)
            works.append(work)
            since.append(len(self.reference_walls) - 1)
        self.time_reference()
        refs = self.reference_walls
        scales = [2 * REFERENCE_S / (refs[k] + refs[k + 1]) for k in since]
        return done, walls, works, scales

    def timed(self, seconds: float) -> dict:
        setup_s, scaled_setup_s = self.setup()
        _, walls, works, scales = self.loop(seconds)
        rates = [work / wall for work, wall in zip(works, walls)]
        unscaled = {
            "setup_s": setup_s,
            "task_p50_s": statistics.median(walls),
            "task_p90_s": _quantile(walls, 90),
            "work_per_s": statistics.median(rates),
            "reference_s": statistics.median(self.reference_walls),
        }
        print(f"unscaled: {json.dumps(unscaled)}", file=sys.stderr)
        scaled_walls = [wall * scale for wall, scale in zip(walls, scales)]
        values = {
            "setup_s": scaled_setup_s,
            "task_p50_s": statistics.median(scaled_walls),
            "task_p90_s": _quantile(scaled_walls, 90),
            "work_per_s": statistics.median(rate / scale for rate, scale in zip(rates, scales)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    def traced(self, seconds: float) -> dict:
        """Half the time untraced, then the same tasks again under the tracer.
        Each half has its own host-speed factor."""
        self.setup()
        done, untraced_walls, _, _ = self.loop(seconds / 2)
        untraced_scale = self.scale()
        self.reference_walls = []
        tracer = tracing.Tracer()
        with tracer:
            self.workload.setup(self.u, self.workdir)
            tracer.phase = "task"
            traced_walls = []
            next_reference = 0.0
            for number, task_input in enumerate(done):
                if perf_counter() >= next_reference:
                    self.time_reference()
                    next_reference = perf_counter() + REFERENCE_EVERY_S
                tracer.task = number
                with tracer.span("task"):
                    wall, _ = self.run_task(task_input)
                traced_walls.append(wall)
        self.time_reference()
        tracer.write(WORK / "traces" / f"{self.workload.name}-seed{self.seed}.json")
        return tracing.layer_metrics(tracer, traced_walls, untraced_walls, self.scale(), untraced_scale)


def run_one(args) -> int:
    if not (ROOT / "src" / "udpp" / "__init__.py").is_file():
        print(f"error: no udpp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, WORK / f"{workload.name}-{os.getpid()}")
    try:
        metrics = runner.traced(args.seconds) if args.trace else runner.timed(args.seconds)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode} without a result")
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name:16} {metric:45} {entry['value']:14.6g} {entry['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"{name:16} {'failed_frac':45} {frac:14.6g} ratio ({result['attempted']} tasks)")
        status = status or (0 if result["correct"] else 1)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
