"""The benchmark's workloads: set-up, one task, and the task's check.

A task is one user-level call. Where a CLI command exists it goes through
``udpp.cli.main`` in-process with stdout captured, so the check covers the
exit code and the exact stdout bytes against ``pinned.json``.

Every function takes ``u``, the namespace of freshly imported ``udpp``
modules that :func:`import_udpp` returns, so that set-up can be timed from
the import on and repeated.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import itertools
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
PINNED = Path(__file__).resolve().parent / "pinned.json"

SIMULATE_STEPS = 150
SIMULATE_MONITORS = ("sink1-removal-discipline", "reservoir-no-refill")
# Simulate seeds are drawn from range(SIMULATE_POOL); pinned.json holds the
# answer for each of them.
SIMULATE_POOL = 512


def loaded_udpp() -> SimpleNamespace:
    """The udpp modules the benchmark calls into, importing them if needed."""
    names = ("cli", "core", "exploration", "formats", "reduction")
    return SimpleNamespace(**{n: importlib.import_module(f"udpp.{n}") for n in names})


def import_udpp() -> SimpleNamespace:
    """Import udpp afresh, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "udpp" or n.startswith("udpp.")]:
        del sys.modules[name]
    return loaded_udpp()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def call_cli(u: SimpleNamespace, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call; stderr is dropped."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = u.cli.main(argv)
    return code, out.getvalue()


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    violations: int = 0
    steps: int = 0


def answer(outcome: Outcome) -> dict:
    """What pinned.json stores for one task."""
    return {
        "exit": outcome.code,
        "bytes": len(outcome.stdout.encode("utf-8")),
        "sha256_16": digest(outcome.stdout),
        "violations": outcome.violations,
    }


def _compile(u: SimpleNamespace, machine: str, workdir: Path) -> Path:
    """Compile samples/<machine>.cm and write it as a .pp file."""
    parsed = u.formats.parse_machine((SAMPLES / f"{machine}.cm").read_text(encoding="utf-8"))
    path = workdir / f"{machine}.pp"
    path.write_text(u.formats.format_protocol(u.reduction.compile_machine(parsed)), encoding="utf-8")
    return path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    # set-up: writes the input files and returns the task's fixed state
    setup: Callable[[SimpleNamespace, Path], dict]
    # one task: state, task input -> outcome
    task: Callable[[SimpleNamespace, dict, int], Outcome]
    # whether task inputs are simulate seeds drawn from the workload seed;
    # otherwise every task has the same input, 0
    seeded: bool
    # work done by one task, in work_unit, from its outcome and pinned answer
    work: Callable[[Outcome, dict], int]

    def inputs(self, seed: int) -> Iterator[int]:
        """Task inputs for a workload seed; the same seed gives the same inputs."""
        if not self.seeded:
            return itertools.repeat(0)
        return itertools.cycle(random.Random(seed).sample(range(SIMULATE_POOL), SIMULATE_POOL))

    def pinned_inputs(self) -> range:
        return range(SIMULATE_POOL if self.seeded else 1)

    def expected(self, pinned: dict, task_input: int) -> dict:
        return pinned[self.name][str(task_input)]

    def check(self, pinned: dict, task_input: int, outcome: Outcome) -> bool:
        expected = self.expected(pinned, task_input)
        return all(answer(outcome)[key] == expected[key] for key in ("exit", "bytes", "sha256_16", "violations"))


# classify-count4 -------------------------------------------------------


def _classify_setup(u: SimpleNamespace, workdir: Path) -> dict:
    protocol = _compile(u, "count4", workdir)
    r1 = u.reduction.tagged(u.reduction.RES1, "R1")
    r2 = u.reduction.tagged(u.reduction.RES2, "R2")
    counts = {(r1, 0): 5, **{(r2, color): 1 for color in range(5)}}
    config = workdir / "count4-5x5.cfg"
    config.write_text(u.formats.format_configuration(u.core.Configuration(counts)) + "\n", encoding="utf-8")
    return {"argv": ["classify", str(protocol), str(config)]}


def _cli_task(u: SimpleNamespace, state: dict, task_input: int) -> Outcome:
    return Outcome(*call_cli(u, state["argv"]))


# sweeps ----------------------------------------------------------------


def _seesaw_setup(u: SimpleNamespace, workdir: Path) -> dict:
    path = SAMPLES / "seesaw.pp"
    u.formats.parse_protocol(path.read_text(encoding="utf-8"))
    return {"argv": ["sweep", str(path), "--max-agents", "8", "--max-colors", "4"]}


def _halt_setup(u: SimpleNamespace, workdir: Path) -> dict:
    protocol = _compile(u, "halt", workdir)
    return {"argv": ["sweep", str(protocol), "--max-agents", "5", "--max-colors", "3"]}


def _report_starts(outcome: Outcome, expected: dict) -> int:
    return outcome.stdout.count("\n") - 1  # one line per start, then the verdict


# simulate-count4 -------------------------------------------------------


def _simulate_setup(u: SimpleNamespace, workdir: Path) -> dict:
    protocol = _compile(u, "count4", workdir)
    config = workdir / "count4-witness-k4.cfg"
    code, _ = call_cli(u, ["witness", str(SAMPLES / "count4.cm"), "--k", "4", "--out", str(config)])
    if code != 0:
        raise RuntimeError(f"udpp witness exited {code}")
    parsed = u.formats.parse_protocol(protocol.read_text(encoding="utf-8"))
    return {"protocol": parsed, "argv": ["simulate", str(protocol), str(config), "--steps", str(SIMULATE_STEPS)]}


def _simulate_task(u: SimpleNamespace, state: dict, task_input: int) -> Outcome:
    # The trace goes back through the library: `udpp compile` emits rules
    # without labels, so `udpp monitors` cannot resolve the trace's r<n> names.
    code, out = call_cli(u, state["argv"] + ["--seed", str(task_input)])
    trace = u.formats.parse_trace(state["protocol"], out)
    violations = u.reduction.run_monitors(state["protocol"], trace, SIMULATE_MONITORS)
    return Outcome(code, out, len(violations), len(trace))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "classify-count4",
            "one large graph over 877 compiled rules: enumeration, firing and canonicalization all carry load",
            "nodes",
            _classify_setup,
            _cli_task,
            False,
            lambda outcome, expected: expected["nodes"],
        ),
        Workload(
            "sweep-seesaw",
            "878 tiny graphs on a 2-rule protocol: re-exploration, start enumeration and per-start overhead dominate",
            "starts",
            _seesaw_setup,
            _cli_task,
            False,
            _report_starts,
        ),
        Workload(
            "sweep-halt",
            "a sweep over 654 compiled rules whose 3,570 nodes are all distinct: rule scanning dominates",
            "starts",
            _halt_setup,
            _cli_task,
            False,
            _report_starts,
        ),
        Workload(
            "simulate-count4",
            "seeded scheduler runs on concrete configurations, written, parsed back and monitored: no graph",
            "steps",
            _simulate_setup,
            _simulate_task,
            True,
            lambda outcome, expected: outcome.steps,
        ),
    )
}
