"""Two-counter machines: instructions, deterministic stepping, goto resolution.

Instructions are 1-based. The zero branch of a decrement jumps without
touching the counters; all other instructions advance the program counter
by one, except goto which jumps unconditionally.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .core import UdppError

COUNTER_NAMES = ("x", "y")


class GotoCycle(UdppError):
    """A chain of goto instructions revisits an index and can never leave."""


class OutOfRange(UdppError):
    """An instruction index falls outside the machine."""


@dataclass(frozen=True)
class Inc:
    counter: str


@dataclass(frozen=True)
class Dec:
    counter: str
    target: int


@dataclass(frozen=True)
class Goto:
    target: int


@dataclass(frozen=True)
class Halt:
    pass


Instr = Inc | Dec | Goto | Halt


@dataclass(frozen=True)
class CounterMachine:
    """A machine that can run from (1, 0, 0); construction rejects any other."""

    instrs: tuple[Instr, ...]

    def __post_init__(self) -> None:
        problems = _machine_problems(self.instrs)
        if problems:
            raise UdppError("; ".join(f"instruction {i}: {message}" if i else message for i, message in problems))

    def __len__(self) -> int:
        return len(self.instrs)


@dataclass(frozen=True)
class CmConfig:
    """Machine snapshot: program counter and both counter values."""

    pc: int
    x: int
    y: int

    def counter(self, name: str) -> int:
        return self.x if name == "x" else self.y

    def __str__(self) -> str:
        return f"pc={self.pc} x={self.x} y={self.y}"


def _machine_problems(instrs: tuple[Instr, ...]) -> list[tuple[int, str]]:
    """(instruction index, message) for each reason these instructions cannot
    run from (1, 0, 0), in index order; index 0 means there are none."""
    n = len(instrs)
    if n == 0:
        return [(0, "machine has no instructions")]
    problems: list[tuple[int, str]] = []
    for index, ins in enumerate(instrs, 1):
        if isinstance(ins, (Inc, Dec)) and ins.counter not in COUNTER_NAMES:
            problems.append((index, f"unknown counter '{ins.counter}'"))
        target = getattr(ins, "target", None)
        if target is not None and not 1 <= target <= n:
            problems.append((index, f"target {target} is out of range 1..{n}"))
    if isinstance(instrs[-1], (Inc, Dec)):
        # Inc always falls through; Dec falls through on its nonzero branch.
        problems.append((n, "execution can run past the end; finish with halt or goto"))
    return problems


def cm_step(machine: CounterMachine, config: CmConfig) -> CmConfig | None:
    """One step of the machine; None when the current instruction is halt."""
    ins = machine.instrs[config.pc - 1]
    if isinstance(ins, Halt):
        return None
    if isinstance(ins, Inc):
        if ins.counter == "x":
            return CmConfig(config.pc + 1, config.x + 1, config.y)
        return CmConfig(config.pc + 1, config.x, config.y + 1)
    if isinstance(ins, Dec):
        value = config.counter(ins.counter)
        if value == 0:
            return CmConfig(ins.target, config.x, config.y)
        if ins.counter == "x":
            return CmConfig(config.pc + 1, config.x - 1, config.y)
        return CmConfig(config.pc + 1, config.x, config.y - 1)
    return CmConfig(ins.target, config.x, config.y)


@dataclass(frozen=True)
class CmRunResult:
    """Outcome of a bounded run from (1, 0, 0), with the number of decrements
    that took their zero branch on the way."""

    halted: bool
    steps: int
    final: CmConfig
    zero_branches: int


def cm_trace(machine: CounterMachine) -> Iterator[tuple[CmConfig, Instr]]:
    """The run from (1, 0, 0): each configuration with the instruction it
    executes, ending after the halt instruction (never, if it does not halt)."""
    current: CmConfig | None = CmConfig(1, 0, 0)
    while current is not None:
        yield current, machine.instrs[current.pc - 1]
        current = cm_step(machine, current)


def cm_run(machine: CounterMachine, max_steps: int) -> CmRunResult:
    """Run from (1, 0, 0) for at most max_steps steps."""
    zero_branches = 0
    for taken, (current, ins) in enumerate(cm_trace(machine)):
        if isinstance(ins, Halt):
            return CmRunResult(True, taken, current, zero_branches)
        if taken >= max_steps:
            return CmRunResult(False, taken, current, zero_branches)
        zero_branches += isinstance(ins, Dec) and current.counter(ins.counter) == 0


def resolve_index(machine: CounterMachine, index: int) -> int:
    """Follow goto chains from index to the first non-goto instruction."""
    n = len(machine.instrs)
    seen: set[int] = set()
    j = index
    while True:
        if not 1 <= j <= n:
            raise OutOfRange(f"instruction index {j} is out of range 1..{n}")
        ins = machine.instrs[j - 1]
        if not isinstance(ins, Goto):
            return j
        if j in seen:
            raise GotoCycle(f"goto chain from {index} revisits instruction {j}")
        seen.add(j)
        j = ins.target


def next_instr(machine: CounterMachine, m: int) -> int:
    """Index of the instruction executed after m, with gotos shortcut away.

    Raises :class:`OutOfRange` when m is the last instruction (nothing
    follows) and :class:`GotoCycle` when the chase loops; a pure goto loop
    can never halt, so callers reject such machines up front.
    """
    if not 1 <= m <= len(machine.instrs):
        raise OutOfRange(f"instruction index {m} is out of range 1..{len(machine.instrs)}")
    return resolve_index(machine, m + 1)
