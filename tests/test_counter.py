import random
from itertools import islice

import pytest

from support import random_machine
from udpp.core import UdppError
from udpp.counter import (
    CmConfig,
    CmRunResult,
    CounterMachine,
    Dec,
    Goto,
    GotoCycle,
    Halt,
    Inc,
    OutOfRange,
    cm_run,
    cm_step,
    cm_trace,
    next_instr,
)


def test_inc_then_halt():
    machine = CounterMachine((Inc("x"), Halt()))
    after = cm_step(machine, CmConfig(1, 0, 0))
    assert after == CmConfig(2, 1, 0)
    assert cm_step(machine, after) is None


def test_dec_zero_branch_jumps_without_touching_counters():
    machine = CounterMachine((Dec("x", 1), Halt()))
    assert cm_step(machine, CmConfig(1, 0, 0)) == CmConfig(1, 0, 0)
    assert cm_step(machine, CmConfig(1, 0, 5)) == CmConfig(1, 0, 5)


def test_dec_nonzero_branch():
    machine = CounterMachine((Dec("y", 1), Halt()))
    assert cm_step(machine, CmConfig(1, 0, 2)) == CmConfig(2, 0, 1)


def test_count_down_machine_halts_in_four_steps():
    # inc; dec(x: 1 -> 0); dec zero-branch to halt; plus the goto hop
    machine = CounterMachine((Inc("x"), Dec("x", 4), Goto(2), Halt()))
    result = cm_run(machine, 100)
    assert result.halted and result.steps == 4


def test_run_halt_immediately():
    result = cm_run(CounterMachine((Halt(),)), 100)
    assert result.halted and result.steps == 0


def test_run_pump_never_halts():
    result = cm_run(CounterMachine((Inc("x"), Goto(1))), 100)
    assert not result.halted
    assert result.steps == 100
    assert result.final.x == 50  # one inc every other step


def test_run_counts_zero_branches_like_stepping():
    rng = random.Random(61)
    for _ in range(1000):
        machine = random_machine(rng)
        config, steps, zero_branches = CmConfig(1, 0, 0), 0, 0
        while steps < 60 and not isinstance(machine.instrs[config.pc - 1], Halt):
            following = cm_step(machine, config)
            # a decrement that leaves both counters alone took its zero branch
            unchanged = (following.x, following.y) == (config.x, config.y)
            zero_branches += isinstance(machine.instrs[config.pc - 1], Dec) and unchanged
            config, steps = following, steps + 1
        result = cm_run(machine, 60)
        assert (result.steps, result.final, result.zero_branches) == (steps, config, zero_branches)


def test_trace_follows_stepping_and_ends_after_halt():
    rng = random.Random(29)
    for _ in range(300):
        machine = random_machine(rng)
        expected, config = [], CmConfig(1, 0, 0)
        while config is not None and len(expected) < 60:
            expected.append((config, machine.instrs[config.pc - 1]))
            config = cm_step(machine, config)
        assert list(islice(cm_trace(machine), 60)) == expected


def test_run_rejects_a_negative_budget():
    machine = CounterMachine((Inc("x"), Goto(1)))
    with pytest.raises(ValueError, match="max_steps"):
        cm_run(machine, -1)
    assert cm_run(machine, 0) == CmRunResult(False, 0, CmConfig(1, 0, 0), 0)


def test_run_reproducible():
    machine = CounterMachine((Inc("x"), Dec("x", 4), Goto(2), Halt()))
    assert cm_run(machine, 100) == cm_run(machine, 100)


def test_next_skips_goto():
    machine = CounterMachine((Inc("x"), Goto(1)))
    assert next_instr(machine, 1) == 1


def test_next_plain_advance():
    machine = CounterMachine((Inc("x"), Halt()))
    assert next_instr(machine, 1) == 2


def test_next_detects_goto_cycle():
    machine = CounterMachine((Goto(2), Goto(1), Halt()))
    with pytest.raises(GotoCycle):
        next_instr(machine, 1)


def test_next_out_of_range_past_the_end():
    machine = CounterMachine((Inc("x"), Halt()))
    with pytest.raises(OutOfRange):
        next_instr(machine, 2)
    with pytest.raises(OutOfRange):
        next_instr(machine, 0)


def test_next_never_lands_on_goto():
    rng = random.Random(3)
    for _ in range(300):
        machine = random_machine(rng)
        for m in range(1, len(machine)):
            try:
                landing = next_instr(machine, m)
            except (GotoCycle, OutOfRange):
                continue
            assert not isinstance(machine.instrs[landing - 1], Goto)


def test_counters_never_negative():
    rng = random.Random(17)
    for _ in range(1000):
        machine = random_machine(rng)
        current = CmConfig(1, 0, 0)
        for _ in range(200):
            following = cm_step(machine, current)
            if following is None:
                break
            assert following.x >= 0 and following.y >= 0
            current = following


def construction_error(instrs) -> str:
    with pytest.raises(UdppError) as info:
        CounterMachine(instrs)
    return str(info.value)


def test_validate_empty_machine():
    assert construction_error(()) == "machine has no instructions"


def test_validate_fall_through():
    message = construction_error((Inc("x"),))
    assert message == "instruction 1: execution can run past the end; finish with halt or goto"


def test_validate_target_out_of_range():
    assert construction_error((Goto(5), Halt())) == "instruction 1: target 5 is out of range 1..2"


def test_validate_reports_every_problem_in_instruction_order():
    assert construction_error((Goto(0), Inc("z"), Halt(), Dec("w", 9))) == "; ".join(
        [
            "instruction 1: target 0 is out of range 1..4",
            "instruction 2: unknown counter 'z'",
            "instruction 4: unknown counter 'w'",
            "instruction 4: target 9 is out of range 1..4",
            "instruction 4: execution can run past the end; finish with halt or goto",
        ]
    )


def test_validate_good_machine():
    machine = CounterMachine((Inc("x"), Dec("x", 4), Goto(2), Halt()))
    assert cm_run(machine, 100).halted
