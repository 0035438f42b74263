import hashlib
import random
import re

import pytest

from udpp.core import (
    Configuration,
    Guard,
    Rule,
    Trace,
    TransitionInstance,
    enabled_instances,
    fire,
    is_initial,
    validate_protocol,
)
from support import random_machine
from udpp.counter import CounterMachine, Dec, Goto, GotoCycle, Halt, Inc, cm_run, cm_trace
from udpp.exploration import (
    VERDICT_BOUNDED_OK,
    VERDICT_WITNESS,
    ExplorationLimits,
    Verdict,
    canonicalize,
    check_well_specification,
    classify_output,
    enumerate_initial_configs,
    random_fair_run,
)
from udpp.formats import format_trace
from udpp.reduction import (
    ALL_MONITORS,
    MONITOR_COUNTER,
    MONITOR_FRESH,
    MONITOR_RESERVOIR,
    MONITOR_SINK1,
    NotHalting,
    StuckReplay,
    build_witness,
    certificate_verdict,
    compile_machine,
    instr_state,
    main_of,
    replay_halting_run,
    run_monitors,
)

HALT = CounterMachine((Halt(),))
COUNT4 = CounterMachine((Inc("x"), Dec("x", 4), Goto(2), Halt()))
PUMP = CounterMachine((Inc("x"), Goto(1)))
MACHINES = (HALT, COUNT4, PUMP)


def expected_rule_count(machine: CounterMachine) -> int:
    """Closed-form count over the transition families, derived independently.

    Lifting sends each main-level rule to 4 tag pairs (3 for eq, since the
    same-colored (R2, R2) case belongs to the input-violation family), and
    an "either case" rule contributes an eq and a neq variant, 7 in total.
    """
    n_instr = len(machine.instrs)
    n_dec = sum(isinstance(i, Dec) for i in machine.instrs)
    n_inc = sum(isinstance(i, Inc) for i in machine.instrs)
    n_halt = sum(isinstance(i, Halt) for i in machine.instrs)
    mains = n_instr + n_dec + 2 + 8 + 2 + 5
    return (
        mains * mains  # input violation, eq on (R2, R2), all main pairs
        + 8 * 4  # counter color violation, neq only
        + 16 * 7  # control state violation, either case
        + 2 * 7  # convert to sink1
        + mains * 7  # convert to sink2
        + 3 * 7  # setup chain
        + 3 * 2 * 3  # increment/decrement/detect, eq only, both counters
        + n_inc * 2 * 7  # instruction: inc, two shadow flags
        + n_dec * 3 * 7  # instruction: dec, nonzero + two zero-test parts
        + n_halt * 7  # halt drains sink1
    )


@pytest.mark.parametrize("machine", MACHINES, ids=("halt", "count4", "pump"))
def test_compiled_protocols_validate(machine):
    assert validate_protocol(compile_machine(machine)) == []


@pytest.mark.parametrize("machine", MACHINES, ids=("halt", "count4", "pump"))
def test_rule_count_matches_family_arithmetic(machine):
    assert len(compile_machine(machine).rules) == expected_rule_count(machine)


def test_compiled_initial_and_output():
    protocol = compile_machine(HALT)
    assert protocol.initial == {"R1@R1", "R2@R2"}
    ones = {s for s, v in protocol.output.items() if v == 1}
    assert ones == {"R1@R1", "R1@R2", "R2@R1", "R2@R2"}


def test_same_tag_r2_eq_rules_are_exactly_the_input_violations():
    protocol = compile_machine(COUNT4)
    for rule in protocol.rules:
        tags = (rule.pre[0].rsplit("@", 1)[1], rule.pre[1].rsplit("@", 1)[1])
        if tags == ("R2", "R2") and rule.guard is Guard.EQ:
            assert rule.label.startswith("InputViolation[")
            assert rule.post == ("sink2@R2", "sink2@R2")


def test_tags_never_change():
    for machine in MACHINES:
        for rule in compile_machine(machine).rules:
            assert rule.pre[0].rsplit("@", 1)[1] == rule.post[0].rsplit("@", 1)[1]
            assert rule.pre[1].rsplit("@", 1)[1] == rule.post[1].rsplit("@", 1)[1]


def test_reservoirs_are_never_refilled():
    for machine in MACHINES:
        for rule in compile_machine(machine).rules:
            for pre, post in zip(rule.pre, rule.post):
                if main_of(post) in ("R1", "R2"):
                    assert main_of(post) == main_of(pre)


def test_lifting_covers_all_tag_pairs():
    protocol = compile_machine(COUNT4)
    variants: dict[str, set[tuple[str, str, str]]] = {}
    for rule in protocol.rules:
        if rule.label.startswith("InputViolation["):
            continue
        family = rule.label.split(":", 1)[0]
        variants.setdefault(family, set()).add(
            (rule.guard.value, rule.pre[0].rsplit("@", 1)[1], rule.pre[1].rsplit("@", 1)[1])
        )
    eq_pairs = {("eq", "R1", "R1"), ("eq", "R1", "R2"), ("eq", "R2", "R1")}
    neq_pairs = {("neq", t1, t2) for t1 in ("R1", "R2") for t2 in ("R1", "R2")}
    for family, got in variants.items():
        if family.startswith("CounterColorViolation"):
            assert got == neq_pairs, family
        elif family.split("[")[0] in ("Increment", "Decrement", "DetectPositive"):
            assert got == eq_pairs, family
        else:
            assert got == eq_pairs | neq_pairs, family


def test_goto_first_machine_enters_the_resolved_instruction():
    machine = CounterMachine((Goto(2), Halt()))
    protocol = compile_machine(machine)
    setup3 = [r for r in protocol.rules if r.label and r.label.startswith("Setup3:")]
    assert setup3 and all(main_of(r.post[0]) == instr_state(2) for r in setup3)


def test_compile_rejects_pure_goto_cycles():
    with pytest.raises(GotoCycle):
        compile_machine(CounterMachine((Goto(2), Goto(1), Halt())))


def test_witness_shape_for_halt_k1():
    witness = build_witness(HALT, 1)
    colors = sorted({color for (_, color), _ in witness.items()})
    assert colors == [0, 1, 2]  # 2k would starve the three-step setup chain
    for color in colors:
        assert witness[("R1@R1", color)] == 9  # 2k + 7
        assert witness[("R2@R2", color)] == 1
    assert witness.total() == 30


def test_witness_uses_two_k_colors_once_k_is_large_enough():
    witness = build_witness(HALT, 3)
    assert len(canonicalize(witness)) == 6
    witness = build_witness(COUNT4, 4)
    assert len(canonicalize(witness)) == 8
    for color in range(8):
        assert witness[("R1@R1", color)] == 15
        assert witness[("R2@R2", color)] == 1


def test_witness_is_initial_and_has_no_repeated_reservoir_color():
    for machine, k in ((HALT, 1), (COUNT4, 4)):
        protocol = compile_machine(machine)
        witness = build_witness(machine, k)
        assert is_initial(protocol, witness)
        for (_, color), _ in witness.items():
            assert witness[("R2@R2", color)] <= 1


def test_witness_enables_no_input_violation():
    protocol = compile_machine(HALT)
    witness = build_witness(HALT, 1)
    for instance in enabled_instances(protocol, witness):
        assert not instance.rule.label.startswith("InputViolation[")


def test_witness_requires_a_halting_machine():
    with pytest.raises(NotHalting):
        build_witness(PUMP, 50)
    with pytest.raises(NotHalting):
        build_witness(COUNT4, 3)  # halts in 4 steps, not 3
    with pytest.raises(ValueError):
        build_witness(HALT, 0)


def _replay(machine, k):
    protocol = compile_machine(machine)
    trace = replay_halting_run(machine, build_witness(machine, k))
    return protocol, trace


@pytest.mark.parametrize("machine,k,halt_index", ((HALT, 1, 1), (COUNT4, 4, 4)), ids=("halt", "count4"))
def test_replay_reaches_a_mixed_opinion_deadlock(machine, k, halt_index):
    protocol, trace = _replay(machine, k)
    final = trace.final
    assert enabled_instances(protocol, final) == []
    actives = {main_of(q) for q in final.active_states()}
    assert "R1" in actives
    assert instr_state(halt_index) in actives
    assert {protocol.output[q] for q in final.active_states()} == {0, 1}
    assert certificate_verdict(protocol, trace).verdict is Verdict.NO_OUTPUT


def test_replay_handles_counter_y_and_repeated_zero_tests():
    machine = CounterMachine(
        (Inc("y"), Inc("y"), Dec("y", 5), Goto(3), Dec("x", 6), Halt())
    )
    protocol = compile_machine(machine)
    trace = replay_halting_run(machine, build_witness(machine, 8))
    assert certificate_verdict(protocol, trace).verdict is Verdict.NO_OUTPUT
    assert run_monitors(protocol, trace) == []


def test_replay_settles_a_leftover_nonzero_counter():
    # halts with x = 1 and the x-shadow flag back at =0, so one detection
    # still fires before the terminal configuration is a true deadlock
    machine = CounterMachine(
        (Inc("x"), Inc("x"), Dec("x", 6), Dec("y", 6), Goto(6), Halt())
    )
    protocol = compile_machine(machine)
    trace = replay_halting_run(machine, build_witness(machine, 4))
    assert enabled_instances(protocol, trace.final) == []
    detects = [
        inst for inst, _ in trace.steps if inst.rule.label.startswith("DetectPositive[")
    ]
    assert len(detects) == 1
    assert certificate_verdict(protocol, trace).verdict is Verdict.NO_OUTPUT
    assert run_monitors(protocol, trace) == []


def test_replay_certifies_twenty_random_halting_machines():
    rng = random.Random(99)
    checked = 0
    while checked < 20:
        machine = random_machine(rng)
        probe = cm_run(machine, 12)
        if not probe.halted:
            continue
        protocol = compile_machine(machine)
        trace = replay_halting_run(machine, build_witness(machine, max(probe.steps, 1)))
        assert certificate_verdict(protocol, trace).verdict is Verdict.NO_OUTPUT
        assert run_monitors(protocol, trace) == []
        checked += 1


def test_exploration_rediscovers_the_halting_witness():
    # fully independent cross-check: the graph classifier, which knows nothing
    # about the scripted run, finds NoOutput starts for the compiled halting
    # machine within five agents
    protocol = compile_machine(HALT)
    five_agents = Configuration(
        {("R1@R1", 0): 2, ("R2@R2", 0): 1, ("R2@R2", 1): 1, ("R2@R2", 2): 1}
    )
    oc = classify_output(protocol, five_agents, ExplorationLimits(max_nodes=200_000))
    assert oc.verdict is Verdict.NO_OUTPUT
    from udpp.exploration import check_well_specification

    report = check_well_specification(
        protocol, 5, 3, ExplorationLimits(max_nodes=200_000)
    )
    assert report.verdict == "not-well-specified"


def test_exploration_rediscovers_the_count4_witness():
    # minimal start that fits the whole simulation: one control draw, one
    # increment draw backed by a same-colored R1 agent, four single-use
    # colors, and one reservoir agent left over to disagree at the deadlock
    protocol = compile_machine(COUNT4)
    seven_agents = Configuration(
        {
            ("R1@R1", 0): 3,
            ("R2@R2", 0): 1,
            ("R2@R2", 1): 1,
            ("R2@R2", 2): 1,
            ("R2@R2", 3): 1,
        }
    )
    oc = classify_output(protocol, seven_agents, ExplorationLimits(max_nodes=500_000))
    assert oc.verdict is Verdict.NO_OUTPUT


def test_replay_consumes_at_most_one_fresh_color_per_machine_step():
    protocol, trace = _replay(COUNT4, 4)
    zero_refills = sum(
        1 for inst, _ in trace.steps if inst.rule.label.startswith("ZeroTest2[")
    )
    assert zero_refills <= 4
    assert zero_refills == 1  # exactly one zero branch on the way to halt


def test_replay_conserves_agents():
    protocol, trace = _replay(COUNT4, 4)
    total = trace.initial.total()
    for _, config in trace.steps:
        assert config.total() == total


def test_replay_starves_on_a_two_color_witness():
    # the setup chain alone needs three single-use colors
    starved = Configuration(
        {("R1@R1", 0): 9, ("R2@R2", 0): 1, ("R1@R1", 1): 9, ("R2@R2", 1): 1}
    )
    with pytest.raises(StuckReplay):
        replay_halting_run(HALT, starved)


@pytest.mark.parametrize(
    "machine, start, message",
    [
        (  # a second R2 agent of colour 1 survives the drain and meets the shadows
            HALT,
            Configuration([*build_witness(HALT, 1).items(), (("R2@R2", 1), 1)]),
            "terminal configuration still enables 2 instance(s), e.g. InputViolation[xbar.=0,ybar.=0]:"
            " (xbar.=0@R2, ybar.=0@R2) eq (sink2@R2, sink2@R2) @ (1, 1)",
        ),
        (  # the only sink1 agent has the colour of every R2 agent left
            HALT,
            Configuration(
                {("R1@R1", 0): 9, ("R1@R1", 1): 9, ("R2@R2", 0): 4, ("R2@R2", 1): 1}
            ),
            "no sink1 agent available to absorb the R2 reservoir",
        ),
        (  # the first increment finds no R1 agent of the shadow's colour
            COUNT4,
            Configuration([(("R1@R1", 0), 1), *((("R2@R2", c), 1) for c in range(6))]),
            "scripted step 'Increment[x]:eq@R2R1' with colors (1, 1): no agent available at"
            " (R1@R1, 1) for Increment[x]:eq@R2R1: (xbar.+@R2, R1@R1) eq (xbar.>0@R2, x@R1)",
        ),
    ],
    ids=("repeated-r2-colour", "no-sink1-absorber", "no-agent-for-a-scripted-step"),
)
def test_replay_failure_messages_are_pinned(machine, start, message):
    with pytest.raises(StuckReplay) as exc:
        replay_halting_run(machine, start)
    assert str(exc.value) == message


def test_replay_rejects_non_initial_starts():
    with pytest.raises(StuckReplay):
        replay_halting_run(HALT, Configuration({("sink1@R1", 0): 1}))


def test_certificate_needs_a_deadlock():
    protocol = compile_machine(HALT)
    witness = build_witness(HALT, 1)
    not_done = Trace(witness, ())
    oc = certificate_verdict(protocol, not_done)
    assert oc.verdict is Verdict.UNKNOWN and "not a deadlock" in oc.reason


def test_certificate_requires_disagreement():
    protocol = compile_machine(HALT)
    lonely = Trace(Configuration({("garbage@R1", 0): 1}), ())
    oc = certificate_verdict(protocol, lonely)
    assert oc.verdict is Verdict.UNKNOWN


@pytest.mark.parametrize("machine,k", ((HALT, 1), (COUNT4, 4)), ids=("halt", "count4"))
def test_monitors_accept_replay_traces(machine, k):
    protocol, trace = _replay(machine, k)
    assert run_monitors(protocol, trace) == []


def test_monitors_flag_a_forged_sink1_removal():
    protocol, trace = _replay(HALT, 1)
    # find a configuration along the trace holding a sink1 agent
    step_index, config = next(
        (i, cfg)
        for i, (_, cfg) in enumerate(trace.steps)
        if any(main_of(q) == "sink1" for q in cfg.active_states())
    )
    (state, color) = next(
        (q, d) for (q, d), _ in config.items() if main_of(q) == "sink1"
    )
    forged_rule = Rule(
        (state, state.replace("sink1", "garbage")),
        Guard.NEQ,
        (state.replace("sink1", "garbage"), state.replace("sink1", "garbage")),
        label="forged",
    )
    other = next(d for (_, d), _ in config.items() if d != color)
    counts = dict(config.items())
    counts[(state, color)] -= 1
    garbage_state = state.replace("sink1", "garbage")
    counts[(garbage_state, color)] = counts.get((garbage_state, color), 0) + 1
    doctored = Configuration(counts)
    forged_step = (TransitionInstance(forged_rule, color, other), doctored)
    corrupted = Trace(trace.initial, trace.steps[: step_index + 1] + (forged_step,))
    violations = run_monitors(protocol, corrupted)
    assert violations
    assert any("sink1" in v for v in violations)
    assert any("not part of the protocol" in v for v in violations)


def test_monitors_flag_counter_agents_moved_by_other_families():
    protocol = compile_machine(COUNT4)
    start = Configuration(
        {("sink2@R1", 0): 1, ("x@R1", 1): 1, ("xbar.=0@R2", 1): 1}
    )
    broadcast = next(
        r
        for r in protocol.rules
        if r.label == "ConvertToSink2[x]:neq@R1R1"
    )
    after = Configuration({("sink2@R1", 0): 1, ("sink2@R1", 1): 1, ("xbar.=0@R2", 1): 1})
    trace = Trace(start, ((TransitionInstance(broadcast, 0, 1), after),))
    violations = run_monitors(protocol, trace)
    assert any("outside the increment/decrement micro-steps" in v for v in violations)
    # the eq variant has both agents present but fails its guard on (0, 1)
    eq_variant = next(r for r in protocol.rules if r.label == "ConvertToSink2[x]:eq@R1R1")
    trace = Trace(start, ((TransitionInstance(eq_variant, 0, 1), after),))
    assert any("instance was not enabled" in v for v in run_monitors(protocol, trace))


def test_monitors_sink_and_reservoir_hold_on_random_runs():
    # from witness-shaped starts, one R2 agent per colour: the witness of a
    # halting machine, and the same shape for pump, which never halts and so
    # has no witness
    for machine, start in (
        (COUNT4, build_witness(COUNT4, 4)),
        (HALT, build_witness(HALT, 1)),
        (PUMP, Configuration({**{("R1@R1", c): 9 for c in range(4)}, **{("R2@R2", c): 1 for c in range(4)}})),
    ):
        protocol = compile_machine(machine)
        for seed in range(20):
            trace = random_fair_run(protocol, start, seed=seed, max_steps=150)
            assert run_monitors(protocol, trace, (MONITOR_SINK1, MONITOR_RESERVOIR)) == [], (machine, seed)


def test_two_r2_agents_of_one_colour_break_the_sink1_discipline_on_real_runs():
    protocol = compile_machine(COUNT4)
    start = Configuration({("R1@R1", 0): 3, ("R2@R2", 0): 2, ("R2@R2", 1): 1})
    flagged = 0
    for seed in range(200):
        # every step is a real, enabled fire, or the monitors would say so
        violations = run_monitors(protocol, random_fair_run(protocol, start, seed=seed, max_steps=60), (MONITOR_SINK1,))
        assert all(v.endswith("agent removed from sink1 by a rule that may not do so") for v in violations)
        flagged += bool(violations)
    assert flagged == 101
    trace = random_fair_run(protocol, start, seed=0, max_steps=60)
    assert [instance.rule.label for instance, _ in trace.steps[:3]] == [
        "Setup1:eq@R1R2", "Setup2:eq@R1R2", "InputViolation[xbar.=0,sink1]"
    ]
    assert run_monitors(protocol, trace, (MONITOR_SINK1,))[0] == (
        "step 3: agent removed from sink1 by a rule that may not do so"
    )


def seeded_compiled_machines(rng: random.Random, count: int):
    """The first count seeded random machines that compile (a pure goto
    loop does not), each with its protocol."""
    compiled = []
    while len(compiled) < count:
        machine = random_machine(rng)
        try:
            compiled.append((machine, compile_machine(machine)))
        except GotoCycle:
            continue
    return compiled


def test_sink_and_reservoir_monitors_are_decided_per_rule():
    # both monitors judge a step by its rule alone, so firing each rule once
    # from its minimal start finds every rule that can offend
    offending = witnesses = 0
    for machine, protocol in seeded_compiled_machines(random.Random(11), 30):
        for rule in protocol.rules:
            d, e = (0, 0) if rule.guard is Guard.EQ else (0, 1)
            start = Configuration([((rule.pre[0], d), 1), ((rule.pre[1], e), 1)])
            instance = TransitionInstance(rule, d, e)
            trace = Trace(start, ((instance, fire(protocol, start, instance)),))
            if run_monitors(protocol, trace, (MONITOR_SINK1, MONITOR_RESERVOIR)):
                # an input-violation rule: two R2-tagged agents of one colour
                assert rule.guard is Guard.EQ and all(q.endswith("@R2") for q in rule.pre), rule
                offending += 1
            assert [q.rsplit("@", 1)[1] for q in rule.pre] == [q.rsplit("@", 1)[1] for q in rule.post]
        run = cm_run(machine, 30)
        if run.halted:
            # tags and colours never change, so a start with at most one
            # R2-tagged agent per colour never enables an offending rule
            witness = build_witness(machine, max(run.steps, 1))
            r2_colours = [color for (q, color), n in witness.items() for _ in range(n) if q.endswith("@R2")]
            assert len(r2_colours) == len(set(r2_colours))
            witnesses += 1
    assert (offending, witnesses) == (1210, 22)


def _rebuilt(trace: Trace, make) -> Trace:
    """trace with each step's rule replaced by make(rule)."""
    return Trace(trace.initial, tuple((TransitionInstance(make(i.rule), i.d, i.e), c) for i, c in trace.steps))


def test_monitors_judge_copied_rules_as_the_protocols_own_and_foreign_rules_alone():
    protocol = compile_machine(COUNT4)
    start = Configuration({("R1@R1", 0): 3, ("R2@R2", 0): 2, ("R2@R2", 1): 1})
    trace = random_fair_run(protocol, start, seed=0, max_steps=12)
    # equal to a protocol rule, not the same object
    copies = _rebuilt(trace, lambda rule: Rule(rule.pre, rule.guard, rule.post))
    assert all(copy.rule is not step.rule for (copy, _), (step, _) in zip(copies.steps, trace.steps))
    expected = [
        "step 2: shadow state entered with color 0, already in play",
        "step 3: agent removed from sink1 by a rule that may not do so",
    ]
    assert run_monitors(protocol, copies) == run_monitors(protocol, trace) == expected
    # run backwards: foreign rules, except the symmetric broadcasts, which
    # come back as copies of protocol rules
    assert run_monitors(protocol, _rebuilt(trace, lambda rule: Rule(rule.post, rule.guard, rule.pre))) == [
        "step 1: rule is not part of the protocol: (setup.x@R1, sink1@R2) eq (R1@R1, R2@R2)",
        "step 1: instance was not enabled: (setup.x@R1, sink1@R2) eq (R1@R1, R2@R2) @ (0, 0)",
        "step 1: reservoir 'R1' gained an agent",
        "step 1: agent removed from sink1 by a rule that may not do so",
        "step 1: reservoir 'R2' gained an agent",
        "step 2: rule is not part of the protocol: (setup.y@R1, xbar.=0@R2) eq (setup.x@R1, R2@R2)",
        "step 2: instance was not enabled: (setup.y@R1, xbar.=0@R2) eq (setup.x@R1, R2@R2) @ (0, 0)",
        "step 2: reservoir 'R2' gained an agent",
        "step 3: rule is not part of the protocol: (sink2@R2, sink2@R2) eq (xbar.=0@R2, sink1@R2)",
        "step 3: instance was not enabled: (sink2@R2, sink2@R2) eq (xbar.=0@R2, sink1@R2) @ (0, 0)",
        "step 3: shadow state entered from 'sink2' instead of R2",
        "step 4: rule is not part of the protocol: (sink2@R2, sink2@R1) eq (sink2@R2, R1@R1)",
        "step 4: instance was not enabled: (sink2@R2, sink2@R1) eq (sink2@R2, R1@R1) @ (0, 0)",
        "step 4: reservoir 'R1' gained an agent",
        "step 7: rule is not part of the protocol: (sink2@R2, sink2@R2) neq (sink2@R2, R2@R2)",
        "step 7: instance was not enabled: (sink2@R2, sink2@R2) neq (sink2@R2, R2@R2) @ (0, 1)",
        "step 7: reservoir 'R2' gained an agent",
        "step 9: rule is not part of the protocol: (sink2@R1, sink2@R1) eq (sink2@R1, R1@R1)",
        "step 9: instance was not enabled: (sink2@R1, sink2@R1) eq (sink2@R1, R1@R1) @ (0, 0)",
        "step 9: reservoir 'R1' gained an agent",
    ]
    # the counter micro-steps of the count4 replay, run backwards
    replay = replay_halting_run(COUNT4, build_witness(COUNT4, 4))
    counted = Trace(replay.steps[2][1], replay.steps[3:9])
    assert [instance.rule.label for instance, _ in counted.steps] == [
        "Inc[1,=0]:neq@R1R2", "Increment[x]:eq@R2R1", "Dec[2]:neq@R1R2",
        "Decrement[x]:eq@R2R1", "ZeroTest1[2]:neq@R1R2", "ZeroTest2[2]:neq@R1R2",
    ]
    assert run_monitors(protocol, _rebuilt(counted, lambda rule: Rule(rule.pre, rule.guard, rule.post))) == []
    assert run_monitors(protocol, _rebuilt(counted, lambda rule: Rule(rule.post, rule.guard, rule.pre))) == [
        "step 1: rule is not part of the protocol: (i.2@R1, xbar.+@R2) neq (i.1@R1, xbar.=0@R2)",
        "step 1: instance was not enabled: (i.2@R1, xbar.+@R2) neq (i.1@R1, xbar.=0@R2) @ (0, 1)",
        "step 2: rule is not part of the protocol: (xbar.>0@R2, x@R1) eq (xbar.+@R2, R1@R1)",
        "step 2: instance was not enabled: (xbar.>0@R2, x@R1) eq (xbar.+@R2, R1@R1) @ (1, 1)",
        "step 2: counter 'x' agents moved outside the increment/decrement micro-steps",
        "step 2: reservoir 'R1' gained an agent",
        "step 3: rule is not part of the protocol: (i.2@R1, xbar.-@R2) neq (i.2@R1, xbar.>0@R2)",
        "step 3: instance was not enabled: (i.2@R1, xbar.-@R2) neq (i.2@R1, xbar.>0@R2) @ (0, 1)",
        "step 4: rule is not part of the protocol: (xbar.=0@R2, garbage@R1) eq (xbar.-@R2, x@R1)",
        "step 4: instance was not enabled: (xbar.=0@R2, garbage@R1) eq (xbar.-@R2, x@R1) @ (1, 1)",
        "step 4: counter 'x' agents moved outside the increment/decrement micro-steps",
        "step 5: rule is not part of the protocol: (i'.2@R1, garbage@R2) neq (i.2@R1, xbar.=0@R2)",
        "step 5: instance was not enabled: (i'.2@R1, garbage@R2) neq (i.2@R1, xbar.=0@R2) @ (0, 1)",
        "step 5: shadow state entered from 'garbage' instead of R2",
        "step 6: rule is not part of the protocol: (i.4@R1, xbar.=0@R2) neq (i'.2@R1, R2@R2)",
        "step 6: instance was not enabled: (i.4@R1, xbar.=0@R2) neq (i'.2@R1, R2@R2) @ (0, 3)",
        "step 6: reservoir 'R2' gained an agent",
    ]


def test_monitor_selection_is_respected():
    protocol, trace = _replay(HALT, 1)
    assert run_monitors(protocol, trace, (MONITOR_SINK1,)) == []
    assert set(ALL_MONITORS) == {
        "fresh-shadow-entry",
        "counter-color-discipline",
        "sink1-removal-discipline",
        "reservoir-no-refill",
    }


def test_pump_small_initial_configs_always_settle():
    # bounded check: the non-halting machine's protocol reaches a consensus
    # from every small initial configuration
    protocol = compile_machine(PUMP)
    limits = ExplorationLimits(max_nodes=100_000)
    for n in range(1, 4):
        for canon in enumerate_initial_configs(protocol, n, 2):
            oc = classify_output(protocol, canon.representative(), limits)
            assert oc.verdict in (Verdict.OUT0, Verdict.OUT1), str(canon)


def test_single_reservoir_agents_deadlock_with_output_one():
    protocol = compile_machine(PUMP)
    limits = ExplorationLimits(max_nodes=1000)
    for state in ("R1@R1", "R2@R2"):
        oc = classify_output(protocol, Configuration({(state, 0): 1}), limits)
        assert oc.verdict is Verdict.OUT1


def test_small_sweeps_tell_halting_at_once_from_looping_machines():
    limits = ExplorationLimits()
    # setup alone uses one R1 and three R2 agents: four agents tell no machine apart
    for _, protocol in seeded_compiled_machines(random.Random(3), 10):
        assert check_well_specification(protocol, 4, 3, limits).verdict == VERDICT_BOUNDED_OK
    halts, loops = [], []
    for machine, protocol in seeded_compiled_machines(random.Random(4), 60):
        if cm_run(machine, 0).halted:
            halts.append(protocol)
        elif not cm_run(machine, 300).halted:
            loops.append(protocol)
    assert (len(halts), len(loops)) == (21, 15)
    for protocol in halts[:10]:
        assert check_well_specification(protocol, 5, 3, limits).verdict == VERDICT_WITNESS
        # the same machines at two colours: every start settles
        assert check_well_specification(protocol, 5, 2, limits).verdict == VERDICT_BOUNDED_OK
    for protocol in loops[:10]:
        assert check_well_specification(protocol, 5, 3, limits).verdict == VERDICT_BOUNDED_OK


def seeded_halting_replays(count: int = 40):
    """Replays of the first count seeded random machines that halt after 2 to
    30 steps and compile (a goto loop off the halting path fails to compile),
    each started from the witness for its steps to halt."""
    rng = random.Random(5)
    replays = []
    while len(replays) < count:
        machine = random_machine(rng, max_len=8)
        run = cm_run(machine, 30)
        if not run.halted or run.steps < 2:
            continue
        try:
            protocol = compile_machine(machine)
        except GotoCycle:
            continue
        witness = build_witness(machine, run.steps)
        replays.append((machine, protocol, replay_halting_run(machine, witness)))
    return replays


@pytest.fixture(scope="module")
def halting_replays():
    return seeded_halting_replays()


# SHA-256 of format_trace for each of seeded_halting_replays(), recorded from
# a replay that kept its own counter values and goto chase, so these bytes do
# not depend on counter.cm_trace.
REPLAY_TRACE_DIGESTS = (
    "d2fde9f06ad9aab91cdee8421cb0ff05d069219c703be50e1137c013ebb27a01",
    "b4e0e74722504349afbffdbacd193d831194960934e03ce08f4ab1d50c8bd4ad",
    "b4e0e74722504349afbffdbacd193d831194960934e03ce08f4ab1d50c8bd4ad",
    "fc6489f269f47b11ec46c1f2f4292d19f357e9f32fa3db4b4ae78d3e4ee5f94c",
    "e0518585961473c2bc2e55c4260cf119bc099f1504640f5755b5f7ac3f400432",
    "51c023c9f66502e1acf25785f94e5ebf1e94d798446960331b633fe7fc57fb42",
    "17f1af862fc4be355a9c29c1405b7eb1e51b4229da89606a13bf2502d495f726",
    "f7d8722de002b2016580d09cebb0c46255dfbda1cf0c71481ba80311a0b83866",
    "38bd5e2c51a0b07aaa763076dd54a00222a3a3d3b73c22a92501bd0ae4a6ac24",
    "2f88f6cb95bf761f31ed61cb3c46d9091e1bed299a5fae5960e2f47a8cb64a87",
    "e0518585961473c2bc2e55c4260cf119bc099f1504640f5755b5f7ac3f400432",
    "851eb42524a96bc96c6a866d9165492bce60c0d946a998ed2bac94a66faeeb52",
    "7fc33e664fe6e69a265834d5f59ebf822deae511a3c72bc8d7d84c934d9a15d4",
    "be43579bdc3de9812f2492a388cf66c55d3e608aec7fe8d11058fdf5a0d57986",
    "45a412ed7bf477a8cfbf3b5222474af765d1627c869b8214105459a5e73c2eec",
    "b4291840b10375deee7e93da32b6c31d2b6438b6d84752cd26622147b5220c48",
    "6461ef6279d261ebf45b27bca6bc0b1c2d2cd7b69baa39a71e2a70a3246be0a1",
    "8fa36dfad8f551a58b7f0b5b21816e856229cd58d5972129de5feda7fa83289a",
    "cba447bf763f25f3b06024e8d30d1980b32ab36ed1e6b199c73e80a3dc59fd04",
    "3c8afe4364d145277e6ff7e00efd8e22b4098a521e867bd1aecea1a5c520eb03",
    "8114869895317fbab2b713232216fbee10eb669f3807b7e7b78e9a090fb478ea",
    "f8ea93572ace4f9933ddc85420f875b41be5179db31f10843c539b6c2e9aea80",
    "3ce36db1c1fa1594938f2ccf208246e525ef653d58ca5b3f371ff309cbf66f29",
    "fc8cbc763800e40edfdd5a2441d63e68ae09b25cc185a1d540c9b4950c5373e9",
    "2d244f323f6ed32bc89176d1cf3f348dda9d6fc31b8f9b981033b6ca1cef3286",
    "01f32b51f507aec312d8e8dc34de4fc9a23e989a41144ddd474e5a5443951288",
    "4d7b3f20cad67fd0ee033223347f6410b9e1603d470f0383b1953a04184ea36f",
    "9c16613350b8f2e7af5f5636fd6e1cf56469c1cba3dd2ef034838700939b5798",
    "67bc527f618bc57211df978013893dbdcf4277713cebe0c887873f8da37f1278",
    "b4291840b10375deee7e93da32b6c31d2b6438b6d84752cd26622147b5220c48",
    "dce4a9ef5a3c47ef930cfe10ec0e8c3286d31765c1a6abef2cc0c3e29ac31670",
    "8f4951803faf997a29e1fece32ecfa07c7c2c4ab7744d14e298a18a68a6a387f",
    "3bd809ceb630663f1377759898fc4016d5f93b962f58abf1e1ca59d55ada0cb6",
    "3bd809ceb630663f1377759898fc4016d5f93b962f58abf1e1ca59d55ada0cb6",
    "fcd9bef122a70ca8dac6c4077ad3052f457b1fb4dd944d19b6d4f16299c1832f",
    "c670c2aac4e4965e1b5648c5246bb905269d7f336cacc502c523591c85fe3b53",
    "ba6153c0007915bbfb37dac2c65c2e2874371b09b02bc6dbe1852a4903227b49",
    "d32cf9c81a10c7435995040fc8cae15bb31d568d64746d4d452701e12df7c33b",
    "c670c2aac4e4965e1b5648c5246bb905269d7f336cacc502c523591c85fe3b53",
    "e09192f1afb53d2b2ef97b0c9743234f78408b489b41419585a7122ca94a50fb",
)


def test_replay_trace_bytes_are_pinned(halting_replays):
    digests = tuple(
        hashlib.sha256(format_trace(protocol, trace).encode()).hexdigest()
        for _, protocol, trace in halting_replays
    )
    assert digests == REPLAY_TRACE_DIGESTS


def test_replay_follows_the_machines_own_run(halting_replays):
    for machine, _, trace in halting_replays:
        expected = []
        for config, ins in cm_trace(machine):
            if isinstance(ins, Inc):
                expected.append(("Inc", config.pc))
            elif isinstance(ins, Dec):
                expected.append(("Dec" if config.counter(ins.counter) else "ZeroTest1", config.pc))
        halt_at = config.pc
        scripted, deadlocks = [], set()
        for instance, _ in trace.steps:
            found = re.match(r"(Inc|Dec|ZeroTest1|CauseDeadlock)\[(\d+)[,\]]", instance.rule.label)
            if found and found[1] == "CauseDeadlock":
                deadlocks.add(int(found[2]))
            elif found:
                scripted.append((found[1], int(found[2])))
        assert scripted == expected
        assert deadlocks == {halt_at}


# Compiled rule families whose shape the monitors inspect.
MONITORED_FAMILIES = ("Increment[", "Decrement[", "CauseDeadlock[", "ConvertToSink2[sink1]")


def forge(rng, protocol, trace):
    """The trace with, at random, its first steps cut off, one step's recorded
    configuration swapped for another of the trace's, and some steps' rules
    replaced: by the step's own rule or a rule of a monitored family, as it is
    or made foreign (the other guard, run backwards, or one state replaced)."""
    steps = list(trace.steps)
    initial = trace.initial
    if len(steps) > 1 and rng.random() < 0.3:
        cut = rng.randrange(1, len(steps))
        initial, steps = steps[cut - 1][1], steps[cut:]
    if rng.random() < 0.4:
        i, j = rng.randrange(len(steps)), rng.randrange(-1, len(steps))
        steps[i] = (steps[i][0], initial if j < 0 else steps[j][1])
    monitored = [
        [r for r in protocol.rules if r.label.startswith(family)] for family in MONITORED_FAMILIES
    ]
    rate = rng.choice((0, 0, 0.1, 0.4))
    for i, (instance, recorded) in enumerate(steps):
        if rng.random() >= rate:
            continue
        rule = instance.rule if rng.random() < 0.5 else rng.choice(rng.choice(monitored))
        kind = rng.randrange(4)
        if kind == 1:
            rule = Rule(rule.pre, Guard.NEQ if rule.guard is Guard.EQ else Guard.EQ, rule.post)
        elif kind == 2:
            rule = Rule(rule.post, rule.guard, rule.pre)
        elif kind == 3:
            states = list(rule.pre + rule.post)
            states[rng.randrange(4)] = rng.choice(protocol.states)
            rule = Rule(tuple(states[:2]), rule.guard, tuple(states[2:]))
        steps[i] = (TransitionInstance(rule, instance.d, instance.e), recorded)
    return Trace(initial, tuple(steps))


def seeded_monitor_traces(count=300, seed=41):
    """Traces of compiled random machines that halt within 8 steps: the scripted
    replay and a 25-step random fair run from the machine's witness, each
    forged twice at random."""
    rng = random.Random(seed)
    traces = []
    while len(traces) < count:
        machine = random_machine(rng, max_len=6)
        run = cm_run(machine, 8)
        if not run.halted:
            continue
        try:
            protocol = compile_machine(machine)
        except GotoCycle:
            continue
        witness = build_witness(machine, max(run.steps, 1))
        replay = replay_halting_run(machine, witness)
        walk = random_fair_run(protocol, witness, rng.randrange(1 << 30), 25)
        for trace in (replay, walk, replay, walk):
            traces.append((protocol, forge(rng, protocol, trace)))
    return traces[:count]


# SHA-256 of the violations run_monitors reports on seeded_monitor_traces(),
# per monitor selection, recorded from a run_monitors that rebuilt the set of
# colors used outside the reservoirs for every selection and classified rules
# with one predicate per micro-step.
MONITOR_SELECTION_DIGESTS = {
    (MONITOR_FRESH,): "341a48787374045ad5e2bfc39c441fd54fed04646c410a3be7bc572119b8ab90",
    (MONITOR_COUNTER,): "16cb1afcbc85509634eded5836b312dfe72ea7ca613b3703ccbe8c210ac0eb04",
    (MONITOR_SINK1,): "a4a8d1e0cf3af9f790a0b7afd24dc1ff620dfda068838926c148e72a7c758a04",
    (MONITOR_RESERVOIR,): "e70add8928af6530804d4b28ca4aecd3df858c203876b2579a4e7844276f8b9b",
    (MONITOR_SINK1, MONITOR_RESERVOIR): "ab438f434cbc8e5dbe301518adb621ba91e8065c0be31736fd55c47df644936a",
    ALL_MONITORS: "b4e74a8fadfd26dbd0a6e99d83b1b754ed76f6a9583b604703033179f9173285",
}


def test_monitor_output_is_pinned_on_forged_traces():
    traces = seeded_monitor_traces()
    for selection, expected in MONITOR_SELECTION_DIGESTS.items():
        digest = hashlib.sha256()
        for protocol, trace in traces:
            digest.update(("\n".join(run_monitors(protocol, trace, selection)) + "\n\n").encode())
        assert digest.hexdigest() == expected, selection
