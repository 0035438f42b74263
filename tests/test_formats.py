import random
from dataclasses import replace
from pathlib import Path

import pytest

from support import (
    compiled_witness,
    random_protocol,
    reference_format_configuration,
    reference_format_trace,
    reference_parse_configuration,
    reference_parse_protocol,
    reference_parse_trace,
    reference_rule_names,
    seesaw_configs,
    seesaw_protocol,
    with_repeated_effects,
)
from udpp.core import Configuration, Guard, ParseError, Protocol, Rule, Trace, TransitionInstance
from udpp.counter import CounterMachine, Dec, Goto, Halt, Inc
from udpp.exploration import random_fair_run
from udpp.formats import (
    format_configuration,
    format_machine,
    format_protocol,
    format_trace,
    parse_configuration,
    parse_machine,
    parse_protocol,
    parse_trace,
    _name,
)
from udpp.reduction import compile_machine

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def test_protocol_roundtrip():
    protocol = seesaw_protocol()
    assert parse_protocol(format_protocol(protocol)) == protocol


def test_compiled_protocol_roundtrip():
    protocol = compile_machine(CounterMachine((Inc("x"), Dec("x", 4), Goto(2), Halt())))
    again = parse_protocol(format_protocol(protocol))
    assert again == protocol  # labels are display-only and ignored by equality


def test_any_guard_desugars_into_two_rules():
    text = "state a\nstate b\nout a 0\nout b 1\ninit a\nrule a b any b b\n"
    protocol = parse_protocol(text)
    assert [r.guard for r in protocol.rules] == [Guard.EQ, Guard.NEQ]
    assert all(r.pre == ("a", "b") and r.post == ("b", "b") for r in protocol.rules)


def test_protocol_parse_errors_carry_line_numbers():
    for text, error in (
        ("state a\nwobble a\n", "line 2: unknown directive 'wobble'"),
        ("state a b\n", "line 1: expected: state <id>"),
        ("state a\nstate a\n", "line 2: state 'a' declared twice"),
        ("state a\ninit\n", "line 2: expected: init <id>"),
        ("state a\ninit b\n", "line 2: unknown state 'b'"),
        ("state a\nout a\n", "line 2: expected: out <id> <0|1>"),
        ("state a\nout b 1\n", "line 2: unknown state 'b'"),
        ("state a\nout a 2\n", "line 2: output must be 0 or 1, got '2'"),
        ("state a\nout a 0\n# again\nout a 1\n", "line 4: output of 'a' assigned twice"),
        ("state a\nrule a a eq a\n", "line 2: expected: rule <p> <p'> <eq|neq|any> <q> <q'>"),
        ("state a\nrule a z eq a a\n", "line 2: unknown state 'z'"),
        ("state a\nrule a a maybe a a\n", "line 2: unknown guard 'maybe'"),
    ):
        with pytest.raises(ParseError) as err:
            parse_protocol(text)
        assert str(err.value) == error


def _protocol_mutants(rng: random.Random, text: str) -> list[str]:
    """Seeded variants of a protocol text with at least one rule and one
    out line: an unknown state at each of a rule line's four state
    positions, two unknown states on one line, an unknown guard alone and
    beside an unknown state, rule and state lines of the wrong arity, an any guard, a
    comment, blank or whitespace-only line inserted, a trailing comment, a
    comment that cuts a rule line short, CRLF and CR line ends, and an out
    line repeated further down."""
    lines = text.split("\n")
    at = rng.choice([i for i, line in enumerate(lines) if line.startswith("rule ")])
    tokens = lines[at].split()

    def with_rule(*changes: tuple[int, str]) -> str:
        changed = tokens[:]
        for position, token in changes:
            changed[position] = token
        return "\n".join([*lines[:at], " ".join(changed), *lines[at + 1 :]])

    first, second = rng.sample((1, 2, 4, 5), 2)
    padded = lines[:]
    padded.insert(rng.randrange(len(padded) + 1), rng.choice(("", " \t", "# note", "  # rule zz zz eq zz zz")))
    out_at = rng.choice([i for i, line in enumerate(lines) if line.startswith("out ")])
    repeated = lines[:]
    repeated.insert(rng.randint(out_at + 1, len(lines)), lines[out_at])
    return [
        *(with_rule((position, "zz")) for position in (1, 2, 4, 5)),
        with_rule((first, "zz"), (second, "yy")),
        with_rule((3, "maybe")),
        with_rule((3, "maybe"), (first, "zz")),
        with_rule((3, "any")),
        with_rule((3, "any"), (first, "zz")),
        with_rule((5, "")),
        with_rule((5, tokens[5] + " extra")),
        with_rule((3, "# " + tokens[3])),
        with_rule((5, tokens[5] + rng.choice(("  # note", "\t#", "#x")))),
        text.replace("state ", "state extra ", 1),
        "\n".join(padded),
        text.replace("\n", "\r\n"),
        text.replace("\n", "\r"),
        "\n".join(repeated),
    ]


def test_protocol_parse_matches_the_line_by_line_reference():
    texts = [
        (SAMPLES / "seesaw.pp").read_text(encoding="utf-8"),
        format_protocol(compile_machine(parse_machine((SAMPLES / "count4.cm").read_text(encoding="utf-8")))),
    ]
    rng = random.Random(30)
    while len(texts) < 40:
        protocol = random_protocol(rng, max_states=5, max_rules=4)
        if protocol.rules:
            texts.append(format_protocol(protocol))
    outcomes = set()
    for seed, text in enumerate(texts):
        for case in (text, *_protocol_mutants(random.Random(seed), text)):
            got = _parsed_or_error(parse_protocol, case)
            expected = _parsed_or_error(reference_parse_protocol, case)
            assert got == expected, (seed, case)
            if isinstance(got, Protocol):
                assert [rule.label for rule in got.rules] == [rule.label for rule in expected.rules]
                outcomes.add("parsed")
            else:
                outcomes.add(got.split(": ", 1)[1].split(" '")[0])
    assert outcomes == {
        "parsed",
        "unknown state",
        "unknown guard",
        "expected: rule <p> <p'> <eq|neq|any> <q> <q'>",
        "expected: state <id>",
        "output of",
    }, outcomes


def test_configuration_roundtrip_and_accumulation():
    config = Configuration({("p", 0): 2, ("q", 1): 1})
    assert parse_configuration(format_configuration(config)) == config
    accumulated = parse_configuration("agent p 0 1\nagent p 0 1\n")
    assert accumulated == Configuration({("p", 0): 2})


def test_configuration_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_configuration("agent p zero 1\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_configuration("agent p 0 0\n")
    with pytest.raises(ParseError):
        parse_configuration("person p 0 1\n")


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nagent p 0 1  # trailing\n"
    assert parse_configuration(text) == Configuration({("p", 0): 1})


def test_machine_roundtrip():
    machine = CounterMachine((Inc("x"), Dec("y", 4), Goto(2), Halt()))
    assert parse_machine(format_machine(machine)) == machine


def test_machine_parse_errors_carry_line_numbers():
    # The line is the instruction's own line, not its index.
    for text, error in (
        ("inc z\n", "line 1: expected: inc x|y"),
        ("inc x\ngoto 9\n", "line 2: target 9 is out of range 1..2"),
        ("goto 1\ninc x\n", "line 2: execution can run past the end; finish with halt or goto"),
        ("", "line 1: machine has no instructions"),
        ("# nothing\n\n", "line 1: machine has no instructions"),
        ("dec x 3\nhalt\n", "line 1: target 3 is out of range 1..2"),
        ("# header\n\ninc x\n\n# jump\ngoto 0\n", "line 6: target 0 is out of range 1..2"),
        ("dec x\nhalt\n", "line 1: expected: dec x|y <k>"),
        ("dec x two\nhalt\n", "line 1: target must be an integer"),
        ("inc x\ngoto\n", "line 2: expected: goto <k>"),
        ("inc x\ngoto 1 2\n", "line 2: expected: goto <k>"),
        ("inc x\ngoto two\n", "line 2: target must be an integer"),
        ("halt now\n", "line 1: expected: halt"),
        (
            "# header\n\nhalt\n# tail\n\ndec y 1  # falls through\n",
            "line 6: execution can run past the end; finish with halt or goto",
        ),
    ):
        with pytest.raises(ParseError) as err:
            parse_machine(text)
        assert str(err.value) == error


def relabelled_seesaw(labels):
    protocol = seesaw_protocol()
    rules = [replace(rule, label=label) for rule, label in zip(protocol.rules, labels)]
    return Protocol.make(protocol.states, rules, protocol.initial, protocol.output)


# Label pairs for the seesaw's two rules, with the rule names they give.
SEESAW_LABELS = (
    (("recruit", "bounce"), ["recruit", "bounce"]),
    (("step", "step"), ["step", "r1"]),
    (("a b", "bounce"), ["r0", "bounce"]),
    (("x#y", "r0"), ["r0", "r1"]),
    (("r1", None), ["r0", "r1"]),
    (("", "r5"), ["r0", "r5"]),
)


def test_trace_roundtrip():
    c0, _, _ = seesaw_configs()
    for labels, _ in SEESAW_LABELS:
        protocol = relabelled_seesaw(labels)
        trace = random_fair_run(protocol, c0, seed=7, max_steps=5)
        assert len(trace) == 5
        assert {instance.rule for instance, _ in trace.steps} == set(protocol.rules)
        again = parse_trace(protocol, format_trace(protocol, trace))
        assert again == trace


def test_compiled_trace_roundtrip():
    from udpp.reduction import build_witness, replay_halting_run

    machine = CounterMachine((Inc("x"), Dec("x", 4), Goto(2), Halt()))
    protocol = compile_machine(machine)
    trace = replay_halting_run(machine, build_witness(machine, 4))
    assert parse_trace(protocol, format_trace(protocol, trace)) == trace


def test_trace_parse_rejects_unknown_rule():
    protocol = seesaw_protocol()
    with pytest.raises(ParseError) as err:
        parse_trace(protocol, "agent p 0 2\n\nfire nonsense 0 1\n\nagent q 0 2\n")
    assert "nonsense" in str(err.value)


def test_trace_parse_rejects_bad_lines():
    protocol = seesaw_protocol()
    for line, message in (
        ("agent p 0 -1", "count must be positive"),
        ("agent p 0 0", "count must be positive"),
        ("fire recruit 0 0", "colors (0, 0) do not satisfy guard 'neq'"),
        ("fire bounce 0 1", "colors (0, 1) do not satisfy guard 'eq'"),
        ("fire recruit 0", "expected: fire <rule-name> <d> <e>"),
        ("fire recruit 0 1 2", "expected: fire <rule-name> <d> <e>"),
        ("fire recruit 0 blue", "colors must be integers"),
        ("wobble 0 1", "unknown directive 'wobble'"),
    ):
        with pytest.raises(ParseError) as err:
            parse_trace(protocol, f"agent p 0 2\nagent q 1 1\n\n{line}\n\nagent q 0 2\n")
        assert str(err.value) == f"line 4: {message}"


def test_trace_parse_resolves_positional_names():
    protocol = seesaw_protocol()
    _, c1, _ = seesaw_configs()
    text = "agent p 0 2\nagent q 1 1\n\nfire r0 0 1\n\nagent p 0 1\nagent q 0 1\nagent q 1 1\n"
    trace = parse_trace(protocol, text)
    assert trace.steps[0][0].rule == protocol.rules[0] and trace.final == c1


def test_trace_parse_rejects_dangling_fire():
    protocol = seesaw_protocol()
    text = "agent p 0 1\nagent q 1 1\n\nfire recruit 0 1\n\n# no block follows\n"
    with pytest.raises(ParseError) as err:
        parse_trace(protocol, text)
    assert str(err.value) == "line 4: trace ends with a fire line but no configuration"


@pytest.mark.parametrize(
    "text, error",
    [
        ("fire recruit 0 1\nagent q 0 2\n", "line 1: expected a configuration block before this line"),
        ("# header\n\nfire recruit 0 1\n", "line 3: expected a configuration block before this line"),
        (
            "agent p 0 1\nagent q 1 1\nfire recruit 0 1\nfire bounce 0 0\nagent q 0 2\n",
            "line 4: expected a configuration block before this line",
        ),
    ],
)
def test_trace_parse_needs_a_block_before_each_fire(text, error):
    with pytest.raises(ParseError) as err:
        parse_trace(seesaw_protocol(), text)
    assert str(err.value) == error


def test_trace_parse_of_no_lines_is_the_empty_trace():
    for text in ("", "\n", "# only a comment\n\n"):
        assert parse_trace(seesaw_protocol(), text) == Trace(Configuration(), ())


def _names(protocol):
    """The display name of every rule, in position order."""
    return [_name(protocol, position) for position in range(len(protocol.rules))]


def test_rule_names_unique_even_for_duplicate_labels():
    for labels, expected in SEESAW_LABELS:
        assert _names(relabelled_seesaw(labels)) == expected


def test_fire_names_resolve_as_in_the_full_name_table():
    rng = random.Random(59)
    # positional look-alikes: a leading zero, a non-ASCII digit, a sign, an
    # index past the last rule, more digits than int() reads, a bare 'r';
    # and labels that cannot be names: whitespace, '#', the empty label
    names = (
        "r0", "r1", "r2", "r3", "r10", "r00", "r01", "r٣", "r²", "r+1", "r-0", "r" + "1" * 5000, "r", "R1", "rx",
        "a", "b", "two words", " a", "a\tb", "x#y", "#", "",
    )
    for _ in range(400):
        protocol = random_protocol(rng, max_states=2, max_rules=rng.randint(1, 12))
        # few labels, so that they repeat
        pool = rng.sample((None, *names), rng.randint(1, 5))
        rules = [replace(rule, label=rng.choice(pool)) for rule in protocol.rules]
        protocol = Protocol.make(protocol.states, rules, protocol.initial, protocol.output)
        assert _names(protocol) == reference_rule_names(protocol)
        q = protocol.states[0]
        for name in rng.sample(names, 6):
            text = f"agent {q} 0 1\nagent {q} 1 1\n\nfire {name} {rng.randint(0, 1)} 1\n\nagent {q} 0 2\n"
            assert _parsed_or_error(parse_trace, protocol, text) == _parsed_or_error(reference_parse_trace, protocol, text)
        start = Configuration({(state, color): 2 for state in protocol.states for color in (0, 1)})
        trace = random_fair_run(protocol, start, rng.randrange(1 << 20), 12)
        text = format_trace(protocol, trace)
        assert text == reference_format_trace(protocol, trace)
        assert parse_trace(protocol, text) == reference_parse_trace(protocol, text) == trace


def test_each_protocol_names_its_rules_by_its_own_labels():
    seesaw = relabelled_seesaw(("recruit", "bounce"))
    c0, _, _ = seesaw_configs()
    trace = random_fair_run(seesaw, c0, seed=7, max_steps=5)
    text = format_trace(seesaw, trace)
    assert parse_trace(seesaw, text) == trace and _names(seesaw) == ["recruit", "bounce"]
    # equal rules, other labels: one protocol through dataclasses.replace,
    # one made afresh; both equal the first, which has built its table
    swapped = replace(seesaw, rules=tuple(replace(rule, label=label) for rule, label in zip(seesaw.rules, ("bounce", "recruit"))))
    positional = relabelled_seesaw((None, "r0"))
    assert swapped == seesaw == positional
    for protocol, names in ((swapped, ["bounce", "recruit"]), (positional, ["r0", "r1"]), (seesaw, ["recruit", "bounce"])):
        assert _names(protocol) == names
        again = format_trace(protocol, trace)
        assert again == reference_format_trace(protocol, trace)
        assert [line.split()[1] for line in again.splitlines() if line.startswith("fire")] == [
            names[seesaw.rules.index(instance.rule)] for instance, _ in trace.steps
        ]
        for name, rule in zip(names, protocol.rules):
            e = 0 if rule.guard is Guard.EQ else 1
            fired = parse_trace(protocol, f"agent p 0 2\n\nfire {name} 0 {e}\n\nagent p 0 2\n")
            assert fired.steps[0][0].rule is rule
    # a name only the other protocols give is unknown here
    with pytest.raises(ParseError) as err:
        parse_trace(positional, "agent p 0 2\n\nfire recruit 0 1\n\nagent p 0 2\n")
    assert str(err.value) == "line 3: unknown rule name 'recruit'"


def _parsed_or_error(parse, *args):
    try:
        return parse(*args)
    except ParseError as err:
        return str(err)


def _mutants(rng: random.Random, text: str) -> list[str]:
    """Seeded damage to a text: one line deleted, one line copied to another
    place, one token corrupted, one trailing comment added; and text that
    parses alike: one block's lines shuffled, CRLF and CR line ends, a
    whitespace-only and a comment-only line inside a block, and the last
    block replaced by blank and comment lines, which leaves a trace's last
    fire line dangling."""
    lines = text.split("\n")
    deleted = lines[:]
    del deleted[rng.randrange(len(deleted))]
    copied = lines[:]
    copied.insert(rng.randrange(len(copied) + 1), rng.choice(lines))
    corrupted = lines[:]
    at = rng.choice([i for i, line in enumerate(lines) if line.strip()])
    tokens = corrupted[at].split()
    tokens[rng.randrange(len(tokens))] = rng.choice(
        ("x", "0", "-1", "+2", "1.5", "", "agent", "fire", "r0", "#", "99999999999999999999")
    )
    corrupted[at] = " ".join(tokens)
    commented = lines[:]
    at = rng.randrange(len(commented))
    commented[at] += rng.choice(("  # note", "\t#", " # fire r0 0 1"))
    chunks = text.split("\n\n")  # blocks at even positions, fire lines between them
    at = rng.randrange(0, len(chunks), 2)
    shuffled = chunks[at].splitlines()
    rng.shuffle(shuffled)
    chunks[at] = "\n".join(shuffled)
    padded = lines[:]
    at = rng.choice([i for i in range(1, len(lines)) if lines[i - 1].startswith("agent") and lines[i].startswith("agent")] or [0])
    padded[at:at] = [" \t", "# inside a block"]
    dangling = text.rsplit("\n\n", 1)[0] + "\n\n  \n# no configuration follows\n\n"
    return [
        *("\n".join(mutant) for mutant in (deleted, copied, corrupted, commented, padded)),
        "\n\n".join(chunks) + "\n",
        text.replace("\n", "\r\n"),
        text.replace("\n", "\r"),
        dangling,
    ]


def test_trace_round_trip_matches_the_line_by_line_reference():
    labelled, start = compiled_witness("count4.cm", 4)
    unlabelled = parse_protocol(format_protocol(labelled))
    for seed in range(50):
        rng = random.Random(seed)
        # Labelled rules are written by label, unlabelled ones as r<position>.
        protocol = (labelled, unlabelled)[seed % 2]
        trace = random_fair_run(protocol, start, seed, 40)
        text = format_trace(protocol, trace)
        assert text == reference_format_trace(protocol, trace)
        block = text.split("\n\n", 1)[0] + "\n"
        dropped = text[: text.rindex("\n\n")] + "\n"
        for case in (text, dropped, *_mutants(rng, text)):
            got = _parsed_or_error(parse_trace, protocol, case)
            expected = _parsed_or_error(reference_parse_trace, protocol, case)
            assert got == expected, (seed, case)
            if isinstance(got, Trace):
                assert format_trace(protocol, got) == reference_format_trace(protocol, expected)
        for case in (block, *_mutants(rng, block)):
            got = _parsed_or_error(parse_configuration, case)
            expected = _parsed_or_error(reference_parse_configuration, case)
            assert got == expected, (seed, case)
            if isinstance(got, Configuration):
                assert format_configuration(got) == reference_format_configuration(expected)


def test_a_fired_rule_is_named_as_the_first_rule_equal_to_it():
    rng = random.Random(43)
    labels = (None, None, "a", "b", "r0", "r9", "two words", "x#y")
    for _ in range(300):
        protocol = with_repeated_effects(rng, random_protocol(rng, max_states=3, max_rules=4))
        rules = [replace(rule, label=rng.choice(labels)) for rule in protocol.rules]
        protocol = Protocol.make(protocol.states, rules, protocol.initial, protocol.output)
        states = protocol.states
        stray = Rule((rng.choice(states), rng.choice(states)), Guard.NEQ, (rng.choice(states), "elsewhere"))
        # the protocol's rules, equal copies of them, and rules it lacks, labelled or not
        pool = [*rules, *(replace(rule, label=None) for rule in rules), stray, replace(stray, label="stray")]
        start = Configuration({(states[0], 0): 1})
        trace = Trace(start, tuple((TransitionInstance(rng.choice(pool), 0, 1), start) for _ in range(rng.randint(0, 8))))
        assert format_trace(protocol, trace) == reference_format_trace(protocol, trace)


def test_repeated_agent_lines_sum_however_they_are_spelled():
    lines = "agent p 0 1\nagent p 0 1  # again\n  agent  p\t0 1\nagent q 1 2\nagent p 0 1\n"
    expected = Configuration({("p", 0): 4, ("q", 1): 2})
    assert parse_configuration(lines) == expected
    trace = parse_trace(seesaw_protocol(), f"{lines}\nfire recruit 0 1\n\n{lines}")
    assert trace.initial == expected and trace.final == expected


def test_a_malformed_agent_line_after_many_valid_ones_names_its_own_line():
    valid = "agent p 0 1\nagent q 1 1\n" * 1000
    for bad, message in (
        ("agent p 0 x", "color and count must be integers"),
        ("agent p 0 0", "count must be positive"),
        ("agent p 0", "expected: agent <state> <color> <count>"),
    ):
        text = f"{valid}\n# comment\n{bad}\nagent p 0 1\n"
        with pytest.raises(ParseError) as err:
            parse_configuration(text)
        assert str(err.value) == f"line 2003: {message}"
        with pytest.raises(ParseError) as err:
            parse_trace(seesaw_protocol(), text)
        assert str(err.value) == f"line 2003: {message}"


def test_a_bad_fire_line_after_repeated_agent_lines_keeps_its_message():
    block = "agent p 0 2\nagent q 1 1\n"
    steps = f"{block}\nfire recruit 0 1\n\nagent p 0 1\nagent q 0 1\nagent q 1 1\n\nfire bounce 0 0\n\n{block}"
    for line, message in (
        ("fire recruit 0 0", "colors (0, 0) do not satisfy guard 'neq'"),
        ("fire recruit 0", "expected: fire <rule-name> <d> <e>"),
        ("fire nonsense 0 1", "unknown rule name 'nonsense'"),
        ("agent p 0 2 fire", "expected: agent <state> <color> <count>"),
        ("agentp 0 2", "unknown directive 'agentp'"),
    ):
        with pytest.raises(ParseError) as err:
            parse_trace(seesaw_protocol(), f"{steps}{block}\n{line}\n\n{block}")
        assert str(err.value) == f"line 17: {message}"
