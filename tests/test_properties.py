"""Bounded properties of the text formats, checked with hypothesis.

Examples are derandomized, so every run checks the same inputs.
"""

import string
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from udpp.core import Configuration, Guard, Protocol, Rule, Trace, TransitionInstance
from udpp.counter import CounterMachine, Dec, Goto, Halt, Inc
from udpp.formats import (
    format_configuration,
    format_machine,
    format_protocol,
    format_trace,
    parse_configuration,
    parse_machine,
    parse_protocol,
    parse_trace,
)

BOUNDED = settings(max_examples=25, deadline=None, derandomize=True, database=None)

# Single tokens: no whitespace, no '#', nothing str.splitlines() breaks on.
tokens = st.text(string.ascii_letters + string.digits + "_.'-", min_size=1, max_size=4)


def configurations(states, min_agents=0):
    keys = st.tuples(st.sampled_from(states), st.integers(-3, 5))
    counts = st.dictionaries(keys, st.integers(1, 4), min_size=min_agents, max_size=5)
    return counts.map(Configuration)


@st.composite
def protocols(draw):
    states = draw(st.lists(tokens, min_size=1, max_size=4, unique=True))
    state = st.sampled_from(states)
    rules = draw(
        st.lists(
            st.builds(
                Rule,
                st.tuples(state, state),
                st.sampled_from(Guard),
                st.tuples(state, state),
                # labels that cannot name a rule too: repeats, blanks, '#', r<n>
                st.sampled_from([None, "", "a b", "x#y", "r0", "r1", "r5", "step"]),
            ),
            max_size=5,
        )
    )
    initial = draw(st.lists(state, unique=True))
    output = draw(st.dictionaries(state, st.integers(0, 1)))
    return Protocol.make(states, rules, initial, output)


@st.composite
def machines(draw):
    n = draw(st.integers(1, 8))
    target = st.integers(1, n)
    counter = st.sampled_from(["x", "y"])
    last = st.builds(Goto, target) | st.just(Halt())
    body = st.builds(Inc, counter) | st.builds(Dec, counter, target) | last
    # parse_machine rejects a last instruction that execution can run past
    instrs = draw(st.lists(body, min_size=n - 1, max_size=n - 1))
    return CounterMachine((*instrs, draw(last)))


@BOUNDED
@given(st.lists(tokens, min_size=1, max_size=3).flatmap(configurations))
def test_configuration_format_then_parse_is_identity(config):
    assert parse_configuration(format_configuration(config)) == config


@BOUNDED
@given(machines())
def test_machine_format_then_parse_is_identity(machine):
    assert parse_machine(format_machine(machine)) == machine


@BOUNDED
@given(protocols())
def test_protocol_format_then_parse_is_identity(protocol):
    # parsed rules carry no labels, and labels take no part in equality
    assert parse_protocol(format_protocol(protocol)) == protocol


@st.composite
def traces(draw, protocol):
    """Any trace the format can hold: fire lines need not match the blocks."""
    configs = configurations(list(protocol.states), min_agents=1)
    steps = []
    for _ in range(draw(st.integers(0, 4)) if protocol.rules else 0):
        rule = draw(st.sampled_from(protocol.rules))
        d = draw(st.integers(-2, 3))
        e = d if rule.guard is Guard.EQ else draw(st.integers(-2, 3).filter(lambda e: e != d))
        steps.append((TransitionInstance(rule, d, e), draw(configs)))
    return Trace(draw(configs), tuple(steps))


@BOUNDED
@given(st.data())
def test_trace_format_then_parse_is_identity(data):
    protocol = data.draw(protocols())
    trace = data.draw(traces(protocol))
    unlabelled = Protocol.make(
        protocol.states,
        [replace(rule, label=None) for rule in protocol.rules],
        protocol.initial,
        protocol.output,
    )
    # an unlabelled copy names every rule r<position>, which both read back
    for writer, reader in ((protocol, protocol), (unlabelled, protocol), (unlabelled, unlabelled)):
        assert parse_trace(reader, format_trace(writer, trace)) == trace
