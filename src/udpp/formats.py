"""Line-based text formats: protocols, configurations, machines, and traces.

All formats are UTF-8, one directive per line, with '#' starting a comment.
Parsers report 1-based line numbers on syntax errors. Emitters are
deterministic so identical inputs always produce identical bytes.
"""

from __future__ import annotations

from .core import (
    Configuration,
    Guard,
    ParseError,
    Protocol,
    Rule,
    Trace,
    TransitionInstance,
)
from .counter import COUNTER_NAMES, CounterMachine, Dec, Goto, Halt, Inc, Instr, _machine_problems


def _content_lines(text: str):
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line.split()


# --- protocols ---------------------------------------------------------------
#
#   state <id>
#   init <id>
#   out <id> <0|1>
#   rule <p> <p'> <eq|neq|any> <q> <q'>
#
# States must be declared before use. 'any' is sugar for an eq rule plus a
# neq rule.

def parse_protocol(text: str) -> Protocol:
    states: list[str] = []
    declared: set[str] = set()
    initial: list[str] = []
    output: dict[str, int] = {}
    rules: list[Rule] = []
    for number, tokens in _content_lines(text):
        keyword = tokens[0]
        if keyword == "state":
            if len(tokens) != 2:
                raise ParseError(number, "expected: state <id>")
            if tokens[1] in declared:
                raise ParseError(number, f"state '{tokens[1]}' declared twice")
            declared.add(tokens[1])
            states.append(tokens[1])
        elif keyword == "init":
            if len(tokens) != 2:
                raise ParseError(number, "expected: init <id>")
            if tokens[1] not in declared:
                raise ParseError(number, f"unknown state '{tokens[1]}'")
            initial.append(tokens[1])
        elif keyword == "out":
            if len(tokens) != 3:
                raise ParseError(number, "expected: out <id> <0|1>")
            if tokens[1] not in declared:
                raise ParseError(number, f"unknown state '{tokens[1]}'")
            if tokens[2] not in ("0", "1"):
                raise ParseError(number, f"output must be 0 or 1, got '{tokens[2]}'")
            if tokens[1] in output:
                raise ParseError(number, f"output of '{tokens[1]}' assigned twice")
            output[tokens[1]] = int(tokens[2])
        elif keyword == "rule":
            if len(tokens) != 6:
                raise ParseError(number, "expected: rule <p> <p'> <eq|neq|any> <q> <q'>")
            p, p2, guard_token, q, q2 = tokens[1:]
            for state in (p, p2, q, q2):
                if state not in declared:
                    raise ParseError(number, f"unknown state '{state}'")
            if guard_token == "any":
                rules.append(Rule((p, p2), Guard.EQ, (q, q2)))
                rules.append(Rule((p, p2), Guard.NEQ, (q, q2)))
            elif guard_token in ("eq", "neq"):
                rules.append(Rule((p, p2), Guard(guard_token), (q, q2)))
            else:
                raise ParseError(number, f"unknown guard '{guard_token}'")
        else:
            raise ParseError(number, f"unknown directive '{keyword}'")
    return Protocol.make(states, rules, initial, output)


def format_protocol(protocol: Protocol) -> str:
    lines = [f"state {s}" for s in protocol.states]
    lines += [f"init {s}" for s in sorted(protocol.initial)]
    lines += [f"out {s} {protocol.output[s]}" for s in protocol.states if s in protocol.output]
    lines += [
        f"rule {r.pre[0]} {r.pre[1]} {r.guard.value} {r.post[0]} {r.post[1]}"
        for r in protocol.rules
    ]
    return "\n".join(lines) + "\n"


# --- configurations -----------------------------------------------------------
#
#   agent <state> <color:int> <count:int>
#
# Repeated lines for the same (state, color) accumulate.

def _add_agent_line(counts: dict[tuple[str, int], int], number: int, tokens: list[str]) -> None:
    """Add one 'agent <state> <color> <count>' line to counts."""
    if tokens[0] != "agent" or len(tokens) != 4:
        raise ParseError(number, "expected: agent <state> <color> <count>")
    try:
        color = int(tokens[2])
        count = int(tokens[3])
    except ValueError:
        raise ParseError(number, "color and count must be integers") from None
    if count < 1:
        raise ParseError(number, "count must be positive")
    key = (tokens[1], color)
    counts[key] = counts.get(key, 0) + count


def parse_configuration(text: str) -> Configuration:
    counts: dict[tuple[str, int], int] = {}
    for number, tokens in _content_lines(text):
        _add_agent_line(counts, number, tokens)
    return Configuration(counts)


def format_configuration(config: Configuration) -> str:
    return "\n".join(f"agent {state} {color} {count}" for (state, color), count in config.items())


# --- counter machines ----------------------------------------------------------
#
#   inc x|y
#   dec x|y <k>
#   goto <k>
#   halt
#
# Instructions are numbered 1-based by position. The machine must end with
# halt or goto, otherwise execution could fall off the end.

def parse_machine(text: str) -> CounterMachine:
    instrs: list[Instr] = []
    lines_of: list[int] = []
    for number, tokens in _content_lines(text):
        keyword = tokens[0]
        if keyword == "inc":
            if len(tokens) != 2 or tokens[1] not in COUNTER_NAMES:
                raise ParseError(number, "expected: inc x|y")
            instrs.append(Inc(tokens[1]))
        elif keyword == "dec":
            if len(tokens) != 3 or tokens[1] not in COUNTER_NAMES:
                raise ParseError(number, "expected: dec x|y <k>")
            try:
                instrs.append(Dec(tokens[1], int(tokens[2])))
            except ValueError:
                raise ParseError(number, "target must be an integer") from None
        elif keyword == "goto":
            if len(tokens) != 2:
                raise ParseError(number, "expected: goto <k>")
            try:
                instrs.append(Goto(int(tokens[1])))
            except ValueError:
                raise ParseError(number, "target must be an integer") from None
        elif keyword == "halt":
            if len(tokens) != 1:
                raise ParseError(number, "expected: halt")
            instrs.append(Halt())
        else:
            raise ParseError(number, f"unknown instruction '{keyword}'")
        lines_of.append(number)
    problems = _machine_problems(tuple(instrs))
    if problems:
        index, message = problems[0]
        raise ParseError(lines_of[index - 1] if index else 1, message)
    return CounterMachine(tuple(instrs))


def format_machine(machine: CounterMachine) -> str:
    lines = []
    for ins in machine.instrs:
        if isinstance(ins, Inc):
            lines.append(f"inc {ins.counter}")
        elif isinstance(ins, Dec):
            lines.append(f"dec {ins.counter} {ins.target}")
        elif isinstance(ins, Goto):
            lines.append(f"goto {ins.target}")
        else:
            lines.append("halt")
    return "\n".join(lines) + "\n"


# --- traces --------------------------------------------------------------------
#
# Alternating configuration blocks and fire lines:
#
#   agent <state> <color> <count>     (block: the configuration)
#   ...
#   fire <rule-name> <d> <e>
#   agent ...                         (configuration after the fire)
#
# A rule is named by its label, or by r<position> when the label cannot be
# read back: a label that is missing, is not one token, holds '#', is some
# rule's positional name, or repeats an earlier label. The parser also
# resolves r<position> for every rule, so a trace written against an
# unlabelled copy of a protocol reads back against the labelled original.

def rule_names(protocol: Protocol) -> list[str]:
    """One unique single-token display name per rule, aligned with protocol.rules."""
    positional = [f"r{position}" for position in range(len(protocol.rules))]
    taken = set(positional)
    names: list[str] = []
    for rule, fallback in zip(protocol.rules, positional):
        label = rule.label
        if label and label.split() == [label] and "#" not in label and label not in taken:
            taken.add(label)
            names.append(label)
        else:
            names.append(fallback)
    return names


def format_trace(protocol: Protocol, trace: Trace) -> str:
    name_of: dict[Rule, str] = {}
    for name, rule in zip(rule_names(protocol), protocol.rules):
        name_of.setdefault(rule, name)
    chunks = [format_configuration(trace.initial)]
    for instance, config in trace.steps:
        name = name_of.get(instance.rule, instance.rule.label or "unknown")
        chunks.append(f"fire {name} {instance.d} {instance.e}")
        chunks.append(format_configuration(config))
    return "\n\n".join(chunks) + "\n"


def parse_trace(protocol: Protocol, text: str) -> Trace:
    by_name = {f"r{position}": rule for position, rule in enumerate(protocol.rules)}
    by_name.update(zip(rule_names(protocol), protocol.rules))
    # Counts are positive, so a block is empty exactly when no agent line
    # has been read into it.
    blocks: list[dict[tuple[str, int], int]] = [{}]
    fires: list[TransitionInstance] = []
    number = 0
    for number, tokens in _content_lines(text):
        if tokens[0] == "agent":
            _add_agent_line(blocks[-1], number, tokens)
        elif tokens[0] == "fire":
            if len(tokens) != 4:
                raise ParseError(number, "expected: fire <rule-name> <d> <e>")
            if not blocks[-1]:
                raise ParseError(number, "expected a configuration block before this line")
            rule = by_name.get(tokens[1])
            if rule is None:
                raise ParseError(number, f"unknown rule name '{tokens[1]}'")
            try:
                d, e = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(number, "colors must be integers") from None
            instance = TransitionInstance(rule, d, e)
            problem = instance.guard_violation()
            if problem is not None:
                raise ParseError(number, problem)
            fires.append(instance)
            blocks.append({})
        else:
            raise ParseError(number, f"unknown directive '{tokens[0]}'")
    if fires and not blocks[-1]:
        raise ParseError(number, "trace ends with a fire line but no configuration")
    initial, *after = (Configuration(block) for block in blocks)
    return Trace(initial, tuple(zip(fires, after)))
