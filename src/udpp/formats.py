"""Line-based text formats: protocols, configurations, machines, and traces.

All formats are UTF-8, one directive per line, with '#' starting a comment.
Parsers report 1-based line numbers on syntax errors. Emitters are
deterministic so identical inputs always produce identical bytes.
"""

from __future__ import annotations

from .core import (
    Configuration,
    CountKey,
    Guard,
    ParseError,
    Protocol,
    Rule,
    Trace,
    TransitionInstance,
)
from .counter import COUNTER_NAMES, CounterMachine, Dec, Goto, Halt, Inc, Instr, _machine_problems

_AgentItem = tuple[CountKey, int]


def _content_lines(text: str):
    """Each non-blank line as (1-based number, line without comment and
    surrounding whitespace); callers split it themselves."""
    for number, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        line = raw.strip()
        if line:
            yield number, line


# --- protocols ---------------------------------------------------------------
#
#   state <id>
#   init <id>
#   out <id> <0|1>
#   rule <p> <p'> <eq|neq|any> <q> <q'>
#
# States must be declared before use. 'any' is sugar for an eq rule plus a
# neq rule.

_GUARDS = {"eq": (Guard.EQ,), "neq": (Guard.NEQ,), "any": (Guard.EQ, Guard.NEQ)}


def parse_protocol(text: str) -> Protocol:
    """The protocol in text, read in one pass over raw lines; a rule line's
    four states are checked at once, and one by one only to name the first
    unknown."""
    states: list[str] = []
    declared: set[str] = set()
    initial: list[str] = []
    output: dict[str, int] = {}
    rules: list[Rule] = []
    for number, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        tokens = raw.split()
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword == "rule":
            if len(tokens) != 6:
                raise ParseError(number, "expected: rule <p> <p'> <eq|neq|any> <q> <q'>")
            _, p, p2, guard_token, q, q2 = tokens
            if not declared.issuperset((p, p2, q, q2)):
                state = next(state for state in (p, p2, q, q2) if state not in declared)
                raise ParseError(number, f"unknown state '{state}'")
            guards = _GUARDS.get(guard_token)
            if guards is None:
                raise ParseError(number, f"unknown guard '{guard_token}'")
            for guard in guards:
                rules.append(Rule((p, p2), guard, (q, q2)))
        elif keyword == "state":
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

def _blocks(text: str, fire=None) -> tuple[list[Configuration], list[TransitionInstance]]:
    """The configuration blocks of text and the fire instances between them.
    memo maps a raw line to its checked agent item, or to () for a blank or
    comment-only line, stored once its checks pass, so only a line's first
    occurrence is cut, split and checked. fire(number, tokens, block) checks
    any other content line at every occurrence and returns its instance;
    without fire, every content line must be an agent line. Counts are
    positive, so a block is empty exactly when it holds no agent item."""
    memo: dict[str, _AgentItem | tuple[()]] = {}
    block: list[_AgentItem] = []
    blocks = [block]
    fires: list[TransitionInstance] = []
    for number, raw in enumerate(text.splitlines(), 1):
        item = memo.get(raw)
        if item:
            block.append(item)
        elif item is None:
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                memo[raw] = ()
            elif tokens[0] == "agent" or fire is None:
                if tokens[0] != "agent" or len(tokens) != 4:
                    raise ParseError(number, "expected: agent <state> <color> <count>")
                try:
                    color, count = int(tokens[2]), int(tokens[3])
                except ValueError:
                    raise ParseError(number, "color and count must be integers") from None
                if count < 1:
                    raise ParseError(number, "count must be positive")
                block.append(memo.setdefault(raw, ((tokens[1], color), count)))
            else:
                fires.append(fire(number, tokens, block))
                last_fire = number
                blocks.append(block := [])
    if fires and not block:  # then the last fire line is the last content line
        raise ParseError(last_fire, "trace ends with a fire line but no configuration")
    # The sorted dict comes out shorter only when a key repeats: then sum.
    return [Configuration._trusted(c) if len(c := dict(sorted(items))) == len(items) else Configuration(items)
            for items in blocks], fires


def parse_configuration(text: str) -> Configuration:
    return _blocks(text)[0][0]


class _AgentLines(dict):
    """Memo from ((state, color), count) to its agent line, so one call
    formats each distinct item once however many blocks repeat it."""

    def __missing__(self, item: _AgentItem) -> str:
        (state, color), count = item
        line = self[item] = f"agent {state} {color} {count}"
        return line

    def block(self, config: Configuration) -> str:
        return "\n".join(map(self.__getitem__, config.items()))


def format_configuration(config: Configuration) -> str:
    return _AgentLines().block(config)


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
    for number, line in _content_lines(text):
        tokens = line.split()
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

def _name(protocol: Protocol, position: int) -> str:
    """The display name of the rule at position (see above)."""
    label = protocol.rules[position].label
    if label and protocol._first_label[label] == position and _readable(label, len(protocol.rules)):
        return label
    return f"r{position}"


def _readable(label: str, count: int) -> bool:
    """Whether label reads back as a rule name among count rules: one token,
    no '#', and no rule's positional name."""
    return label.split() == [label] and "#" not in label and _positional(label, count) is None


def _positional(name: str, count: int) -> int | None:
    """k when name is r<k>, the positional name of one of count rules, else None."""
    digits = name[1:]
    if name[:1] == "r" and digits.isascii() and digits.isdigit() and len(digits) <= len(str(count)):
        position = int(digits)
        if position < count and str(position) == digits:
            return position
    return None


def format_trace(protocol: Protocol, trace: Trace) -> str:
    """The trace as text. A fired rule is named as the protocol's first
    rule equal to it, or by its own label, or 'unknown'; only the rules the
    trace fires are looked up."""
    name_of: dict[Rule, str | None] = {}  # fired rule -> its name; None when the protocol lacks it
    block = _AgentLines().block
    chunks = [block(trace.initial)]
    for instance, config in trace.steps:
        rule = instance.rule
        name = name_of.get(rule, False)
        if name is False:
            position = protocol._position_of(rule)
            name = name_of[rule] = None if position is None else _name(protocol, position)
        chunks.append(f"fire {name or rule.label or 'unknown'} {instance.d} {instance.e}")
        chunks.append(block(config))
    return "\n\n".join(chunks) + "\n"


def parse_trace(protocol: Protocol, text: str) -> Trace:
    """The trace in text. Agent lines within a block may come in any order
    and a repeated (state, color) pair adds up; lines may end in LF, CRLF or
    CR; a ParseError names the 1-based line of its first offending occurrence."""
    rules = protocol.rules
    first_label = protocol._first_label

    def fire(number: int, tokens: list[str], block: list[_AgentItem]) -> TransitionInstance:
        if tokens[0] != "fire":
            raise ParseError(number, f"unknown directive '{tokens[0]}'")
        if len(tokens) != 4:
            raise ParseError(number, "expected: fire <rule-name> <d> <e>")
        if not block:
            raise ParseError(number, "expected a configuration block before this line")
        name = tokens[1]
        position = first_label.get(name)
        if position is None or not _readable(name, len(rules)):
            position = _positional(name, len(rules))
            if position is None:
                raise ParseError(number, f"unknown rule name '{name}'")
        try:
            d, e = int(tokens[2]), int(tokens[3])
        except ValueError:
            raise ParseError(number, "colors must be integers") from None
        instance = TransitionInstance(rules[position], d, e)
        problem = instance.guard_violation()
        if problem is not None:
            raise ParseError(number, problem)
        return instance

    (initial, *after), fires = _blocks(text, fire)
    return Trace(initial, tuple(zip(fires, after)))
