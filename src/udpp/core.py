"""Population protocols with unordered data: model and exact pairwise semantics.

Agents are finite-state and carry an immutable color drawn from an infinite
domain that supports only equality tests. A configuration counts agents per
(state, color) pair; a rule rewrites the states of two agents at once,
guarded by whether their colors are equal or distinct. Firing never creates,
destroys, or recolors agents.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

StateId = str
ColorId = int
CountKey = tuple[StateId, ColorId]


class UdppError(Exception):
    """Base class for errors raised by this package."""


class NotEnabled(UdppError):
    """Raised by :func:`fire` when the instance is not enabled; signals a scheduler bug."""


class ParseError(UdppError):
    """Syntax error in one of the text formats; carries the 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class Guard(Enum):
    """Color test attached to a rule."""

    EQ = "eq"
    NEQ = "neq"

    def holds(self, d: ColorId, e: ColorId) -> bool:
        return d == e if self is _EQ else d != e


# Guard.EQ bound once: reading a member off the Enum class costs several
# times what reading a module global does, and the hot loops test it per rule.
_EQ = Guard.EQ


@dataclass(frozen=True)
class Rule:
    """A guarded pairwise rewrite ((p, p'), guard, (q, q')).

    Role positions are meaningful: the agent matched at pre[0] moves to
    post[0] and keeps its color, likewise at position 1. Symmetric behaviour
    must be written as two explicitly swapped rules. The label is display
    metadata and does not participate in equality.
    """

    pre: tuple[StateId, StateId]
    guard: Guard
    post: tuple[StateId, StateId]
    label: str | None = field(default=None, compare=False)

    def __init__(
        self, pre: tuple[StateId, StateId], guard: Guard, post: tuple[StateId, StateId], label: str | None = None
    ) -> None:
        # The generated __init__ sets each field through object.__setattr__;
        # one update of the instance dict does the same in one call.
        self.__dict__.update(pre=pre, guard=guard, post=post, label=label)

    def __str__(self) -> str:
        head = f"{self.label}: " if self.label else ""
        return (
            f"{head}({self.pre[0]}, {self.pre[1]}) {self.guard.value} "
            f"({self.post[0]}, {self.post[1]})"
        )


class TransitionInstance(NamedTuple):
    """A rule together with the colors chosen for its two roles.

    Construction does not check the guard: :func:`enabled_instances` only
    builds instances that satisfy it, and :func:`fire` rejects those that do
    not. Code that builds instances from outside input checks
    :meth:`guard_violation` itself.
    """

    rule: Rule
    d: ColorId
    e: ColorId

    def guard_violation(self) -> str | None:
        """Why the colors fail the rule's guard; None when they satisfy it."""
        if self.rule.guard.holds(self.d, self.e):
            return None
        return f"colors ({self.d}, {self.e}) do not satisfy guard '{self.rule.guard.value}'"

    def __str__(self) -> str:
        return f"{self.rule} @ ({self.d}, {self.e})"


class Configuration:
    """Immutable finite-support count map (state, color) -> positive count.

    Zero entries are dropped at construction, so equality and hashing are
    structural. Items iterate in sorted key order, which keeps every consumer
    deterministic. Repeated keys in the input are summed.
    """

    __slots__ = ("_counts",)

    def __init__(
        self, counts: Mapping[CountKey, int] | Iterable[tuple[CountKey, int]] = ()
    ) -> None:
        items = counts.items() if isinstance(counts, Mapping) else counts
        acc: dict[CountKey, int] = {}
        for (state, color), count in items:
            if count < 0:
                raise ValueError(f"negative count {count} for ({state}, {color})")
            if count:
                key = (state, int(color))
                acc[key] = acc.get(key, 0) + count
        self._counts: dict[CountKey, int] = dict(sorted(acc.items()))

    def __getitem__(self, key: CountKey) -> int:
        return self._counts.get(key, 0)

    def items(self) -> Iterator[tuple[CountKey, int]]:
        return iter(self._counts.items())

    def total(self) -> int:
        """Total number of agents."""
        return sum(self._counts.values())

    def active_states(self) -> frozenset[StateId]:
        return frozenset(state for state, _ in self._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(tuple(self._counts.items()))

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __repr__(self) -> str:
        return f"Configuration({self._counts!r})"

    @classmethod
    def _trusted(cls, counts: dict[CountKey, int]) -> "Configuration":
        """Wrap counts that already hold only positive counts under
        (str, int) keys in sorted order, without copying or checking them."""
        config = cls.__new__(cls)
        config._counts = counts
        return config


@dataclass(frozen=True)
class Protocol:
    """A protocol: declared states, rules, initial states, and 0/1 opinions.

    The output map must be total on the declared states; use
    :func:`validate_protocol` to check all structural invariants at once.
    """

    states: tuple[StateId, ...]
    rules: tuple[Rule, ...]
    initial: frozenset[StateId]
    output: Mapping[StateId, int]

    @classmethod
    def make(
        cls,
        states: Iterable[StateId],
        rules: Iterable[Rule],
        initial: Iterable[StateId],
        output: Mapping[StateId, int],
    ) -> "Protocol":
        return cls(tuple(states), tuple(rules), frozenset(initial), dict(output))

    @cached_property
    def state_set(self) -> frozenset[StateId]:
        return frozenset(self.states)

    @cached_property
    def _rules_within(self) -> dict[frozenset[StateId], tuple[Rule, ...]]:
        return {}

    @cached_property
    def _packing_slot(self) -> list:
        """Holds the explorer's integer form of this protocol once
        graph._packing has built it."""
        return []

    @cached_property
    def _positions_by_pre(self) -> dict[StateId, dict[StateId, list[int]]]:
        """pre[0] -> pre[1] -> the positions of the rules with those
        pre-states, ascending."""
        index: dict[StateId, dict[StateId, list[int]]] = {}
        for position, rule in enumerate(self.rules):
            index.setdefault(rule.pre[0], {}).setdefault(rule.pre[1], []).append(position)
        return index

    @cached_property
    def _first_label(self) -> dict[str | None, int]:
        """label -> the position of the first rule carrying it."""
        first: dict[str | None, int] = {}
        for position, rule in enumerate(self.rules):
            first.setdefault(rule.label, position)
        return first

    def rules_within(self, active: frozenset[StateId]) -> tuple[Rule, ...]:
        """The rules whose two pre-states are in active, in position order;
        memoised per active set."""
        rules = self._rules_within.get(active)
        if rules is None:
            positions = _positions_within(self._positions_by_pre, active)
            rules = self._rules_within[active] = tuple(self.rules[i] for i in positions)
        return rules

    def _position_of(self, rule: Rule) -> int | None:
        """The position of the first rule equal to rule, or None when there
        is none; only the rules with rule's pre-states are compared."""
        rules = self.rules
        for position in self._positions_by_pre.get(rule.pre[0], {}).get(rule.pre[1], ()):
            if rules[position] is rule or rules[position] == rule:
                return position
        return None


def _positions_within(by_pre: dict[StateId, dict[StateId, list[int]]], active: Iterable[StateId]) -> list[int]:
    """The positions of the rules whose two pre-states are in active,
    ascending, read off a protocol's pre-state index by_pre
    (``Protocol._positions_by_pre``): the one active-set rule filter,
    unmemoised. It looks up each ordered pair of active states."""
    active = tuple(active)
    positions: list[int] = []
    for q in active:
        seconds = by_pre.get(q)
        if seconds:
            for q2 in active:
                positions += seconds.get(q2, ())
    positions.sort()
    return positions


def validate_protocol(protocol: Protocol) -> list[str]:
    """Structural diagnostics; empty exactly when the protocol is well-formed."""
    problems: list[str] = []
    seen: set[StateId] = set()
    for state in protocol.states:
        if state in seen:
            problems.append(f"duplicate state '{state}'")
        seen.add(state)
    for state in sorted(protocol.initial - protocol.state_set):
        problems.append(f"initial state '{state}' is not declared")
    for state in protocol.states:
        if state not in protocol.output:
            problems.append(f"state '{state}' has no output value")
    for state in sorted(set(protocol.output) - protocol.state_set):
        problems.append(f"output assigned to undeclared state '{state}'")
    for state in protocol.states:
        value = protocol.output.get(state)
        if value is not None and value not in (0, 1):
            problems.append(f"output of '{state}' is {value!r}, expected 0 or 1")
    declared = protocol.state_set
    for index, rule in enumerate(protocol.rules):
        for state in (*rule.pre, *rule.post):
            if state not in declared:
                problems.append(f"rule {index} references undeclared state '{state}'")
    return problems


def is_initial(protocol: Protocol, config: Configuration) -> bool:
    """True when every agent sits in an initial state (colors unconstrained)."""
    return config.active_states() <= protocol.initial


def _colors_at(counts: dict[CountKey, int]) -> dict[StateId, tuple[ColorId, ...]]:
    """state -> its colours in counts, ascending (the keys are sorted)."""
    colors_at: dict[StateId, list[ColorId]] = {}
    for state, color in counts:
        colors_at.setdefault(state, []).append(color)
    return {state: tuple(colors) for state, colors in colors_at.items()}


def _rule_rows(
    rule: Rule, colors_at: dict[StateId, tuple[ColorId, ...]], counts: dict[CountKey, int]
) -> list[tuple[Rule, ColorId, ColorId]]:
    """One rule's (rule, d, e) rows, ordered by d, then e; colors_at
    (:func:`_colors_at`) must hold both pre-states.

    An EQ rule has the rows (d, d) where d has an agent at pre[0] and enough
    agents at pre[1]: two when both roles are the same (state, color) pair.
    A NEQ rule has the rows (d, e) with d at pre[0], e at pre[1] and d != e.
    So only an EQ rule whose two pre-states are equal reads counts beyond
    the colours at its pre-states.
    """
    p, p2 = rule.pre
    if rule.guard is _EQ:
        need = 2 if p == p2 else 1
        return [(rule, d, d) for d in colors_at[p] if counts.get((p2, d), 0) >= need]
    return [(rule, d, e) for d in colors_at[p] for e in colors_at[p2] if d != e]


def _candidates(protocol: Protocol, config: Configuration) -> list[tuple[Rule, ColorId, ColorId]]:
    """The (rule, d, e) rows of the enabled instances, ordered by rule
    position, then d, then e: the :func:`_rule_rows` of each rule whose two
    pre-states are active, in position order."""
    counts = config._counts
    colors_at = _colors_at(counts)
    rows: list[tuple[Rule, ColorId, ColorId]] = []
    for rule in protocol.rules_within(frozenset(colors_at)):
        rows += _rule_rows(rule, colors_at, counts)
    return rows


def enabled_instances(protocol: Protocol, config: Configuration) -> list[TransitionInstance]:
    """All enabled instances, ordered by rule position, then d, then e.

    A rule with both roles on the same (state, color) pair needs two agents
    there, so a count of one does not enable it.
    """
    return [TransitionInstance(*row) for row in _candidates(protocol, config)]


def _apply(config: Configuration, instance: TransitionInstance) -> Configuration | None:
    """The configuration after firing instance: both agents change state,
    neither changes color. None when the colors fail the guard or an agent is
    missing. Whether the rule belongs to a protocol is the caller's concern.

    The successor is built from the parent's counts, which are already
    positive and sorted: keys that reach zero are dropped, and the keys are
    sorted again only when one is new.
    """
    rule = instance.rule
    d, e = instance.d, instance.e
    if not rule.guard.holds(d, e):
        return None
    counts = dict(config._counts)
    taken = ((rule.pre[0], d), (rule.pre[1], e))
    for key in taken:
        left = counts.get(key, 0)
        if left < 1:
            return None
        counts[key] = left - 1
    # both colours equal existing int keys now, so int() only normalises
    # colours such as True to the key type the constructor would give
    grown = False
    for state, color in ((rule.post[0], d), (rule.post[1], e)):
        key = (state, int(color))
        if key in counts:
            counts[key] += 1
        else:
            counts[key] = 1
            grown = True
    for key in taken:
        if counts.get(key) == 0:
            del counts[key]
    return Configuration._trusted(dict(sorted(counts.items())) if grown else counts)


def fire(protocol: Protocol, config: Configuration, instance: TransitionInstance) -> Configuration:
    """Apply an enabled instance: both agents change state, neither changes color.

    Raises :class:`NotEnabled` when the instance's rule is not part of the
    protocol, its colors fail the guard, or the required agents are missing.
    """
    rule = instance.rule
    if protocol._position_of(rule) is None:
        raise NotEnabled(f"not a rule of this protocol: {rule}")
    after = _apply(config, instance)
    if after is None:
        problem = instance.guard_violation()
        if problem is not None:
            raise NotEnabled(problem)
        first, second = (rule.pre[0], instance.d), (rule.pre[1], instance.e)
        state, color = first if config[first] < 1 else second
        raise NotEnabled(f"no agent available at ({state}, {color}) for {rule}")
    return after


@dataclass(frozen=True)
class Trace:
    """An execution prefix: the start configuration plus each fired instance
    and the configuration it produced."""

    initial: Configuration
    steps: tuple[tuple[TransitionInstance, Configuration], ...] = ()

    @property
    def final(self) -> Configuration:
        return self.steps[-1][1] if self.steps else self.initial

    def __len__(self) -> int:
        return len(self.steps)
