"""Exploration and output classification under fairness.

Rules observe colors only through equality tests, so bijective recolorings
commute with firing. Classification therefore works on a canonical form per
color-renaming orbit, which keeps reachability graphs small without losing
any behaviour. The orbit nodes and graphs themselves, in their packed form,
are in :mod:`udpp.graph`; this module re-exports their public names.

Fairness fact used throughout (see README for the proof sketch): on a finite
reachability graph, the set of configurations a fair execution visits
infinitely often is exactly one bottom strongly connected component. A
deadlock counts as a singleton bottom component where the execution
stutters forever. Hence a start configuration has stable output b exactly
when every reachable bottom component is unanimous for the same b; every
verdict here reads that off one opinion pass, :func:`graph._components`.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import combinations_with_replacement, groupby

from .core import (
    Configuration,
    Protocol,
    StateId,
    Trace,
    TransitionInstance,
    UdppError,
    _EQ,
    _colors_at,
    _rule_rows,
    enabled_instances,
    fire,
)
from .graph import (
    CanonicalConfig,
    Column,
    ReachGraph,
    _column_text,
    _components,
    _Lazy,
    _packing,
    _successors,
    _Table,
    canonicalize,
)


class EmptyConfiguration(UdppError):
    """Classification rejects populations with no agents."""


@dataclass(frozen=True)
class ExplorationLimits:
    max_nodes: int = 100_000
    max_depth: int | None = None

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be at least 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")


def explore(
    protocol: Protocol,
    start: Configuration | CanonicalConfig,
    limits: ExplorationLimits,
    *,
    steps: _Table | None = None,
) -> ReachGraph:
    """Breadth-first closure of canonical forms under all enabled instances.

    start is a configuration or the canonical form of one, taken as is.
    Successors come from :func:`graph._successors`, which steps packed
    signatures directly over the protocol's one packing and its memos; each
    node's successors are in the order in which firing the enabled instances
    of its representative first reaches them. A start holding a state that
    the protocol does not name raises :class:`UdppError`.

    Hitting a budget flags the graph as truncated instead of raising; the
    partial graph still records every edge between discovered, expanded nodes.

    steps, when given, is a successor table over ids (:class:`graph._Table`)
    that explorations of its protocol share: this one walks its ids and
    expands a node there only when no exploration has. An entry always holds
    the node's full successor tuple; the budgets trim what this exploration
    keeps, never the table. Firing keeps every colour's agent count, so only
    starts with the same sorted colour histogram can meet a common node;
    sharing a table beyond them only grows it.
    """
    packing = _packing(protocol)
    canon = start if isinstance(start, CanonicalConfig) else canonicalize(start)
    try:
        root = packing.encode(canon)
    except KeyError:
        unknown = canon.active_states() - packing.ranks.keys()
        raise UdppError(f"start holds states the protocol does not name: {', '.join(sorted(unknown))}") from None
    if steps is None:
        expand = partial(_successors, packing)
    elif steps.packing is packing:
        expand, root = steps.expand, steps[root]
    else:
        raise ValueError("the successor table belongs to another protocol")
    max_nodes, max_depth = limits.max_nodes, limits.max_depth
    found = {root: 0}  # node (packed, or its table id) -> its id here
    order = [root]  # id here -> node; it grows as nodes are found: the breadth-first queue
    depth, level_end = 0, 1  # the depth of order[v], and the id where that depth ends
    offsets, targets = array("q", [0]), array("q")
    link = targets.append
    reasons: dict[str, str] = {}  # budget -> message, in the order first hit
    for v, node in enumerate(order):
        if v == level_end:
            depth, level_end = depth + 1, len(order)
        nexts = expand(node)
        if nexts and max_depth is not None and depth >= max_depth:
            reasons.setdefault("depth", f"depth budget exceeded (max_depth={max_depth})")
            nexts = ()
        for succ in nexts:
            known = found.get(succ)
            if known is None:
                if len(order) >= max_nodes:
                    reasons.setdefault("node", f"node budget exceeded (max_nodes={max_nodes})")
                    continue
                known = found[succ] = len(order)
                order.append(succ)
            link(known)
        offsets.append(len(targets))
    keys = order if steps is None else list(map(steps.nodes.__getitem__, order))
    return ReachGraph(keys, offsets, targets, packing, "; ".join(reasons.values()) or None)


def opinions(protocol: Protocol, configs: Iterable[Configuration | CanonicalConfig]) -> set[int]:
    """The opinions present in these configurations: the outputs of their
    active states."""
    return _outputs(protocol, {q for config in configs for q in config.active_states()})


def _outputs(protocol: Protocol, states: set[StateId]) -> set[int]:
    """The outputs of these states; a state without one raises
    :class:`UdppError`."""
    missing = states - protocol.output.keys()
    if missing:
        raise UdppError(f"state '{min(missing)}' has no output value")
    return {protocol.output[q] for q in states}


def _mask(protocol: Protocol, states: set[StateId]) -> int:
    """The opinions of these states as bits: 1 for opinion 0, 2 for 1."""
    return sum(1 << b for b in _outputs(protocol, states))


class Verdict(Enum):
    OUT0 = "Out0"
    OUT1 = "Out1"
    NO_OUTPUT = "NoOutput"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class OutputClass:
    """A verdict, the reason for an Unknown one, and, for a NoOutput verdict
    from :func:`classify_graph`, the bottom component that decides it, as
    node ids of the graph classified: the first one with mixed opinions, or
    else the first one unanimous for 0."""

    verdict: Verdict
    reason: str | None = None
    component: frozenset[int] | None = field(default=None, compare=False)

    def describe(self) -> str:
        if self.verdict is Verdict.UNKNOWN:
            return f"Unknown({self.reason})"
        return self.verdict.value


# the shared verdict of each mask (see _mask): no agent, Out0, Out1, NoOutput
_BY_MASK = (None, OutputClass(Verdict.OUT0), OutputClass(Verdict.OUT1), OutputClass(Verdict.NO_OUTPUT))


def classify_graph(protocol: Protocol, graph: ReachGraph) -> OutputClass:
    """Verdict for a fully explored graph, from the opinion pass
    (:func:`graph._components`) from its root; Unknown when it is truncated.
    Every bottom component's states must have an output, and the graph of
    the empty population raises :class:`EmptyConfiguration`."""
    if graph.truncated:
        return OutputClass(Verdict.UNKNOWN, graph.truncation_reason)
    firsts: dict[int, list[int]] = {}  # mask -> the first bottom component to complete with it

    def weigh(component: list[int]) -> int:
        mask = _mask(protocol, graph._packing.states(graph._keys, component))
        firsts.setdefault(mask, component)
        return mask

    oc = _BY_MASK[_components(graph._successors, len(graph), [0], weigh)[0] & 3]
    if oc is None:
        raise EmptyConfiguration("cannot classify an empty population")
    if oc.verdict is not Verdict.NO_OUTPUT:
        return oc
    return OutputClass(oc.verdict, component=frozenset(firsts.get(3) or firsts[1]))  # see OutputClass


def classify_output(
    protocol: Protocol, start: Configuration, limits: ExplorationLimits
) -> OutputClass:
    """Stable-consensus verdict for one start configuration.

    Out0/Out1 when every reachable bottom component is unanimous for the same
    opinion, NoOutput otherwise, Unknown when exploration hit a budget; an
    empty population raises :class:`EmptyConfiguration`.
    """
    oc = classify_graph(protocol, explore(protocol, start, limits))
    return OutputClass(oc.verdict, oc.reason)  # the deciding component means nothing without its graph


def enumerate_initial_configs(protocol: Protocol, n: int, k: int) -> list[CanonicalConfig]:
    """All canonical configurations with exactly n agents on initial states
    and at most k distinct colors, without duplicates modulo recoloring, in
    signature order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    # A column is what one color carries: 1..n agents on initial states, as
    # sorted (state, count) pairs. A signature is a sorted tuple of columns.
    columns = sorted(
        tuple((q, len(list(group))) for q, group in groupby(agents))
        for size in range(1, n + 1)
        for agents in combinations_with_replacement(sorted(protocol.initial), size)
    )
    sizes = [sum(count for _, count in column) for column in columns]

    def signatures(first: int, agents: int, colors: int) -> Iterator[tuple[Column, ...]]:
        # Depth first over non-decreasing column indices: each one once, sorted.
        if agents == 0:
            yield ()
        elif colors > 0:
            for i in range(first, len(columns)):
                if sizes[i] <= agents:
                    for rest in signatures(i, agents - sizes[i], colors - 1):
                        yield (columns[i],) + rest

    return [CanonicalConfig(signature) for signature in signatures(0, n, k)]


VERDICT_WITNESS = "not-well-specified"
VERDICT_BOUNDED_OK = "well-specified-up-to-bounds"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class WellSpecReport:
    """Per-configuration verdicts for a bounded sweep, plus the overall call.

    A single NoOutput configuration is a definitive witness against
    well-specification, so it dominates any Unknown entries; Unknown without
    a witness makes the sweep inconclusive.
    """

    entries: tuple[tuple[CanonicalConfig, OutputClass], ...]
    verdict: str

    def lines(self) -> list[str]:
        """One line per entry, then the verdict line; each distinct column is written once."""
        column_text = _Lazy(_column_text).__getitem__
        out = [f"{config._text(column_text)} {oc.describe()}" for config, oc in self.entries]
        out.append(f"verdict: {self.verdict}")
        return out


def check_well_specification(
    protocol: Protocol, max_agents: int, max_colors: int, limits: ExplorationLimits
) -> WellSpecReport:
    """Classify every canonical initial configuration within the bounds.

    Each start is explored on its own, every one under the same limits, and
    gets the verdict :func:`classify_output` would give it, in signature
    order per agent count. Firing keeps each colour's agent count, so only
    starts with one sorted colour histogram can meet; each such class gets
    one :func:`_class_verdicts` pass.
    """
    if max_agents < 1:
        raise ValueError("max_agents must be at least 1")
    entries: list[tuple[CanonicalConfig, OutputClass]] = []
    size = _Lazy(lambda column: sum(count for _, count in column)).__getitem__  # column -> its agents
    for n in range(1, max_agents + 1):
        starts = enumerate_initial_configs(protocol, n, max_colors)
        classes: dict[tuple[int, ...], list[CanonicalConfig]] = {}
        for canon in starts:
            histogram = tuple(sorted(map(size, canon)))
            classes.setdefault(histogram, []).append(canon)
        by_start: dict[CanonicalConfig, OutputClass] = {}
        for members in classes.values():
            by_start.update(zip(members, _class_verdicts(protocol, members, limits)))
        entries += [(canon, by_start[canon]) for canon in starts]
    verdicts = {oc.verdict for _, oc in entries}
    if Verdict.NO_OUTPUT in verdicts:
        return WellSpecReport(tuple(entries), VERDICT_WITNESS)
    return WellSpecReport(tuple(entries), VERDICT_INCONCLUSIVE if Verdict.UNKNOWN in verdicts else VERDICT_BOUNDED_OK)


def _class_verdicts(protocol: Protocol, starts: list[CanonicalConfig], limits: ExplorationLimits) -> list[OutputClass]:
    """The verdicts of these starts, each explored on its own under limits
    into one successor table over ids (see :func:`explore`). A truncated
    start is Unknown. One Tarjan pass over the table from the complete
    starts' roots gives every component it meets the opinions (see
    :func:`_mask`) of the bottom components it reaches. A complete start
    expanded every node it reaches, so the pass meets no node a budget left
    unexpanded; it raises :class:`UdppError` exactly when a bottom component
    it meets holds a state without an output.
    """
    table = _Table(protocol)
    roots: list[tuple[int, str | None]] = []  # per start: its table id and truncation reason
    for canon in starts:
        graph = explore(protocol, canon, limits, steps=table)
        roots.append((table[graph._keys[0]], graph.truncation_reason))
    masks = _components(
        table.expanded, len(table), [root for root, reason in roots if reason is None],
        lambda component: _mask(protocol, table.packing.states(table.nodes, component)),
    )
    return [OutputClass(Verdict.UNKNOWN, reason) if reason else _BY_MASK[masks[root] & 3] for root, reason in roots]


def random_fair_run(
    protocol: Protocol, start: Configuration, seed: int, max_steps: int
) -> Trace:
    """Uniform-random scheduling with a seeded generator.

    Each step draws one index uniformly over the enabled instances in the
    order of :func:`enabled_instances` and builds only that instance. On a
    finite reachable set this sampling is fair with probability one. Stops at
    a deadlock or after max_steps; fully reproducible from the seed. Raises
    ValueError when max_steps is negative.

    Only a self-EQ rule's rows (:func:`core._rule_rows`) read counts; the
    others depend on the colours at the rule's two pre-states alone. So each
    rule keeps its rows in one slot for the whole run, with the two colour
    tuples they were built from, until either tuple is replaced (a colour
    appeared at or vanished from that state). A rule that stays active when
    the active states change keeps its slot, and each set of active states
    keeps its list of slots, so a set met again reuses it.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    rng = random.Random(seed)
    steps: list[tuple] = []
    current = start
    counts = start._counts
    at = _colors_at(counts)  # a state's tuple is replaced only when its colours change
    slot_of: dict[int, list] = {}  # id(rule) -> the rule's one slot; the slot holds the rule
    slots_within: dict[frozenset[StateId], list[list]] = {}  # active states -> their rules' slots
    moved = True
    for _ in range(max_steps):
        if moved:
            active = frozenset(at)
            slots = slots_within.get(active)
            if slots is None:
                slots = slots_within[active] = [
                    slot_of.get(id(rule)) or slot_of.setdefault(id(rule), [rule, None, None, None])
                    for rule in protocol.rules_within(active)
                ]
            moved = False
        total = 0
        for slot in slots:
            rule, here, there, rows = slot
            p, p2 = rule.pre
            # a slot keeps the tuples it compares alive, so `is` is safe;
            # a self-EQ rule keeps None, so it is rebuilt at every step
            if at[p] is not here or at[p2] is not there:
                rows = _rule_rows(rule, at, counts)
                slot[1:] = (at[p], at[p2], rows) if p != p2 or rule.guard is not _EQ else (None, None, rows)
            total += len(rows)
        if not total:
            break
        index = rng.randrange(total)
        for slot in slots:
            rows = slot[3]
            if index < len(rows):
                break
            index -= len(rows)
        instance = TransitionInstance(*rows[index])
        current = fire(protocol, current, instance)
        steps.append((instance, current))
        before, counts = counts, current._counts
        rule, d, e = instance
        taken, given = ((rule.pre[0], d), (rule.pre[1], e)), ((rule.post[0], d), (rule.post[1], e))
        if taken[0] in counts and taken[1] in counts and given[0] in before and given[1] in before:
            continue  # no colour appeared or vanished
        for key in taken:
            state, color = key
            if key not in counts and color in at.get(state, ()):  # vanished
                colors = tuple(c for c in at[state] if c != color)
                if colors:
                    at[state] = colors
                else:
                    del at[state]
                    moved = True
        for key in given:
            state, color = key
            if key not in before:  # appeared
                colors = at.get(state)
                if colors is None:
                    at[state] = (color,)
                    moved = True
                elif color not in colors:
                    at[state] = tuple(sorted((*colors, color)))
    return Trace(start, tuple(steps))


def concretize_path(
    protocol: Protocol, start: Configuration, nodes: list[CanonicalConfig]
) -> Trace:
    """Realize a canonical node path as a concrete trace from start.

    Equivariance under recoloring guarantees some enabled instance performs
    each hop, because start lies in the orbit of the path's first node.
    """
    if canonicalize(start) != nodes[0]:
        raise UdppError("start configuration does not match the path's first node")
    current = start
    steps: list[tuple] = []
    for target in nodes[1:]:
        for instance in enabled_instances(protocol, current):
            after = fire(protocol, current, instance)
            if canonicalize(after) == target:
                steps.append((instance, after))
                current = after
                break
        else:
            raise UdppError("canonical path cannot be realized; graph out of sync")
    return Trace(start, tuple(steps))
