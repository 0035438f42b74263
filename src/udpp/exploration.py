"""Reachability graphs and output classification under fairness.

Rules observe colors only through equality tests, so bijective recolorings
commute with firing. Classification therefore works on a canonical form per
color-renaming orbit, which keeps reachability graphs small without losing
any behaviour.

Fairness fact used throughout (see README for the proof sketch): on a finite
reachability graph, the set of configurations a fair execution visits
infinitely often is exactly one bottom strongly connected component. A
deadlock counts as a singleton bottom component where the execution
stutters forever. Hence a start configuration has stable output b exactly
when every reachable bottom component is unanimous for the same b.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations_with_replacement, groupby

from .core import (
    Configuration,
    Guard,
    Protocol,
    StateId,
    Trace,
    TransitionInstance,
    UdppError,
    _candidates,
    enabled_instances,
    fire,
)

Column = tuple[tuple[StateId, int], ...]
# (column, states left, states entered) -> the column after those moves
_Moves = dict[tuple[Column, tuple[StateId, ...], tuple[StateId, ...]], Column]


class TruncatedGraph(UdppError):
    """Raised when an analysis needs a complete graph but got a truncated one."""


class EmptyConfiguration(UdppError):
    """Classification rejects populations with no agents."""


class CanonicalConfig(tuple[Column, ...]):
    """A configuration up to color renaming: its signature, the sorted tuple
    of per-color columns, each column being the sorted (state, count) pairs
    carried by one color. Two configurations canonicalize equal exactly when
    some color bijection maps one onto the other. Hash and equality are the
    tuple's.
    """

    __slots__ = ()

    def active_states(self) -> frozenset[StateId]:
        return frozenset(q for column in self for q, _ in column)

    def representative(self) -> Configuration:
        """A concrete member of the orbit, using colors 0, 1, ..."""
        return Configuration({(q, i): n for i, column in enumerate(self) for q, n in column})

    def __str__(self) -> str:
        if not self:
            return "{}"
        return "+".join("{" + ",".join(f"{q}:{n}" for q, n in column) + "}" for column in self)


def canonicalize(config: Configuration) -> CanonicalConfig:
    """Canonical form; invariant under any bijective recoloring."""
    per_color: dict[int, list[tuple[StateId, int]]] = {}
    for (state, color), count in config.items():
        per_color.setdefault(color, []).append((state, count))
    return CanonicalConfig(sorted(tuple(column) for column in per_color.values()))


@dataclass(frozen=True)
class ExplorationLimits:
    max_nodes: int = 100_000
    max_depth: int | None = None

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be at least 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")


@dataclass(frozen=True)
class ReachGraph:
    """Forward closure over canonical forms; the nodes are the keys of edges,
    in discovery order, so the root, expanded first, is the first key.

    Without a truncation reason the node set is closed under firing and
    deadlocked nodes are exactly those without successors. With one, some
    node went unexpanded and no closure property holds.
    """

    edges: Mapping[CanonicalConfig, tuple[CanonicalConfig, ...]]
    truncation_reason: str | None = field(default=None, kw_only=True)

    @property
    def root(self) -> CanonicalConfig:
        return next(iter(self.edges))

    @property
    def nodes(self) -> tuple[CanonicalConfig, ...]:
        return tuple(self.edges)

    @property
    def truncated(self) -> bool:
        return self.truncation_reason is not None

    def __len__(self) -> int:
        return len(self.edges)


def explore(
    protocol: Protocol,
    start: Configuration,
    limits: ExplorationLimits,
    *,
    steps: dict[CanonicalConfig, tuple[CanonicalConfig, ...]] | None = None,
) -> ReachGraph:
    """Breadth-first closure of canonical forms under all enabled instances.

    Successors come from :func:`_successors`, which steps signatures
    directly; each node's successors are in the order in which firing the
    enabled instances of its representative first reaches them.

    Hitting a budget flags the graph as truncated instead of raising; the
    partial graph still records every edge between discovered, expanded nodes.

    steps, when given, is a successor table that several explorations share:
    a node's successors are read from it, and computed and stored on a miss.
    An entry always holds the node's full successor tuple; the budgets trim
    what this exploration keeps, never what the table holds. An entry is a
    function of the protocol and the node alone, so a table may be shared
    only between explorations of one protocol. Firing keeps every colour's
    agent count, so only starts with the same sorted colour histogram can
    meet a common node; sharing a table beyond them only grows it.
    """
    root = canonicalize(start)
    found: dict[CanonicalConfig, CanonicalConfig] = {root: root}
    order: list[CanonicalConfig] = [root]
    depths: list[int] = [0]  # depths[i] is the depth of order[i]
    edges: dict[CanonicalConfig, tuple[CanonicalConfig, ...]] = {}
    reasons: dict[str, str] = {}  # budget -> message, in the order first hit
    moved: _Moves = {}
    for node, depth in zip(order, depths):  # both grow as nodes are found: the breadth-first queue
        if steps is None:
            nexts = _successors(protocol, node, moved)
        else:
            nexts = steps.get(node)
            if nexts is None:
                nexts = steps[node] = tuple(_successors(protocol, node, moved))
        if nexts and limits.max_depth is not None and depth >= limits.max_depth:
            reasons.setdefault("depth", f"depth budget exceeded (max_depth={limits.max_depth})")
            nexts = ()
        succs: list[CanonicalConfig] = []
        for succ in nexts:
            known = found.get(succ)
            if known is None:
                if len(found) >= limits.max_nodes:
                    reasons.setdefault("node", f"node budget exceeded (max_nodes={limits.max_nodes})")
                    continue
                known = found[succ] = succ
                order.append(succ)
                depths.append(depth + 1)
            succs.append(known)
        edges[node] = tuple(succs)
    return ReachGraph(edges, truncation_reason="; ".join(reasons.values()) or None)


def _successors(
    protocol: Protocol, node: CanonicalConfig, moved: _Moves
) -> dict[CanonicalConfig, None]:
    """The nodes reached by one enabled instance from node, each once, in the
    order in which firing the instances of its representative (rule
    position, then d, then e) first reaches them.

    Equal columns sit next to each other and form a class. Swapping two
    colors of a class fixes the configuration, so an instance's successor
    depends only on its rule and on the classes of d and e. The first
    instance of a rule with d in class c and e in class c2 takes the first
    color of each class (for e, the second one when c2 is c), and these
    first instances come in the order of (c, c2). Trying the classes in that
    order therefore meets each successor where firing meets it first.

    The column rewrites are memoised in moved (see :func:`_moved`) for one
    exploration.

    These class loops are kept apart from :func:`core._candidates` and
    :func:`core._apply` on purpose (measured on CPython 3.11.7, 2 cores):
    feeding both from one shared pair enumerator made ``explore`` on the
    count4 5/5 start take 0.29 s instead of 0.22 s, and storing
    configurations as per-colour columns, so that firing and :func:`_moved`
    share one rewrite, slowed the seeded scheduler by 8-21 %.
    """
    firsts: list[int] = []  # per class: its first color
    sizes: list[int] = []  # per class: its number of colors
    counts: list[dict[StateId, int]] = []  # per class: its column as a map
    at: dict[StateId, list[int]] = {}  # state -> the classes holding it, ascending
    previous = None
    for color, column in enumerate(node):
        if column == previous:
            sizes[-1] += 1
            continue
        previous = column
        for q, _ in column:
            at.setdefault(q, []).append(len(firsts))
        firsts.append(color)
        sizes.append(1)
        counts.append(dict(column))

    out: dict[CanonicalConfig, None] = {}
    for rule in protocol.rules_within(frozenset(at)):
        p, p2 = rule.pre
        if rule.guard is Guard.EQ:
            need = 2 if p == p2 else 1
            for c in at[p]:
                if counts[c].get(p2, 0) >= need:
                    columns = list(node)
                    d = firsts[c]
                    columns[d] = _moved(moved, node[d], rule.pre, rule.post)
                    columns.sort()
                    out[CanonicalConfig(columns)] = None
        else:
            take, give = (p,), (rule.post[0],)
            take2, give2 = (p2,), (rule.post[1],)
            for c in at[p]:
                for c2 in at[p2]:
                    if c == c2 and sizes[c] < 2:
                        continue
                    columns = list(node)
                    d, e = firsts[c], firsts[c2] + (c == c2)
                    columns[d] = _moved(moved, node[d], take, give)
                    columns[e] = _moved(moved, node[e], take2, give2)
                    columns.sort()
                    out[CanonicalConfig(columns)] = None
    return out


def _moved(
    moved: _Moves, column: Column, take: tuple[StateId, ...], give: tuple[StateId, ...]
) -> Column:
    """column after one agent leaves each state of take and one enters each
    state of give, memoised in moved."""
    key = (column, take, give)
    after = moved.get(key)
    if after is None:
        left = dict(column)
        for q in take:
            left[q] -= 1
        for q in give:
            left[q] = left.get(q, 0) + 1
        after = moved[key] = tuple(sorted((q, n) for q, n in left.items() if n))
    return after


def _strongly_connected(edges: Mapping[Hashable, Iterable[Hashable]]) -> list[list[Hashable]]:
    """Iterative Tarjan over an adjacency map, starting from its keys in
    order; components come out in reverse topological order."""
    index: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    on_stack: set[Hashable] = set()
    stack: list[Hashable] = []
    components: list[list[Hashable]] = []
    for start in edges:
        if start in index:
            continue
        index[start] = low[start] = len(index)
        stack.append(start)
        on_stack.add(start)
        work: list[tuple[Hashable, Iterator]] = [(start, iter(edges[start]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(edges[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:  # every successor of v is done
                work.pop()
                if low[v] == index[v]:  # v roots a component: pop it off the stack
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    on_stack.difference_update(component)
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return components


def bottom_sccs(graph: ReachGraph) -> list[frozenset[CanonicalConfig]]:
    """Strongly connected components with no edge leaving the component.

    A deadlock node is a singleton bottom component. Requires a complete
    graph; truncated input raises :class:`TruncatedGraph`.
    """
    if graph.truncated:
        raise TruncatedGraph(graph.truncation_reason)
    bottoms: list[frozenset[CanonicalConfig]] = []
    for component in _strongly_connected(graph.edges):
        members = frozenset(component)
        if all(w in members for v in component for w in graph.edges[v]):
            bottoms.append(members)
    return bottoms


def opinions(protocol: Protocol, configs: Iterable[Configuration | CanonicalConfig]) -> set[int]:
    """The opinions present in these configurations: the outputs of their
    active states."""
    return {protocol.output[q] for config in configs for q in config.active_states()}


class Verdict(Enum):
    OUT0 = "Out0"
    OUT1 = "Out1"
    NO_OUTPUT = "NoOutput"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class OutputClass:
    """A verdict, the reason for an Unknown one, and, for a NoOutput verdict
    from :func:`classify_graph`, the bottom component that decides it: the
    first one with mixed opinions, or else the first one unanimous for 0."""

    verdict: Verdict
    reason: str | None = None
    component: frozenset[CanonicalConfig] | None = field(default=None, compare=False)

    def describe(self) -> str:
        if self.verdict is Verdict.UNKNOWN:
            return f"Unknown({self.reason})"
        return self.verdict.value


def classify_graph(protocol: Protocol, graph: ReachGraph) -> OutputClass:
    """Verdict for a fully explored graph; Unknown when it is truncated."""
    if graph.truncated:
        return OutputClass(Verdict.UNKNOWN, graph.truncation_reason)
    first_with: dict[int, frozenset[CanonicalConfig]] = {}
    for component in bottom_sccs(graph):
        values = opinions(protocol, component)
        if len(values) != 1:
            return OutputClass(Verdict.NO_OUTPUT, component=component)
        first_with.setdefault(values.pop(), component)
    if set(first_with) == {0}:
        return OutputClass(Verdict.OUT0)
    if set(first_with) == {1}:
        return OutputClass(Verdict.OUT1)
    return OutputClass(Verdict.NO_OUTPUT, component=first_with.get(0))


def classify_output(
    protocol: Protocol, start: Configuration, limits: ExplorationLimits
) -> OutputClass:
    """Stable-consensus verdict for one start configuration.

    Out0/Out1 when every reachable bottom component is unanimous for the same
    opinion, NoOutput otherwise, Unknown when exploration hit a budget.
    """
    if start.total() == 0:
        raise EmptyConfiguration("cannot classify an empty population")
    oc = classify_graph(protocol, explore(protocol, start, limits))
    # The deciding component means nothing without its graph, and a sweep
    # holding one per NoOutput start would keep their nodes alive.
    return OutputClass(oc.verdict, oc.reason)


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
        out = [f"{config} {oc.describe()}" for config, oc in self.entries]
        out.append(f"verdict: {self.verdict}")
        return out


def check_well_specification(
    protocol: Protocol, max_agents: int, max_colors: int, limits: ExplorationLimits
) -> WellSpecReport:
    """Classify every canonical initial configuration within the bounds.

    Each start is explored and classified on its own, under its own budget,
    and the entries come in signature order per agent count, exactly as
    :func:`classify_output` would give them one by one. The explorations of
    the starts with one sorted colour histogram share a successor table
    (see :func:`explore`), built for this protocol only and dropped when the
    last of those starts is done: firing keeps each colour's agent count, so
    starts of different histograms never meet, and one table per histogram
    class keeps memory to the largest class.
    """
    if max_agents < 1:
        raise ValueError("max_agents must be at least 1")
    entries: list[tuple[CanonicalConfig, OutputClass]] = []
    for n in range(1, max_agents + 1):
        starts = enumerate_initial_configs(protocol, n, max_colors)
        classes: dict[tuple[int, ...], list[CanonicalConfig]] = {}
        for canon in starts:
            histogram = tuple(sorted(sum(count for _, count in column) for column in canon))
            classes.setdefault(histogram, []).append(canon)
        by_start: dict[CanonicalConfig, OutputClass] = {}
        for members in classes.values():
            steps: dict[CanonicalConfig, tuple[CanonicalConfig, ...]] = {}
            for canon in members:
                graph = explore(protocol, canon.representative(), limits, steps=steps)
                oc = classify_graph(protocol, graph)
                by_start[canon] = OutputClass(oc.verdict, oc.reason)  # no component, as in classify_output
        entries += [(canon, by_start[canon]) for canon in starts]
    verdicts = {oc.verdict for _, oc in entries}
    if Verdict.NO_OUTPUT in verdicts:
        verdict = VERDICT_WITNESS
    elif Verdict.UNKNOWN in verdicts:
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict = VERDICT_BOUNDED_OK
    return WellSpecReport(tuple(entries), verdict)


def random_fair_run(
    protocol: Protocol, start: Configuration, seed: int, max_steps: int
) -> Trace:
    """Uniform-random scheduling with a seeded generator.

    Each step draws one index uniformly over the enabled instances in the
    order of :func:`enabled_instances` and builds only that instance. On a
    finite reachable set this sampling is fair with probability one. Stops at
    a deadlock or after max_steps; fully reproducible from the seed.
    """
    rng = random.Random(seed)
    steps: list[tuple] = []
    current = start
    for _ in range(max_steps):
        rows = _candidates(protocol, current)
        if not rows:
            break
        instance = TransitionInstance(*rows[rng.randrange(len(rows))])
        current = fire(protocol, current, instance)
        steps.append((instance, current))
    return Trace(start, tuple(steps))


def _path_into(
    graph: ReachGraph, source: CanonicalConfig, targets: frozenset[CanonicalConfig]
) -> list[CanonicalConfig] | None:
    """Breadth-first: a shortest node path of at least one edge from source
    into targets, or None if there is none."""
    parent: dict[CanonicalConfig, CanonicalConfig | None] = {source: None}
    queue: deque[CanonicalConfig] = deque([source])
    while queue:
        node = queue.popleft()
        for succ in graph.edges[node]:
            if succ in targets:
                path = [succ, node]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            if succ not in parent:
                parent[succ] = node
                queue.append(succ)
    return None


def shortest_path(
    graph: ReachGraph, source: CanonicalConfig, targets: frozenset[CanonicalConfig]
) -> list[CanonicalConfig] | None:
    """Shortest node path from source into targets, or None if unreachable."""
    return [source] if source in targets else _path_into(graph, source, targets)


def cycle_through(graph: ReachGraph, node: CanonicalConfig) -> list[CanonicalConfig] | None:
    """A shortest nonempty cycle node -> ... -> node, or None when there is none."""
    return _path_into(graph, node, frozenset([node]))


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
