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
when every reachable bottom component is unanimous for the same b.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations_with_replacement, groupby

from .core import (
    Configuration,
    Protocol,
    StateId,
    Trace,
    TransitionInstance,
    UdppError,
    _candidates,
    enabled_instances,
    fire,
)
from .graph import (
    CanonicalConfig,
    Column,
    Packed,
    ReachGraph,
    TruncatedGraph,
    _bottoms,
    _packing,
    _successors,
    bottom_sccs,
    canonicalize,
    cycle_through,
    shortest_path,
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
    start: Configuration,
    limits: ExplorationLimits,
    *,
    steps: dict[Packed, tuple[Packed, ...]] | None = None,
) -> ReachGraph:
    """Breadth-first closure of canonical forms under all enabled instances.

    Successors come from :func:`graph._successors`, which steps packed
    signatures directly over the protocol's one packing and its memos; each
    node's successors are in the order in which firing the enabled instances
    of its representative first reaches them. A start holding a state that
    the protocol does not name raises :class:`UdppError`.

    Hitting a budget flags the graph as truncated instead of raising; the
    partial graph still records every edge between discovered, expanded nodes.

    steps, when given, is a successor table that several explorations share:
    a packed node's packed successors are read from it, and computed and
    stored on a miss. An entry always holds the node's full successor tuple;
    the budgets trim what this exploration keeps, never what the table holds.
    An entry is a function of the protocol and the node alone, so a table
    may be shared only between explorations of one protocol. Firing keeps
    every colour's agent count, so only starts with the same sorted colour
    histogram can meet a common node; sharing a table beyond them only grows
    it.
    """
    packing = _packing(protocol)
    unknown = start.active_states() - packing.ranks.keys()
    if unknown:
        raise UdppError(f"start holds states the protocol does not name: {', '.join(sorted(unknown))}")
    root = packing.encode(canonicalize(start))
    found: dict[Packed, int] = {root: 0}  # node -> its id
    order: list[Packed] = [root]  # id -> node
    depths: list[int] = [0]  # depths[i] is the depth of order[i]
    offsets, targets = array("q", [0]), array("q")
    link = targets.append
    reasons: dict[str, str] = {}  # budget -> message, in the order first hit
    for node, depth in zip(order, depths):  # both grow as nodes are found: the breadth-first queue
        if steps is None:
            nexts = _successors(packing, node)
        else:
            nexts = steps.get(node)
            if nexts is None:
                nexts = steps[node] = tuple(_successors(packing, node))
        if nexts and limits.max_depth is not None and depth >= limits.max_depth:
            reasons.setdefault("depth", f"depth budget exceeded (max_depth={limits.max_depth})")
            nexts = ()
        for succ in nexts:
            known = found.get(succ)
            if known is None:
                if len(order) >= limits.max_nodes:
                    reasons.setdefault("node", f"node budget exceeded (max_nodes={limits.max_nodes})")
                    continue
                known = found[succ] = len(order)
                order.append(succ)
                depths.append(depth + 1)
            link(known)
        offsets.append(len(targets))
    return ReachGraph._explored(order, offsets, targets, packing, "; ".join(reasons.values()) or None)


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
    first_with: dict[int, list[int]] = {}
    for component in _bottoms(graph):
        values = _outputs(protocol, graph._states_at(component))
        if len(values) != 1:
            return OutputClass(Verdict.NO_OUTPUT, component=frozenset(map(graph._node, component)))
        first_with.setdefault(values.pop(), component)
    if set(first_with) == {0}:
        return OutputClass(Verdict.OUT0)
    if set(first_with) == {1}:
        return OutputClass(Verdict.OUT1)
    deciding = first_with.get(0)
    members = None if deciding is None else frozenset(map(graph._node, deciding))
    return OutputClass(Verdict.NO_OUTPUT, component=members)


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
            steps: dict[Packed, tuple[Packed, ...]] = {}
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
