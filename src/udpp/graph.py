"""Orbit graphs in a packed, integer form.

An orbit node is a configuration up to color renaming, a
:class:`CanonicalConfig`. The explorer steps a packed form of it, written
over a state -> rank table and a table of interned column ids that each
protocol builds once (:class:`_Packing`): a packed node is a sorted tuple
of column ids. A :class:`ReachGraph` numbers its nodes in discovery order
and keeps its edges in compressed sparse rows, so that Tarjan's algorithm
and the path searches run on ints. A node is decoded to a CanonicalConfig
only when it is read. This module is the only one that reads or writes
packed columns or column ids: the explorer gets packed successors from
:func:`_successors` (or ids from a :class:`_Table`) and the one opinion
pass, :func:`_components`, a bottom component's states from
:meth:`_Packing.states`. :mod:`udpp.exploration` re-exports the public
names.
"""

from __future__ import annotations

from array import array
from bisect import bisect
from collections import deque
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping

from .core import _EQ, Configuration, Protocol, StateId, _positions_within

Column = tuple[tuple[StateId, int], ...]
# A packed column is the flat int tuple (rank, count, rank, count, ...) of a
# column, a packed node the tuple of its interned column ids sorted by id
# (see _Packing).
Packed = tuple[int, ...]


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
        return self._text(_column_text)

    def _text(self, column_text: Callable[[Column], str]) -> str:
        """The text form, with each column written by column_text."""
        return "+".join(map(column_text, self)) if self else "{}"


def _column_text(column: Column) -> str:
    return "{" + ",".join(f"{q}:{n}" for q, n in column) + "}"


def canonicalize(config: Configuration) -> CanonicalConfig:
    """Canonical form; invariant under any bijective recoloring."""
    per_color: dict[int, list[tuple[StateId, int]]] = {}
    for (state, color), count in config.items():
        per_color.setdefault(color, []).append((state, count))
    return CanonicalConfig(sorted(tuple(column) for column in per_color.values()))


class _Packing:
    """A protocol in the explorer's integer form, one per protocol (see
    :func:`_packing`).

    Each state gets its rank among the sorted names of the protocol's
    states: the declared and initial ones and those its rules name. A column
    packs to the flat tuple (rank, count, rank, count, ...); ranks follow
    the names, so packed columns sort as their decoded forms do. Each packed
    column is interned once: ``columns[i]`` is the packed column with id i
    and ``ids`` maps a packed column to its id, giving the next id on first
    lookup. A node packs to its column ids sorted by id, so packed nodes do
    not sort as their signatures do; :func:`_successors` sorts a node's ids
    by column when it expands it, and :meth:`decode` sorts the columns.

    A move takes one agent from each state of a sorted tuple and gives one
    to each state of another; ``moves[key]`` is the (take, give) pair of a
    move. A rule packs, once and when first used, to (kind, p, p', key,
    key'): an EQ rule moves both agents of one column at once (key' is key),
    a NEQ rule the agent at p by key and the one at p' by key'. Role order
    does not matter to an EQ move, so role-permuted EQ rules share one key.
    The kind of a NEQ rule tells whether the agent at p, the one at p', or
    both keep their states (a move whose take is its give), so that
    :func:`_successors` steps such a rule once per class of the agent that
    moves.

    A rule's effect is its EQ move key, or the unordered pair of its NEQ
    move keys. A rule whose effect an earlier rule already has packs to
    False and is left out of :meth:`rules_within`: the earlier rule has the
    same pre-states, so it is in every active set the later one is in, and
    it reaches each of the later rule's successors first (see
    :func:`_successors`). The scheduler's :func:`core._candidates` keeps
    every rule. Every memo here, the interned columns, their rewrites and
    the column -> id memo that :meth:`encode` reads included, lives as long
    as the protocol. The packing holds the protocol's rules and pre-state
    index, not the protocol, which holds the packing.
    """

    def __init__(self, protocol: Protocol) -> None:
        named = {q for rule in protocol.rules for q in (*rule.pre, *rule.post)}
        self.rules, self._by_pre = protocol.rules, protocol._positions_by_pre
        self.names = sorted(named.union(protocol.states, protocol.initial))
        self.ranks = {q: r for r, q in enumerate(self.names)}
        self.moves: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self._keys: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}  # move -> its key
        self._rules: dict[int, tuple[int, int, int, int, int] | bool] = {}  # by rule position
        self._effects: set[int | frozenset[int]] = set()  # the effects of the rules packed so far
        self._within: dict[frozenset[int], tuple[tuple[int, int, int, int, int], ...]] = {}
        self.columns: list[tuple[int, ...]] = []  # id -> packed column
        names, ranks, moves, columns = self.names, self.ranks, self.moves, self.columns

        def intern(column: tuple[int, ...]) -> int:
            columns.append(column)
            return len(columns) - 1

        # No memo's fill reaches the packing or a memo that reaches the fill,
        # so a packing is freed without the cycle collector.
        self.ids = ids = _Lazy(intern)  # packed column -> id
        self.rewrites = _Lazy(lambda i: _Rewrites(columns[i], moves, ids))  # id -> its column's rewrites
        self._decoded = _Lazy(lambda i: tuple(zip(map(names.__getitem__, columns[i][::2]), columns[i][1::2])))
        self._column_ids = _Lazy(lambda column: ids[tuple(x for q, n in column for x in (ranks[q], n))])

    def rules_within(self, active: frozenset[int]) -> tuple[tuple[int, int, int, int, int], ...]:
        """The packed rules whose two pre-states are ranked in active, in
        position order and without a repeated effect, memoised per active
        set; a miss asks :func:`core._positions_within` for the
        positions."""
        rules = self._within.get(active)
        if rules is None:
            positions = _positions_within(self._by_pre, (self.names[r] for r in active))
            rules = self._within[active] = tuple(filter(None, map(self._packed, positions)))
        return rules

    def _packed(self, position: int) -> tuple[int, int, int, int, int] | bool:
        """The packed rule at position, or False when an earlier rule has
        its effect. Positions are packed in ascending order within an active
        set, so the earlier rule is always packed first."""
        packed = self._rules.get(position)
        if packed is None:
            rule = self.rules[position]
            (p, p2), (q, q2) = [self.ranks[s] for s in rule.pre], [self.ranks[s] for s in rule.post]
            if rule.guard is _EQ:
                kind = _EQ_MOVE
                key = key2 = effect = self._key((tuple(sorted((p, p2))), tuple(sorted((q, q2)))))
            else:
                kind = _NEQ_BOTH + (p == q) + 2 * (p2 == q2)
                key, key2 = self._key(((p,), (q,))), self._key(((p2,), (q2,)))
                effect = frozenset((key, key2))
            if effect in self._effects:
                packed = False
            else:
                self._effects.add(effect)
                packed = (kind, p, p2, key, key2)
            self._rules[position] = packed
        return packed

    def _key(self, move: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
        key = self._keys.get(move)
        if key is None:
            key = self._keys[move] = len(self.moves)
            self.moves.append(move)
        return key

    def encode(self, canon: CanonicalConfig) -> Packed:
        """canon packed, one memo lookup per column; a state without a rank
        raises KeyError and leaves the memo as it was."""
        return tuple(sorted(map(self._column_ids.__getitem__, canon)))

    def decode(self, node: Packed) -> CanonicalConfig:
        return CanonicalConfig(sorted(map(self._decoded.__getitem__, node)))

    def states(self, nodes: list[Packed], ids: Iterable[int]) -> set[StateId]:
        """The states active at the packed nodes ``nodes[v]`` for v in ids, read off by rank."""
        columns = self.columns
        ranks = {r for i in {i for v in ids for i in nodes[v]} for r in columns[i][::2]}
        return set(map(self.names.__getitem__, ranks))


# The kinds of packed rule (see _Packing): an EQ rule, and a NEQ rule in
# which both agents move, only the agent at p' moves, only the agent at p
# moves, or neither does; a NEQ rule's kind is _NEQ_BOTH + (p keeps) +
# 2 * (p' keeps).
_EQ_MOVE, _NEQ_BOTH, _NEQ_SECOND, _NEQ_FIRST, _NEQ_NONE = range(5)


class _Lazy(dict):
    """key -> fill(key), computed on first lookup; a fill that raises adds
    no entry."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _packing(protocol: Protocol) -> _Packing:
    """protocol's packing, built on first use and kept by the protocol."""
    held = protocol._packing_slot
    if not held:
        held.append(_Packing(protocol))
    return held[0]


class ReachGraph:
    """Forward closure over canonical forms, as :func:`exploration.explore`
    builds it: nodes 0, 1, ... in discovery order, so the start, expanded
    first, is node 0, and node v's successors are the node ids
    ``targets[offsets[v]:offsets[v + 1]]``, in edge order.

    Without a truncation reason the node set is closed under firing and
    deadlocked nodes are exactly those without successors. With one, some
    node went unexpanded and no closure property holds.

    Node v is ``keys[v]`` packed by ``packing``. It is decoded to a
    :class:`CanonicalConfig` on read: :meth:`_node` decodes it on each call,
    and ``edges`` decodes every node once and slices each successor tuple
    from one tuple of edge heads, so its keys and successor tuples share
    node objects. The analyses and the path search run on ids and
    decode nothing.
    """

    __slots__ = ("truncation_reason", "_keys", "_offsets", "_targets", "_packing", "_edges")

    def __init__(
        self, keys: list[Packed], offsets: array, targets: array, packing: _Packing, truncation_reason: str | None
    ) -> None:
        self._keys, self._offsets, self._targets, self._packing = keys, offsets, targets, packing
        self.truncation_reason = truncation_reason
        self._edges: dict | None = None

    def _node(self, v: int) -> CanonicalConfig:
        return self._packing.decode(self._keys[v])

    def _successors(self, v: int) -> array:
        return self._targets[self._offsets[v] : self._offsets[v + 1]]

    @property
    def edges(self) -> Mapping[CanonicalConfig, tuple[CanonicalConfig, ...]]:
        """node -> its successors, in discovery order."""
        if self._edges is None:
            nodes = list(map(self._packing.decode, self._keys))
            heads = tuple(map(nodes.__getitem__, self._targets))  # every edge's head, in edge order
            offsets = self._offsets
            self._edges = {node: heads[offsets[v] : offsets[v + 1]] for v, node in enumerate(nodes)}
        return self._edges

    @property
    def nodes(self) -> tuple[CanonicalConfig, ...]:
        return tuple(self.edges)

    @property
    def truncated(self) -> bool:
        return self.truncation_reason is not None

    def __len__(self) -> int:
        return len(self._keys)


class _Rewrites(dict):
    """move key -> the id of one packed column after that move (see
    :class:`_Packing`), or False when the column lacks an agent to take;
    computed on first lookup, in one pass over a list copy of the column,
    and interned through ids. Every take comes before any give, so a give
    never stands in for a missing agent; a rank given anew goes in at its
    sorted position, as :func:`core._apply` sorts."""

    def __init__(
        self, column: tuple[int, ...], moves: list[tuple[tuple[int, ...], tuple[int, ...]]], ids: Mapping
    ) -> None:
        super().__init__()
        self.column, self.moves, self.ids = column, moves, ids

    def __missing__(self, key: int) -> int | bool:
        take, give = self.moves[key]
        out = list(self.column)
        for r in take:
            ranks = out[::2]
            if r not in ranks:
                self[key] = False
                return False
            i = 2 * ranks.index(r)
            if out[i + 1] == 1:
                del out[i : i + 2]
            else:
                out[i + 1] -= 1
        if take == give:
            after = self.column
        else:
            for r in give:
                ranks = out[::2]
                if r in ranks:
                    out[2 * ranks.index(r) + 1] += 1
                else:
                    i = 2 * bisect(ranks, r)
                    out[i:i] = (r, 1)
            after = tuple(out)
        i = self[key] = self.ids[after]
        return i


def _successors(packing: _Packing, node: Packed) -> dict[Packed, None]:
    """The packed nodes reached by one enabled instance from node, each
    once, in the order in which firing the instances of its representative
    (rule position, then d, then e) first reaches them.

    Equal columns form a class. Swapping two colors of a class fixes the
    configuration, so an instance's successor depends only on its rule and
    on the classes of d and e. The representative gives the colors to the
    classes in column order, so the node's distinct ids are sorted by their
    packed columns once per call. The first instance of a rule with d in
    class c and e in class c2 takes the first color of each class (for e,
    the second one when c2 is c), and these first instances come in the
    order of (c, c2). Trying the classes in that order therefore meets each
    successor where firing meets it first. A successor replaces the ids of
    the classes that moved and sorts the ids again.

    A NEQ rule in which one agent keeps its state reaches one successor per
    class of the agent that moves; the keeping agent's class only decides
    whether the pair is valid and, when e moves, when a successor is first
    met. When the agent at p' moves, the pass at d's first class c0 meets
    every class of e but c0 itself when c0 has one color; that successor is
    met at d's second class, after all the others. A NEQ rule in which both
    agents keep their states reaches the node itself, once, if some pair is
    valid.

    The packed rule list leaves out each rule whose effect an earlier rule
    has (see :class:`_Packing`). The earlier rule is in the list whenever
    the later one would be, and its instances reach every successor of the
    later rule's at a smaller rule position, so the result and its order
    are what the full list gives.

    A class is one tuple, listed under each rank its column holds: its
    column's rewrites, fetched once from the packing's memo, which the
    protocol keeps, keyed by the packed rules' move keys (see
    :class:`_Packing`); the position of its first id in node; and whether
    it has two colors or more. Two classes are told apart by identity.

    These class loops are kept apart from :func:`core._candidates` and
    :func:`core._apply` on purpose: both merges measured slower (ROADMAP,
    north-star item 2).
    """
    columns, memo = packing.columns, packing.rewrites
    at: dict[int, list[tuple[_Rewrites, int, bool]]] = {}  # rank -> the classes holding it, in column order
    for i in sorted(set(node), key=columns.__getitem__):
        # a class: its column's rewrites, the position of its first id in node, whether it has two colors
        cls = (memo[i], node.index(i), node.count(i) > 1)
        for r in columns[i][::2]:
            at.setdefault(r, []).append(cls)

    out: dict[Packed, None] = {}
    for kind, p, p2, key, key2 in packing.rules_within(frozenset(at)):
        if kind == _EQ_MOVE:
            for rewrites, first, _ in at[p]:
                after = rewrites[key]
                if after is not False:
                    ids = list(node)
                    ids[first] = after
                    ids.sort()
                    out[tuple(ids)] = None
        elif kind == _NEQ_SECOND:  # the agent at p keeps its state: one successor per class of e
            cs = at[p]
            c0 = cs[0]
            late = None
            for c2 in at[p2]:
                if c2 is c0 and not c0[2]:
                    if len(cs) > 1:
                        late = c2
                    continue
                ids = list(node)
                ids[c2[1]] = c2[0][key2]
                ids.sort()
                out[tuple(ids)] = None
            if late is not None:
                ids = list(node)
                ids[late[1]] = late[0][key2]
                ids.sort()
                out[tuple(ids)] = None
        elif kind == _NEQ_NONE:  # both agents keep their states: the node itself, if some pair is valid
            cs, c2s = at[p], at[p2]
            if len(cs) > 1 or len(c2s) > 1 or cs[0] is not c2s[0] or cs[0][2]:
                out[node] = None
        elif kind == _NEQ_BOTH:
            for c in at[p]:
                rewrites, d, pair = c
                after = rewrites[key]
                for c2 in at[p2]:
                    if c2 is c and not pair:
                        continue
                    ids = list(node)
                    ids[d] = after
                    ids[c2[1] + (c2 is c)] = c2[0][key2]
                    ids.sort()
                    out[tuple(ids)] = None
        else:  # the agent at p' keeps its state: one successor per class of d
            c2s = at[p2]
            for c in at[p]:
                if c[2] or len(c2s) > 1 or c2s[0] is not c:
                    ids = list(node)
                    ids[c[1]] = c[0][key]
                    ids.sort()
                    out[tuple(ids)] = None
    return out


class _Table(dict):
    """A successor table over ids for explorations of one protocol to share
    (see :func:`exploration.explore`): packed node -> its id, given on first
    lookup; ``nodes[v]`` is node v and ``succs[v]`` the ids of its full
    successor tuple, or None until some exploration expands it."""

    __slots__ = ("packing", "nodes", "succs")

    def __init__(self, protocol: Protocol) -> None:
        super().__init__()
        self.packing = _packing(protocol)
        self.nodes: list[Packed] = []
        self.succs: list[tuple[int, ...] | None] = []

    def __missing__(self, node: Packed) -> int:
        v = self[node] = len(self.nodes)
        self.nodes.append(node)
        self.succs.append(None)
        return v

    def expand(self, v: int) -> tuple[int, ...]:
        succs = self.succs[v]
        if succs is None:
            succs = self.succs[v] = tuple(map(self.__getitem__, _successors(self.packing, self.nodes[v])))
        return succs

    def expanded(self, v: int) -> tuple[int, ...]:
        assert self.succs[v] is not None, "a complete exploration left a node unexpanded"
        return self.succs[v]


def _components(
    successors: Callable[[int], Iterable[int]], n: int, roots: Iterable[int], weigh: Callable[[list[int]], int]
) -> list[int]:
    """Iterative Tarjan over the nodes that roots reach, in the graph on
    nodes 0, 1, ..., n - 1 where successors(v) gives v's successors. It
    completes components in reverse topological order and gives each a
    mask: weigh(members), below 4, for a bottom component (one no edge
    leaves), else the union of the masks of the components its edges enter.
    Returns per node its component's mask with bit 4 set, or 0 if unreached.

    The one opinion pass: :func:`exploration.classify_graph` runs it on a
    graph from node 0, the sweep on a :class:`_Table` from its complete
    starts' roots; weigh meets the bottom components in completion order.

    A node whose component is complete gets the index ``done``, above every
    live one, so one comparison tells an edge back into the stack from an
    edge into a complete component, whose mask (bit 4 included) it takes
    up, as does a tree edge to a child that roots its own component. Other
    members pass what they took up to their parents, so a component's root
    sees bit 4 exactly when an edge leaves the component.
    """
    done = n
    index = [-1] * n
    low = [0] * n
    reach = [0] * n  # live: the masks v's subtree took up; complete: v's component mask | 4
    stack: list[int] = []
    visited = 0
    for start in roots:
        if index[start] >= 0:
            continue
        index[start] = low[start] = visited
        visited += 1
        stack.append(start)
        work: list[tuple[int, Iterator[int]]] = [(start, iter(successors(start)))]
        while work:
            v, it = work[-1]
            for w in it:
                i = index[w]
                if i < 0:
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    work.append((w, iter(successors(w))))
                    break
                if i < low[v]:
                    low[v] = i
                elif i == done:
                    reach[v] |= reach[w]
            else:  # every successor of v is done
                work.pop()
                if low[v] == index[v]:  # pop v's component off the stack
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    mask = reach[v] or weigh(component) | 4
                    for w in component:
                        index[w] = done
                        reach[w] = mask
                if work:
                    parent = work[-1][0]
                    reach[parent] |= reach[v]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return reach


def _path_into(graph: ReachGraph, start: int, ends: Collection[int]) -> list[int] | None:
    """Breadth-first over node ids, parents in a flat array: a shortest id
    path of at least one edge from start into ends, or None if there is
    none."""
    parent = array("q", [-1]) * len(graph)
    parent[start] = start
    queue: deque[int] = deque([start])
    while queue:
        v = queue.popleft()
        for w in graph._successors(v):
            if w in ends:
                path = [w, v]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                return path[::-1]
            if parent[w] < 0:
                parent[w] = v
                queue.append(w)
    return None
