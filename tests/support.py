"""Shared builders and independent oracles for the test suite.

The oracles deliberately re-derive results through a different route than
the library (labeled exploration instead of canonical forms, pairwise
reachability instead of Tarjan) so that agreement is meaningful.
"""

from __future__ import annotations

import random
from array import array
from collections import deque
from functools import cache
from itertools import chain, combinations_with_replacement
from pathlib import Path

from udpp.core import (
    ColorId,
    Configuration,
    Guard,
    ParseError,
    Protocol,
    Rule,
    StateId,
    Trace,
    TransitionInstance,
    enabled_instances,
    fire,
)
from udpp.counter import CounterMachine, Dec, Goto, Halt, Inc
from udpp.exploration import (
    VERDICT_BOUNDED_OK,
    VERDICT_INCONCLUSIVE,
    VERDICT_WITNESS,
    CanonicalConfig,
    ExplorationLimits,
    ReachGraph,
    Verdict,
    WellSpecReport,
    canonicalize,
    classify_output,
    enumerate_initial_configs,
)
from udpp.formats import parse_machine
from udpp.graph import _components
from udpp.reduction import build_witness, compile_machine

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def seesaw_protocol() -> Protocol:
    """Two states, two rules, never settles from mixed-color starts."""
    recruit = Rule(("p", "q"), Guard.NEQ, ("q", "q"), label="recruit")
    bounce = Rule(("q", "q"), Guard.EQ, ("p", "q"), label="bounce")
    return Protocol.make(
        states=("p", "q"),
        rules=(recruit, bounce),
        initial=("p", "q"),
        output={"p": 0, "q": 1},
    )


RED, BLUE = 0, 1


def seesaw_configs() -> tuple[Configuration, Configuration, Configuration]:
    """The three-agent start and the two configurations its run cycles through."""
    c0 = Configuration({("p", RED): 2, ("q", BLUE): 1})
    c1 = Configuration({("p", RED): 1, ("q", RED): 1, ("q", BLUE): 1})
    c2 = Configuration({("q", RED): 2, ("q", BLUE): 1})
    return c0, c1, c2


def random_protocol(
    rng: random.Random, max_states: int = 4, max_rules: int = 3, names: tuple[str, ...] | None = None
) -> Protocol:
    """A random protocol on the states s0, s1, ..., or on a random selection
    of names, declared in random order, when names are given."""
    if names is None:
        states = tuple(f"s{i}" for i in range(rng.randint(1, max_states)))
    else:
        states = tuple(rng.sample(names, rng.randint(1, min(max_states, len(names)))))
    n = len(states)
    rules = []
    for _ in range(rng.randint(0, max_rules)):
        pre = (rng.choice(states), rng.choice(states))
        post = (rng.choice(states), rng.choice(states))
        guard = rng.choice((Guard.EQ, Guard.NEQ))
        rules.append(Rule(pre, guard, post))
    initial = rng.sample(states, rng.randint(1, n))
    output = {q: rng.randint(0, 1) for q in states}
    return Protocol.make(states, rules, initial, output)


def rule_effect(rule: Rule) -> tuple:
    """What firing the rule does, by state names: an EQ rule takes its
    pre-states and gives its post-states as multisets; a NEQ rule makes two
    one-agent moves, in either role order."""
    if rule.guard is Guard.EQ:
        return (Guard.EQ, tuple(sorted(rule.pre)), tuple(sorted(rule.post)))
    return (Guard.NEQ, frozenset(zip(rule.pre, rule.post)))


def with_repeated_effects(rng: random.Random, protocol: Protocol, extra: int = 4) -> Protocol:
    """protocol with up to extra rules added at random positions, each with
    the effect of some rule it holds or adds: a copy that differs only in
    label, a NEQ rule with its roles swapped, an EQ rule with its pre- or
    post-states permuted; or a fresh catalyst rule (an agent keeps its
    state) or an 'any' rule's EQ and NEQ halves, added so that later
    additions can repeat them."""
    rules = list(protocol.rules)
    states = protocol.states
    for _ in range(rng.randint(1, extra)):
        kind = rng.choice(("label", "swap", "permute", "catalyst", "any"))
        if kind in ("catalyst", "any") or not rules:
            pre = (rng.choice(states), rng.choice(states))
            post = (rng.choice(states), rng.choice(states))
            if kind == "catalyst":
                post = (pre[0], post[1]) if rng.random() < 0.5 else (post[0], pre[1])
                added = [Rule(pre, rng.choice((Guard.EQ, Guard.NEQ)), post)]
            else:
                added = [Rule(pre, Guard.EQ, post), Rule(pre, Guard.NEQ, post)]
        else:
            base = rng.choice(rules)
            (p, p2), (q, q2) = base.pre, base.post
            if kind == "label":
                added = [Rule(base.pre, base.guard, base.post, label=f"copy{len(rules)}")]
            elif kind == "swap" or base.guard is Guard.NEQ:
                added = [Rule((p2, p), base.guard, (q2, q))]
            else:
                pre, post = rng.choice((((p2, p), (q, q2)), ((p, p2), (q2, q)), ((p2, p), (q2, q))))
                added = [Rule(pre, Guard.EQ, post)]
        for rule in added:
            rules.insert(rng.randint(0, len(rules)), rule)
    return Protocol.make(states, rules, protocol.initial, protocol.output)


def fresh_copy(protocol: Protocol) -> Protocol:
    """An equal protocol that carries none of the original's memos."""
    return Protocol.make(protocol.states, protocol.rules, protocol.initial, protocol.output)


@cache
def compiled_witness(sample: str, k: int) -> tuple[Protocol, Configuration]:
    """The protocol compiled from the counter machine in samples/<sample>
    and that machine's witness start for k."""
    machine = parse_machine((SAMPLES / sample).read_text(encoding="utf-8"))
    return compile_machine(machine), build_witness(machine, k)


def random_config(
    rng: random.Random,
    states,
    max_agents: int = 3,
    max_colors: int = 3,
    min_agents: int = 1,
) -> Configuration:
    pool = sorted(states)
    counts: dict[tuple[str, int], int] = {}
    for _ in range(rng.randint(min_agents, max_agents)):
        key = (rng.choice(pool), rng.randrange(max_colors))
        counts[key] = counts.get(key, 0) + 1
    return Configuration(counts)


def random_machine(rng: random.Random, max_len: int = 6) -> CounterMachine:
    n = rng.randint(1, max_len)
    instrs = []
    for position in range(1, n + 1):
        kinds = ("goto", "halt") if position == n else ("inc", "dec", "goto", "halt")
        kind = rng.choice(kinds)
        if kind == "inc":
            instrs.append(Inc(rng.choice(("x", "y"))))
        elif kind == "dec":
            instrs.append(Dec(rng.choice(("x", "y")), rng.randint(1, n)))
        elif kind == "goto":
            instrs.append(Goto(rng.randint(1, n)))
        else:
            instrs.append(Halt())
    return CounterMachine(tuple(instrs))


def apply_color_map(config: Configuration, mapping: dict[int, int]) -> Configuration:
    return Configuration({(q, mapping[d]): n for (q, d), n in config.items()})


def random_color_bijection(rng: random.Random, colors, spare: int = 3) -> dict[int, int]:
    """A bijection on a superset of the given colors."""
    domain = sorted(set(colors) | set(range(spare)))
    image = domain[:]
    rng.shuffle(image)
    return dict(zip(domain, image))


def brute_force_bottom_components(nodes, successors) -> set[frozenset]:
    """Bottom SCCs by pairwise reachability; quadratic and proud of it."""
    node_list = list(nodes)
    reach: dict = {}
    for u in node_list:
        seen = {u}
        queue = deque([u])
        while queue:
            v = queue.popleft()
            for w in successors(v):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        reach[u] = seen
    bottoms: set[frozenset] = set()
    for u in node_list:
        if all(u in reach[v] for v in reach[u]):
            bottoms.add(frozenset(reach[u]))
    return bottoms


class _Itself:
    """A stand-in packing for graphs built here: a node packs and decodes to
    itself, and its states are its own active states."""

    @staticmethod
    def encode(node):
        return node

    decode = encode

    @staticmethod
    def states(nodes: list, ids) -> set[StateId]:
        return {q for v in ids for q in nodes[v].active_states()}


def graph_of(edges, truncation_reason: str | None = None) -> ReachGraph:
    """The ReachGraph of an edges mapping (node -> its successors; the keys,
    in order, are the nodes), keeping the nodes as they are."""
    keys = list(edges)
    ids = {node: i for i, node in enumerate(keys)}
    offsets, targets = array("q", [0]), array("q")
    for node in keys:
        targets.extend(ids[w] for w in edges[node])
        offsets.append(len(targets))
    return ReachGraph(keys, offsets, targets, _Itself(), truncation_reason)


def bottom_sccs(graph: ReachGraph) -> list[frozenset]:
    """The bottom components of a complete graph as node sets, in the order
    Tarjan's pass from the nodes in order completes them; a deadlock node is
    a singleton one."""
    assert not graph.truncated, graph.truncation_reason
    bottoms: list[list[int]] = []
    _components(graph._successors, len(graph), range(len(graph)), lambda component: bottoms.append(component) or 0)
    return [frozenset(map(graph._node, component)) for component in bottoms]


def bottom_component_verdict(protocol: Protocol, graph: ReachGraph) -> tuple[Verdict, frozenset | None]:
    """The verdict of a complete graph by the rule over all its bottom
    components, and the deciding one: Out b when every one is unanimous for
    b, else NoOutput, decided by the first mixed one, or else by the first
    one unanimous for 0."""
    components = bottom_sccs(graph)
    values = [{protocol.output[q] for node in component for q in node.active_states()} for component in components]
    for b, verdict in ((0, Verdict.OUT0), (1, Verdict.OUT1)):
        if all(v == {b} for v in values):
            return verdict, None
    mixed = [component for component, v in zip(components, values) if len(v) == 2]
    return Verdict.NO_OUTPUT, (mixed or [c for c, v in zip(components, values) if v == {0}])[0]


def raw_output_verdict(protocol: Protocol, start: Configuration, node_cap: int = 100_000) -> str:
    """Consensus verdict over the labeled (non-canonicalized) state space.

    Explores concrete configurations with colors kept distinct, finds the
    bottom components by pairwise reachability, and reads off the verdict.
    Returns "Out0", "Out1", or "NoOutput".
    """
    successors: dict[Configuration, list[Configuration]] = {}
    queue = deque([start])
    while queue:
        config = queue.popleft()
        if config in successors:
            continue
        nexts = []
        for instance in full_scan_enabled_instances(protocol, config):
            nexts.append(fire(protocol, config, instance))
        successors[config] = nexts
        for nxt in nexts:
            if nxt not in successors:
                queue.append(nxt)
        if len(successors) > node_cap:
            raise AssertionError("oracle exploration exceeded its node cap")
    opinions = set()
    for component in brute_force_bottom_components(successors, lambda c: successors[c]):
        values = {protocol.output[q] for cfg in component for q in cfg.active_states()}
        if len(values) != 1:
            return "NoOutput"
        opinions.add(values.pop())
    if opinions == {0}:
        return "Out0"
    if opinions == {1}:
        return "Out1"
    return "NoOutput"


def dedup_initial_configs(protocol: Protocol, n: int, k: int) -> list[CanonicalConfig]:
    """Canonical starts by generate-and-deduplicate: every coloured multiset
    of n agents over the initial states and min(n, k) colours, canonicalized,
    deduplicated and sorted by signature."""
    kinds = [(q, c) for c in range(min(n, k)) for q in sorted(protocol.initial)]
    seen: dict[CanonicalConfig, None] = {}
    for combo in combinations_with_replacement(kinds, n):
        counts: dict[tuple[str, int], int] = {}
        for kind in combo:
            counts[kind] = counts.get(kind, 0) + 1
        seen.setdefault(canonicalize(Configuration(counts)), None)
    return sorted(seen)


def full_scan_enabled_instances(
    protocol: Protocol, config: Configuration
) -> list[TransitionInstance]:
    """Every enabled instance by scanning every rule, with one loop per guard
    case, ordered by rule position, then d, then e."""
    colors_at: dict[StateId, list[ColorId]] = {}
    for (state, color), _count in config.items():
        colors_at.setdefault(state, []).append(color)  # sorted, items are sorted

    found: list[TransitionInstance] = []
    for rule in protocol.rules:
        p, p2 = rule.pre
        ds = colors_at.get(p)
        es = colors_at.get(p2)
        if not ds or not es:
            continue
        if rule.guard is Guard.EQ:
            if p == p2:
                for d in ds:
                    if config[(p, d)] >= 2:
                        found.append(TransitionInstance(rule, d, d))
            else:
                for d in ds:
                    if config[(p2, d)] >= 1:
                        found.append(TransitionInstance(rule, d, d))
        else:
            for d in ds:
                for e in es:
                    if d != e:
                        found.append(TransitionInstance(rule, d, e))
    return found


def list_pick_fair_run(protocol: Protocol, start: Configuration, seed: int, max_steps: int) -> Trace:
    """The seeded scheduler that lists every enabled instance with the full
    scan, indexes the list with one uniform draw, then fires the pick."""
    rng = random.Random(seed)
    steps: list[tuple] = []
    current = start
    for _ in range(max_steps):
        options = full_scan_enabled_instances(protocol, current)
        if not options:
            break
        instance = options[rng.randrange(len(options))]
        current = fire(protocol, current, instance)
        steps.append((instance, current))
    return Trace(start, tuple(steps))


def bfs_shortest_path(graph: ReachGraph, source, targets: frozenset):
    """Shortest node path from source into targets, or None if unreachable;
    [source] when source is itself a target."""
    if source in targets:
        return [source]
    parent: dict = {}
    queue = deque([source])
    seen = {source}
    while queue:
        node = queue.popleft()
        for succ in graph.edges[node]:
            if succ in seen:
                continue
            parent[succ] = node
            if succ in targets:
                path = [succ]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                return list(reversed(path))
            seen.add(succ)
            queue.append(succ)
    return None


def per_successor_cycle(graph: ReachGraph, node):
    """A shortest nonempty cycle node -> ... -> node, found by one search back
    to node from each successor in edge order; the first shortest wins."""
    best = None
    for succ in graph.edges[node]:
        back = bfs_shortest_path(graph, succ, frozenset([node]))
        if back is not None and (best is None or 1 + len(back) < len(best)):
            best = [node] + back
    return best


def fire_canonicalize_explore(
    protocol: Protocol, start: Configuration, limits: ExplorationLimits
) -> ReachGraph:
    """Breadth-first closure of canonical forms that fires every enabled
    instance of each node's representative and canonicalizes the result,
    with the same budgets, edge order and truncation reasons as explore."""
    root = canonicalize(start)
    depth: dict[CanonicalConfig, int] = {root: 0}
    order: list[CanonicalConfig] = [root]
    edges: dict[CanonicalConfig, tuple[CanonicalConfig, ...]] = {}
    reasons: dict[str, str] = {}
    for node in order:
        rep = node.representative()
        instances = enabled_instances(protocol, rep)
        if instances and limits.max_depth is not None and depth[node] >= limits.max_depth:
            reasons.setdefault("depth", f"depth budget exceeded (max_depth={limits.max_depth})")
            instances = []
        succs: dict[CanonicalConfig, None] = {}
        for inst in instances:
            succ = canonicalize(fire(protocol, rep, inst))
            if succ not in depth:
                if len(depth) >= limits.max_nodes:
                    reasons.setdefault("node", f"node budget exceeded (max_nodes={limits.max_nodes})")
                    continue
                depth[succ] = depth[node] + 1
                order.append(succ)
            succs[succ] = None
        edges[node] = tuple(succs)
    return graph_of(edges, "; ".join(reasons.values()) or None)


def per_start_sweep(
    protocol: Protocol, max_agents: int, max_colors: int, limits: ExplorationLimits
) -> WellSpecReport:
    """The bounded sweep with one table-free classify_output per start, in
    signature order per agent count, and the same overall call. Each start
    runs on a fresh copy of the protocol, so it shares none of the memos
    that the sweep under test keeps on the protocol."""
    entries = tuple(
        (canon, classify_output(fresh_copy(protocol), canon.representative(), limits))
        for n in range(1, max_agents + 1)
        for canon in enumerate_initial_configs(protocol, n, max_colors)
    )
    verdicts = {oc.verdict for _, oc in entries}
    if Verdict.NO_OUTPUT in verdicts:
        verdict = VERDICT_WITNESS
    elif Verdict.UNKNOWN in verdicts:
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict = VERDICT_BOUNDED_OK
    return WellSpecReport(entries, verdict)


def reference_config_text(config: CanonicalConfig) -> str:
    """A canonical configuration's text, written column by column."""
    if not config:
        return "{}"
    return "+".join("{" + ",".join(f"{q}:{n}" for q, n in column) + "}" for column in config)


def reference_rewrite(column: tuple[int, ...], take: tuple[int, ...], give: tuple[int, ...]) -> tuple[int, ...] | bool:
    """A packed column (rank, count, ...) after taking one agent from each
    rank of take and giving one to each rank of give, through a count dict
    sorted afresh; False when the column lacks an agent to take. This is
    the column rewrite that copied and sorted on every fill."""
    counts = dict(zip(column[::2], column[1::2]))
    for r in take:
        left = counts.get(r, 0)
        if not left:
            return False
        counts[r] = left - 1
    for r in give:
        counts[r] = counts.get(r, 0) + 1
    for r in take:
        if counts.get(r) == 0:
            del counts[r]
    return tuple(chain.from_iterable(sorted(counts.items())))


# The trace round trip that checked and formatted every line anew, kept as
# the reference for the one that checks and formats each distinct agent
# line once per call.


def _reference_content_lines(text: str):
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line.split()


def _reference_add_agent_line(counts: dict[tuple[str, int], int], number: int, tokens: list[str]) -> None:
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


def reference_parse_protocol(text: str) -> Protocol:
    """The protocol parser that read comment-stripped lines through a
    generator and checked a rule line's states one by one, kept as the
    reference for the one-pass reader."""
    guards_of = {"eq": (Guard.EQ,), "neq": (Guard.NEQ,), "any": (Guard.EQ, Guard.NEQ)}
    states: list[str] = []
    declared: set[str] = set()
    initial: list[str] = []
    output: dict[str, int] = {}
    rules: list[Rule] = []
    for number, tokens in _reference_content_lines(text):
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
            guards = guards_of.get(guard_token)
            if guards is None:
                raise ParseError(number, f"unknown guard '{guard_token}'")
            for guard in guards:
                rules.append(Rule((p, p2), guard, (q, q2)))
        else:
            raise ParseError(number, f"unknown directive '{keyword}'")
    return Protocol.make(states, rules, initial, output)


def reference_parse_configuration(text: str) -> Configuration:
    counts: dict[tuple[str, int], int] = {}
    for number, tokens in _reference_content_lines(text):
        _reference_add_agent_line(counts, number, tokens)
    return Configuration(counts)


def reference_format_configuration(config: Configuration) -> str:
    return "\n".join(f"agent {state} {color} {count}" for (state, color), count in config.items())


def reference_rule_names(protocol: Protocol) -> list[str]:
    """Each rule's label, unless it is missing, not one token, holds '#',
    repeats an earlier label or is in the set of every r<position> name;
    else r<position>."""
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


def reference_format_trace(protocol: Protocol, trace: Trace) -> str:
    name_of: dict[Rule, str] = {}
    for name, rule in zip(reference_rule_names(protocol), protocol.rules):
        name_of.setdefault(rule, name)
    chunks = [reference_format_configuration(trace.initial)]
    for instance, config in trace.steps:
        name = name_of.get(instance.rule, instance.rule.label or "unknown")
        chunks.append(f"fire {name} {instance.d} {instance.e}")
        chunks.append(reference_format_configuration(config))
    return "\n\n".join(chunks) + "\n"


def reference_parse_trace(protocol: Protocol, text: str) -> Trace:
    by_name = {f"r{position}": rule for position, rule in enumerate(protocol.rules)}
    by_name.update(zip(reference_rule_names(protocol), protocol.rules))
    # Counts are positive, so a block is empty exactly when no agent line
    # has been read into it.
    blocks: list[dict[tuple[str, int], int]] = [{}]
    fires: list[TransitionInstance] = []
    number = 0
    for number, tokens in _reference_content_lines(text):
        if tokens[0] == "agent":
            _reference_add_agent_line(blocks[-1], number, tokens)
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
