import gc
import hashlib
import random
import weakref
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from support import (
    apply_color_map,
    bfs_shortest_path,
    bottom_component_verdict,
    bottom_sccs,
    brute_force_bottom_components,
    compiled_witness,
    dedup_initial_configs,
    fire_canonicalize_explore,
    fresh_copy,
    graph_of,
    list_pick_fair_run,
    per_start_sweep,
    per_successor_cycle,
    random_color_bijection,
    random_config,
    random_protocol,
    raw_output_verdict,
    reference_config_text,
    reference_rewrite,
    rule_effect,
    seesaw_configs,
    seesaw_protocol,
    with_repeated_effects,
)
from udpp.core import Configuration, Guard, Protocol, Rule, Trace, UdppError
from udpp.exploration import (
    CanonicalConfig,
    EmptyConfiguration,
    ExplorationLimits,
    ReachGraph,
    Verdict,
    canonicalize,
    check_well_specification,
    classify_graph,
    classify_output,
    concretize_path,
    enumerate_initial_configs,
    explore,
    opinions,
    random_fair_run,
)
from udpp.formats import format_trace, parse_configuration, parse_machine, parse_protocol
from udpp.exploration import _class_verdicts
from udpp.graph import _packing, _path_into, _Rewrites, _Table
from udpp.reduction import RES1, RES2, certificate_verdict, compile_machine, tagged

LIMITS = ExplorationLimits(max_nodes=10_000)
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def test_canonicalize_is_renaming_invariant():
    a = Configuration({("p", 7): 2, ("q", 9): 1})
    b = Configuration({("p", 3): 2, ("q", 5): 1})
    assert canonicalize(a) == canonicalize(b)


def test_canonicalize_empty():
    assert canonicalize(Configuration()) == CanonicalConfig(())
    assert str(canonicalize(Configuration())) == "{}"


def test_canonical_config_is_its_column_tuple():
    canon = canonicalize(Configuration({("q", 9): 1, ("p", 7): 2, ("q", 7): 1}))
    columns = ((("p", 2), ("q", 1)), (("q", 1),))
    assert canon == columns and hash(canon) == hash(columns)
    assert CanonicalConfig(columns) == canon and {columns: 1}[canon] == 1
    assert str(canon) == "{p:2,q:1}+{q:1}"


def test_canonicalize_random_permutations():
    rng = random.Random(71)
    for _ in range(500):
        config = random_config(rng, ("p", "q", "r"), max_agents=5, max_colors=4)
        mapping = random_color_bijection(rng, (color for (_, color), _ in config.items()), spare=5)
        assert canonicalize(config) == canonicalize(apply_color_map(config, mapping))


def test_canonicalize_distinguishes_different_shapes():
    same_color = Configuration({("p", 0): 1, ("q", 0): 1})
    two_colors = Configuration({("p", 0): 1, ("q", 1): 1})
    assert canonicalize(same_color) != canonicalize(two_colors)


def test_representative_lies_in_the_orbit():
    rng = random.Random(13)
    for _ in range(100):
        config = random_config(rng, ("a", "b"), max_agents=4, max_colors=4)
        canon = canonicalize(config)
        assert canonicalize(canon.representative()) == canon
        assert canon.representative().total() == config.total()


def test_explore_seesaw_graph_exactly(seesaw, seesaw_runs):
    c0, c1, c2 = seesaw_runs
    graph = explore(seesaw, c0, LIMITS)
    n0, n1, n2 = canonicalize(c0), canonicalize(c1), canonicalize(c2)
    assert not graph.truncated
    assert graph.nodes[0] == n0
    assert set(graph.nodes) == {n0, n1, n2}
    assert graph.edges == {n0: (n1,), n1: (n2,), n2: (n1,)}


def test_explore_no_rules_single_node(seesaw_runs):
    protocol = Protocol.make(("p",), (), ("p",), {"p": 1})
    graph = explore(protocol, Configuration({("p", 0): 1}), LIMITS)
    assert len(graph) == 1 and graph.edges[graph.nodes[0]] == ()


def test_explore_reachable_set_bounded_by_assignments():
    rng = random.Random(29)
    for _ in range(20):
        protocol = random_protocol(rng)
        config = random_config(rng, protocol.states, max_agents=3, min_agents=3)
        graph = explore(protocol, config, LIMITS)
        assert not graph.truncated
        assert len(graph) <= len(protocol.states) ** 3


def test_explore_node_budget_truncates(seesaw, seesaw_runs):
    graph = explore(seesaw, seesaw_runs[0], ExplorationLimits(max_nodes=1))
    assert graph.truncated and "node budget" in graph.truncation_reason
    assert graph.nodes == tuple(graph.edges) and len(graph) == 1
    assert graph.truncated == (graph.truncation_reason is not None)


def test_explore_exact_budget_is_not_truncated(seesaw, seesaw_runs):
    graph = explore(seesaw, seesaw_runs[0], ExplorationLimits(max_nodes=3))
    assert not graph.truncated and len(graph) == 3
    assert graph.nodes == tuple(graph.edges)
    assert graph.truncated == (graph.truncation_reason is not None)


def test_explore_depth_budget_truncates(seesaw, seesaw_runs):
    graph = explore(seesaw, seesaw_runs[0], ExplorationLimits(max_nodes=100, max_depth=1))
    assert graph.truncated and "depth budget" in graph.truncation_reason
    assert graph.nodes == tuple(graph.edges) and len(graph) == 2
    assert graph.truncated == (graph.truncation_reason is not None)


def test_explore_depth_budget_spares_deadlocks():
    # a -> b in one step, then nothing is enabled: a depth budget of one
    # leaves nothing unexpanded, a budget of zero cuts the only edge
    rule = Rule(("a", "a"), Guard.EQ, ("b", "b"))
    protocol = Protocol.make(("a", "b"), (rule,), ("a",), {"a": 0, "b": 1})
    start = Configuration({("a", 0): 2})
    graph = explore(protocol, start, ExplorationLimits(max_depth=1))
    assert not graph.truncated and len(graph) == 2
    graph = explore(protocol, start, ExplorationLimits(max_depth=0))
    assert graph.truncation_reason == "depth budget exceeded (max_depth=0)"
    assert graph.edges == {graph.nodes[0]: ()}


def _same_as_oracle(protocol, start, limits):
    """explore agrees with the fire-and-canonicalize oracle on the root, the
    truncation reason and every edge tuple, in order."""
    graph = explore(protocol, start, limits)
    oracle = fire_canonicalize_explore(protocol, start, limits)
    assert graph.nodes[0] == oracle.nodes[0]
    assert graph.truncation_reason == oracle.truncation_reason
    assert list(graph.edges.items()) == list(oracle.edges.items())
    return graph


def test_explore_matches_the_oracle_on_the_seesaw_starts(seesaw, seesaw_runs):
    sample = parse_protocol((SAMPLES / "seesaw.pp").read_text(encoding="utf-8"))
    start = parse_configuration((SAMPLES / "seesaw-init.cfg").read_text(encoding="utf-8"))
    _same_as_oracle(sample, start, LIMITS)
    for config in seesaw_runs:
        _same_as_oracle(seesaw, config, LIMITS)
    for n in range(1, 7):
        for canon in enumerate_initial_configs(seesaw, n, 4):
            _same_as_oracle(seesaw, canon.representative(), LIMITS)


def test_explore_matches_the_oracle_on_compiled_machines():
    protocol, _ = compiled_witness("count4.cm", 4)
    r1, r2 = tagged(RES1, "R1"), tagged(RES2, "R2")
    start = Configuration({(r1, 0): 5, **{(r2, color): 1 for color in range(5)}})
    graph = _same_as_oracle(protocol, start, ExplorationLimits())
    assert len(graph) == 2457 and sum(map(len, graph.edges.values())) == 12316
    protocol, witness = compiled_witness("halt.cm", 1)
    graph = _same_as_oracle(protocol, witness, ExplorationLimits(max_nodes=2000))
    assert len(graph) == 2000 and graph.truncation_reason == "node budget exceeded (max_nodes=2000)"


def test_explore_interns_every_successor_as_its_node_key():
    # on the complete graph and on graphs cut by either budget
    protocol, _ = compiled_witness("count4.cm", 4)
    r1, r2 = tagged(RES1, "R1"), tagged(RES2, "R2")
    start = Configuration({(r1, 0): 5, **{(r2, color): 1 for color in range(5)}})
    for limits, reason, edges in (
        (ExplorationLimits(), None, 12316),
        (ExplorationLimits(max_nodes=500), "node budget exceeded (max_nodes=500)", 1516),
        (ExplorationLimits(max_depth=4), "depth budget exceeded (max_depth=4)", 194),
    ):
        graph = explore(protocol, start, limits)
        keys = {node: node for node in graph.edges}
        succs = [succ for row in graph.edges.values() for succ in row]
        assert graph.truncation_reason == reason and len(keys) == len(graph) and len(succs) == edges
        assert all(type(succ) is CanonicalConfig and succ is keys[succ] for succ in succs)


def test_explore_matches_the_oracle_on_random_protocols():
    rng = random.Random(167)
    by_nodes = by_depth = 0
    for _ in range(600):
        protocol = random_protocol(rng, max_states=4, max_rules=5)
        start = random_config(rng, protocol.states, max_agents=6, max_colors=4)
        _same_as_oracle(protocol, start, ExplorationLimits())
        limits = ExplorationLimits(max_nodes=rng.randint(1, 6))
        by_nodes += _same_as_oracle(protocol, start, limits).truncated
        limits = ExplorationLimits(max_depth=rng.randint(0, 3))
        by_depth += _same_as_oracle(protocol, start, limits).truncated
    assert min(by_nodes, by_depth) >= 100


def test_an_explored_protocol_is_freed_without_the_cycle_collector(seesaw_runs):
    # the protocol caches its packed form, which must not point back at it,
    # and whose memos must not point back at each other
    protocol = seesaw_protocol()
    graph = explore(protocol, seesaw_runs[0], LIMITS)
    assert classify_graph(protocol, graph).verdict is Verdict.NO_OUTPUT
    alive, packing = weakref.ref(protocol), weakref.ref(_packing(protocol))
    gc.disable()
    try:
        del protocol, graph
        assert alive() is None and packing() is None
    finally:
        gc.enable()


# Sorted by name these read B, Zed, apple, s10, s9, Äpfel, ß, éclair: code
# points, so neither declaration order nor a natural or case-blind order.
TANGLED_NAMES = ("s9", "s10", "apple", "Zed", "B", "éclair", "Äpfel", "ß")


def test_explore_ranks_states_by_sorted_name_not_declaration_order():
    rng = random.Random(173)
    shuffled = by_nodes = by_depth = 0
    for _ in range(600):
        protocol = random_protocol(rng, max_states=6, max_rules=5, names=TANGLED_NAMES)
        shuffled += list(protocol.states) != sorted(protocol.states)
        start = random_config(rng, protocol.states, max_agents=6, max_colors=4)
        _same_as_oracle(protocol, start, ExplorationLimits())
        limits = ExplorationLimits(max_nodes=rng.randint(1, 6))
        by_nodes += _same_as_oracle(protocol, start, limits).truncated
        limits = ExplorationLimits(max_depth=rng.randint(0, 3))
        by_depth += _same_as_oracle(protocol, start, limits).truncated
    assert shuffled >= 400 and min(by_nodes, by_depth) >= 60


def test_a_start_state_the_protocol_does_not_name_is_rejected(seesaw, seesaw_runs):
    start = Configuration({**dict(seesaw_runs[0].items()), ("a", 1): 1, ("pz", 0): 2, ("pz", 2): 1})
    message = "^start holds states the protocol does not name: a, pz$"
    steps = _Table(seesaw)
    with pytest.raises(UdppError, match=message):
        explore(seesaw, start, LIMITS)
    with pytest.raises(UdppError, match=message):
        explore(seesaw, start, LIMITS, steps=steps)
    with pytest.raises(UdppError, match=message):
        classify_output(seesaw, start, LIMITS)
    assert steps == {} and steps.nodes == steps.succs == []
    explore(seesaw, seesaw_runs[0], LIMITS, steps=steps)
    # one packing per protocol, ranking its own states only
    assert seesaw._packing_slot == [_packing(seesaw)] and _packing(seesaw).names == ["p", "q"]


def test_an_unnamed_start_state_is_rejected_alike_on_a_cold_and_a_warm_encode_memo(seesaw):
    message = "^start holds states the protocol does not name: a, pz$"
    # one column the protocol names, one it does not, and one it names in part
    start = Configuration({("p", 0): 2, ("a", 1): 1, ("pz", 1): 2, ("q", 2): 1, ("pz", 2): 1})
    known = Configuration({("p", 0): 2, ("q", 1): 1, ("q", 2): 1})
    for warm in (False, True):
        protocol = fresh_copy(seesaw)
        packing = _packing(protocol)
        memo = packing._column_ids
        if warm:
            for n in range(1, 4):
                for canon in enumerate_initial_configs(protocol, n, 3):
                    explore(protocol, canon, LIMITS)
            assert len(memo) >= 9
        before, interned = dict(memo), list(packing.columns)
        for given in (start, canonicalize(start)):
            with pytest.raises(UdppError, match=message):
                explore(protocol, given, LIMITS)
            with pytest.raises(UdppError, match=message):
                explore(protocol, given, LIMITS, steps=_Table(protocol))
        # a failed fill adds no entry and interns nothing; the columns the protocol names may stay
        assert before.items() <= memo.items() and packing.columns[: len(interned)] == interned
        assert all(packing._decoded[i] == column for column, i in memo.items())
        assert all({q for q, _ in column} <= {"p", "q"} for column in memo)
        assert _same_as_oracle(protocol, known, LIMITS).nodes[0] == canonicalize(known)


def test_a_successor_table_serves_only_its_own_protocol(seesaw, seesaw_runs):
    table = _Table(seesaw)
    with pytest.raises(ValueError, match="^the successor table belongs to another protocol$"):
        explore(fresh_copy(seesaw), seesaw_runs[0], LIMITS, steps=table)
    assert table == {} and table.nodes == table.succs == []


def test_a_state_without_an_output_is_an_error_on_every_path():
    states = ("p", "q", "z")
    rules = (Rule(("p", "p"), Guard.EQ, ("z", "z")), Rule(("p", "q"), Guard.NEQ, ("q", "q")))
    protocol = Protocol.make(states, rules, ("p", "q"), {"p": 0, "q": 1})
    start = Configuration({("p", 0): 2, ("q", 1): 1})
    graph = explore(protocol, start, LIMITS)
    message = "^state 'z' has no output value$"
    copy = fresh_copy(protocol)
    plain = graph_of(graph.edges)  # a graph of decoded nodes
    for owner, g in ((protocol, graph), (copy, graph), (protocol, plain)):
        with pytest.raises(UdppError, match=message):
            classify_graph(owner, g)
    with pytest.raises(UdppError, match=message):
        opinions(protocol, graph.nodes)
    deadlock = Configuration({("z", 0): 2, ("q", 1): 1})
    with pytest.raises(UdppError, match=message):
        certificate_verdict(protocol, Trace(deadlock, ()))


def test_explorations_in_a_row_match_explorations_on_fresh_copies():
    # the memos one protocol keeps across explorations must not change a graph
    rng = random.Random(239)
    by_nodes = by_depth = 0
    for _ in range(200):
        protocol = random_protocol(rng, max_states=4, max_rules=5)
        for _ in range(4):
            start = random_config(rng, protocol.states, max_agents=6, max_colors=4)
            for limits in (
                ExplorationLimits(),
                ExplorationLimits(max_nodes=rng.randint(1, 6)),
                ExplorationLimits(max_depth=rng.randint(0, 3)),
            ):
                warm = explore(protocol, start, limits)
                cold = explore(fresh_copy(protocol), start, limits)
                # the edge mapping's keys are the nodes in discovery order
                assert list(warm.edges.items()) == list(cold.edges.items())
                assert warm.truncation_reason == cold.truncation_reason
                by_nodes += "max_nodes" in (warm.truncation_reason or "")
                by_depth += "max_depth" in (warm.truncation_reason or "")
    assert min(by_nodes, by_depth) >= 100


def _one_rule(rule: Rule, states=("p", "q", "r", "s", "t")) -> Protocol:
    return Protocol.make(states, (rule,), states, {q: 0 for q in states})


def test_neq_fires_inside_one_class_of_two_equal_columns():
    protocol = _one_rule(Rule(("p", "p"), Guard.NEQ, ("q", "r")))
    start = Configuration({("p", 0): 1, ("p", 1): 1})
    graph = _same_as_oracle(protocol, start, LIMITS)
    after = canonicalize(Configuration({("q", 0): 1, ("r", 1): 1}))
    assert graph.edges[graph.nodes[0]] == (after,)


def test_singleton_class_never_fires_neq_with_itself():
    protocol = _one_rule(Rule(("p", "q"), Guard.NEQ, ("r", "r")))
    start = Configuration({("p", 0): 1, ("q", 0): 1, ("s", 1): 1})
    graph = _same_as_oracle(protocol, start, LIMITS)
    assert graph.edges == {graph.nodes[0]: ()}


def test_eq_rule_with_one_pre_state_needs_two_agents_in_one_column():
    protocol = _one_rule(Rule(("p", "p"), Guard.EQ, ("q", "q")))
    spread = Configuration({("p", 0): 1, ("p", 1): 1})
    assert _same_as_oracle(protocol, spread, LIMITS).edges == {canonicalize(spread): ()}
    paired = Configuration({("p", 0): 2, ("p", 1): 1})
    graph = _same_as_oracle(protocol, paired, LIMITS)
    assert graph.edges[graph.nodes[0]] == (canonicalize(Configuration({("q", 0): 2, ("p", 1): 1})),)


def test_class_pairs_reaching_one_orbit_give_one_edge_at_the_first_pair():
    # classes A = {q} (colors 0, 1) and B = {q, r} (color 2); the rule moves
    # e from q to r, so the class pairs (A, A), (A, B), (B, A) reach X, Y, X
    protocol = _one_rule(Rule(("q", "q"), Guard.NEQ, ("q", "r")))
    start = Configuration({("q", 0): 1, ("q", 1): 1, ("q", 2): 1, ("r", 2): 1})
    x = canonicalize(Configuration({("q", 0): 1, ("r", 1): 1, ("q", 2): 1, ("r", 2): 1}))
    y = canonicalize(Configuration({("q", 0): 1, ("q", 1): 1, ("r", 2): 2}))
    graph = _same_as_oracle(protocol, start, ExplorationLimits(max_depth=1))
    assert graph.edges[graph.nodes[0]] == (x, y)


def test_limits_validation():
    with pytest.raises(ValueError, match="max_nodes must be at least 1"):
        ExplorationLimits(max_nodes=0)
    with pytest.raises(ValueError, match="max_depth must be non-negative"):
        ExplorationLimits(max_depth=-1)


def test_bottom_sccs_seesaw(seesaw, seesaw_runs):
    c0, c1, c2 = seesaw_runs
    graph = explore(seesaw, c0, LIMITS)
    assert bottom_sccs(graph) == [frozenset({canonicalize(c1), canonicalize(c2)})]


def test_bottom_sccs_deadlock_is_singleton():
    protocol = Protocol.make(("p",), (), ("p",), {"p": 1})
    graph = explore(protocol, Configuration({("p", 0): 1}), LIMITS)
    assert bottom_sccs(graph) == [frozenset({graph.nodes[0]})]


def _synthetic_graph(edges: dict) -> ReachGraph:
    return graph_of({k: tuple(v) for k, v in edges.items()})


def _random_digraph(rng: random.Random, max_nodes: int) -> dict[int, list[int]]:
    """Up to three distinct successors per node, in random order."""
    n = rng.randint(1, max_nodes)
    return {
        i: list(dict.fromkeys(rng.randrange(n) for _ in range(rng.randint(0, 3))))
        for i in range(n)
    }


def _explored_graphs(rng: random.Random, count: int) -> list[ReachGraph]:
    """Graphs of random protocols with at least four nodes."""
    graphs: list[ReachGraph] = []
    while len(graphs) < count:
        protocol = random_protocol(rng, max_states=3, max_rules=6)
        start = random_config(rng, protocol.states, max_agents=6, min_agents=3)
        graph = explore(protocol, start, LIMITS)
        if len(graph) >= 4:
            graphs.append(graph)
    return graphs


def _bottom_order_digest(graphs: list[ReachGraph]) -> str:
    """SHA-256 over each graph's bottom components, in output order, each
    given as the sorted positions of its members in graph.nodes."""
    digest = hashlib.sha256()
    for graph in graphs:
        position = {node: i for i, node in enumerate(graph.nodes)}
        components = [sorted(position[v] for v in c) for c in bottom_sccs(graph)]
        digest.update(repr(components).encode())
    return digest.hexdigest()


# Recorded with the Tarjan that took a successor callable, before it read the
# adjacency map. classify_graph reports the first mixed bottom component, so
# this order decides which evidence the CLI prints.
BOTTOM_ORDER_SHA256 = "2e629fc20131f0746ab5f6dbede1ca4d54d2e49582c5d5f4658978c0bb97a826"


def test_bottom_sccs_order_is_pinned():
    rng = random.Random(67)
    graphs = [_synthetic_graph(_random_digraph(rng, 25)) for _ in range(150)]
    graphs += _explored_graphs(random.Random(71), 50)
    assert sum(len(bottom_sccs(graph)) > 1 for graph in graphs) >= 100
    assert _bottom_order_digest(graphs) == BOTTOM_ORDER_SHA256


def _decoded(graph: ReachGraph, ids):
    """The nodes of an id path or component, None staying None."""
    return None if ids is None else type(ids)(map(graph._node, ids))


def test_path_helpers_match_the_per_successor_oracles():
    rng = random.Random(101)
    graphs = [_synthetic_graph(_random_digraph(rng, 25)) for _ in range(1000)]
    graphs += _explored_graphs(random.Random(103), 60)
    cycles = zero_hops = 0
    for graph in graphs:
        nodes = graph.nodes
        for v, node in enumerate(nodes):
            loop = _decoded(graph, _path_into(graph, v, (v,)))
            assert loop == per_successor_cycle(graph, node)
            cycles += loop is not None
            ends = frozenset(rng.sample(range(len(nodes)), rng.randint(1, min(3, len(nodes)))))
            path = [v] if v in ends else _path_into(graph, v, ends)  # the CLI's stem: no hop from inside
            assert _decoded(graph, path) == bfs_shortest_path(graph, node, _decoded(graph, ends))
            zero_hops += v in ends
    assert cycles >= 5000 and zero_hops >= 2000


def test_bottom_sccs_on_random_dags_are_sinks():
    rng = random.Random(59)
    for _ in range(50):
        n = rng.randint(1, 12)
        edges: dict[int, list[int]] = {}
        for i in range(n + 1):
            out: set[int] = set()
            if i < n:
                for _ in range(rng.randint(0, 3)):
                    out.add(rng.randint(i + 1, n))
            edges[i] = sorted(out)
        # edges only go upward, so the graph is acyclic and sinks are exactly
        # the bottom components
        graph = _synthetic_graph(edges)
        got = set(bottom_sccs(graph))
        sinks = {frozenset({v}) for v, out in edges.items() if not out}
        assert got == sinks
        assert got == brute_force_bottom_components(edges, lambda v: edges[v])


def test_bottom_sccs_match_brute_force_on_random_digraphs():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(1, 14)
        edges = {
            i: sorted({rng.randrange(n) for _ in range(rng.randint(0, 3))})
            for i in range(n)
        }
        graph = _synthetic_graph(edges)
        assert set(bottom_sccs(graph)) == brute_force_bottom_components(
            edges, lambda v: edges[v]
        )


def test_classify_seesaw_start_has_no_output(seesaw, seesaw_runs):
    assert classify_output(seesaw, seesaw_runs[0], LIMITS).verdict is Verdict.NO_OUTPUT


def test_classify_deadlocked_singleton_converges():
    protocol = Protocol.make(("p",), (), ("p",), {"p": 1})
    assert classify_output(protocol, Configuration({("p", 0): 1}), LIMITS).verdict is Verdict.OUT1


def test_classify_conflicting_settled_components_mean_no_output():
    # both branches settle, but on different opinions, so the start has none
    split = Protocol.make(
        ("a", "b", "c"),
        (
            Rule(("a", "a"), Guard.EQ, ("b", "b")),
            Rule(("a", "a"), Guard.EQ, ("c", "c")),
        ),
        ("a",),
        {"a": 0, "b": 0, "c": 1},
    )
    pair = Configuration({("a", 0): 2})
    assert classify_output(split, pair, LIMITS).verdict is Verdict.NO_OUTPUT
    assert raw_output_verdict(split, pair) == "NoOutput"


def test_classify_rejects_empty_population(seesaw):
    message = "^cannot classify an empty population$"
    with pytest.raises(EmptyConfiguration, match=message):
        classify_output(seesaw, Configuration(), LIMITS)
    graph = explore(seesaw, Configuration(), LIMITS)
    assert not graph.truncated and len(graph) == 1
    with pytest.raises(EmptyConfiguration, match=message):
        classify_graph(seesaw, graph)


def test_classify_unknown_when_truncated(seesaw, seesaw_runs):
    oc = classify_output(seesaw, seesaw_runs[0], ExplorationLimits(max_nodes=1))
    assert oc.verdict is Verdict.UNKNOWN and "node budget" in oc.reason
    assert oc.describe().startswith("Unknown(")


def test_classify_invariant_under_recoloring(seesaw):
    rng = random.Random(83)
    for _ in range(40):
        protocol = random_protocol(rng)
        config = random_config(rng, sorted(protocol.initial), max_agents=3)
        mapping = random_color_bijection(rng, (color for (_, color), _ in config.items()))
        a = classify_output(protocol, config, LIMITS)
        b = classify_output(protocol, apply_color_map(config, mapping), LIMITS)
        assert a.verdict == b.verdict


def test_classify_agrees_with_labeled_oracle_on_seesaw(seesaw):
    # all initial configurations with up to 4 agents, colors kept distinct
    for n in range(1, 5):
        for canon in enumerate_initial_configs(seesaw, n, n):
            start = canon.representative()
            got = classify_output(seesaw, start, LIMITS)
            assert got.describe() == raw_output_verdict(seesaw, start)


def test_classify_agrees_with_labeled_oracle_on_random_protocols():
    rng = random.Random(97)
    for _ in range(30):
        protocol = random_protocol(rng)
        config = random_config(rng, sorted(protocol.initial), max_agents=3)
        got = classify_output(protocol, config, LIMITS)
        assert got.describe() == raw_output_verdict(protocol, config)


def test_the_opinion_pass_matches_the_rule_over_every_bottom_component():
    # complete graphs only; the rule decides NoOutput on the first mixed
    # bottom component, else on the first one unanimous for 0
    rng = random.Random(131)
    seen = Counter()
    for _ in range(1500):
        protocol = random_protocol(rng, max_states=5, max_rules=10)
        start = random_config(rng, protocol.states, max_agents=4)
        graph = explore(protocol, start, LIMITS)
        assert not graph.truncated
        oc = classify_graph(protocol, graph)
        assert (oc.verdict, _decoded(graph, oc.component)) == bottom_component_verdict(protocol, graph)
        components = bottom_sccs(graph)  # the oracle reads them off the pass under test, so check them apart
        assert set(components) == brute_force_bottom_components(graph.nodes, graph.edges.__getitem__)
        seen[oc.verdict] += 1
        if oc.verdict is Verdict.NO_OUTPUT:
            opinions_of = [{protocol.output[q] for node in c for q in node.active_states()} for c in components]
            seen["decided by a unanimous one"] += {0, 1} not in opinions_of
            seen["several mixed ones"] += opinions_of.count({0, 1}) > 1
    protocol, _ = compiled_witness("count4.cm", 4)
    r1, r2 = tagged(RES1, "R1"), tagged(RES2, "R2")
    start = Configuration({(r1, 0): 5, **{(r2, color): 1 for color in range(5)}})
    graph = explore(protocol, start, ExplorationLimits())
    oc = classify_graph(protocol, graph)
    assert (oc.verdict, _decoded(graph, oc.component)) == bottom_component_verdict(protocol, graph)
    assert oc.verdict is Verdict.NO_OUTPUT and len(bottom_sccs(graph)) == 41
    assert min(seen.values()) >= 5, seen


def test_settled_verdicts_pin_every_bottom_component():
    rng = random.Random(101)
    checked = 0
    while checked < 25:
        protocol = random_protocol(rng)
        config = random_config(rng, sorted(protocol.initial), max_agents=3)
        graph = explore(protocol, config, LIMITS)
        oc = classify_output(protocol, config, LIMITS)
        if oc.verdict not in (Verdict.OUT0, Verdict.OUT1):
            continue
        want = {0} if oc.verdict is Verdict.OUT0 else {1}
        for component in bottom_sccs(graph):
            for node in component:
                assert {protocol.output[q] for q in node.active_states()} == want
        checked += 1


def test_enumerate_single_state_two_agents():
    protocol = Protocol.make(("p",), (), ("p",), {"p": 0})
    configs = enumerate_initial_configs(protocol, 2, 2)
    assert len(configs) == 2  # both agents share a color, or use two colors


def test_enumerate_two_states_one_agent_one_color(seesaw):
    assert len(enumerate_initial_configs(seesaw, 1, 1)) == 2


def test_enumerate_matches_brute_force_count(seesaw):
    from itertools import product

    brute = {
        canonicalize(Configuration(Counter(assignment)))
        for assignment in product(
            [(q, d) for q in ("p", "q") for d in (0, 1)], repeat=3
        )
    }
    assert len(enumerate_initial_configs(seesaw, 3, 2)) == len(brute)


def test_enumerate_matches_generate_and_deduplicate(seesaw):
    halt = compile_machine(parse_machine((SAMPLES / "halt.cm").read_text(encoding="utf-8")))
    cases = [(seesaw, n, k) for n in range(1, 9) for k in range(1, 5)]
    cases += [(halt, n, k) for n in range(1, 8) for k in range(1, 4)]
    rng = random.Random(211)
    for _ in range(30):
        protocol = random_protocol(rng, max_states=3)
        cases.append((protocol, rng.randint(1, 5), rng.randint(1, 4)))
    for protocol, n, k in cases:
        assert enumerate_initial_configs(protocol, n, k) == dedup_initial_configs(protocol, n, k)


def test_enumerate_only_initial_states():
    protocol = Protocol.make(("p", "q"), (), ("p",), {"p": 0, "q": 1})
    for canon in enumerate_initial_configs(protocol, 3, 2):
        assert canon.active_states() <= {"p"}


def test_enumerate_validates_arguments(seesaw):
    with pytest.raises(ValueError):
        enumerate_initial_configs(seesaw, 0, 1)
    with pytest.raises(ValueError):
        enumerate_initial_configs(seesaw, 1, 0)
    with pytest.raises(ValueError, match="max_agents must be at least 1"):
        check_well_specification(seesaw, 0, 1, LIMITS)


def test_sweep_seesaw_finds_the_witness(seesaw):
    report = check_well_specification(seesaw, 3, 2, LIMITS)
    assert report.verdict == "not-well-specified"
    bad = [c for c, oc in report.entries if oc.verdict is Verdict.NO_OUTPUT]
    assert canonicalize(seesaw_configs()[0]) in bad


def test_sweep_trivial_protocol_ok():
    protocol = Protocol.make(("p",), (), ("p",), {"p": 1})
    report = check_well_specification(protocol, 3, 2, LIMITS)
    assert report.verdict == "well-specified-up-to-bounds"
    assert all(oc.verdict is Verdict.OUT1 for _, oc in report.entries)


def test_sweep_two_agent_bound_classifies_everything(seesaw):
    report = check_well_specification(seesaw, 2, 2, LIMITS)
    expected = sum(
        len(enumerate_initial_configs(seesaw, n, 2)) for n in (1, 2)
    )
    assert len(report.entries) == expected
    assert all(oc.verdict is not Verdict.UNKNOWN for _, oc in report.entries)


def test_sweep_reports_inconclusive_when_budget_hit():
    # all states agree on output 1, but the one-node budget cannot classify
    # any start that has a successor, and no witness exists to settle it
    grower = Protocol.make(
        ("a", "b"),
        (Rule(("a", "a"), Guard.EQ, ("a", "b")), Rule(("a", "b"), Guard.EQ, ("a", "a"))),
        ("a",),
        {"a": 1, "b": 1},
    )
    report = check_well_specification(grower, 3, 2, ExplorationLimits(max_nodes=1))
    assert report.verdict == "inconclusive"
    assert report.lines()[-1] == "verdict: inconclusive"


def test_sweep_witness_dominates_budget_unknowns(seesaw):
    # a deadlocked mixed-opinion pair is found even at max_nodes=1, so the
    # sweep verdict is a definitive witness despite other entries being Unknown
    report = check_well_specification(seesaw, 3, 2, ExplorationLimits(max_nodes=1))
    assert report.verdict == "not-well-specified"
    verdicts = {oc.verdict for _, oc in report.entries}
    assert Verdict.UNKNOWN in verdicts and Verdict.NO_OUTPUT in verdicts


def _same_sweep(protocol, max_agents, max_colors, limits):
    report = check_well_specification(protocol, max_agents, max_colors, limits)
    oracle = per_start_sweep(protocol, max_agents, max_colors, limits)
    assert report.entries == oracle.entries
    assert report.verdict == oracle.verdict
    text = [f"{reference_config_text(config)} {oc.describe()}" for config, oc in oracle.entries]
    assert report.lines() == [*text, f"verdict: {oracle.verdict}"]
    return report


def test_sweep_matches_the_per_start_oracle_on_the_samples():
    sample = parse_protocol((SAMPLES / "seesaw.pp").read_text(encoding="utf-8"))
    report = _same_sweep(sample, 6, 4, ExplorationLimits())
    assert len(report.entries) == 246 and report.verdict == "not-well-specified"
    protocol, _ = compiled_witness("halt.cm", 1)
    report = _same_sweep(protocol, 4, 3, ExplorationLimits())
    assert len(report.entries) == 50 and report.verdict == "well-specified-up-to-bounds"


def test_sweep_matches_the_per_start_oracle_on_random_protocols():
    rng = random.Random(233)
    by_nodes = by_depth = 0  # cases where a budget left some start Unknown
    for _ in range(300):
        protocol = random_protocol(rng, max_states=3, max_rules=4)
        agents, colors = rng.randint(2, 3), rng.randint(2, 3)
        for max_nodes in (1, 5, 20, 100_000):
            report = _same_sweep(protocol, agents, colors, ExplorationLimits(max_nodes=max_nodes))
            by_nodes += any(oc.verdict is Verdict.UNKNOWN for _, oc in report.entries)
        report = _same_sweep(protocol, agents, colors, ExplorationLimits(max_depth=rng.randint(0, 2)))
        by_depth += any(oc.verdict is Verdict.UNKNOWN for _, oc in report.entries)
    assert min(by_nodes, by_depth) >= 90


def test_rules_with_a_repeated_effect_leave_only_the_packed_rule_lists():
    rng = random.Random(389)
    dropped = by_nodes = by_depth = 0
    for _ in range(300):
        protocol = with_repeated_effects(rng, random_protocol(rng, max_states=4, max_rules=4))
        rules = protocol.rules
        first: dict = {}  # effect -> the first position with it
        for position, rule in enumerate(rules):
            first.setdefault(rule_effect(rule), position)
        packing = _packing(protocol)
        for _ in range(4):
            active = frozenset(rng.sample(protocol.states, rng.randint(1, len(protocol.states))))
            got = packing.rules_within(frozenset(packing.ranks[q] for q in active))
            within = [i for i, rule in enumerate(rules) if rule.pre[0] in active and rule.pre[1] in active]
            kept = [i for i in within if first[rule_effect(rules[i])] == i]
            assert got == tuple(map(packing._packed, kept))
            assert all(packing._packed(i) is False for i in within if i not in kept)
            dropped += len(within) - len(kept)
        # the scheduler keeps every rule; the oracle fires them all
        start = random_config(rng, protocol.states, max_agents=5, max_colors=3)
        _same_as_oracle(protocol, start, ExplorationLimits())
        by_nodes += _same_as_oracle(protocol, start, ExplorationLimits(max_nodes=rng.randint(1, 6))).truncated
        by_depth += _same_as_oracle(protocol, start, ExplorationLimits(max_depth=rng.randint(0, 3))).truncated
        _same_sweep(protocol, 3, 2, ExplorationLimits())
    assert dropped >= 300 and min(by_nodes, by_depth) >= 50


def test_a_column_rewrite_matches_the_copy_and_sort_fill():
    rng = random.Random(71)
    ranks = range(6)
    takes = [(r,) for r in ranks] + list(combinations_with_replacement(ranks, 2))
    moves = [(take, give) for take in takes for give in takes if len(take) == len(give)]
    states = tuple(f"s{r}" for r in ranks)
    packing = _packing(Protocol.make(states, (), states, dict.fromkeys(states, 0)))  # ranks s0..s5 as 0..5
    cases = Counter()
    for _ in range(150):
        chosen = sorted(rng.sample(ranks, rng.randint(1, 4)))
        column = tuple(x for r in chosen for x in (r, rng.randint(1, 2)))  # the (rank, count, ...) form
        rewrites = _Rewrites(_agents(column), moves, packing.ids)
        for key, (take, give) in enumerate(moves):
            want = reference_rewrite(column, take, give)
            got = rewrites[key]
            assert (got if got is False else packing.pairs[got]) == want, (column, take, give)
            assert got is False or packing.ids[_agents(want)] == got
            counts = dict(zip(column[::2], column[1::2]))
            if take[0] == take[-1] and len(take) == 2 and take[0] in counts:
                cases["double take", counts[take[0]]] += 1
            if want and set(take) & set(give) and take != give:
                cases["give back"] += 1
            if want and min(give) < column[0]:
                cases["new lowest rank"] += 1
            if not want and all(counts.get(r, 0) + give.count(r) >= take.count(r) for r in take):
                cases["take only the give supplies"] += 1
    assert set(cases) == {
        ("double take", 1), ("double take", 2), "give back", "new lowest rank", "take only the give supplies"
    }


def _agents(column):
    """The packed multiset form of a (rank, count, ...) column: its agents' ranks, sorted."""
    return tuple(r for r, n in zip(column[::2], column[1::2]) for _ in range(n))


def _catalyst_protocol(rng):
    """A random protocol on s0, s1, s2 with every state initial, plus NEQ
    rules in which the first agent, the second or both keep their states,
    at random positions."""
    base = random_protocol(rng, max_states=3, max_rules=3)
    states = ("s0", "s1", "s2")
    rules = list(base.rules)
    for _ in range(rng.randint(1, 3)):
        pre = (rng.choice(states), rng.choice(states))
        moved = rng.choice(states)
        post = rng.choice(((pre[0], moved), (moved, pre[1]), pre))
        rules.insert(rng.randint(0, len(rules)), Rule(pre, Guard.NEQ, post))
    return Protocol.make(states, rules, states, {q: rng.randint(0, 1) for q in states})


def _catalyst_start(rng, rule, states):
    """A start with one class holding both pre-states of rule, on one or two
    colours, and zero to two more colours, which may hold the rule's
    pre-states too."""
    shared = Counter(rule.pre)
    shared[rng.choice(states)] += rng.randint(0, 1)
    copies = rng.randint(1, 2)
    counts = Counter({(q, color): n for color in range(copies) for q, n in shared.items()})
    for color in range(copies, copies + rng.randint(0, 2)):
        for _ in range(rng.randint(1, 2)):
            counts[rng.choice((*rule.pre, *states)), color] += 1
    return Configuration(counts)


def test_catalyst_and_no_op_rules_step_as_firing_does_on_random_protocols():
    # one agent keeps its state (a catalyst) or both do (a no-op); the agents
    # share a class of one colour or of two, the keeping state sits in one
    # class or in several
    rng = random.Random(523)
    cases = Counter()
    for _ in range(120):
        protocol = _catalyst_protocol(rng)
        kept = [rule for rule in protocol.rules if rule.guard is Guard.NEQ and rule.pre[0] == rule.post[0]]
        kept += [rule for rule in protocol.rules if rule.guard is Guard.NEQ and rule.pre[1] == rule.post[1]]
        for _ in range(3):
            rule = rng.choice(kept)
            start = _catalyst_start(rng, rule, protocol.states)
            canon = canonicalize(start)
            keeper = rule.pre[0] if rule.pre[0] == rule.post[0] else rule.pre[1]
            shared = [canon.count(column) for column in set(canon) if set(rule.pre) <= {q for q, _ in column}]
            holding = sum(keeper in dict(column) for column in set(canon))
            no_op = rule.pre == rule.post
            colours = "one colour" if min(shared) == 1 else "two colours or more"
            cases[no_op, colours, "keeper in several classes" if holding > 1 else "keeper in one class"] += 1
            _same_as_oracle(protocol, start, ExplorationLimits())
            cases["node budget hit"] += _same_as_oracle(
                protocol, start, ExplorationLimits(max_nodes=rng.randint(1, 8))
            ).truncated
            cases["depth budget hit"] += _same_as_oracle(
                protocol, start, ExplorationLimits(max_depth=rng.randint(0, 3))
            ).truncated
        limits = rng.choice([ExplorationLimits(), ExplorationLimits(max_nodes=rng.randint(1, 8))])
        _same_sweep(protocol, 3, 2, limits)
    assert len(cases) == 10 and min(cases.values()) >= 10, cases


def test_packed_nodes_are_canonical_whatever_order_their_columns_were_interned_in():
    rng = random.Random(617)
    interned_apart = 0
    for _ in range(40):
        protocol = random_protocol(rng, max_states=4, max_rules=4)
        starts = [random_config(rng, protocol.states, max_agents=5, max_colors=4) for _ in range(4)]
        graphs, orders = [], set()  # per copy: its decoded graphs; the orders its columns were interned in
        for order in (starts, starts[::-1], rng.sample(starts, len(starts))):
            copy = fresh_copy(protocol)
            packing = _packing(copy)
            for start in order:  # warm the memos in this order
                explore(copy, start, LIMITS)
            for _ in range(10):
                config = random_config(rng, protocol.states, max_agents=6, max_colors=4)
                recolored = apply_color_map(config, random_color_bijection(rng, [c for (_, c), _ in config.items()]))
                canon = canonicalize(config)
                assert packing.encode(canon) == packing.encode(canonicalize(recolored))
                assert packing.decode(packing.encode(canon)) == canon
            for start in starts:
                graph = explore(copy, start, LIMITS)
                assert all(packing.encode(packing.decode(key)) == key for key in graph._keys)
                graphs.append(list(graph.edges.items()))
            orders.add(tuple(packing.columns))
        interned_apart += len(orders) > 1
        # the decoded graphs do not depend on the order
        assert graphs[: len(starts)] == graphs[len(starts) : 2 * len(starts)] == graphs[2 * len(starts) :]
    assert interned_apart >= 20


def test_explorations_sharing_one_table_match_table_free_ones(seesaw):
    # one histogram class: six agents on colours carrying 1, 2 and 3 of them
    members = [
        canon
        for canon in enumerate_initial_configs(seesaw, 6, 4)
        if sorted(sum(n for _, n in column) for column in canon) == [1, 2, 3]
    ]
    largest = sorted(members, key=lambda c: -len(explore(seesaw, c.representative(), LIMITS)))
    random.Random(5).shuffle(members)
    # budgeted starts first, so that a trimmed entry would reach the full ones
    jobs = [
        (largest[0], ExplorationLimits(max_nodes=3), "node budget exceeded (max_nodes=3)"),
        (largest[1], ExplorationLimits(max_depth=1), "depth budget exceeded (max_depth=1)"),
    ] + [(canon, LIMITS, None) for canon in members]
    steps = _Table(seesaw)  # ids of packed nodes, decoded below
    decode = _packing(seesaw).decode
    expanded = set()
    for canon, limits, reason in jobs:
        shared = explore(seesaw, canon.representative(), limits, steps=steps)
        alone = explore(seesaw, canon.representative(), limits)
        assert list(shared.edges.items()) == list(alone.edges.items())
        assert shared.nodes[0] == alone.nodes[0] == canon
        assert shared.truncation_reason == alone.truncation_reason == reason
        nodes = list(map(decode, steps.nodes))
        assert all(steps[node] == v for v, node in enumerate(steps.nodes))
        if reason is None:  # an untrimmed graph shows every node's full entry
            table = {
                nodes[v]: tuple(nodes[w] for w in succs) for v, succs in enumerate(steps.succs) if succs is not None
            }
            assert all(table[node] == succs for node, succs in alone.edges.items())
            expanded.update(alone.edges)
    assert len(members) == 24 and set(table) == expanded


def _histogram_classes(protocol, n, k):
    classes = {}
    for canon in enumerate_initial_configs(protocol, n, k):
        classes.setdefault(tuple(sorted(sum(c for _, c in column) for column in canon)), []).append(canon)
    return list(classes.values())


def _per_start(protocol, starts, limits):
    return [classify_output(fresh_copy(protocol), canon.representative(), limits) for canon in starts]


def test_one_pass_per_class_matches_per_start_classification_on_random_protocols():
    # the starts of a class under one budget, in a random order, all in one table
    rng = random.Random(241)
    seen = Counter()
    for _ in range(400):
        protocol = random_protocol(rng, max_states=4, max_rules=5)
        for starts in _histogram_classes(protocol, rng.randint(2, 5), rng.randint(2, 3)):
            limits = rng.choice([ExplorationLimits(), ExplorationLimits(max_nodes=rng.randint(1, 6)),
                                 ExplorationLimits(max_depth=rng.randint(0, 3))])
            rng.shuffle(starts)
            got = _class_verdicts(protocol, starts, limits)
            assert got == _per_start(protocol, starts, limits)
            seen.update(oc.verdict for oc in got)
            seen["mixed classes"] += len({oc.verdict is Verdict.UNKNOWN for oc in got}) == 2
    assert min(seen.values()) >= 100, seen


def test_one_pass_gives_two_starts_on_one_cycle_their_verdicts(seesaw, seesaw_runs):
    c0, c1, c2 = map(canonicalize, seesaw_runs)  # c0 -> c1 -> c2 -> c1
    for starts in ([c1, c2], [c2, c1, c0]):
        got = _class_verdicts(seesaw, starts, LIMITS)
        assert got == _per_start(seesaw, starts, LIMITS) and {oc.verdict for oc in got} == {Verdict.NO_OUTPUT}


def test_a_complete_start_expands_what_a_truncated_one_only_discovered(seesaw, seesaw_runs):
    c0, c1, c2 = starts = list(map(canonicalize, seesaw_runs))
    limits = ExplorationLimits(max_nodes=2)
    table = _Table(seesaw)
    encode = _packing(seesaw).encode
    explore(seesaw, c0, limits, steps=table)
    # c0's start expanded c0 and c1, and only discovered c2, as c1's successor
    assert table.succs[table[encode(c0)]] == (table[encode(c1)],)
    assert table.succs[table[encode(c1)]] == (table[encode(c2)],) and table.succs[table[encode(c2)]] is None
    got = _class_verdicts(seesaw, starts, limits)
    assert got == _per_start(seesaw, starts, limits)
    assert [oc.describe() for oc in got] == ["Unknown(node budget exceeded (max_nodes=2))", "NoOutput", "NoOutput"]


def _no_output_for_z(*rules):
    return Protocol.make(("p", "q", "r", "z"), rules, ("p", "q"), {"p": 0, "q": 1, "r": 0})


def test_the_sweep_rejects_a_state_without_output_in_a_bottom_component():
    # from p+q on one colour: first a mixed deadlock q+r, then a deadlock z+z
    protocol = _no_output_for_z(Rule(("p", "q"), Guard.EQ, ("r", "q")), Rule(("p", "q"), Guard.EQ, ("z", "z")))
    for run in (lambda: check_well_specification(protocol, 2, 1, LIMITS),
                lambda: classify_output(protocol, Configuration({("p", 0): 1, ("q", 0): 1}), LIMITS)):
        with pytest.raises(UdppError, match="^state 'z' has no output value$"):
            run()
    # a start that cannot reach z settles as usual
    assert check_well_specification(protocol, 1, 1, LIMITS).verdict == "well-specified-up-to-bounds"
    # truncated at p+q, so no bottom component is ever looked at
    assert check_well_specification(protocol, 2, 1, ExplorationLimits(max_depth=0)).verdict == "inconclusive"


def test_the_sweep_accepts_a_state_without_output_seen_only_in_transit():
    # p+p -> z+p -> q+p, a mixed deadlock
    protocol = _no_output_for_z(Rule(("p", "p"), Guard.EQ, ("z", "p")), Rule(("z", "p"), Guard.EQ, ("q", "p")))
    report = check_well_specification(protocol, 2, 1, LIMITS)
    assert report.lines() == [
        "{p:1} Out0", "{q:1} Out1", "{p:1,q:1} NoOutput", "{p:2} NoOutput", "{q:2} Out1", "verdict: not-well-specified"
    ]


def test_sweep_report_lines_shape(seesaw):
    report = check_well_specification(seesaw, 2, 2, LIMITS)
    lines = report.lines()
    assert lines[-1].startswith("verdict: ")
    assert all(" " in line for line in lines[:-1])


def test_random_run_cycles_through_the_seesaw(seesaw, seesaw_runs):
    c0, c1, c2 = seesaw_runs
    trace = random_fair_run(seesaw, c0, seed=5, max_steps=1000)
    assert len(trace) == 1000
    seen = Counter(canonicalize(c) for c in (trace.initial, *(after for _, after in trace.steps)))
    assert set(seen) == {canonicalize(c0), canonicalize(c1), canonicalize(c2)}
    assert seen[canonicalize(c1)] >= 10 and seen[canonicalize(c2)] >= 10


def test_random_run_stops_at_deadlock():
    protocol = Protocol.make(("p",), (), ("p",), {"p": 1})
    trace = random_fair_run(protocol, Configuration({("p", 0): 1}), seed=1, max_steps=50)
    assert len(trace) == 0 and trace.final == Configuration({("p", 0): 1})


def test_random_run_reproducible(seesaw, seesaw_runs):
    a = random_fair_run(seesaw, seesaw_runs[0], seed=42, max_steps=100)
    b = random_fair_run(seesaw, seesaw_runs[0], seed=42, max_steps=100)
    assert a == b


def _picks(trace):
    """Each step as (rule identity, d, e, configuration): equal rules at two
    positions stay apart."""
    return [(id(instance.rule), instance.d, instance.e, config) for instance, config in trace.steps]


def test_lazy_pick_matches_the_list_and_index_scheduler():
    rng = random.Random(131)
    fired_duplicate = fired_self_eq = fired_neq = 0
    for seed in range(1000):
        protocol = random_protocol(rng, max_states=3, max_rules=6)
        start = random_config(rng, protocol.states, max_agents=6, max_colors=3)
        lazy = random_fair_run(protocol, start, seed, 30)
        assert lazy.initial == start
        assert _picks(lazy) == _picks(list_pick_fair_run(protocol, start, seed, 30))
        rules = {instance.rule for instance, _ in lazy.steps}
        fired_duplicate += any(protocol.rules.count(rule) > 1 for rule in rules)
        fired_self_eq += any(r.guard is Guard.EQ and r.pre[0] == r.pre[1] for r in rules)
        fired_neq += any(r.guard is Guard.NEQ for r in rules)
    assert min(fired_duplicate, fired_self_eq, fired_neq) >= 100


def _mixed_protocol(rng: random.Random) -> Protocol:
    """A protocol on up to six states holding at least one EQ rule with
    distinct pre-states, one self-EQ rule, one NEQ rule whose two
    pre-states are equal and one rule twice, at random positions."""
    states = tuple(f"s{i}" for i in range(rng.randint(2, 6)))
    p, p2 = rng.sample(states, 2)
    q = rng.choice(states)
    pres = [((p, p2), Guard.EQ), ((q, q), Guard.EQ), ((rng.choice(states),) * 2, Guard.NEQ)]
    pres += [((rng.choice(states), rng.choice(states)), rng.choice((Guard.EQ, Guard.NEQ))) for _ in range(rng.randint(0, 5))]
    rules = [Rule(pre, guard, (rng.choice(states), rng.choice(states))) for pre, guard in pres]
    rules.append(rng.choice(rules))
    rng.shuffle(rules)
    return Protocol.make(states, rules, states, {state: 0 for state in states})


def test_scheduler_matches_the_full_scan_on_mixed_protocols():
    """The scheduler keeps a rule's rows while the colours at its pre-states
    stay the same; every step must still pick what the full scan picks.
    Counted from the configurations: steps after one that changed the
    active states, steps after one that made a colour appear at or vanish
    from a state but kept the active states, and steps after one that kept
    every state's colours while a rule other than a self-EQ one could
    fire, so the run read its rows from the step before."""
    rng = random.Random(283)
    moved = recoloured = reused = 0
    for seed in range(300):
        protocol = _mixed_protocol(rng)
        start = random_config(rng, protocol.states, max_agents=12, max_colors=5, min_agents=2)
        trace = random_fair_run(protocol, start, seed, 120)
        assert _picks(trace) == _picks(list_pick_fair_run(protocol, start, seed, 120))
        configs = [trace.initial, *(config for _, config in trace.steps)]
        for before, after in zip(configs, configs[1:-1]):
            active = after.active_states()
            if before.active_states() != active:
                moved += 1
            elif {key for key, _ in before.items()} != {key for key, _ in after.items()}:
                recoloured += 1
            elif any(r.pre[0] != r.pre[1] or r.guard is Guard.NEQ for r in protocol.rules_within(active)):
                reused += 1
    assert min(moved, recoloured, reused) >= 100, (moved, recoloured, reused)


def test_negative_step_budgets_are_rejected(seesaw, seesaw_runs):
    with pytest.raises(ValueError, match="max_steps"):
        random_fair_run(seesaw, seesaw_runs[0], seed=0, max_steps=-1)
    assert random_fair_run(seesaw, seesaw_runs[0], seed=0, max_steps=0) == Trace(seesaw_runs[0])


# SHA-256 of format_trace for seeds 0-19 of the compiled count4 witness (k=4),
# 150 steps, recorded from the list-and-index scheduler
COUNT4_RUN_SHA256 = (
    "8396d025e229480ab73dfb6fd43726771141e955d7d36b30b52b3adcbf518237",
    "fd28873a10b7421babf4974241c7c71d07382fb2e9b28164412b69e3da3a87df",
    "305c69d04e6ef57ff6bea8962706e18750eea7b09a7bf5e67a3e36f9b67e3e2a",
    "0499ddd158dec9c628e532dc652dcc5f9a4791612dc072ee47937d4d416596d3",
    "ccb993fc9598bf3354f5b5fe57abd9e051f93fb044afd65fa31f0919f09a45c5",
    "c4acd0ddb1f88426edf29fccc9191679728748c41b46ad59348ab17822e3dd61",
    "625c97a8d822919ccb02dd1436bcd6d1587ae71c4915b8965a08b161e102ad11",
    "ffe0b8a71ade6340b0b2a3d02bc2ba3b1de258c47517867ba8764cf361508718",
    "6118858e4a371a6b618219e55142bedfdb02cd79507db2bdaf347f6d628d2c01",
    "e480ef1c10971853a2cd765cbc764f897c488a19bfe04e6f5bf5ffb4dfddbb7e",
    "8801acfc80db2e9eff34c75ff7066c5102e096a60c3484462276d6cdbf9f87c8",
    "97b6bedb19fa21e7a89596487c54398da2414deebea771363e8befd1b22ef22c",
    "55ed131fbabdda0033339ee5bb4846404b4d3f08bf032bb7422443bedfaeddf8",
    "5135014e0ad8ea2d26c6e1dda37a0155fc6793ec4e9c38fadbe8dd0ae05b572e",
    "4d163c16a9e914536d624a25bbfef5ab84e15d04a76e9dd46e6aa499d7224aef",
    "3c7143d7e58c5d26f96d3c845d51a92bd33447b6073e42f8d1f801a3a3476823",
    "0ce1f6102c9530c5634f070f6e51e6b38a4fe5f1599bc058b153621c8f846817",
    "e1d60428e6c09aa2cf313d40fcc33dd626324efa06f60d3bdff821aa8b346b8a",
    "6f1c40bcdec2e030cbd2aa539aefa3ae156d0e3c0f5f3d1cd51c3d0f5cc27a78",
    "73aea469010bf1d19c64893d6e91267e3e8475fb2123c6e7fe4d2a0a8ab1033d",
)


def test_lazy_pick_on_the_count4_witness_is_pinned():
    protocol, witness = compiled_witness("count4.cm", 4)
    for seed, digest in enumerate(COUNT4_RUN_SHA256):
        trace = random_fair_run(protocol, witness, seed, 150)
        assert _picks(trace) == _picks(list_pick_fair_run(protocol, witness, seed, 150))
        text = format_trace(protocol, trace)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, seed


def test_long_run_tail_settles_in_one_bottom_component(seesaw, seesaw_runs):
    c0, _, _ = seesaw_runs
    graph = explore(seesaw, c0, LIMITS)
    components = bottom_sccs(graph)
    trace = random_fair_run(seesaw, c0, seed=9, max_steps=10_000)
    configs = [trace.initial, *(c for _, c in trace.steps)]
    tail = configs[len(configs) // 2 :]
    tail_nodes = {canonicalize(c) for c in tail}
    assert any(tail_nodes <= component for component in components)


def test_fair_runs_agree_with_bottom_components_small_scale():
    rng = random.Random(113)
    agreeing = 0
    while agreeing < 15:
        protocol = random_protocol(rng)
        config = random_config(rng, sorted(protocol.initial), max_agents=3)
        graph = explore(protocol, config, LIMITS)
        if len(graph) > 200:
            continue
        components = bottom_sccs(graph)
        trace = random_fair_run(protocol, config, seed=agreeing, max_steps=4000)
        configs = [trace.initial, *(c for _, c in trace.steps)]
        tail = configs[len(configs) // 2 :] if len(trace) == 4000 else [configs[-1]]
        tail_nodes = {canonicalize(c) for c in tail}
        assert any(tail_nodes <= component for component in components)
        agreeing += 1


def test_path_helpers_realize_concrete_traces(seesaw, seesaw_runs):
    c0, c1, c2 = seesaw_runs
    graph = explore(seesaw, c0, LIMITS)
    end = graph.nodes.index(canonicalize(c2))
    path = _decoded(graph, _path_into(graph, 0, {end}))
    assert path is not None and len(path) == 3
    stem = concretize_path(seesaw, c0, path)
    assert canonicalize(stem.final) == canonicalize(c2)
    loop = _decoded(graph, _path_into(graph, end, (end,)))
    assert loop is not None and loop[0] == loop[-1] == canonicalize(c2)
    cycle = concretize_path(seesaw, stem.final, loop)
    assert canonicalize(cycle.final) == canonicalize(c2)
    with pytest.raises(UdppError, match="start configuration does not match the path's first node"):
        concretize_path(seesaw, c1, path)
    # c2 is two steps from c0, so no edge joins them
    with pytest.raises(UdppError, match="canonical path cannot be realized; graph out of sync"):
        concretize_path(seesaw, c0, [path[0], path[-1]])
