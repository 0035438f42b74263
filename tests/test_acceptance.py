"""End-to-end acceptance checks.

Run with `pytest -s tests/test_acceptance.py` to see one verdict line per
criterion. Each check pins its tolerances and runtime budget inline.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from support import (
    apply_color_map,
    bottom_sccs,
    brute_force_bottom_components,
    random_color_bijection,
    random_config,
    random_protocol,
    raw_output_verdict,
    seesaw_configs,
    seesaw_protocol,
)
from udpp.core import (
    Configuration,
    Guard,
    Protocol,
    Rule,
    Trace,
    TransitionInstance,
    enabled_instances,
    fire,
)
from udpp.counter import CounterMachine, Dec, Goto, Halt, Inc
from udpp.exploration import (
    ExplorationLimits,
    Verdict,
    canonicalize,
    check_well_specification,
    classify_output,
    enumerate_initial_configs,
    explore,
    random_fair_run,
)
from udpp.reduction import (
    MONITOR_RESERVOIR,
    MONITOR_SINK1,
    build_witness,
    certificate_verdict,
    compile_machine,
    instr_state,
    main_of,
    replay_halting_run,
    run_monitors,
)

HALT = CounterMachine((Halt(),))
COUNT4 = CounterMachine((Inc("x"), Dec("x", 4), Goto(2), Halt()))
PUMP = CounterMachine((Inc("x"), Goto(1)))


@contextmanager
def criterion(name: str, budget: float | None = None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"
    print(f"[criterion] {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_worked_example_reproduction():
    with criterion("1 worked-example reproduction", budget=1.0):
        protocol = seesaw_protocol()
        c0, c1, c2 = seesaw_configs()
        limits = ExplorationLimits(max_nodes=1000)
        graph = explore(protocol, c0, limits)
        n0, n1, n2 = canonicalize(c0), canonicalize(c1), canonicalize(c2)
        assert set(graph.nodes) == {n0, n1, n2} and len(graph.nodes) == 3
        assert graph.edges == {n0: (n1,), n1: (n2,), n2: (n1,)}
        assert bottom_sccs(graph) == [frozenset({n1, n2})]
        assert classify_output(protocol, c0, limits).verdict is Verdict.NO_OUTPUT
        report = check_well_specification(protocol, 3, 2, limits)
        assert report.verdict == "not-well-specified"


def test_criterion_2_halting_direction():
    for machine, k, halt_index, name in (
        (HALT, 1, 1, "halt"),
        (COUNT4, 4, 4, "count4"),
    ):
        with criterion(f"2 halting direction ({name})", budget=5.0):
            protocol = compile_machine(machine)
            witness = build_witness(machine, k)
            trace = replay_halting_run(machine, witness)
            final = trace.final
            assert enabled_instances(protocol, final) == []
            actives = {main_of(q) for q in final.active_states()}
            assert "R1" in actives
            assert instr_state(halt_index) in actives
            assert {protocol.output[q] for q in final.active_states()} == {0, 1}
            assert certificate_verdict(protocol, trace).verdict is Verdict.NO_OUTPUT


def test_criterion_3_non_halting_direction_bounded():
    with criterion("3 non-halting direction, <=4 agents, <=2 colors", budget=600.0):
        protocol = compile_machine(PUMP)
        limits = ExplorationLimits(max_nodes=100_000)
        checked = 0
        for agents in range(1, 5):
            for canon in enumerate_initial_configs(protocol, agents, 2):
                verdict = classify_output(protocol, canon.representative(), limits).verdict
                assert verdict in (Verdict.OUT0, Verdict.OUT1), str(canon)
                checked += 1
        assert checked > 0


def test_criterion_4_fairness_matches_bottom_components():
    with criterion("4 fair-run tails vs bottom components"):
        rng = random.Random(2024)
        protocols_checked = 0
        small_graphs_checked = 0
        while protocols_checked < 20:
            protocol = random_protocol(rng, max_states=4, max_rules=3)
            start = random_config(rng, sorted(protocol.initial), max_agents=3)
            graph = explore(protocol, start, ExplorationLimits(max_nodes=20_000))
            assert not graph.truncated
            components = bottom_sccs(graph)
            trace = random_fair_run(protocol, start, seed=protocols_checked, max_steps=10_000)
            configs = [trace.initial, *(c for _, c in trace.steps)]
            if len(trace) == 10_000:
                tail = configs[len(configs) // 2 :]
            else:
                tail = [configs[-1]]  # deadlock: the run stutters there forever
            tail_nodes = {canonicalize(c) for c in tail}
            hosts = [comp for comp in components if tail_nodes <= comp]
            assert len(hosts) == 1
            if len(graph) <= 50:
                oracle = brute_force_bottom_components(
                    graph.nodes, lambda v: graph.edges[v]
                )
                assert set(components) == oracle
                small_graphs_checked += 1
            protocols_checked += 1
        assert small_graphs_checked >= 10


def test_criterion_5_semantics_invariants():
    with criterion("5a conservation under 10^4 random fires"):
        rng = random.Random(77)
        fired = 0
        while fired < 10_000:
            protocol = random_protocol(rng)
            config = random_config(rng, protocol.states, max_agents=4)
            for _ in range(50):
                options = enabled_instances(protocol, config)
                if not options:
                    break
                instance = options[rng.randrange(len(options))]
                after = fire(protocol, config, instance)
                assert after.total() == config.total()
                before_colors, after_colors = (
                    Counter(color for (_, color), n in c.items() for _ in range(n))
                    for c in (config, after)
                )
                assert after_colors == before_colors
                config = after
                fired += 1
                if fired == 10_000:
                    break

    with criterion("5b color-permutation equivariance, 500 permutations"):
        rng = random.Random(78)
        for _ in range(500):
            protocol = random_protocol(rng)
            config = random_config(rng, protocol.states, max_agents=4)
            mapping = random_color_bijection(rng, (color for (_, color), _ in config.items()))
            permuted = apply_color_map(config, mapping)
            lifted = {
                TransitionInstance(inst.rule, mapping[inst.d], mapping[inst.e])
                for inst in enabled_instances(protocol, config)
            }
            assert set(enabled_instances(protocol, permuted)) == lifted

    with criterion("5c canonical vs labeled classification, <=4-agent starts"):
        protocol = seesaw_protocol()
        limits = ExplorationLimits(max_nodes=50_000)
        compared = 0
        for agents in range(1, 5):
            for canon in enumerate_initial_configs(protocol, agents, agents):
                start = canon.representative()
                assert classify_output(protocol, start, limits).describe() == raw_output_verdict(
                    protocol, start
                )
                compared += 1
        assert compared > 0


def test_criterion_6_observation_monitors():
    with criterion("6a replay traces pass all monitors"):
        for machine, k in ((HALT, 1), (COUNT4, 4)):
            protocol = compile_machine(machine)
            trace = replay_halting_run(machine, build_witness(machine, k))
            assert run_monitors(protocol, trace) == []

    with criterion("6b 100 seeded random runs keep sink1/reservoir discipline"):
        for machine, k in ((HALT, 1), (COUNT4, 4)):
            protocol = compile_machine(machine)
            witness = build_witness(machine, k)
            for seed in range(50):
                trace = random_fair_run(protocol, witness, seed=seed, max_steps=150)
                violations = run_monitors(
                    protocol, trace, (MONITOR_SINK1, MONITOR_RESERVOIR)
                )
                assert violations == []

    with criterion("6c a forged sink1 removal is flagged"):
        protocol = compile_machine(HALT)
        trace = replay_halting_run(HALT, build_witness(HALT, 1))
        step_index, config = next(
            (i, cfg)
            for i, (_, cfg) in enumerate(trace.steps)
            if any(main_of(q) == "sink1" for q in cfg.active_states())
        )
        state, color = next((q, d) for (q, d), _ in config.items() if main_of(q) == "sink1")
        garbage_state = state.replace("sink1", "garbage")
        forged_rule = Rule(
            (state, garbage_state), Guard.NEQ, (garbage_state, garbage_state), label="forged"
        )
        other = next(d for (_, d), _ in config.items() if d != color)
        counts = dict(config.items())
        counts[(state, color)] -= 1
        counts[(garbage_state, color)] = counts.get((garbage_state, color), 0) + 1
        forged_step = (TransitionInstance(forged_rule, color, other), Configuration(counts))
        corrupted = Trace(trace.initial, trace.steps[: step_index + 1] + (forged_step,))
        violations = run_monitors(protocol, corrupted)
        assert violations and any("sink1" in v for v in violations)


def test_criterion_7_verdicts_are_scoped_and_budgets_are_honest():
    with criterion("7 bounded scope: no guessing at the budget"):
        # all-opinion-1 protocol whose graphs have more than one node, so a
        # one-node budget cannot classify anything beyond single agents
        grower = Protocol.make(
            ("a", "b"),
            (Rule(("a", "a"), Guard.EQ, ("a", "b")), Rule(("a", "b"), Guard.EQ, ("a", "a"))),
            ("a",),
            {"a": 1, "b": 1},
        )
        starved = check_well_specification(grower, 3, 2, ExplorationLimits(max_nodes=1))
        assert starved.verdict == "inconclusive"
        assert all(
            oc.verdict in (Verdict.UNKNOWN, Verdict.OUT1) for _, oc in starved.entries
        )
        unknowns = [oc for _, oc in starved.entries if oc.verdict is Verdict.UNKNOWN]
        assert unknowns and all("budget" in oc.reason for oc in unknowns)
        # a real witness, on the other hand, stays definitive under any budget
        seesaw = seesaw_protocol()
        budgeted = check_well_specification(seesaw, 2, 1, ExplorationLimits(max_nodes=1))
        assert budgeted.verdict == "not-well-specified"
        # with room to explore, the starved protocol settles
        settled = check_well_specification(grower, 3, 2, ExplorationLimits(max_nodes=1000))
        assert settled.verdict == "well-specified-up-to-bounds"
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        assert "inconclusive" in readme
        assert "up to the given agent and color bounds" in readme
        assert "undecidable" in readme
