import random
import re
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import pytest

from support import (
    apply_color_map,
    compiled_witness,
    full_scan_enabled_instances,
    random_color_bijection,
    random_config,
    random_protocol,
    seesaw_configs,
)
from udpp.core import (
    Configuration,
    Guard,
    NotEnabled,
    Protocol,
    Rule,
    TransitionInstance,
    enabled_instances,
    fire,
    is_initial,
    validate_protocol,
)
from udpp.exploration import random_fair_run

RED, BLUE = 0, 1


def test_singleton():
    one = Configuration({("p", RED): 1})
    assert list(one.items()) == [(("p", RED), 1)] and one.total() == 1


def test_seesaw_start_as_singleton_sum():
    # repeated keys in the input are summed
    c0, _, _ = seesaw_configs()
    agents = [(("p", RED), 1), (("p", RED), 1), (("q", BLUE), 1)]
    assert Configuration(agents) == c0


def test_configuration_rejects_negative_counts():
    with pytest.raises(ValueError):
        Configuration({("p", RED): -1})


def test_configuration_drops_zero_entries():
    assert Configuration({("p", RED): 0}) == Configuration()
    assert list(Configuration({("p", RED): 0}).items()) == []


def test_configuration_structural_equality_and_hash():
    a = Configuration([(("p", RED), 1), (("q", BLUE), 2)])
    b = Configuration({("q", BLUE): 2, ("p", RED): 1})
    assert a == b and hash(a) == hash(b)


def test_active_states_empty():
    assert Configuration().active_states() == frozenset()


def test_active_states_start(seesaw_runs):
    c0, _, c2 = seesaw_runs
    assert c0.active_states() == {"p", "q"}
    assert c2.active_states() == {"q"}


def test_is_initial_seesaw(seesaw, seesaw_runs):
    assert is_initial(seesaw, seesaw_runs[0])


def test_is_initial_empty(seesaw):
    assert is_initial(seesaw, Configuration())


def test_is_initial_excludes_compiled_sink():
    from udpp.counter import CounterMachine, Halt
    from udpp.reduction import compile_machine

    protocol = compile_machine(CounterMachine((Halt(),)))
    assert not is_initial(protocol, Configuration({("sink1@R1", RED): 1}))
    assert is_initial(protocol, Configuration({("R1@R1", RED): 1, ("R2@R2", BLUE): 1}))


def test_enabled_at_start_is_only_the_recruit_rule(seesaw, seesaw_runs):
    c0, _, _ = seesaw_runs
    recruit = seesaw.rules[0]
    assert enabled_instances(seesaw, c0) == [TransitionInstance(recruit, RED, BLUE)]


def test_instance_str_and_repr_are_pinned(seesaw):
    instance = TransitionInstance(seesaw.rules[0], RED, BLUE)
    assert str(instance) == "recruit: (p, q) neq (q, q) @ (0, 1)"
    assert repr(instance) == (
        "TransitionInstance(rule=Rule(pre=('p', 'q'), guard=<Guard.NEQ: 'neq'>, "
        "post=('q', 'q'), label='recruit'), d=0, e=1)"
    )


def test_a_rule_stays_frozen_and_its_label_stays_out_of_equality():
    rule = Rule(("p", "q"), Guard.NEQ, ("q", "q"), "recruit")
    assert rule == Rule(pre=("p", "q"), guard=Guard.NEQ, post=("q", "q"))
    assert hash(rule) == hash(Rule(("p", "q"), Guard.NEQ, ("q", "q"), label="other"))
    assert rule != Rule(("p", "q"), Guard.EQ, ("q", "q"), "recruit")
    renamed = replace(rule, label="renamed")
    assert (renamed.pre, renamed.guard, renamed.post, renamed.label) == (("p", "q"), Guard.NEQ, ("q", "q"), "renamed")
    assert replace(rule, guard=Guard.EQ) == Rule(("p", "q"), Guard.EQ, ("q", "q"))
    with pytest.raises(FrozenInstanceError):
        rule.label = "changed"


def test_enabled_empty_config(seesaw):
    assert enabled_instances(seesaw, Configuration()) == []


def test_enabled_after_first_step(seesaw, seesaw_runs):
    # the two q-agents have different colors, so the eq rule stays disabled
    _, c1, _ = seesaw_runs
    recruit, bounce = seesaw.rules
    instances = enabled_instances(seesaw, c1)
    assert all(inst.rule == recruit for inst in instances)
    assert instances == [TransitionInstance(recruit, RED, BLUE)]


def test_enabled_instances_ordering_is_rule_then_colors():
    first = Rule(("a", "a"), Guard.NEQ, ("a", "a"), label="first")
    second = Rule(("a", "a"), Guard.EQ, ("a", "a"), label="second")
    protocol = Protocol.make(("a",), (first, second), ("a",), {"a": 0})
    config = Configuration({("a", 0): 2, ("a", 1): 1, ("a", 2): 1})
    got = [(inst.rule.label, inst.d, inst.e) for inst in enabled_instances(protocol, config)]
    neq_pairs = [(d, e) for d in (0, 1, 2) for e in (0, 1, 2) if d != e]
    assert got == [("first", d, e) for d, e in neq_pairs] + [("second", 0, 0)]


def _witness_run_configs(sample, k, seeds, steps):
    """The compiled protocol of a sample machine and every configuration of
    seeded random runs from its witness."""
    protocol, witness = compiled_witness(sample, k)
    traces = [random_fair_run(protocol, witness, seed, steps) for seed in seeds]
    configs = [config for trace in traces for config in (trace.initial, *(c for _, c in trace.steps))]
    return protocol, configs


def test_enabled_instances_match_the_full_scan_oracle():
    rng = random.Random(43)
    cases = []
    for _ in range(2000):
        protocol = random_protocol(rng, max_states=3, max_rules=6)
        cases.append((protocol, random_config(rng, protocol.states, max_agents=6, max_colors=3)))
    for sample, k, rules in (("count4.cm", 4, 877), ("halt.cm", 2, 654)):
        protocol, configs = _witness_run_configs(sample, k, range(3), 100)
        assert len(protocol.rules) == rules
        cases.extend((protocol, config) for config in configs)
    found = 0
    for protocol, config in cases:
        got = enabled_instances(protocol, config)
        want = full_scan_enabled_instances(protocol, config)
        # rule identity, not rule equality: equal rules at two positions must keep their order
        assert [(id(i.rule), i.d, i.e) for i in got] == [(id(i.rule), i.d, i.e) for i in want]
        found += len(got)
    assert found >= 40_000


def test_rules_within_is_the_full_scan_in_position_order():
    rng = random.Random(61)
    for _ in range(400):
        protocol = random_protocol(rng, max_states=4, max_rules=6)
        rules = list(protocol.rules)
        for rule in rng.sample(rules, min(2, len(rules))):  # equal rules at two positions
            rules.insert(rng.randint(0, len(rules)), Rule(rule.pre, rule.guard, rule.post))
        protocol = Protocol.make(protocol.states, rules, protocol.initial, protocol.output)
        copies = [Rule(r.pre, r.guard, r.post) for r in rules]
        twin = Protocol.make(protocol.states, copies, protocol.initial, protocol.output)
        assert twin == protocol
        for _ in range(6):
            active = frozenset(rng.sample(protocol.states, rng.randint(0, len(protocol.states))))
            for owner in (protocol, twin):
                got = owner.rules_within(active)
                want = [r for r in owner.rules if r.pre[0] in active and r.pre[1] in active]
                # rule identity, not rule equality: the twin's equal rules are other objects
                assert [id(r) for r in got] == [id(r) for r in want]
                assert owner.rules_within(frozenset(sorted(active))) is got


def test_self_pair_needs_two_agents():
    rule = Rule(("q", "q"), Guard.EQ, ("p", "q"))
    protocol = Protocol.make(("p", "q"), (rule,), ("q",), {"p": 0, "q": 1})
    assert enabled_instances(protocol, Configuration({("q", RED): 1})) == []
    two = Configuration({("q", RED): 2})
    assert enabled_instances(protocol, two) == [TransitionInstance(rule, RED, RED)]


def test_fire_matches_hand_steps(seesaw, seesaw_runs):
    c0, c1, c2 = seesaw_runs
    recruit, bounce = seesaw.rules
    assert fire(seesaw, c0, TransitionInstance(recruit, RED, BLUE)) == c1
    assert fire(seesaw, c1, TransitionInstance(recruit, RED, BLUE)) == c2
    # the eq rule undoes the recruitment
    assert fire(seesaw, c2, TransitionInstance(bounce, RED, RED)) == c1


def test_fire_not_enabled_raises(seesaw, seesaw_runs):
    _, _, c2 = seesaw_runs
    recruit, bounce = seesaw.rules
    for instance, message in (
        (TransitionInstance(recruit, RED, BLUE), "no agent available at (p, 0)"),
        (TransitionInstance(recruit, RED, RED), "colors (0, 0) do not satisfy guard 'neq'"),
        (TransitionInstance(bounce, RED, BLUE), "colors (0, 1) do not satisfy guard 'eq'"),
    ):
        with pytest.raises(NotEnabled, match=re.escape(message)):
            fire(seesaw, c2, instance)


def test_fire_rejects_foreign_rule(seesaw, seesaw_runs):
    c0 = seesaw_runs[0]
    recruit, _ = seesaw.rules
    # recruit's pre-states with other post-states or guard, then unnamed pre-states
    for foreign in (
        Rule(("p", "q"), Guard.NEQ, ("p", "p")),
        Rule(("p", "q"), Guard.EQ, ("q", "q")),
        Rule(("r", "q"), Guard.NEQ, ("q", "q")),
    ):
        with pytest.raises(NotEnabled, match=re.escape(f"not a rule of this protocol: {foreign}")):
            fire(seesaw, c0, TransitionInstance(foreign, RED, BLUE))
    # membership ignores the label, as rule equality does
    relabelled = Rule(recruit.pre, recruit.guard, recruit.post, label="renamed")
    assert fire(seesaw, c0, TransitionInstance(relabelled, RED, BLUE)) == fire(
        seesaw, c0, TransitionInstance(recruit, RED, BLUE)
    )


def _random_fires(rng, total):
    """Yield (protocol, config, instance) for `total` enabled fires."""
    produced = 0
    while produced < total:
        protocol = random_protocol(rng)
        config = random_config(rng, protocol.states, max_agents=4)
        for _ in range(40):
            options = enabled_instances(protocol, config)
            if not options:
                break
            instance = options[rng.randrange(len(options))]
            yield protocol, config, instance
            produced += 1
            if produced == total:
                return
            config = fire(protocol, config, instance)


def test_fire_preserves_total_and_per_color_counts():
    rng = random.Random(23)
    for protocol, config, instance in _random_fires(rng, 1000):
        after = fire(protocol, config, instance)
        assert after.total() == config.total()
        before_colors, after_colors = (
            Counter(color for (_, color), n in c.items() for _ in range(n)) for c in (config, after)
        )
        assert after_colors == before_colors


def test_fire_deterministic():
    rng = random.Random(5)
    for protocol, config, instance in _random_fires(rng, 50):
        assert fire(protocol, config, instance) == fire(protocol, config, instance)


def _assert_as_if_checked(config):
    """config equals the checking constructor's result, item order and
    hash included, and holds only positive counts under (str, int) keys."""
    checked = Configuration(dict(config.items()))
    assert list(config.items()) == list(checked.items())
    assert config == checked and hash(config) == hash(checked)
    for (state, color), count in config.items():
        assert type(state) is str and type(color) is int and count > 0


def test_fire_builds_what_the_checking_constructor_builds(seesaw, seesaw_runs):
    rng = random.Random(47)
    for protocol, config, instance in _random_fires(rng, 2000):
        _assert_as_if_checked(fire(protocol, config, instance))
    for sample, k in (("count4.cm", 4), ("halt.cm", 2)):
        _, configs = _witness_run_configs(sample, k, range(3), 100)
        for config in configs:
            _assert_as_if_checked(config)

    c0, c1, c2 = seesaw_runs
    recruit, bounce = seesaw.rules
    # (q, RED) is new and sorts between (p, RED) and (q, BLUE)
    middle = fire(seesaw, c0, TransitionInstance(recruit, RED, BLUE))
    assert list(middle.items()) == [(("p", RED), 1), (("q", RED), 1), (("q", BLUE), 1)]
    _assert_as_if_checked(middle)
    # the last agent leaves (p, RED)
    emptied = fire(seesaw, c1, TransitionInstance(recruit, RED, BLUE))
    assert emptied == c2 and emptied[("p", RED)] == 0
    _assert_as_if_checked(emptied)
    # bool colours compare equal to 1 and 0; new keys still get int colours
    for config, instance in (
        (Configuration({("p", 1): 1, ("q", 0): 1}), TransitionInstance(recruit, True, False)),
        (Configuration({("q", 1): 2}), TransitionInstance(bounce, True, True)),
    ):
        after = fire(seesaw, config, instance)
        _assert_as_if_checked(after)
        assert after.total() == config.total()


def test_color_permutation_equivariance():
    rng = random.Random(37)
    for _ in range(120):
        protocol = random_protocol(rng)
        config = random_config(rng, protocol.states, max_agents=4)
        mapping = random_color_bijection(rng, (color for (_, color), _ in config.items()))
        permuted = apply_color_map(config, mapping)
        direct = enabled_instances(protocol, permuted)
        lifted = [
            TransitionInstance(inst.rule, mapping[inst.d], mapping[inst.e])
            for inst in enabled_instances(protocol, config)
        ]
        assert set(direct) == set(lifted)
        for inst in enabled_instances(protocol, config):
            image = TransitionInstance(inst.rule, mapping[inst.d], mapping[inst.e])
            assert apply_color_map(fire(protocol, config, inst), mapping) == fire(
                protocol, permuted, image
            )


def test_enabling_monotone_under_addition():
    rng = random.Random(41)
    for _ in range(100):
        protocol = random_protocol(rng)
        config = random_config(rng, protocol.states, max_agents=3)
        extra = random_config(rng, protocol.states, max_agents=3)
        bigger = Configuration([*config.items(), *extra.items()])
        smaller = set(enabled_instances(protocol, config))
        assert smaller <= set(enabled_instances(protocol, bigger))


def test_validate_seesaw_ok(seesaw):
    assert validate_protocol(seesaw) == []


def test_validate_reports_undeclared_rule_state():
    bad = Protocol.make(
        ("p",),
        (Rule(("p", "z"), Guard.EQ, ("p", "p")),),
        ("p",),
        {"p": 0},
    )
    problems = validate_protocol(bad)
    assert len(problems) == 1 and "'z'" in problems[0]


def test_validate_messages_and_their_order_are_pinned():
    # recorded from a validate_protocol that scanned every rule state
    bad = Protocol.make(
        ("p", "q", "p", "r"),
        (
            Rule(("p", "q"), Guard.NEQ, ("q", "q")),
            Rule(("z", "p"), Guard.EQ, ("p", "y")),
            Rule(("q", "q"), Guard.EQ, ("p", "q")),
            Rule(("y", "y"), Guard.NEQ, ("x", "p")),
        ),
        ("p", "w"),
        {"p": 0, "q": 2, "v": 1},
    )
    assert validate_protocol(bad) == [
        "duplicate state 'p'",
        "initial state 'w' is not declared",
        "state 'r' has no output value",
        "output assigned to undeclared state 'v'",
        "output of 'q' is 2, expected 0 or 1",
        "rule 1 references undeclared state 'z'",
        "rule 1 references undeclared state 'y'",
        "rule 3 references undeclared state 'y'",
        "rule 3 references undeclared state 'y'",
        "rule 3 references undeclared state 'x'",
    ]


def test_validate_reports_duplicates_and_partial_output():
    bad = Protocol.make(("p", "p"), (), ("p",), {})
    problems = validate_protocol(bad)
    assert any("duplicate" in p for p in problems)
    assert any("no output" in p for p in problems)


def test_validate_reports_undeclared_initial_and_output_states():
    assert validate_protocol(Protocol.make(("p",), (), ("p", "z"), {"p": 0})) == [
        "initial state 'z' is not declared"
    ]
    assert validate_protocol(Protocol.make(("p",), (), ("p",), {"p": 0, "z": 1})) == [
        "output assigned to undeclared state 'z'"
    ]


def test_validate_reports_bad_output_value():
    bad = Protocol.make(("p",), (), ("p",), {"p": 2})
    assert any("expected 0 or 1" in p for p in validate_protocol(bad))
