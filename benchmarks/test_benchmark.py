"""Checks of the benchmark itself: its pinned answers, its tracer and its metric list.

Run with the rest of the suite: ``PYTHONPATH=src python -m pytest -q``.
"""

from __future__ import annotations

import importlib.util
import json

import pytest

import run
import tracing
import workloads


def _labelled_oracle():
    """tests/support.py, loaded read-only under its own name."""
    spec = importlib.util.spec_from_file_location(
        "udpp_bench_support", workloads.ROOT / "tests" / "support.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.raw_output_verdict


@pytest.fixture
def u():
    return workloads.loaded_udpp()


@pytest.fixture
def pinned():
    return json.loads(workloads.PINNED.read_text(encoding="utf-8"))


def _sample_protocol(u, name):
    if name.endswith(".cm"):
        machine = u.formats.parse_machine((workloads.SAMPLES / name).read_text(encoding="utf-8"))
        return u.reduction.compile_machine(machine)
    return u.formats.parse_protocol((workloads.SAMPLES / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "sample, agents, colors, starts",
    [("seesaw.pp", 6, 4, 246), ("halt.cm", 4, 3, 50)],
)
def test_sweep_verdicts_agree_with_labelled_exploration(u, sample, agents, colors, starts):
    protocol = _sample_protocol(u, sample)
    oracle = _labelled_oracle()
    report = u.exploration.check_well_specification(
        protocol, agents, colors, u.exploration.ExplorationLimits()
    )
    assert len(report.entries) == starts
    mismatches = [
        str(canon)
        for canon, oc in report.entries
        if oc.describe() != oracle(protocol, canon.representative())
    ]
    assert mismatches == []


def test_every_task_input_has_a_pinned_answer(pinned):
    assert set(pinned) == set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        assert set(pinned[name]) == {str(i) for i in workload.pinned_inputs()}
    assert pinned["classify-count4"]["0"]["nodes"] == 2457
    assert {a["violations"] for a in pinned["simulate-count4"].values()} == {0}


def test_simulate_tasks_match_their_pinned_answers(u, pinned, tmp_path):
    workload = workloads.WORKLOADS["simulate-count4"]
    state = workload.setup(u, tmp_path)
    inputs = workload.inputs(seed=3)
    for _ in range(3):
        task_input = next(inputs)
        assert workload.check(pinned, task_input, workload.task(u, state, task_input))


def test_a_changed_answer_counts_as_wrong(pinned):
    workload = workloads.WORKLOADS["sweep-halt"]
    expected = workload.expected(pinned, 0)
    outcome = workloads.Outcome(expected["exit"], "verdict: not-well-specified\n")
    assert not workload.check(pinned, 0, outcome)


def test_same_seed_same_inputs_and_seeds_differ():
    workload = workloads.WORKLOADS["simulate-count4"]
    first, again, other = (workload.inputs(s) for s in (7, 7, 8))
    a = [next(first) for _ in range(20)]
    assert a == [next(again) for _ in range(20)]
    assert a != [next(other) for _ in range(20)]


def test_tracer_sees_calls_made_through_every_namespace(u):
    originals = {
        (module, attr): getattr(getattr(u, module), attr)
        for module, attr in [("cli", "explore"), ("cli", "check_well_specification"), ("reduction", "fire")]
    }
    argv = ["sweep", str(workloads.SAMPLES / "seesaw.pp"), "--max-agents", "4", "--max-colors", "2"]
    with tracing.Tracer() as tracer:
        tracer.phase = "task"
        workloads.call_cli(u, argv)
    for (module, attr), original in originals.items():
        assert getattr(getattr(u, module), attr) is original
    protocol = _sample_protocol(u, "seesaw.pp")
    limits = u.exploration.ExplorationLimits()
    graphs = [
        u.exploration.explore(protocol, canon.representative(), limits)
        for n in range(1, 5)
        for canon in u.exploration.enumerate_initial_configs(protocol, n, 2)
    ]
    task = tracer.stats["task"]
    assert task.calls["cli.main"] == 1
    assert task.calls["exploration.explore"] == len(graphs)
    assert task.calls_by_parent[("exploration.explore", tracing.SWEEP)] == len(graphs)
    assert task.counts["explore.nodes"] == sum(len(g) for g in graphs)
    assert task.counts["sweep.distinct"] == len({node for g in graphs for node in g.nodes})
    spans = {span["id"]: span for span in tracer.spans}
    sweep = next(s for s in tracer.spans if s["name"] == tracing.SWEEP)
    assert spans[sweep["parent"]]["name"] == "cli.main"


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.PER_LAYER
    ]
