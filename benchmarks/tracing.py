"""Per-layer spans and counts, taken from outside the program.

A :class:`Tracer` replaces each layer function listed in ``LAYERS`` with a
timing wrapper in every loaded ``udpp`` module that binds it, because
``udpp.exploration``, ``udpp.cli`` and ``udpp.reduction`` import
``enabled_instances``, ``fire``, ``explore`` and friends by name.
:meth:`Tracer.uninstall` puts the originals back; timed runs never install it.

Every span knows its parent span, so the same function called by ``explore``,
by ``random_fair_run`` or by the CLI's evidence printer is kept apart. The
three hot leaf functions (``LEAVES``) are tallied per parent span instead of
being stored one record per call, which keeps a traced classify task at about
ten records instead of 120,000. Spans stay in memory; :meth:`write`
dumps them as JSON when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = (
    "core.enabled_instances",
    "core.fire",
    "exploration.canonicalize",
    "exploration.explore",
    "exploration.classify_graph",
    "exploration.enumerate_initial_configs",
    "exploration.check_well_specification",
    "exploration.random_fair_run",
    "exploration.concretize_path",
    "formats.parse_protocol",
    "formats.parse_trace",
    "formats.format_trace",
    "reduction.compile_machine",
    "reduction.build_witness",
    "reduction.run_monitors",
    "cli.main",
)
LEAVES = frozenset({"core.enabled_instances", "core.fire", "exploration.canonicalize"})
SWEEP = "exploration.check_well_specification"
EXPLORE = "exploration.explore"


class Stats:
    """Calls, inclusive and self seconds per layer, plus layer-specific counts."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self.self_seconds: Counter[str] = Counter()
        self.calls_by_parent: Counter[tuple[str, str | None]] = Counter()
        self.counts: Counter[str] = Counter()


class Tracer:
    def __init__(self) -> None:
        self.stats = {"setup": Stats(), "task": Stats()}
        self.phase = "setup"
        self.task: int | None = None
        self.spans: list[dict] = []
        self._origin = perf_counter()
        self._stack: list[list] = []  # open frames: [name, span id, child seconds, leaf tallies]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._sweep_nodes: set = set()

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "udpp" or name.startswith("udpp.")]
        for qualname in LAYERS:
            module_name, func_name = qualname.split(".")
            original = getattr(sys.modules[f"udpp.{module_name}"], func_name)
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        close = self._close
        leaf = name in LEAVES

        def traced(*args, **kwargs):
            frame = [name, None if leaf else self._new_id(), 0.0, None]
            stack.append(frame)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                close(frame, start, end, args, result)

        traced.__wrapped__ = fn
        return traced

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one whole task."""
        frame = [name, self._new_id(), 0.0, None]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self._close(frame, start, end, (), None)

    def _close(self, frame: list, start: float, end: float, args: tuple, result) -> None:
        name, span_id, child_seconds, leaves = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        parent_name = parent[0] if parent else None
        stats = self.stats[self.phase]
        stats.calls[name] += 1
        stats.seconds[name] += duration
        stats.self_seconds[name] += duration - child_seconds
        stats.calls_by_parent[(name, parent_name)] += 1
        if parent is not None:
            parent[2] += duration
        if name in LEAVES:
            if parent is not None:
                if parent[3] is None:
                    parent[3] = {}
                tally = parent[3].setdefault(name, [0, 0.0])
                tally[0] += 1
                tally[1] += duration
            if name == "core.enabled_instances" and result is not None:
                stats.counts["core.enabled_instances.found"] += len(result)
            return
        self.spans.append(
            {
                "id": span_id,
                "parent": parent[1] if parent else None,
                "task": self.task,
                "phase": self.phase,
                "name": name,
                "start": start - self._origin,
                "end": end - self._origin,
                "self_s": duration - child_seconds,
                "leaves": leaves or {},
            }
        )
        if result is not None:
            self._count(stats, name, parent_name, args, result)

    def _count(self, stats: Stats, name: str, parent_name: str | None, args: tuple, result) -> None:
        counts = stats.counts
        if name == EXPLORE:
            counts["explore.nodes"] += len(result)
            counts["explore.edges"] += sum(len(succs) for succs in result.edges.values())
            if parent_name == SWEEP:
                counts["sweep.visited"] += len(result)
                self._sweep_nodes.update(result.nodes)
        elif name == SWEEP:
            counts["sweep.distinct"] += len(self._sweep_nodes)
            self._sweep_nodes.clear()
        elif name == "exploration.enumerate_initial_configs":
            counts["starts"] += len(result)
        elif name == "exploration.random_fair_run":
            counts["random_fair_run.steps"] += len(result)
        elif name == "formats.format_trace":
            counts["format_trace.bytes"] += len(result.encode("utf-8"))
        elif name == "reduction.run_monitors":
            counts["run_monitors.steps"] += len(args[1])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}), encoding="utf-8")


def _calls(layer):
    return lambda task, setup, n: task.calls[layer] / n


def _seconds(layer):
    return lambda task, setup, n: task.seconds[layer] / n


def _self_seconds(layer):
    return lambda task, setup, n: task.self_seconds[layer] / n


def _counted(key):
    return lambda task, setup, n: task.counts[key] / n


def _setup_seconds(layer):
    return lambda task, setup, n: setup.seconds[layer]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _fires_under_explore(task, setup, n):
    return task.calls_by_parent[("core.fire", EXPLORE)] / n


def _edge_yield(task, setup, n):
    return _ratio(task.counts["explore.edges"], task.calls_by_parent[("core.fire", EXPLORE)])


def _node_yield(task, setup, n):
    return _ratio(task.counts["sweep.distinct"], task.counts["sweep.visited"])


# (metric name, unit, better, value from task stats, set-up stats and task count).
# Values are per task, except compile_machine and build_witness, which run
# only while setting up and are per set-up.
PER_LAYER = (
    ("core.enabled_instances.calls", "count", "lower", _calls("core.enabled_instances")),
    ("core.enabled_instances.s", "s", "lower", _seconds("core.enabled_instances")),
    ("core.enabled_instances.found", "count", "lower", _counted("core.enabled_instances.found")),
    ("core.fire.calls", "count", "lower", _calls("core.fire")),
    ("core.fire.s", "s", "lower", _seconds("core.fire")),
    ("exploration.canonicalize.calls", "count", "lower", _calls("exploration.canonicalize")),
    ("exploration.canonicalize.s", "s", "lower", _seconds("exploration.canonicalize")),
    ("exploration.explore.calls", "count", "lower", _calls(EXPLORE)),
    ("exploration.explore.s", "s", "lower", _seconds(EXPLORE)),
    ("exploration.explore.self_s", "s", "lower", _self_seconds(EXPLORE)),
    ("exploration.explore.nodes", "count", "lower", _counted("explore.nodes")),
    ("exploration.explore.edges", "count", "lower", _counted("explore.edges")),
    ("exploration.explore.fires", "count", "lower", _fires_under_explore),
    ("exploration.explore.edge_yield", "ratio", "higher", _edge_yield),
    ("exploration.classify_graph.s", "s", "lower", _seconds("exploration.classify_graph")),
    ("exploration.enumerate_initial_configs.s", "s", "lower", _seconds("exploration.enumerate_initial_configs")),
    ("exploration.enumerate_initial_configs.starts", "count", "lower", _counted("starts")),
    ("exploration.sweep.node_yield", "ratio", "higher", _node_yield),
    ("exploration.random_fair_run.s", "s", "lower", _seconds("exploration.random_fair_run")),
    ("exploration.random_fair_run.steps", "count", "higher", _counted("random_fair_run.steps")),
    ("formats.parse_protocol.s", "s", "lower", _seconds("formats.parse_protocol")),
    ("formats.parse_trace.s", "s", "lower", _seconds("formats.parse_trace")),
    ("formats.format_trace.s", "s", "lower", _seconds("formats.format_trace")),
    ("formats.format_trace.bytes", "bytes", "lower", _counted("format_trace.bytes")),
    ("reduction.run_monitors.s", "s", "lower", _seconds("reduction.run_monitors")),
    ("reduction.run_monitors.steps", "count", "higher", _counted("run_monitors.steps")),
    ("reduction.compile_machine.s", "s", "lower", _setup_seconds("reduction.compile_machine")),
    ("reduction.build_witness.s", "s", "lower", _setup_seconds("reduction.build_witness")),
    ("cli.self_s", "s", "lower", _self_seconds("cli.main")),
    ("trace.task_s", "s", "lower", None),
    ("trace.overhead_frac", "ratio", "lower", None),
)


def layer_metrics(
    tracer: Tracer, traced_walls: list[float], untraced_walls: list[float], scale: float, untraced_scale: float
) -> dict:
    """Every per-layer metric, with seconds multiplied by `scale`, the host-speed
    factor of the traced tasks. The untraced walls are of the same tasks, run
    before tracing at host-speed factor `untraced_scale`."""
    task, setup = tracer.stats["task"], tracer.stats["setup"]
    n = len(traced_walls)
    values = {name: value(task, setup, n) for name, _, _, value in PER_LAYER if value}
    values["trace.task_s"] = sum(traced_walls) / n
    values["trace.overhead_frac"] = (sum(traced_walls) * scale) / (sum(untraced_walls) * untraced_scale) - 1
    return {
        name: {"value": values[name] * scale if unit == "s" else values[name], "unit": unit}
        for name, unit, _, _ in PER_LAYER
    }
