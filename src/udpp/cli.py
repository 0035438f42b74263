"""Command line front end.

Exit codes are the machine-readable verdict channel:

    0  success / both-consensus verdicts (Out0, Out1) / sweep fully classified
    1  parse or validation failure
    2  machine still running (cm-run), or did not halt within the budget
    3  NoOutput verdict / sweep found a witness / monitors flagged a trace
    4  Unknown verdict / sweep inconclusive / certificate inconclusive
    5  configuration is not initial for the protocol

All randomness sits behind --seed (default 0), so identical invocations
produce identical bytes.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from collections import Counter
from pathlib import Path

from . import formats, reduction
from .core import Protocol, UdppError, is_initial, validate_protocol
from .counter import cm_run
from .exploration import (
    ExplorationLimits,
    Verdict,
    VERDICT_BOUNDED_OK,
    VERDICT_INCONCLUSIVE,
    VERDICT_WITNESS,
    check_well_specification,
    classify_graph,
    concretize_path,
    cycle_through,
    explore,
    opinions,
    random_fair_run,
    shortest_path,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RUNNING = 2
EXIT_WITNESS = 3
EXIT_INCONCLUSIVE = 4
EXIT_NOT_INITIAL = 5

MAX_STEPS = 100_000  # default budget of every --max-steps


class _NotInitial(UdppError):
    """The configuration to classify is not initial for the protocol."""


_ERROR_EXIT = {reduction.NotHalting: EXIT_RUNNING, _NotInitial: EXIT_NOT_INITIAL}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"error: {message}\n")


def _int_at_least(low: int):
    """An argparse type for integers of at least low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: '{text}'") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive = _int_at_least(1)
_non_negative = _int_at_least(0)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UdppError(f"{path}: not valid UTF-8 at byte {exc.start}") from None


def _load_protocol(path: str) -> Protocol:
    protocol = formats.parse_protocol(_read(path))
    problems = validate_protocol(protocol)
    if problems:
        raise UdppError(f"{path}: " + "; ".join(problems))
    return protocol


def _load_config(path: str, protocol: Protocol):
    config = formats.parse_configuration(_read(path))
    unknown = sorted(config.active_states() - protocol.state_set)
    if unknown:
        raise UdppError(f"{path}: unknown states {', '.join(unknown)}")
    return config


# Each command returns its exit code and its output text; main writes the text.


def _cmd_cm_run(args) -> tuple[int, str]:
    machine = formats.parse_machine(_read(args.machine))
    result = cm_run(machine, args.max_steps)
    if result.halted:
        return EXIT_OK, f"halted after {result.steps} steps\n"
    return EXIT_RUNNING, f"still running at {result.final}\n"


def _cmd_compile(args) -> tuple[int, str]:
    machine = formats.parse_machine(_read(args.machine))
    return EXIT_OK, formats.format_protocol(reduction.compile_machine(machine))


def _cmd_simulate(args) -> tuple[int, str]:
    protocol = _load_protocol(args.protocol)
    config = _load_config(args.config, protocol)
    trace = random_fair_run(protocol, config, args.seed, args.steps)
    text = formats.format_trace(protocol, trace)
    if len(trace) < args.steps:
        text += f"\n# deadlock after {len(trace)} steps\n"
    else:
        text += f"\n# stopped at the step limit ({args.steps})\n"
    return EXIT_OK, text


_VERDICT_EXIT = {
    Verdict.OUT0: EXIT_OK,
    Verdict.OUT1: EXIT_OK,
    Verdict.NO_OUTPUT: EXIT_WITNESS,
    Verdict.UNKNOWN: EXIT_INCONCLUSIVE,
}
_SWEEP_EXIT = {
    VERDICT_BOUNDED_OK: EXIT_OK,
    VERDICT_WITNESS: EXIT_WITNESS,
    VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


def _no_output_evidence(protocol: Protocol, config, graph, target) -> str:
    if len(opinions(protocol, target)) > 1:
        text = "# evidence: reachable bottom component with mixed opinions\n"
    else:
        text = "# evidence: conflicting stable consensuses are reachable;\n"
        text += "# the trace below leads into an output-0 component\n"
    path = shortest_path(graph, graph.root, target)
    assert path is not None
    stem = concretize_path(protocol, config, path)
    text += "# stem\n" + formats.format_trace(protocol, stem).rstrip("\n") + "\n"
    loop = cycle_through(graph, path[-1])
    if loop is None:
        return text + "# deadlock: the component is a single stuck configuration\n"
    cycle = concretize_path(protocol, stem.final, loop)
    return text + "# cycle\n" + formats.format_trace(protocol, cycle).rstrip("\n") + "\n"


def _cmd_classify(args) -> tuple[int, str]:
    protocol = _load_protocol(args.protocol)
    config = _load_config(args.config, protocol)
    if config.total() == 0:
        raise UdppError("classification needs at least one agent")
    if not is_initial(protocol, config):
        raise _NotInitial("configuration is not initial for this protocol")
    if args.certificate == "sigma":
        if not args.machine:
            raise UdppError("--certificate sigma needs --machine <file>")
        if args.max_nodes is not None or args.max_depth is not None:
            raise UdppError("--certificate sigma takes no --max-nodes or --max-depth")
        machine = formats.parse_machine(_read(args.machine))
        compiled = reduction.compile_machine(machine)
        if not _same_protocol(compiled, protocol):
            raise UdppError("protocol file does not match the compiled machine")
        try:
            trace = reduction._replay(compiled, machine, config)
        except reduction.StuckReplay as exc:
            return EXIT_INCONCLUSIVE, f"Unknown(certificate replay failed: {exc})\n"
        oc = reduction.certificate_verdict(compiled, trace)
        text = oc.describe() + "\n"
        if oc.verdict is Verdict.NO_OUTPUT:
            text += f"# certified by a scripted run of {len(trace)} steps into a deadlock\n"
            text += "# with both opinions still present\n"
        return _VERDICT_EXIT[oc.verdict], text
    if args.machine:
        raise UdppError("--machine needs --certificate sigma")
    limits = ExplorationLimits(max_nodes=args.max_nodes or ExplorationLimits.max_nodes, max_depth=args.max_depth)
    graph = explore(protocol, config, limits)
    oc = classify_graph(protocol, graph)
    text = oc.describe() + "\n"
    if oc.verdict is Verdict.NO_OUTPUT:
        text += _no_output_evidence(protocol, config, graph, oc.component)
    return _VERDICT_EXIT[oc.verdict], text


def _same_protocol(a: Protocol, b: Protocol) -> bool:
    return (
        a.state_set == b.state_set
        and a.initial == b.initial
        and a.output == b.output
        and Counter(a.rules) == Counter(b.rules)
    )


def _cmd_sweep(args) -> tuple[int, str]:
    protocol = _load_protocol(args.protocol)
    limits = ExplorationLimits(max_nodes=args.max_nodes)
    report = check_well_specification(protocol, args.max_agents, args.max_colors, limits)
    return _SWEEP_EXIT[report.verdict], "".join(line + "\n" for line in report.lines())


def _build_witness(args, machine):
    if args.k is not None:
        return reduction.build_witness(machine, args.k)
    return reduction._witness_of_run(cm_run(machine, args.max_steps))


def _cmd_witness(args) -> tuple[int, str]:
    machine = formats.parse_machine(_read(args.machine))
    return EXIT_OK, formats.format_configuration(_build_witness(args, machine)) + "\n"


def _cmd_replay(args) -> tuple[int, str]:
    machine = formats.parse_machine(_read(args.machine))
    protocol = reduction.compile_machine(machine)
    if args.witness:
        config = formats.parse_configuration(_read(args.witness))
    else:
        config = _build_witness(args, machine)
    trace = reduction._replay(protocol, machine, config)
    oc = reduction.certificate_verdict(protocol, trace)
    text = formats.format_trace(protocol, trace)
    text += f"\n# terminal: deadlock after {len(trace)} steps\n"
    text += f"# active opinions at the deadlock: {sorted(opinions(protocol, [trace.final]))}\n"
    text += f"# verdict: {oc.describe()}\n"
    return _VERDICT_EXIT[oc.verdict], text


def _cmd_monitors(args) -> tuple[int, str]:
    machine = formats.parse_machine(_read(args.machine))
    protocol = reduction.compile_machine(machine)
    trace = formats.parse_trace(protocol, _read(args.trace))
    selected = reduction.ALL_MONITORS
    if args.only is not None:
        selected = tuple(name.strip() for name in args.only.split(","))
        unknown = set(selected) - set(reduction.ALL_MONITORS)
        if unknown:
            raise UdppError("unknown monitors: " + ", ".join(f"'{name}'" for name in sorted(unknown)))
    violations = reduction.run_monitors(protocol, trace, selected)
    text = "".join(f"{violation}\n" for violation in violations) + f"{len(violations)} violations\n"
    return EXIT_OK if not violations else EXIT_WITNESS, text


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="udpp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cm-run", help="run a counter machine from (1, 0, 0)")
    p.add_argument("machine")
    p.add_argument("--max-steps", type=_non_negative, default=MAX_STEPS)
    p.set_defaults(func=_cmd_cm_run)

    p = sub.add_parser("compile", help="compile a counter machine into a protocol")
    p.add_argument("machine")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("simulate", help="seeded random fair run")
    p.add_argument("protocol")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=_non_negative, default=100)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("classify", help="stable-consensus verdict for one configuration")
    p.add_argument("protocol")
    p.add_argument("config")
    p.add_argument("--max-nodes", type=_positive, help=f"default: {ExplorationLimits.max_nodes}")
    p.add_argument("--max-depth", type=_non_negative)
    p.add_argument("--certificate", choices=["explore", "sigma"], default="explore")
    p.add_argument("--machine", help="machine file for --certificate sigma")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sweep", help="classify all small initial configurations")
    p.add_argument("protocol")
    p.add_argument("--max-agents", type=_positive, required=True)
    p.add_argument("--max-colors", type=_positive, required=True)
    p.add_argument("--max-nodes", type=_positive, default=ExplorationLimits.max_nodes)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("witness", help="build the halting witness configuration")
    p.add_argument("machine")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--k", type=_positive, help="step bound; default: steps to halt")
    source.add_argument("--max-steps", type=_non_negative, default=MAX_STEPS, help="halting probe budget")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("replay-sigma", help="scripted witness run down to a deadlock")
    p.add_argument("machine")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--k", type=_positive)
    source.add_argument("--max-steps", type=_non_negative, default=MAX_STEPS)
    source.add_argument("--witness", help="start from this configuration file instead of building one")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("monitors", help="run trace discipline monitors")
    p.add_argument("machine")
    p.add_argument("trace")
    p.add_argument("--only", help="comma-separated monitor names")
    p.set_defaults(func=_cmd_monitors)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, text = args.func(args)
        if getattr(args, "out", None):
            Path(args.out).write_text(text, encoding="utf-8")
            return code
        if isinstance(sys.stdout, io.TextIOWrapper):
            sys.stdout.reconfigure(encoding="utf-8")
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early: keep the verdict, let the exit flush hit devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (UdppError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _ERROR_EXIT.get(type(exc), EXIT_INPUT)
    return code


if __name__ == "__main__":
    sys.exit(main())
