"""Compiling two-counter machines into protocols whose well-specification
tracks the halting problem.

The construction simulates the machine with one control agent walking over
instruction states while two designated shadow agents own the colors that
all agents representing counter x (respectively y) must carry. Zero tests
retire the shadow's color and draw a fresh one from a reservoir of
single-use colors, so cheating leaves a wrongly colored counter agent
behind forever, and dedicated violation rules eventually catch it.

States are strings "main@tag". The tag records which initial state an agent
started in and is never rewritten by any compiled rule. Main-state naming:

    i.3       instruction 3            i'.3      zero-test intermediate
    x, y      counter value holders    xbar.+    shadow of x, command flag +
    setup.x   setup chain              R1, R2    reservoirs (the initial states)
    sink1     drains reservoirs        sink2     broadcast after a violation
    garbage   inert leftovers

Flags on shadows: "+" increment pending, "-" decrement pending, "=0" not
known nonzero, ">0" observed nonzero.
"""

from __future__ import annotations

from .core import (
    Configuration,
    Guard,
    NotEnabled,
    Protocol,
    Rule,
    StateId,
    Trace,
    TransitionInstance,
    UdppError,
    _apply,
    enabled_instances,
    fire,
    is_initial,
)
from .counter import (
    COUNTER_NAMES,
    CmRunResult,
    CounterMachine,
    Dec,
    Goto,
    Halt,
    Inc,
    cm_run,
    cm_trace,
    next_instr,
    resolve_index,
)
from .exploration import OutputClass, Verdict, opinions

TAGS = ("R1", "R2")
FLAG_PLUS, FLAG_MINUS, FLAG_ZERO, FLAG_POS = "+", "-", "=0", ">0"
FLAGS = (FLAG_PLUS, FLAG_MINUS, FLAG_ZERO, FLAG_POS)
RES1, RES2 = "R1", "R2"
SINK1, SINK2, GARBAGE = "sink1", "sink2", "garbage"


class NotHalting(UdppError):
    """The machine did not halt within the requested step budget."""


class StuckReplay(UdppError):
    """A scripted step was not enabled; a compiler or witness bug."""


def instr_state(m: int) -> str:
    return f"i.{m}"


def intermediate_state(m: int) -> str:
    return f"i'.{m}"


def shadow_state(counter: str, flag: str) -> str:
    return f"{counter}bar.{flag}"


def setup_state(counter: str) -> str:
    return f"setup.{counter}"


def tagged(main: str, tag: str) -> StateId:
    return f"{main}@{tag}"


def main_of(state: StateId) -> str:
    return state.rsplit("@", 1)[0]


def is_shadow(main: str) -> bool:
    return main.startswith("xbar.") or main.startswith("ybar.")


def shadow_counter(main: str) -> str:
    return main[0]


def is_instr(main: str) -> bool:
    return main.startswith("i.")


# The guards a main-level family is lifted with; ANY splits it into an eq and a neq rule.
EQ, NEQ, ANY = (Guard.EQ,), (Guard.NEQ,), (Guard.EQ, Guard.NEQ)

# Main-level rule family: (label, (pre, pre'), guards, (post, post')).
_FamilySpec = tuple[str, tuple[str, str], tuple[Guard, ...], tuple[str, str]]


def _main_families(machine: CounterMachine, mains: list[str]) -> list[_FamilySpec]:
    specs: list[_FamilySpec] = []
    for c in COUNTER_NAMES:
        for flag in FLAGS:
            specs.append(
                (f"CounterColorViolation[{c},{flag}]", (shadow_state(c, flag), c), NEQ, (SINK2, SINK2))
            )
    # Two x-shadows can only coexist after a duplicated setup; catching the x
    # pair is enough because a duplicated setup always duplicates x first.
    for f1 in FLAGS:
        for f2 in FLAGS:
            specs.append(
                (
                    f"ControlStateViolation[{f1},{f2}]",
                    (shadow_state("x", f1), shadow_state("x", f2)),
                    ANY,
                    (SINK2, SINK2),
                )
            )
    for res in (RES1, RES2):
        specs.append((f"ConvertToSink1[{res}]", (SINK1, res), ANY, (SINK1, SINK1)))
    for q in mains:
        specs.append((f"ConvertToSink2[{q}]", (SINK2, q), ANY, (SINK2, SINK2)))

    entry = resolve_index(machine, 1)
    specs.append(("Setup1", (RES1, RES2), ANY, (setup_state("x"), SINK1)))
    specs.append(
        ("Setup2", (setup_state("x"), RES2), ANY, (setup_state("y"), shadow_state("x", FLAG_ZERO)))
    )
    specs.append(
        ("Setup3", (setup_state("y"), RES2), ANY, (instr_state(entry), shadow_state("y", FLAG_ZERO)))
    )

    for c in COUNTER_NAMES:
        specs.append(
            (f"Increment[{c}]", (shadow_state(c, FLAG_PLUS), RES1), EQ, (shadow_state(c, FLAG_POS), c))
        )
        specs.append(
            (f"Decrement[{c}]", (shadow_state(c, FLAG_MINUS), c), EQ, (shadow_state(c, FLAG_ZERO), GARBAGE))
        )
        specs.append(
            (f"DetectPositive[{c}]", (shadow_state(c, FLAG_ZERO), c), EQ, (shadow_state(c, FLAG_POS), c))
        )

    for m, ins in enumerate(machine.instrs, 1):
        if isinstance(ins, Inc):
            nxt = next_instr(machine, m)
            for flag in (FLAG_ZERO, FLAG_POS):
                specs.append(
                    (
                        f"Inc[{m},{flag}]",
                        (instr_state(m), shadow_state(ins.counter, flag)),
                        ANY,
                        (instr_state(nxt), shadow_state(ins.counter, FLAG_PLUS)),
                    )
                )
        elif isinstance(ins, Dec):
            nxt = next_instr(machine, m)
            target = resolve_index(machine, ins.target)
            c = ins.counter
            specs.append(
                (
                    f"Dec[{m}]",
                    (instr_state(m), shadow_state(c, FLAG_POS)),
                    ANY,
                    (instr_state(nxt), shadow_state(c, FLAG_MINUS)),
                )
            )
            specs.append(
                (
                    f"ZeroTest1[{m}]",
                    (instr_state(m), shadow_state(c, FLAG_ZERO)),
                    ANY,
                    (intermediate_state(m), GARBAGE),
                )
            )
            specs.append(
                (
                    f"ZeroTest2[{m}]",
                    (intermediate_state(m), RES2),
                    ANY,
                    (instr_state(target), shadow_state(c, FLAG_ZERO)),
                )
            )
        elif isinstance(ins, Halt):
            specs.append(
                (f"CauseDeadlock[{m}]", (instr_state(m), SINK1), ANY, (instr_state(m), GARBAGE))
            )
        # goto instructions compile to nothing; next_instr chases them away
    return specs


def compile_machine(machine: CounterMachine) -> Protocol:
    """Compile a machine into a protocol over tagged states.

    Every main-level family is lifted to all four tag pairs with tags copied
    through unchanged, and "either case" families are split into an eq and a
    neq rule. The one exception: on tag pair (R2, R2) with equal colors the
    input-violation rule replaces whatever the lifting would have produced,
    since two same-colored agents from R2 prove the input was malformed.

    Only the two reservoirs are initial, and only they carry opinion 1.
    """
    mains = _main_states(machine)
    rules: list[Rule] = []
    for p in mains:
        for p2 in mains:
            rules.append(
                Rule(
                    (tagged(p, "R2"), tagged(p2, "R2")),
                    Guard.EQ,
                    (tagged(SINK2, "R2"), tagged(SINK2, "R2")),
                    label=f"InputViolation[{p},{p2}]",
                )
            )
    for label, (pm, pm2), guards, (qm, qm2) in _main_families(machine, mains):
        for guard in guards:
            for t1 in TAGS:
                for t2 in TAGS:
                    if guard is Guard.EQ and t1 == "R2" and t2 == "R2":
                        continue
                    rules.append(
                        Rule(
                            (tagged(pm, t1), tagged(pm2, t2)),
                            guard,
                            (tagged(qm, t1), tagged(qm2, t2)),
                            label=f"{label}:{guard.value}@{t1}{t2}",
                        )
                    )
    states = [tagged(main, tag) for main in mains for tag in TAGS]
    output = {s: 1 if main_of(s) in (RES1, RES2) else 0 for s in states}
    initial = (tagged(RES1, "R1"), tagged(RES2, "R2"))
    return Protocol.make(states, rules, initial, output)


def _main_states(machine: CounterMachine) -> list[str]:
    mains = [instr_state(m) for m in range(1, len(machine.instrs) + 1)]
    mains += [
        intermediate_state(m)
        for m, ins in enumerate(machine.instrs, 1)
        if isinstance(ins, Dec)
    ]
    mains += list(COUNTER_NAMES)
    mains += [shadow_state(c, flag) for c in COUNTER_NAMES for flag in FLAGS]
    mains += [setup_state(c) for c in COUNTER_NAMES]
    mains += [RES1, RES2, SINK1, SINK2, GARBAGE]
    return mains


def build_witness(machine: CounterMachine, k: int) -> Configuration:
    """Initial configuration from which the scripted run reaches a deadlock
    with disagreeing opinions, given that the machine halts within k steps.

    Per color the witness holds 2k+7 agents in reservoir R1 and exactly one
    in R2, so no color repeats inside R2 and every color that ever becomes a
    shadow color has ample same-colored R1 backing for increments. The color
    count is 2k, raised to zero-branches+3 when 2k cannot even cover the
    three setup draws plus one fresh color per zero test (only possible for
    k <= 2).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return _witness_of_run(cm_run(machine, k), k)


def _witness_of_run(run: CmRunResult, k: int | None = None) -> Configuration:
    """The witness for a run from (1, 0, 0) that halts; k defaults to the
    number of steps to halt, at least 1."""
    if not run.halted:
        raise NotHalting(f"machine did not halt within {run.steps} steps")
    if k is None:
        k = max(run.steps, 1)
    colors = max(2 * k, run.zero_branches + 3)
    counts: dict[tuple[StateId, int], int] = {}
    for color in range(colors):
        counts[(tagged(RES1, "R1"), color)] = 2 * k + 7
        counts[(tagged(RES2, "R2"), color)] = 1
    return Configuration(counts)


class _Replayer:
    """Drives one deterministic execution of a compiled protocol."""

    def __init__(self, protocol: Protocol, start: Configuration) -> None:
        self.protocol = protocol
        self.by_label = {rule.label: rule for rule in self.protocol.rules}
        self.current = start
        self.steps: list[tuple[TransitionInstance, Configuration]] = []

    def colors_in(self, state: StateId) -> list[int]:
        return [color for (q, color), _ in self.current.items() if q == state]

    def fire_family(self, family: str, tags: tuple[str, str], d: int, e: int) -> None:
        guard = "eq" if d == e else "neq"
        label = f"{family}:{guard}@{tags[0]}{tags[1]}"
        rule = self.by_label.get(label)
        if rule is None:
            raise StuckReplay(f"compiled protocol has no rule labelled '{label}'")
        instance = TransitionInstance(rule, d, e)
        try:
            after = fire(self.protocol, self.current, instance)
        except NotEnabled as exc:
            raise StuckReplay(f"scripted step '{label}' with colors ({d}, {e}): {exc}") from exc
        self.steps.append((instance, after))
        self.current = after

    def draw_fresh(self) -> int:
        supply = self.colors_in(tagged(RES2, "R2"))
        if not supply:
            raise StuckReplay("fresh-color reservoir R2 is exhausted")
        return supply[0]


def replay_halting_run(machine: CounterMachine, start: Configuration) -> Trace:
    """Scripted execution from a witness configuration down to a deadlock.

    Performs the setup chain, the faithful simulation of the machine until
    its halt instruction, then converts the remaining R2 agents into sink1,
    empties sink1 through the halt control agent, and finally settles any
    still-fireable nonzero detections. The terminal configuration is checked
    to enable nothing; StuckReplay on any deviation.
    """
    return _replay(compile_machine(machine), machine, start)


def _replay(protocol: Protocol, machine: CounterMachine, start: Configuration) -> Trace:
    """replay_halting_run for the protocol already compiled from machine."""
    r = _Replayer(protocol, start)
    if not is_initial(r.protocol, start):
        raise StuckReplay("start configuration occupies non-initial states")

    reservoir = r.colors_in(tagged(RES1, "R1"))
    supply = r.colors_in(tagged(RES2, "R2"))
    if not reservoir or not supply:
        raise StuckReplay("start configuration is missing a reservoir")
    control = reservoir[0]
    r.fire_family("Setup1", ("R1", "R2"), control, supply[0])
    sx = r.draw_fresh()
    r.fire_family("Setup2", ("R1", "R2"), control, sx)
    sy = r.draw_fresh()
    r.fire_family("Setup3", ("R1", "R2"), control, sy)
    shadow_color = {"x": sx, "y": sy}
    shadow_flag = {"x": FLAG_ZERO, "y": FLAG_ZERO}

    # Gotos compile to nothing, so the control agent skips them; the loop
    # ends with `config` at the halt instruction.
    for config, ins in cm_trace(machine):
        if isinstance(ins, (Goto, Halt)):
            continue
        m, c = config.pc, ins.counter
        s = shadow_color[c]
        if isinstance(ins, Inc):
            r.fire_family(f"Inc[{m},{shadow_flag[c]}]", ("R1", "R2"), control, s)
            r.fire_family(f"Increment[{c}]", ("R2", "R1"), s, s)
            shadow_flag[c] = FLAG_POS
        elif config.counter(c) > 0:
            if shadow_flag[c] == FLAG_ZERO:
                r.fire_family(f"DetectPositive[{c}]", ("R2", "R1"), s, s)
                shadow_flag[c] = FLAG_POS
            r.fire_family(f"Dec[{m}]", ("R1", "R2"), control, s)
            r.fire_family(f"Decrement[{c}]", ("R2", "R1"), s, s)
            shadow_flag[c] = FLAG_ZERO
        else:
            if shadow_flag[c] != FLAG_ZERO:
                raise StuckReplay("shadow flag disagrees with the machine's counter")
            r.fire_family(f"ZeroTest1[{m}]", ("R1", "R2"), control, s)
            fresh = r.draw_fresh()
            r.fire_family(f"ZeroTest2[{m}]", ("R1", "R2"), control, fresh)
            shadow_color[c] = fresh

    # Drain R2 so the setup chain can never restart. Every sink1 agent sits
    # on tag R2: the start is initial, and Setup1 and every conversion below
    # put their sink1 agents there. The neq variant needs a sink1 colour other
    # than the target's, which a witness that repeats an R2 colour may lack.
    while remaining := r.colors_in(tagged(RES2, "R2")):
        target = remaining[0]
        absorber = next((d for d in r.colors_in(tagged(SINK1, "R2")) if d != target), None)
        if absorber is None:
            raise StuckReplay("no sink1 agent available to absorb the R2 reservoir")
        r.fire_family(f"ConvertToSink1[{RES2}]", ("R2", "R2"), absorber, target)

    # Empty sink1 through the halted control agent.
    while sinks := r.colors_in(tagged(SINK1, "R2")):
        r.fire_family(f"CauseDeadlock[{config.pc}]", ("R1", "R2"), control, sinks[0])

    # A counter left nonzero with its shadow flag at =0 can still be detected
    # once; settle such detections so that nothing at all remains enabled.
    for c in COUNTER_NAMES:
        if config.counter(c) > 0 and shadow_flag[c] == FLAG_ZERO:
            s = shadow_color[c]
            r.fire_family(f"DetectPositive[{c}]", ("R2", "R1"), s, s)
            shadow_flag[c] = FLAG_POS

    leftovers = enabled_instances(r.protocol, r.current)
    if leftovers:
        raise StuckReplay(
            f"terminal configuration still enables {len(leftovers)} instance(s), e.g. {leftovers[0]}"
        )
    return Trace(start, tuple(r.steps))


def certificate_verdict(protocol: Protocol, trace: Trace) -> OutputClass:
    """Verdict certified by one concrete run.

    A reachable deadlock whose active states carry both opinions pins the
    start configuration to NoOutput: the fair execution that reaches the
    deadlock and stutters there never converges. Anything else certifies
    nothing on its own, so the verdict stays Unknown.
    """
    final = trace.final
    if enabled_instances(protocol, final):
        return OutputClass(Verdict.UNKNOWN, "final configuration is not a deadlock")
    present = opinions(protocol, [final])
    if present == {0, 1}:
        return OutputClass(Verdict.NO_OUTPUT)
    return OutputClass(Verdict.UNKNOWN, f"deadlock is unanimous for {present}")


MONITOR_FRESH = "fresh-shadow-entry"
MONITOR_COUNTER = "counter-color-discipline"
MONITOR_SINK1 = "sink1-removal-discipline"
MONITOR_RESERVOIR = "reservoir-no-refill"
ALL_MONITORS = (MONITOR_FRESH, MONITOR_COUNTER, MONITOR_SINK1, MONITOR_RESERVOIR)


def _family(guard: Guard, pm: str, pm2: str, qm: str, qm2: str) -> str | None:
    """The monitored micro-step a rule over main states performs: "increment",
    "decrement", "sink2-broadcast", "halt-drain", or None for any other."""
    if pm == SINK2 and qm == SINK2 and qm2 == SINK2:
        return "sink2-broadcast"
    if is_instr(pm) and pm == qm and pm2 == SINK1 and qm2 == GARBAGE:
        return "halt-drain"
    if guard is Guard.EQ and pm2 == RES1 and qm2 in COUNTER_NAMES:
        if (pm, qm) == (shadow_state(qm2, FLAG_PLUS), shadow_state(qm2, FLAG_POS)):
            return "increment"
    if guard is Guard.EQ and pm2 in COUNTER_NAMES and qm2 == GARBAGE:
        if (pm, qm) == (shadow_state(pm2, FLAG_MINUS), shadow_state(pm2, FLAG_ZERO)):
            return "decrement"
    return None


def run_monitors(
    protocol: Protocol, trace: Trace, monitors: tuple[str, ...] = ALL_MONITORS
) -> list[str]:
    """Streaming discipline checks over a trace of a compiled protocol.

    Checked per step, one violation string each:

    - every step uses a rule of the protocol, was enabled, and produced the
      recorded configuration (forged steps fail here);
    - fresh-shadow-entry: an agent entering a shadow state comes from R2 and
      its color was never active outside the two reservoirs before;
    - counter-color-discipline: agents enter or leave a counter state only
      via the increment and decrement micro-steps, colored like the current
      shadow of that counter;
    - sink1-removal-discipline: agents leave sink1 only via the sink2
      broadcast or the halt-instruction drain;
    - reservoir-no-refill: no agent ever moves into R1 or R2.

    The last two hold on every real execution from a witness-shaped start,
    one with a single R2 agent per colour as :func:`build_witness` gives:
    tags never change, so no two R2-tagged agents ever share a colour and no
    input-violation rule fires. From other starts a real execution can break
    sink1-removal-discipline: the setup chain can put one of two same-colour
    R2 agents into sink1, and the input-violation rule then fires on it and
    the other, moving it out of sink1. The first two can be triggered by
    legitimate random scheduling (a premature zero branch is a valid fire
    that only later gets caught by the violation rules), so randomized
    testing normally restricts to the last two and to witness-shaped starts.

    The monitors read each step's configuration as recorded, so a forged
    step is judged against the trace it claims, not against a replay.
    """
    violations: list[str] = []
    current = trace.initial
    used_outside: set[int] = set()
    for number, (instance, recorded) in enumerate(trace.steps, 1):
        if MONITOR_FRESH in monitors:
            used_outside |= {
                color for (q, color), _ in current.items() if main_of(q) not in (RES1, RES2)
            }
        rule = instance.rule
        where = f"step {number}"
        if protocol._position_of(rule) is None:
            violations.append(f"{where}: rule is not part of the protocol: {rule}")
        computed = _apply(current, instance)
        if computed is None:
            violations.append(f"{where}: instance was not enabled: {instance}")
        elif computed != recorded:
            violations.append(f"{where}: recorded configuration does not match the fired result")

        pm, pm2, qm, qm2 = (main_of(q) for q in rule.pre + rule.post)
        family = _family(rule.guard, pm, pm2, qm, qm2)
        for pre_main, post_main, color in ((pm, qm, instance.d), (pm2, qm2, instance.e)):
            if MONITOR_FRESH in monitors and is_shadow(post_main) and not is_shadow(pre_main):
                if pre_main != RES2:
                    violations.append(
                        f"{where}: shadow state entered from '{pre_main}' instead of R2"
                    )
                elif color in used_outside:
                    violations.append(
                        f"{where}: shadow state entered with color {color}, already in play"
                    )
            if MONITOR_COUNTER in monitors:
                entering = post_main in COUNTER_NAMES and pre_main != post_main
                leaving = pre_main in COUNTER_NAMES and post_main != pre_main
                if entering or leaving:
                    which = post_main if entering else pre_main
                    if family != ("increment" if entering else "decrement"):
                        violations.append(
                            f"{where}: counter '{which}' agents moved outside the "
                            "increment/decrement micro-steps"
                        )
                    shadow_colors = {
                        col
                        for (q, col), _ in current.items()
                        if is_shadow(main_of(q)) and shadow_counter(main_of(q)) == which
                    }
                    if color not in shadow_colors:
                        violations.append(
                            f"{where}: counter '{which}' moved an agent of color {color}, "
                            f"not the shadow color"
                        )
            if MONITOR_SINK1 in monitors and pre_main == SINK1 and post_main != SINK1:
                if family not in ("sink2-broadcast", "halt-drain"):
                    violations.append(
                        f"{where}: agent removed from sink1 by a rule that may not do so"
                    )
            if MONITOR_RESERVOIR in monitors and post_main in (RES1, RES2) and pre_main != post_main:
                violations.append(f"{where}: reservoir '{post_main}' gained an agent")

        current = recorded
    return violations
