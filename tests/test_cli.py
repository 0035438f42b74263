from pathlib import Path

import pytest

from udpp.cli import main
from udpp.formats import parse_configuration, parse_trace
from udpp.reduction import compile_machine
from udpp.counter import CounterMachine, Halt

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
SRC = SAMPLES.parent / "src"

SEESAW_PP = """\
state p
state q
init p
init q
out p 0
out q 1
rule p q neq q q
rule q q eq p q
"""

SEESAW_CFG = "agent p 0 2\nagent q 1 1\n"


@pytest.fixture
def seesaw_files(tmp_path):
    pp = tmp_path / "seesaw.pp"
    cfg = tmp_path / "seesaw.cfg"
    pp.write_text(SEESAW_PP)
    cfg.write_text(SEESAW_CFG)
    return pp, cfg


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cm_run_halts(capsys, tmp_path):
    machine = tmp_path / "m.cm"
    machine.write_text("halt\n")
    code, out, _ = run(capsys, "cm-run", machine)
    assert code == 0 and out == "halted after 0 steps\n"


def test_cm_run_count4(capsys):
    code, out, _ = run(capsys, "cm-run", SAMPLES / "count4.cm")
    assert code == 0 and out == "halted after 4 steps\n"


def test_cm_run_still_running(capsys):
    code, out, _ = run(capsys, "cm-run", SAMPLES / "pump.cm", "--max-steps", 100)
    assert code == 2 and out.startswith("still running at ")


def test_cm_run_parse_error(capsys, tmp_path):
    machine = tmp_path / "bad.cm"
    machine.write_text("jump 3\n")
    code, _, err = run(capsys, "cm-run", machine)
    assert code == 1 and "line 1" in err


def test_unknown_flag_is_an_input_error(capsys):
    code, _, err = run(capsys, "cm-run", SAMPLES / "halt.cm", "--wobble")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "seesaw.pp", "--max-agents", "2", "--max-colors", "0"],
        ["sweep", "seesaw.pp", "--max-colors", "2", "--max-agents", "0"],
        ["classify", "seesaw.pp", "seesaw.cfg", "--max-nodes", "0"],
        ["classify", "seesaw.pp", "seesaw.cfg", "--max-depth", "-1"],
        ["classify", "seesaw.pp", "seesaw.cfg", "--max-nodes", "abc"],
        ["witness", SAMPLES / "halt.cm", "--k", "0"],
        ["replay-sigma", SAMPLES / "halt.cm", "--k", "0"],
        ["simulate", "seesaw.pp", "seesaw.cfg", "--steps", "-1"],
        ["cm-run", SAMPLES / "pump.cm", "--max-steps", "-1"],
        ["witness", SAMPLES / "pump.cm", "--max-steps", "-1"],
    ],
    ids=lambda argv: " ".join([argv[0], *argv[-2:]]),
)
def test_out_of_range_numbers_are_input_errors(capsys, seesaw_files, argv):
    pp, cfg = seesaw_files
    argv = [{"seesaw.pp": pp, "seesaw.cfg": cfg}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [err.splitlines()[-1]]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cm-run", "bad"],
        ["simulate", "bad", "seesaw.cfg"],
        ["classify", "seesaw.pp", "bad"],
        ["monitors", SAMPLES / "halt.cm", "bad"],
    ],
    ids=("machine", "protocol", "config", "trace"),
)
def test_non_utf8_input_is_an_input_error(capsys, seesaw_files, tmp_path, argv):
    pp, cfg = seesaw_files
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xffhalt\n")
    argv = [{"seesaw.pp": pp, "seesaw.cfg": cfg, "bad": bad}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {bad}: not valid UTF-8 at byte 0\n")


def test_classify_seesaw_no_output(capsys, seesaw_files):
    pp, cfg = seesaw_files
    code, out, _ = run(capsys, "classify", pp, cfg)
    assert code == 3
    assert out.splitlines()[0] == "NoOutput"
    assert "# evidence" in out and "# cycle" in out


def test_classify_evidence_trace_is_wellformed(capsys, seesaw_files):
    pp, cfg = seesaw_files
    _, out, _ = run(capsys, "classify", pp, cfg)
    assert "fire r0 0 1" in out  # parsed rules are named by position


SPLIT_PP = """\
state a
state b
state c
init a
out a 0
out b 0
out c 1
rule a a eq b b
rule a a eq c c
"""


def test_classify_conflicting_consensus_evidence(capsys, tmp_path):
    pp = tmp_path / "split.pp"
    cfg = tmp_path / "pair.cfg"
    pp.write_text(SPLIT_PP)
    cfg.write_text("agent a 0 2\n")
    code, out, _ = run(capsys, "classify", pp, cfg)
    assert code == 3
    assert out.splitlines()[0] == "NoOutput"
    assert "conflicting stable consensuses" in out
    assert "# deadlock" in out


def test_classify_consensus_exit_zero(capsys, tmp_path):
    pp = tmp_path / "quiet.pp"
    cfg = tmp_path / "one.cfg"
    pp.write_text("state a\ninit a\nout a 1\n")
    cfg.write_text("agent a 0 1\n")
    code, out, _ = run(capsys, "classify", pp, cfg)
    assert code == 0 and out == "Out1\n"


def test_classify_unknown_when_budget_hit(capsys, seesaw_files):
    pp, cfg = seesaw_files
    code, out, _ = run(capsys, "classify", pp, cfg, "--max-nodes", 1)
    assert code == 4 and out.startswith("Unknown(")


def test_classify_non_initial_exit_five(capsys, tmp_path):
    pp = tmp_path / "two.pp"
    pp.write_text("state a\nstate b\ninit a\nout a 1\nout b 0\n")
    cfg = tmp_path / "b.cfg"
    cfg.write_text("agent b 0 1\n")
    code, _, err = run(capsys, "classify", pp, cfg)
    assert code == 5 and "not initial" in err


def test_classify_rejects_empty_population(capsys, seesaw_files, tmp_path):
    pp, _ = seesaw_files
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("# nobody home\n")
    code, _, err = run(capsys, "classify", pp, cfg)
    assert code == 1 and "at least one agent" in err


def test_classify_unknown_state_in_config(capsys, seesaw_files, tmp_path):
    pp, _ = seesaw_files
    cfg = tmp_path / "alien.cfg"
    cfg.write_text("agent z 0 1\n")
    code, _, err = run(capsys, "classify", pp, cfg)
    assert code == 1 and "unknown states z" in err


def test_sweep_seesaw_witness(capsys, seesaw_files):
    pp, _ = seesaw_files
    code, out, _ = run(capsys, "sweep", pp, "--max-agents", 3, "--max-colors", 2)
    assert code == 3
    assert out.rstrip().splitlines()[-1] == "verdict: not-well-specified"
    assert "{p:2}+{q:1} NoOutput" in out


def test_sweep_trivial_protocol_ok(capsys, tmp_path):
    pp = tmp_path / "quiet.pp"
    pp.write_text("state a\ninit a\nout a 1\n")
    code, out, _ = run(capsys, "sweep", pp, "--max-agents", 2, "--max-colors", 2)
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "verdict: well-specified-up-to-bounds"


GROWER_PP = """\
state a
state b
init a
out a 1
out b 1
rule a a eq a b
rule a b eq a a
"""


def test_sweep_inconclusive_when_budget_hit(capsys, tmp_path):
    pp = tmp_path / "grower.pp"
    pp.write_text(GROWER_PP)
    code, out, _ = run(
        capsys, "sweep", pp, "--max-agents", 3, "--max-colors", 2, "--max-nodes", 1
    )
    assert code == 4
    assert out.rstrip().splitlines()[-1] == "verdict: inconclusive"


def test_simulate_stays_on_the_seesaw_cycle(capsys, seesaw_files):
    pp, cfg = seesaw_files
    code, out, _ = run(capsys, "simulate", pp, cfg, "--seed", 7, "--steps", 10)
    assert code == 0
    assert out.count("fire ") == 10
    assert "# stopped at the step limit (10)" in out


def test_simulate_deterministic(capsys, seesaw_files):
    pp, cfg = seesaw_files
    _, first, _ = run(capsys, "simulate", pp, cfg, "--seed", 7, "--steps", 10)
    _, second, _ = run(capsys, "simulate", pp, cfg, "--seed", 7, "--steps", 10)
    assert first == second


def test_compile_output_parses_back(capsys, tmp_path):
    out_file = tmp_path / "halt.pp"
    code, _, _ = run(capsys, "compile", SAMPLES / "halt.cm", "--out", out_file)
    assert code == 0
    from udpp.formats import parse_protocol

    compiled = parse_protocol(out_file.read_text())
    assert compiled == compile_machine(CounterMachine((Halt(),)))


def test_compile_simulate_monitor_pipeline(capsys, tmp_path):
    # compiled rules carry no labels, so the trace names them r<position>
    pp, cfg = tmp_path / "count4.pp", tmp_path / "count4.cfg"
    trace_file = tmp_path / "count4.trace"
    assert run(capsys, "compile", SAMPLES / "count4.cm", "--out", pp)[0] == 0
    assert run(capsys, "witness", SAMPLES / "count4.cm", "--k", 4, "--out", cfg)[0] == 0
    code, _, _ = run(capsys, "simulate", pp, cfg, "--steps", 150, "--out", trace_file)
    assert code == 0 and "fire r" in trace_file.read_text()
    only = "sink1-removal-discipline,reservoir-no-refill"
    code, out, _ = run(capsys, "monitors", SAMPLES / "count4.cm", trace_file, "--only", only)
    assert code == 0 and out == "0 violations\n"


def test_witness_replay_monitor_pipeline(capsys, tmp_path):
    witness_file = tmp_path / "halt.cfg"
    code, _, _ = run(capsys, "witness", SAMPLES / "halt.cm", "--k", 1, "--out", witness_file)
    assert code == 0
    witness = parse_configuration(witness_file.read_text())
    assert witness.total() == 30

    trace_file = tmp_path / "halt.trace"
    code, _, _ = run(
        capsys,
        "replay-sigma",
        SAMPLES / "halt.cm",
        "--witness",
        witness_file,
        "--out",
        trace_file,
    )
    assert code == 3
    text = trace_file.read_text()
    assert "# terminal: deadlock after" in text
    assert "# active opinions at the deadlock: [0, 1]" in text
    assert "# verdict: NoOutput" in text

    code, out, _ = run(capsys, "monitors", SAMPLES / "halt.cm", trace_file)
    assert code == 0 and out.rstrip().splitlines()[-1] == "0 violations"


@pytest.mark.parametrize(
    "only, error",
    [
        ("bogus", "error: unknown monitors: 'bogus'\n"),
        ("reservoir-no-refill,", "error: unknown monitors: ''\n"),
        ("zeta,reservoir-no-refill,bogus", "error: unknown monitors: 'bogus', 'zeta'\n"),
        ("", "error: unknown monitors: ''\n"),
    ],
    ids=("bogus", "trailing-comma", "two-unknown", "empty"),
)
def test_unknown_monitor_names_are_quoted(capsys, tmp_path, only, error):
    trace_file = tmp_path / "empty.trace"
    trace_file.write_text("")
    code, out, err = run(capsys, "monitors", SAMPLES / "halt.cm", trace_file, "--only", only)
    assert (code, out, err) == (1, "", error)


def test_replay_defaults_to_building_the_witness(capsys, tmp_path):
    out_file = tmp_path / "count4.trace"
    code, _, _ = run(capsys, "replay-sigma", SAMPLES / "count4.cm", "--out", out_file)
    assert code == 3
    protocol = compile_machine(
        parse_machine_text((SAMPLES / "count4.cm").read_text())
    )
    trace = parse_trace(protocol, strip_comments(out_file.read_text()))
    assert len(trace) > 0


def parse_machine_text(text):
    from udpp.formats import parse_machine

    return parse_machine(text)


def strip_comments(text):
    return "\n".join(line for line in text.splitlines() if not line.startswith("#"))


def test_replay_non_halting_machine_exits_two(capsys):
    code, _, err = run(capsys, "replay-sigma", SAMPLES / "pump.cm", "--max-steps", 500)
    assert code == 2 and err == "error: machine did not halt within 500 steps\n"


def test_witness_non_halting_machine_exits_two(capsys):
    code, _, err = run(capsys, "witness", SAMPLES / "pump.cm", "--max-steps", 500)
    assert code == 2 and err == "error: machine did not halt within 500 steps\n"
    code, _, err = run(capsys, "witness", SAMPLES / "pump.cm", "--k", 7)
    assert code == 2 and err == "error: machine did not halt within 7 steps\n"


@pytest.mark.parametrize("k", [(), ("--k", 4)])
def test_witness_runs_the_machine_once(capsys, monkeypatch, tmp_path, k):
    import udpp.counter

    runs = []
    trace = udpp.counter.cm_trace
    monkeypatch.setattr(udpp.counter, "cm_trace", lambda machine: runs.append(machine) or trace(machine))
    code, _, _ = run(capsys, "witness", SAMPLES / "count4.cm", *k, "--out", tmp_path / "w.cfg")
    assert code == 0 and len(runs) == 1


def test_sigma_commands_compile_the_machine_once(capsys, monkeypatch, tmp_path):
    import udpp.reduction

    pp, cfg = tmp_path / "count4.pp", tmp_path / "count4.cfg"
    run(capsys, "compile", SAMPLES / "count4.cm", "--out", pp)
    run(capsys, "witness", SAMPLES / "count4.cm", "--out", cfg)
    compiles = []
    families = udpp.reduction._main_families
    monkeypatch.setattr(
        udpp.reduction, "_main_families", lambda *args: compiles.append(args) or families(*args)
    )
    for argv in (
        ["replay-sigma", SAMPLES / "count4.cm", "--out", tmp_path / "count4.trace"],
        ["classify", pp, cfg, "--certificate", "sigma", "--machine", SAMPLES / "count4.cm"],
    ):
        compiles.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 3 and len(compiles) == 1, argv[0]


def test_classify_by_certificate(capsys, tmp_path):
    pp_file = tmp_path / "halt.pp"
    cfg_file = tmp_path / "halt.cfg"
    run(capsys, "compile", SAMPLES / "halt.cm", "--out", pp_file)
    run(capsys, "witness", SAMPLES / "halt.cm", "--k", 1, "--out", cfg_file)
    code, out, _ = run(
        capsys,
        "classify",
        pp_file,
        cfg_file,
        "--certificate",
        "sigma",
        "--machine",
        SAMPLES / "halt.cm",
    )
    assert code == 3
    assert out.splitlines()[0] == "NoOutput"
    assert "certified by a scripted run" in out


def test_certificate_replay_failure_is_inconclusive(capsys, tmp_path):
    # a two-color start starves the setup chain, so the certificate cannot run
    pp_file = tmp_path / "halt.pp"
    run(capsys, "compile", SAMPLES / "halt.cm", "--out", pp_file)
    cfg_file = tmp_path / "starved.cfg"
    cfg_file.write_text(
        "agent R1@R1 0 9\nagent R2@R2 0 1\nagent R1@R1 1 9\nagent R2@R2 1 1\n"
    )
    code, out, _ = run(
        capsys,
        "classify",
        pp_file,
        cfg_file,
        "--certificate",
        "sigma",
        "--machine",
        SAMPLES / "halt.cm",
    )
    assert code == 4
    assert out.startswith("Unknown(certificate replay failed")


def test_certificate_requires_matching_protocol(capsys, tmp_path):
    # the count4 protocol knows the halt witness's states, but halt.cm compiles to another protocol
    pp_file = tmp_path / "count4.pp"
    run(capsys, "compile", SAMPLES / "count4.cm", "--out", pp_file)
    cfg_file = tmp_path / "halt.cfg"
    run(capsys, "witness", SAMPLES / "halt.cm", "--k", 1, "--out", cfg_file)
    argv = ["classify", pp_file, cfg_file, "--certificate", "sigma"]
    code, out, err = run(capsys, *argv, "--machine", SAMPLES / "halt.cm")
    assert (code, out, err) == (1, "", "error: protocol file does not match the compiled machine\n")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: --certificate sigma needs --machine <file>\n")

    # the compiled halt protocol matches whatever the order of its lines, but repeats count
    run(capsys, "compile", SAMPLES / "halt.cm", "--out", pp_file)
    lines = pp_file.read_text().splitlines()
    states = [line for line in lines if line.startswith("state ")]
    rules = [line for line in lines if line.startswith("rule ")]
    others = [line for line in lines if not line.startswith(("state ", "rule "))]
    argv = ["classify", pp_file, cfg_file, "--certificate", "sigma", "--machine", SAMPLES / "halt.cm"]
    pp_file.write_text("\n".join(states[::-1] + others + rules[::-1]) + "\n")
    code, out, _ = run(capsys, *argv)
    assert code == 3 and out.splitlines()[0] == "NoOutput"
    pp_file.write_text("\n".join(lines + rules[:1]) + "\n")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: protocol file does not match the compiled machine\n")


CLASSIFY_SIGMA = ["classify", "h.pp", "h.cfg", "--certificate", "sigma", "--machine", "halt.cm"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ["replay-sigma", "halt.cm", "--witness", "h.cfg", "--k", "7"],
            "error: argument --k: not allowed with argument --witness",
        ),
        (
            ["replay-sigma", "halt.cm", "--witness", "h.cfg", "--max-steps", "0"],
            "error: argument --max-steps: not allowed with argument --witness",
        ),
        (
            ["replay-sigma", "halt.cm", "--k", "7", "--max-steps", "0"],
            "error: argument --max-steps: not allowed with argument --k",
        ),
        (
            ["witness", "halt.cm", "--k", "1", "--max-steps", "0"],
            "error: argument --max-steps: not allowed with argument --k",
        ),
        (
            [*CLASSIFY_SIGMA, "--max-nodes", "100000"],
            "error: --certificate sigma takes no --max-nodes or --max-depth",
        ),
        (
            [*CLASSIFY_SIGMA, "--max-depth", "0"],
            "error: --certificate sigma takes no --max-nodes or --max-depth",
        ),
    ],
    ids=(
        "replay-witness-k",
        "replay-witness-max-steps",
        "replay-k-max-steps",
        "witness-k-max-steps",
        "classify-sigma-max-nodes",
        "classify-sigma-max-depth",
    ),
)
def test_options_a_command_would_ignore_are_input_errors(capsys, tmp_path, argv, error):
    pp, cfg = tmp_path / "h.pp", tmp_path / "h.cfg"
    run(capsys, "compile", SAMPLES / "halt.cm", "--out", pp)
    run(capsys, "witness", SAMPLES / "halt.cm", "--k", 1, "--out", cfg)
    argv = [{"h.pp": pp, "h.cfg": cfg, "halt.cm": SAMPLES / "halt.cm"}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [error]
    assert err.splitlines()[-1] == error


def test_machine_without_the_sigma_certificate_is_an_input_error(capsys, tmp_path):
    pp = tmp_path / "zero.pp"
    cfg = tmp_path / "pair.cfg"
    pp.write_text("state a\ninit a\nout a 0\n")
    cfg.write_text("agent a 0 2\n")
    code, out, err = run(capsys, "classify", pp, cfg, "--machine", SAMPLES / "halt.cm")
    assert (code, out, err) == (1, "", "error: --machine needs --certificate sigma\n")


HALT_K1_WITNESS = "".join(f"agent R1@R1 {c} 9\n" for c in range(3)) + "".join(
    f"agent R2@R2 {c} 1\n" for c in range(3)
)


@pytest.mark.parametrize(
    "machine, witness, message",
    [
        (
            "halt.cm",
            HALT_K1_WITNESS.replace("agent R2@R2 1 1", "agent R2@R2 1 2"),
            "terminal configuration still enables 2 instance(s), e.g. InputViolation[xbar.=0,ybar.=0]:"
            " (xbar.=0@R2, ybar.=0@R2) eq (sink2@R2, sink2@R2) @ (1, 1)",
        ),
        (
            "halt.cm",
            "agent R1@R1 0 9\nagent R1@R1 1 9\nagent R2@R2 0 4\nagent R2@R2 1 1\n",
            "no sink1 agent available to absorb the R2 reservoir",
        ),
        (
            "count4.cm",
            "agent R1@R1 0 1\n" + "".join(f"agent R2@R2 {c} 1\n" for c in range(6)),
            "scripted step 'Increment[x]:eq@R2R1' with colors (1, 1): no agent available at"
            " (R1@R1, 1) for Increment[x]:eq@R2R1: (xbar.+@R2, R1@R1) eq (xbar.>0@R2, x@R1)",
        ),
    ],
    ids=("repeated-r2-colour", "no-sink1-absorber", "no-agent-for-a-scripted-step"),
)
def test_replay_failures_are_pinned_through_the_cli(capsys, tmp_path, machine, witness, message):
    pp_file = tmp_path / "m.pp"
    run(capsys, "compile", SAMPLES / machine, "--out", pp_file)
    cfg_file = tmp_path / "w.cfg"
    cfg_file.write_text(witness)
    code, out, err = run(capsys, "replay-sigma", SAMPLES / machine, "--witness", cfg_file)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    argv = ["classify", pp_file, cfg_file, "--certificate", "sigma", "--machine", SAMPLES / machine]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (4, f"Unknown(certificate replay failed: {message})\n", "")


def test_replay_of_a_witness_without_an_r2_agent_is_an_input_error(capsys, tmp_path):
    cfg_file = tmp_path / "no-r2.cfg"
    cfg_file.write_text("agent R1@R1 0 9\n")
    code, out, err = run(capsys, "replay-sigma", SAMPLES / "halt.cm", "--witness", cfg_file)
    assert (code, out, err) == (1, "", "error: start configuration is missing a reservoir\n")


def test_protocol_without_an_output_is_an_input_error(capsys, tmp_path, seesaw_files):
    _, cfg = seesaw_files
    pp = tmp_path / "no-out.pp"
    pp.write_text(SEESAW_PP.replace("out q 1\n", ""))
    code, out, err = run(capsys, "classify", pp, cfg)
    assert (code, out, err) == (1, "", f"error: {pp}: state 'q' has no output value\n")


def test_monitors_flag_a_doctored_trace(capsys, tmp_path):
    trace_file = tmp_path / "halt.trace"
    run(capsys, "replay-sigma", SAMPLES / "halt.cm", "--k", 1, "--out", trace_file)
    lines = strip_comments(trace_file.read_text()).splitlines()
    # double one agent count in the final configuration block
    for i in range(len(lines) - 1, -1, -1):
        if lines[i].startswith("agent "):
            parts = lines[i].split()
            parts[3] = str(int(parts[3]) + 1)
            lines[i] = " ".join(parts)
            break
    trace_file.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "monitors", SAMPLES / "halt.cm", trace_file)
    assert code == 3
    assert "does not match" in out


def test_byte_identical_reruns(capsys, seesaw_files):
    pp, cfg = seesaw_files
    for argv in (
        ["classify", pp, cfg],
        ["sweep", pp, "--max-agents", 2, "--max-colors", 2],
        ["simulate", pp, cfg, "--seed", 3, "--steps", 8],
    ):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def test_byte_identical_across_hash_seeds(seesaw_files, tmp_path):
    # string hash randomization must never leak into output ordering
    import subprocess
    import sys

    pp, cfg = seesaw_files
    commands = [
        ["classify", str(pp), str(cfg)],
        ["sweep", str(pp), "--max-agents", "3", "--max-colors", "2"],
        ["compile", str(SAMPLES / "count4.cm")],
        ["replay-sigma", str(SAMPLES / "count4.cm")],
    ]
    for argv in commands:
        outputs = set()
        for hash_seed in ("0", "1", "12345"):
            proc = subprocess.run(
                [sys.executable, "-m", "udpp.cli", *argv],
                capture_output=True,
                env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)},
            )
            assert proc.returncode in (0, 3) and proc.stdout and not proc.stderr, argv
            outputs.add(proc.stdout)
        assert len(outputs) == 1, argv


def test_module_entry_point_exits_with_the_command_status():
    import os
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "udpp.cli", "cm-run", str(SAMPLES / "count4.cm")],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"halted after 4 steps\n", b"")


def test_a_closed_pipe_keeps_the_verdict():
    # the sweep prints 124,120 bytes, more than a pipe buffer holds, so the
    # write is still under way when the reader leaves
    import os
    import subprocess
    import sys

    proc = subprocess.Popen(
        [sys.executable, "-m", "udpp.cli", "sweep", str(SAMPLES / "seesaw.pp"), "--max-agents", "10", "--max-colors", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (3, b"")


@pytest.mark.parametrize("encoding", ["utf-8", "latin-1", "ascii"])
def test_stdout_is_utf8_whatever_the_locale(capsys, tmp_path, encoding):
    import os
    import subprocess
    import sys

    pp = tmp_path / "accent.pp"
    cfg = tmp_path / "accent.cfg"
    pp.write_text(SEESAW_PP.replace("p", "é"), encoding="utf-8")
    cfg.write_text(SEESAW_CFG.replace("p", "é"), encoding="utf-8")
    code, out, _ = run(capsys, "classify", pp, cfg)
    assert code == 3 and "é" in out
    proc = subprocess.run(
        [sys.executable, "-m", "udpp.cli", "classify", str(pp), str(cfg)],
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": encoding, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, out.encode("utf-8"), b"")


def test_sweep_compiled_pump_settles(capsys, tmp_path):
    pp = tmp_path / "pump.pp"
    code, _, _ = run(capsys, "compile", SAMPLES / "pump.cm", "--out", pp)
    assert code == 0
    code, out, _ = run(
        capsys, "sweep", pp, "--max-agents", 3, "--max-colors", 2, "--max-nodes", 100000
    )
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "verdict: well-specified-up-to-bounds"
    assert "NoOutput" not in out and "Unknown" not in out
