"""Golden output of the ten commands in README's "Command line" block.

The commands run in order, in one scratch directory holding a copy of
``samples/``, because later commands read the files earlier ones write. Each
command's exit code, stdout bytes and ``--out`` file are compared with the
files in ``tests/golden/`` named after its position.
"""

import io
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from udpp.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

README_COMMANDS = (
    "cm-run samples/count4.cm",
    "compile samples/halt.cm --out halt.pp",
    "simulate samples/seesaw.pp samples/seesaw-init.cfg --seed 7 --steps 10",
    "classify samples/seesaw.pp samples/seesaw-init.cfg",
    "sweep samples/seesaw.pp --max-agents 3 --max-colors 2",
    "witness samples/halt.cm --k 1 --out halt.cfg",
    "replay-sigma samples/halt.cm --k 1",
    "classify halt.pp halt.cfg --certificate sigma --machine samples/halt.cm",
    "replay-sigma samples/count4.cm --out trace.txt",
    "monitors samples/count4.cm trace.txt",
)


def run_readme_commands(workdir: Path) -> list[dict[str, bytes]]:
    """Run every README command in workdir; per command, the golden files'
    contents keyed by suffix: "exit", "stdout" and, with --out, "out"."""
    shutil.copytree(ROOT / "samples", workdir / "samples")
    results = []
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for command in README_COMMANDS:
            argv = command.split()
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(argv)
            files = {"exit": f"{code}\n".encode(), "stdout": out.getvalue().encode("utf-8")}
            if "--out" in argv:
                files["out"] = Path(argv[argv.index("--out") + 1]).read_bytes()
            results.append(files)
    finally:
        os.chdir(here)
    return results


def golden_stem(position: int) -> str:
    return f"{position + 1:02d}-{README_COMMANDS[position].split()[0]}"


@pytest.fixture(scope="module")
def readme_results(tmp_path_factory):
    return run_readme_commands(tmp_path_factory.mktemp("readme"))


@pytest.mark.parametrize("position", range(len(README_COMMANDS)), ids=golden_stem)
def test_readme_command_matches_golden(readme_results, position):
    stem = golden_stem(position)
    expected = {path.suffix[1:]: path.read_bytes() for path in GOLDEN.glob(f"{stem}.*")}
    assert readme_results[position] == expected


def test_readme_commands_are_the_readme_command_line_block():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = tuple(
        line.split("#", 1)[0].strip().removeprefix("udpp ")
        for line in block.splitlines()
        if line.startswith("udpp ")
    )
    assert commands == README_COMMANDS
