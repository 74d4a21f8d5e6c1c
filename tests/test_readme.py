"""Every command in README's "Command line" block runs and exits 0, and
its ``python`` blocks run, in order, in one namespace."""

import json
import re
import shlex
from pathlib import Path

import pytest

from matchwise.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("matchwise ")]


def test_readme_covers_every_subcommand():
    assert {line.split()[1] for line in readme_commands()} == {
        "bounds", "enumerate", "verify", "circle", "fuzz"}


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command(capsys, line):
    assert main(shlex.split(line)[1:]) == 0
    out = capsys.readouterr().out
    if "--format json" in line:
        json.loads(out)


def test_readme_python_blocks():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:  # a later block may use names an earlier one set
        exec(compile(block, str(README), "exec"), namespace)
