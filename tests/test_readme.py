"""Every `mcf` line of the README's shell blocks runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from mcf.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

COMMANDS = [
    shlex.split(line)[1:]
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    for line in block.splitlines()
    if line.startswith("mcf ")
]


def test_readme_lists_commands():
    assert len(COMMANDS) >= 9


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_readme_command_exits_0(args):
    r = CliRunner().invoke(main, args)
    assert r.exit_code == 0, (r.output, r.exception)
