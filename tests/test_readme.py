"""Every `mcf` line of the README's shell blocks runs and exits 0, and the
seeded ones print the same bytes as before."""

import hashlib
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


# SHA-256 of the output of each README command.  pressure and dimension are
# left out: their floats depend on libm and numpy builds.
PINNED = {
    "catalog":
        "bc099aa5cb4cdc67279858a3811a1c6bdfa1753331201eb9b1da00aa52ebe9c9",
    "validate --catalog brun --dim 3":
        "2e14a7f8b88bdf0d33d74c80808b39799318f9fb4241c1ba9af84bc68fece669",
    "criterion --catalog arnoux-rauzy --dim 3":
        "fd33ed9e07538c2b83e7904a72ae27b8874596d217703a41702d1f5f1aacf867",
    "simulate --catalog brun --dim 3 --trials 10000 --n 64 --seed 7":
        "a51a5269709dce92ebf80aa899dfa08a0c856318aa77e87696f46b9c3bb47bc1",
    "walk --catalog gauss --dim 2 --point 355,113 --n 12":
        "049214cf7486953fcb30a7113509b8c22c725a122a2d58c857be81dbdf432764",
    "measure --catalog brun --dim 3 --path 3,1,2,1":
        "78a45b82c1d29237b15d988bd02a90698127d075d38a0a5979351d4bb88f5ee0",
    "conjugacy --catalog cassaigne --dim 3 --trials 100 --n 40 --seed 1":
        "dcd4ec98c4aed8f90ad2737d66ca3b4f96eea2c212983e774724203a5b6d0b10",
}


@pytest.mark.parametrize("command", PINNED)
def test_readme_command_output_is_pinned(command):
    args = shlex.split(command)
    assert args in COMMANDS
    r = CliRunner().invoke(main, args)
    assert r.exit_code == 0, (r.output, r.exception)
    assert hashlib.sha256(r.output.encode()).hexdigest() == PINNED[command]
