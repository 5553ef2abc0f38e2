"""The README's `boostlab ...` examples must stay commands the CLI accepts.

Each command is pulled out of the README's fenced blocks (with `\\`
continuations joined) and handed to `cli.main`, with the three command
functions replaced by recorders, so nothing is trained or written.
"""

import shlex
from pathlib import Path

import pytest

from boostlab import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    blocks = README.read_text(encoding="utf-8").split("```")[1::2]
    lines = (line for block in blocks for line in block.replace("\\\n", " ").splitlines())
    return [shlex.split(line)[1:] for line in lines if line.strip().startswith("boostlab ")]


COMMANDS = readme_commands()


def test_readme_shows_each_command():
    assert sorted(argv[0] for argv in COMMANDS) == ["compare", "evaluate", "train"]


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_readme_command_is_accepted(monkeypatch, argv):
    calls = []
    for name in ("cmd_train", "cmd_evaluate", "cmd_compare"):
        monkeypatch.setattr(cli, name, lambda args, name=name: calls.append((name, args)) or 0)
    assert cli.main(argv) == 0
    [(called, args)] = calls
    assert called == f"cmd_{argv[0]}"
    if argv[0] != "evaluate":  # its one value is a directory, read when it runs
        cli.build_config(args)  # every value the example sets is in range
