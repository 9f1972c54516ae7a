"""README's command-line examples must stay valid: every ``dube ...`` line
of its command block, continuation lines joined, parses with the CLI's
own parser, so renaming a flag without updating README fails here."""

import shlex
from pathlib import Path

from dube.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The ``dube`` command lines of README's fenced blocks, one string each."""
    fenced, inside = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            inside = not inside
        elif inside:
            fenced.append(line)
    joined = "\n".join(fenced).replace("\\\n", " ").splitlines()
    return [line for line in joined if line.startswith("dube ")]


def test_readme_lists_every_command():
    commands = readme_commands()
    assert len(commands) == 6
    names = {shlex.split(line)[1] for line in commands}
    assert names == {"bench", "noise-sweep", "param-sweep", "biaslab", "synth"}


def test_readme_commands_parse():
    parser = build_parser()
    for line in readme_commands():
        args = parser.parse_args(shlex.split(line)[1:])  # argparse exits 2 on a bad flag
        assert args.command == shlex.split(line)[1]
