"""The Python blocks of ``README.md`` run as written, and its command
lines parse, so the API it shows stays the package's API."""

import re
import shlex
from pathlib import Path

import pytest

from steinlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
COMMANDS, = re.findall(r"Command line:\n\n```\n(.*?)```",
                       README.read_text(), re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block, capsys):
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("line", COMMANDS.splitlines())
def test_readme_command_line_parses(line):
    program, *argv = shlex.split(line)
    assert program == "steinlab"
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"usage error on {line!r}")
