"""The README's CLI block runs as written: every `gqlab` line ends with
the exit code its `# exit N` comment states, or 0 when it states none."""

import re
import shlex
from pathlib import Path

import pytest

from gqlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_lines() -> list:
    """The command lines of the sh block under "## CLI"."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("gqlab ")]


def test_the_cli_block_is_found():
    assert len(_cli_lines()) >= 10  # so the test below is not vacuous


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_cli_line_exits_as_stated(line, tmp_path, monkeypatch, capsys):
    # from a directory of its own: a line may write a file, as --csv does
    monkeypatch.chdir(tmp_path)
    stated = re.search(r"#\s*exit (\d+)", line)
    code = main(shlex.split(line, comments=True)[1:])
    out = capsys.readouterr()
    assert code == (int(stated.group(1)) if stated else 0), (out.out[-400:], out.err)
