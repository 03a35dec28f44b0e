"""README's examples run as written: its Python blocks, and its CLI lines through ``main``."""

import re
import shlex
from pathlib import Path

from heraldstats import COLUMNS
from heraldstats.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language):
    """The bodies of README's fenced blocks tagged ``language``, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_python_blocks_run():
    sources = blocks("python")
    assert sources
    for source in sources:
        exec(compile(source, "README.md", "exec"), {})


def test_cli_lines_exit_zero(tmp_path, monkeypatch):
    (spec,) = blocks("json")
    (tmp_path / "sweep.json").write_text(spec, encoding="utf-8")
    lines = [line for block in blocks("sh") for line in block.splitlines()
             if line.startswith("heraldstats ")]
    assert {line.split()[1] for line in lines} == {"report", "sweep", "calibrate"}
    monkeypatch.chdir(tmp_path)  # relative output paths land under tmp_path
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
    assert (tmp_path / "grid.csv").read_text().splitlines()[0] == ",".join(COLUMNS)


def test_column_list_matches_export():
    assert f"\n```\n{','.join(COLUMNS)}\n```\n" in README
