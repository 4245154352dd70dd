"""The code shown in README.md and PAPER.md runs, and prints what it shows.

Every ```python block is executed.  Every ``$ gridcount ...`` line of a
README code block is run through the CLI, and its stdout must equal the
lines shown under it, where a line ``...`` stands for any number of
elided lines.
"""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from gridcount.cli import main

ROOT = Path(__file__).resolve().parent.parent
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)


def blocks(doc: str) -> list[tuple[str, str]]:
    """(language, body) of every fenced code block of doc."""
    return FENCE.findall((ROOT / doc).read_text())


def examples(doc: str) -> list[tuple[str, list[str]]]:
    """(command, the stdout lines shown under it) per ``$ gridcount`` line of doc."""
    found = []
    for _, body in blocks(doc):
        shown = None
        for line in body.splitlines():
            if line.startswith("$ gridcount "):
                shown = []
                found.append((line[2:], shown))
            elif line.startswith("$ "):
                shown = None
            elif shown is not None:
                shown.append(line)
    return found


def shown_pattern(lines: list[str]) -> re.Pattern:
    return re.compile(
        "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in lines)
    )


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_python_blocks_run(doc, capsys):
    code = [body for lang, body in blocks(doc) if lang == "python"]
    assert code, f"{doc} shows no python"
    for source in code:
        exec(compile(source, doc, "exec"), {})
    assert capsys.readouterr().out


README_EXAMPLES = examples("README.md")


def test_readme_has_examples():
    assert README_EXAMPLES


@pytest.mark.parametrize("cmd, shown", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_example_prints_what_it_shows(cmd, shown):
    r = CliRunner().invoke(main, shlex.split(cmd)[1:])
    assert r.exit_code == 0, r.output
    assert shown_pattern(shown).fullmatch(r.stdout), (r.stdout, shown)
