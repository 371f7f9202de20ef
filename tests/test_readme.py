"""The README's Python blocks run against the library as it is, so the
documented API cannot drift from the code."""

import re
from pathlib import Path

import pytest

from bsde_lab.generator import GENERATOR_FAMILIES
from bsde_lab.solver import TERMINAL_KINDS

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(heading: str) -> list[str]:
    """The fenced python blocks of the README section under heading, up to
    the next heading of the same or a higher level.  Fenced blocks are
    blanked out while that heading is sought, so a comment line is none."""
    text = README.read_text()
    level = heading.split(" ", 1)[0]
    start = text.index(f"\n{heading}\n")
    prose = re.sub(r"```.*?```", lambda m: " " * len(m.group()), text,
                   flags=re.DOTALL)
    end = re.compile(rf"\n#{{1,{len(level)}}} ").search(prose, start + 1)
    section = text[start:end.start() if end else len(text)]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


@pytest.fixture
def restored_tables():
    """The family and kind tables, as they were before the test."""
    saved = [(table, dict(table)) for table in (GENERATOR_FAMILIES, TERMINAL_KINDS)]
    yield
    for table, entries in saved:
        table.clear()
        table.update(entries)


@pytest.mark.parametrize("heading", ["## Library quickstart",
                                     "### A user-defined driver or terminal"])
def test_every_python_block_of_the_readme_section_runs(heading, restored_tables):
    blocks = _python_blocks(heading)
    assert blocks
    for block in blocks:
        exec(compile(block, f"README.md {heading}", "exec"), {})

