"""Every ```python block of README.md runs, so its examples cannot go stale."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# Each block's first line number in README.md and its source.
BLOCKS = {
    TEXT.count("\n", 0, m.start(1)) + 1: m.group(1)
    for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
}


def test_blocks_found():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line", BLOCKS, ids=lambda line: f"README.md:{line}")
def test_python_block_runs(line):
    # Padded so that a traceback names the README's own line numbers.
    exec(compile("\n" * (line - 1) + BLOCKS[line], str(README), "exec"), {})
